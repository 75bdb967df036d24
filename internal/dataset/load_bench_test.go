package dataset

import "testing"

// BenchmarkLoad times the end-to-end benchmark's dataset load (AR at scale
// 10: 16 900 vertices, 230 000 edges, 128-wide features; seed 1, homophily
// 0.85, noise 0.8), which its setup_s includes.
func BenchmarkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Load("AR", Options{Scale: 10, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}
