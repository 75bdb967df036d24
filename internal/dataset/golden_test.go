package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// datasetHash is an FNV-64a over every array a load produces: the features'
// float32 bits, Src, Dst and Type, the labels and the three masks, each
// prefixed by its length.
func datasetHash(ds *Dataset) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	i32s := func(xs []int32) {
		put(uint32(len(xs)))
		for _, x := range xs {
			put(uint32(x))
		}
	}
	feat := ds.Features.Data()
	put(uint32(len(feat)))
	for _, x := range feat {
		put(math.Float32bits(x))
	}
	g := ds.Graph
	for _, xs := range [][]int32{g.Src, g.Dst, g.Type, ds.Labels, ds.TrainMask, ds.ValMask, ds.TestMask} {
		i32s(xs)
	}
	return h.Sum64()
}

// TestLoadGolden holds AR under the end-to-end benchmark's options (seed 1,
// homophily 0.85, noise 0.8) to hashes taken before the features were
// drawn row by row: the benchmark's scale 10 and its smoke scale 100. Any
// change to the synthesis — the generator, the Box–Muller draw order or
// its arithmetic, the split — shows here as a changed hash. The hashes are
// amd64's: there the compiler fuses no multiply-add into package math's Go
// code (at any GOAMD64 level), while arm64, ppc64 and s390x fuse them, and
// their math.Log, math.Cos and math.Pow may round otherwise.
func TestLoadGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes taken on amd64; %s's math may fuse multiply-adds", runtime.GOARCH)
	}
	for _, c := range []struct {
		scale int
		want  uint64
	}{
		{10, 0xd0609dd0e5db5850},
		{100, 0x025e6f07607c56ec},
	} {
		ds, err := Load("AR", Options{Scale: c.scale, Seed: 1, Homophily: 0.85, FeatureNoise: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		if got := datasetHash(ds); got != c.want {
			t.Errorf("AR scale %d: dataset hash %#016x, want %#016x", c.scale, got, c.want)
		}
	}
}
