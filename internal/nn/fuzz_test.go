package nn

import (
	"bytes"
	"math"
	"testing"
)

// fuzzModel builds the small fixed-architecture model the fuzz targets
// decode into.
func fuzzModel(tb testing.TB) *Model {
	m, err := NewModel(Config{Kind: GCN, InDim: 3, Hidden: 4, OutDim: 2, Layers: 2, NumTypes: 1, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// FuzzCheckpointLoad hammers every checkpoint decoder (headers, embedded
// configs, parameter records, train states) with mutated bytes:
// any input must either load cleanly or fail with an error — never panic,
// never allocate absurdly, and never leave non-finite values in a model
// it claims to have loaded.
func FuzzCheckpointLoad(f *testing.F) {
	m := fuzzModel(f)
	var ckpt bytes.Buffer
	if err := m.SaveCheckpoint(&ckpt); err != nil {
		f.Fatal(err)
	}
	valid := ckpt.Bytes()

	// Materialize Adam moments so the train-state seed carries them.
	opt := NewAdam(0.01, m.Params())
	for _, p := range opt.Params {
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = 0.1
		}
	}
	opt.Step()
	var ts bytes.Buffer
	if err := m.SaveTrainState(&ts, opt, []uint64{7, 9}); err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(ts.Bytes())
	f.Add([]byte{})
	f.Add(valid[:8])
	f.Add(valid[:len(valid)/2])
	for _, i := range []int{0, 4, 8, 12, 40, len(valid) - 4} {
		if i >= 0 && i < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Self-describing path: reconstructs architecture from the bytes.
		// Mutated configs can carry dims that are individually legal but
		// jointly allocate gigabytes; the decoder is exercised for every
		// input, model construction only for sanely-sized architectures.
		if cfg, err := readHeader(bytes.NewReader(data)); err == nil && modelScalars(cfg) <= 1<<22 {
			if m2, err := LoadModelFromCheckpoint(bytes.NewReader(data)); err == nil {
				for _, p := range m2.Params() {
					for _, v := range p.Value.Data() {
						if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
							t.Fatal("loaded model carries non-finite parameter")
						}
					}
				}
			}
		}
		// Fixed-architecture path (mismatch handling).
		m3 := fuzzModel(t)
		_ = m3.LoadCheckpoint(bytes.NewReader(data))
		// Train-state path (optimizer moments, RNG stream, extra words).
		m4 := fuzzModel(t)
		opt4 := NewAdam(0.01, m4.Params())
		if extra, err := m4.LoadTrainState(bytes.NewReader(data), opt4); err == nil {
			if len(extra) > trainMaxExtra {
				t.Fatalf("extra block of %d words exceeded cap", len(extra))
			}
		}
	})
}

// modelScalars overestimates the scalar parameter count a config implies,
// in float64: the product of five fuzzed dims wraps an int64 (Hidden 3M x
// 48 layers x 48 heads x 12k types read as small and allocated 36 TB).
func modelScalars(cfg Config) float64 {
	width := float64(cfg.InDim) + float64(cfg.Hidden)*float64(cfg.Layers) + float64(cfg.OutDim)
	mult := 1.0
	if cfg.NumTypes > 1 {
		mult = float64(cfg.NumTypes)
	}
	if cfg.Heads > 1 {
		mult *= float64(cfg.Heads)
	}
	// SAGE-LSTM allocates 4 gate matrices per layer; 8 covers every kind.
	return width * (float64(cfg.Hidden) + 1) * mult * 8
}

// FuzzConfigRoundTrip checks that any config block the reader accepts is
// one the writer reproduces byte-for-byte — the decoder and encoder must
// agree on the format or checkpoints written today fail tomorrow.
func FuzzConfigRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := writeConfig(&buf, fuzzModel(f).Cfg); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := readConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeConfig(&out, cfg); err != nil {
			t.Fatalf("accepted config fails to re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("config round trip diverged:\n in %x\nout %x", data[:out.Len()], out.Bytes())
		}
	})
}
