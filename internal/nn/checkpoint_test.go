package nn

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func ckptModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(Config{Kind: SAGE, InDim: 4, Hidden: 6, OutDim: 3, Layers: 2, Dropout: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCheckpointV2EmbedsConfig(t *testing.T) {
	m := ckptModel(t)
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cfg, err := readHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cfg != m.Cfg {
		t.Fatalf("embedded config %+v, want %+v", cfg, m.Cfg)
	}
}

func TestLoadModelFromCheckpointAlone(t *testing.T) {
	m := ckptModel(t)
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModelFromCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg != m.Cfg {
		t.Fatalf("reconstructed config %+v, want %+v", m2.Cfg, m.Cfg)
	}
	g := testGraph()
	gc := NewGraphCtx(g)
	x := testInput(7, 4, 11)
	want := m.Forward(gc, x).Clone()
	got := m2.Forward(gc, x)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("reconstructed model differs at %d", i)
		}
	}
}

// TestLoadCheckpointV1Rejected: the config-less v1 layout (a v2 file with
// version 1 and without the 44-byte Config block after the 8-byte header)
// is refused by name on both load paths, not misparsed.
func TestLoadCheckpointV1Rejected(t *testing.T) {
	m := ckptModel(t)
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{}, buf.Bytes()[:4]...)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = append(v1, buf.Bytes()[8+44:]...)
	const want = "unsupported checkpoint version 1"
	if err := m.LoadCheckpoint(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadCheckpoint(v1) = %v, want %q", err, want)
	}
	if _, err := LoadModelFromCheckpoint(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadModelFromCheckpoint(v1) = %v, want %q", err, want)
	}
}

func TestLoadCheckpointConfigMismatch(t *testing.T) {
	m := ckptModel(t)
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := NewModel(Config{Kind: GCN, InDim: 4, Hidden: 6, OutDim: 3, Layers: 2, Seed: 1})
	if err := other.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("kind mismatch must be rejected")
	}
	wider, _ := NewModel(Config{Kind: SAGE, InDim: 4, Hidden: 8, OutDim: 3, Layers: 2, Seed: 1})
	if err := wider.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("hidden-dim mismatch must be rejected")
	}
}

// TestCheckpointTruncatedAndCorrupt feeds every strict prefix of a valid
// checkpoint, plus single-byte corruptions across the header and config
// region, to all three loaders: they must return an error (never panic,
// never spin, never succeed on a strict prefix).
func TestCheckpointTruncatedAndCorrupt(t *testing.T) {
	m := ckptModel(t)
	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	fresh := func() *Model { return ckptModel(t) }
	loaders := map[string]func(data []byte) error{
		"LoadCheckpoint": func(data []byte) error {
			return fresh().LoadCheckpoint(bytes.NewReader(data))
		},
		"LoadModelFromCheckpoint": func(data []byte) error {
			_, err := LoadModelFromCheckpoint(bytes.NewReader(data))
			return err
		},
	}

	// Truncation: every prefix length must error out cleanly.
	for name, load := range loaders {
		for n := 0; n < len(full); n++ {
			if err := load(full[:n]); err == nil {
				t.Fatalf("%s accepted a %d/%d-byte prefix", name, n, len(full))
			}
		}
		if err := load(full); err != nil {
			t.Fatalf("%s rejected the intact checkpoint: %v", name, err)
		}
	}

	// Header/config corruption: flipping any single byte in the structural
	// region (before the float payloads) must be detected. Payload bytes
	// are only checked for non-finite values, so restrict to the front.
	structural := 2*4 + 7*4 + 8 + 8 + 4 // magic+version, config ints, dropout, seed, param count
	for off := 0; off < structural; off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0xff
		if err := fresh().LoadCheckpoint(bytes.NewReader(mut)); err == nil {
			// LoadCheckpoint restores parameters into an existing model, so
			// Heads/NumTypes/Dropout/Seed (bytes 28..51) are genuinely
			// don't-care for it; every other structural byte must trip a
			// check (magic, version, kind, dims, layer and param counts).
			if off < 28 || off >= 52 {
				t.Fatalf("byte %d corruption not detected by LoadCheckpoint", off)
			}
		}
	}

	// Non-finite payload corruption: write a NaN into the first parameter.
	mut := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], 0x7fc00000) // NaN
	if err := fresh().LoadCheckpoint(bytes.NewReader(mut)); err == nil {
		t.Fatal("NaN payload not detected")
	}

	// Unknown version.
	mut = append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(mut[4:8], 99)
	if err := fresh().LoadCheckpoint(bytes.NewReader(mut)); err == nil {
		t.Fatal("unknown version not detected")
	}

	// Reader that errors mid-stream.
	if err := fresh().LoadCheckpoint(io.LimitReader(bytes.NewReader(full), 10)); err == nil {
		t.Fatal("short reader not detected")
	}
}

func TestCopyParamsFrom(t *testing.T) {
	m := ckptModel(t)
	rep := ckptModel(t)
	// disturb the replica so the copy is observable
	rep.Params()[0].Value.Data()[0] = 1234
	if err := rep.CopyParamsFrom(m); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m.Params(), rep.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data() {
			if p1[i].Value.Data()[j] != p2[i].Value.Data()[j] {
				t.Fatalf("param %d differs after copy", i)
			}
		}
	}
	other, _ := NewModel(Config{Kind: SAGE, InDim: 4, Hidden: 8, OutDim: 3, Layers: 2, Seed: 1})
	if err := other.CopyParamsFrom(m); err == nil {
		t.Fatal("architecture mismatch must be rejected")
	}
}
