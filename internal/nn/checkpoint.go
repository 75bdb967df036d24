package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"wisegraph/internal/fault"
)

// checkpoint format: magic, version, the model Config, then the parameter
// count and per parameter: name length+bytes, dim count, dims, float32
// payload (all little endian). The Config in the header lets a server
// reconstruct the model from the artifact alone (LoadModelFromCheckpoint).
// Version 1, which carried no Config, is no longer read.
const (
	ckptMagic     = 0x57534721 // "WSG!"
	ckptVersion   = 2
	ckptMaxName   = 1024
	ckptMaxDims   = 8
	ckptMaxDim    = 1 << 28
	ckptMaxParams = 1 << 20
	ckptMaxLayers = 1024
	ckptMaxTypes  = 1 << 20
	ckptMaxHeads  = 1024
)

// SaveCheckpoint writes the model Config and every parameter value to w in
// a compact binary format (format v2). Optimizer state is not saved
// (checkpoints are for inference and warm starts, matching common
// GNN-framework practice).
func (m *Model) SaveCheckpoint(w io.Writer) error {
	if err := fault.CheckErr(fault.SiteCheckpoint); err != nil {
		return fmt.Errorf("nn: checkpoint save: %w", err)
	}
	params := m.Params()
	hdr := []uint32{ckptMagic, ckptVersion}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("nn: writing checkpoint header: %w", err)
	}
	if err := writeConfig(w, m.Cfg); err != nil {
		return fmt.Errorf("nn: writing checkpoint config: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(w, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := w.Write(name); err != nil {
			return err
		}
		shape := p.Value.Shape()
		if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		if err := binary.Write(w, binary.LittleEndian, p.Value.Data()); err != nil {
			return err
		}
	}
	return nil
}

// writeConfig serializes the model Config as fixed-width fields.
func writeConfig(w io.Writer, cfg Config) error {
	fields := []uint32{
		uint32(cfg.Kind), uint32(cfg.InDim), uint32(cfg.Hidden),
		uint32(cfg.OutDim), uint32(cfg.Layers), uint32(cfg.Heads),
		uint32(cfg.NumTypes),
	}
	if err := binary.Write(w, binary.LittleEndian, fields); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, math.Float64bits(cfg.Dropout)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cfg.Seed)
}

// readConfig deserializes and sanity-checks the Config block. The bounds
// reject corrupt headers before they turn into huge allocations.
func readConfig(r io.Reader) (Config, error) {
	var fields [7]uint32
	if err := binary.Read(r, binary.LittleEndian, &fields); err != nil {
		return Config{}, fmt.Errorf("nn: reading checkpoint config: %w", err)
	}
	var dropBits uint64
	if err := binary.Read(r, binary.LittleEndian, &dropBits); err != nil {
		return Config{}, fmt.Errorf("nn: reading checkpoint config: %w", err)
	}
	var seed uint64
	if err := binary.Read(r, binary.LittleEndian, &seed); err != nil {
		return Config{}, fmt.Errorf("nn: reading checkpoint config: %w", err)
	}
	cfg := Config{
		Kind:     ModelKind(fields[0]),
		InDim:    int(fields[1]),
		Hidden:   int(fields[2]),
		OutDim:   int(fields[3]),
		Layers:   int(fields[4]),
		Heads:    int(fields[5]),
		NumTypes: int(fields[6]),
		Dropout:  math.Float64frombits(dropBits),
		Seed:     seed,
	}
	switch {
	case cfg.Kind < 0 || cfg.Kind >= NumModels:
		return Config{}, fmt.Errorf("nn: checkpoint config: unknown model kind %d (corrupt)", fields[0])
	case cfg.InDim < 1 || cfg.InDim > ckptMaxDim,
		cfg.Hidden < 1 || cfg.Hidden > ckptMaxDim,
		cfg.OutDim < 1 || cfg.OutDim > ckptMaxDim:
		return Config{}, fmt.Errorf("nn: checkpoint config: absurd dims %d/%d/%d (corrupt)", cfg.InDim, cfg.Hidden, cfg.OutDim)
	case cfg.Layers < 1 || cfg.Layers > ckptMaxLayers:
		return Config{}, fmt.Errorf("nn: checkpoint config: absurd layer count %d (corrupt)", cfg.Layers)
	case cfg.Heads < 0 || cfg.Heads > ckptMaxHeads:
		return Config{}, fmt.Errorf("nn: checkpoint config: absurd head count %d (corrupt)", cfg.Heads)
	case cfg.NumTypes < 0 || cfg.NumTypes > ckptMaxTypes:
		return Config{}, fmt.Errorf("nn: checkpoint config: absurd type count %d (corrupt)", cfg.NumTypes)
	case math.IsNaN(cfg.Dropout) || cfg.Dropout < 0 || cfg.Dropout >= 1:
		return Config{}, fmt.Errorf("nn: checkpoint config: dropout %v out of [0,1) (corrupt)", cfg.Dropout)
	}
	return cfg, nil
}

// readHeader consumes magic+version and the Config block.
func readHeader(r io.Reader) (Config, error) {
	if err := fault.CheckErr(fault.SiteCheckpoint); err != nil {
		return Config{}, fmt.Errorf("nn: checkpoint load: %w", err)
	}
	var hdr [2]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return Config{}, fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	if hdr[0] != ckptMagic {
		return Config{}, fmt.Errorf("nn: not a checkpoint (magic %#x)", hdr[0])
	}
	if hdr[1] != ckptVersion {
		return Config{}, fmt.Errorf("nn: unsupported checkpoint version %d", hdr[1])
	}
	return readConfig(r)
}

// LoadModelFromCheckpoint reconstructs a model from a checkpoint alone: it
// reads the embedded Config, builds the architecture, and restores the
// parameter values.
func LoadModelFromCheckpoint(r io.Reader) (*Model, error) {
	cfg, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	m, err := NewModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("nn: checkpoint config rejected: %w", err)
	}
	if err := m.loadParams(r); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadCheckpoint restores parameter values from r. The model must have
// the same architecture (parameter order, names and shapes) as the one
// that saved the checkpoint. The embedded config's structural fields are
// checked first so mismatches fail with an architecture-level error
// instead of a parameter-shape one.
func (m *Model) LoadCheckpoint(r io.Reader) error {
	cfg, err := readHeader(r)
	if err != nil {
		return err
	}
	if cfg.Kind != m.Cfg.Kind {
		return fmt.Errorf("nn: checkpoint is a %v model, this model is %v", cfg.Kind, m.Cfg.Kind)
	}
	if cfg.InDim != m.Cfg.InDim || cfg.Hidden != m.Cfg.Hidden ||
		cfg.OutDim != m.Cfg.OutDim || cfg.Layers != m.Cfg.Layers {
		return fmt.Errorf("nn: checkpoint architecture %d-%d-%d x%d vs model %d-%d-%d x%d",
			cfg.InDim, cfg.Hidden, cfg.OutDim, cfg.Layers,
			m.Cfg.InDim, m.Cfg.Hidden, m.Cfg.OutDim, m.Cfg.Layers)
	}
	return m.loadParams(r)
}

// loadParams restores the parameter section (count + per-parameter
// records), validating names, shapes and payload values as it goes.
func (m *Model) loadParams(r io.Reader) error {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: reading checkpoint parameter count: %w", err)
	}
	if count > ckptMaxParams {
		return fmt.Errorf("nn: absurd parameter count %d (corrupt checkpoint)", count)
	}
	params := m.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, model has %d", count, len(params))
	}
	for _, p := range params {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > ckptMaxName {
			return fmt.Errorf("nn: absurd name length %d (corrupt checkpoint)", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: parameter order mismatch: checkpoint %q vs model %q", name, p.Name)
		}
		var dims uint32
		if err := binary.Read(r, binary.LittleEndian, &dims); err != nil {
			return err
		}
		if dims > ckptMaxDims {
			return fmt.Errorf("nn: absurd dim count %d (corrupt checkpoint)", dims)
		}
		if int(dims) != p.Value.Dims() {
			return fmt.Errorf("nn: %s: %d dims vs %d", p.Name, dims, p.Value.Dims())
		}
		for i := 0; i < int(dims); i++ {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != p.Value.Dim(i) {
				return fmt.Errorf("nn: %s: dim %d is %d vs %d", p.Name, i, d, p.Value.Dim(i))
			}
		}
		if err := binary.Read(r, binary.LittleEndian, p.Value.Data()); err != nil {
			return err
		}
		for _, v := range p.Value.Data() {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("nn: %s: non-finite value in checkpoint", p.Name)
			}
		}
	}
	return nil
}
