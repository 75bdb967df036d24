package joint

import (
	"encoding/json"
	"fmt"
	"math"

	"wisegraph/internal/core"
	"wisegraph/internal/kernels"
	"wisegraph/internal/nn"
)

// PlanFile is the serializable form of a tuned execution plan — the
// artifact of one-shot joint optimization that sampled-graph training
// reuses across subgraphs (and across processes).
type PlanFile struct {
	Version        int               `json:"version"`
	Model          string            `json:"model"`
	GraphPlanName  string            `json:"graphPlan"`
	Restrictions   []RestrictionFile `json:"restrictions"`
	Dedup          bool              `json:"dedup"`
	Batched        bool              `json:"batched"`
	Differentiated bool              `json:"differentiated"`
	ModeledSeconds float64           `json:"modeledSeconds"`
}

// RestrictionFile serializes one gTask restriction.
type RestrictionFile struct {
	Attr  string `json:"attr"`
	Kind  string `json:"kind"` // "exact" or "min"
	Limit int    `json:"limit,omitempty"`
}

// MarshalPlan serializes the search result's execution plan.
func (r *Result) MarshalPlan() ([]byte, error) {
	pf := PlanFile{
		Version:        1,
		Model:          r.Kind.String(),
		GraphPlanName:  r.GraphPlan.Name,
		Dedup:          r.OpPlan.Dedup,
		Batched:        r.OpPlan.Batched,
		Differentiated: r.Differentiated,
		ModeledSeconds: r.Seconds,
	}
	// The modeled time is advisory metadata; a plan tuned without a
	// device model carries ±Inf, which JSON cannot represent — drop it
	// rather than fail to serialize an otherwise valid plan.
	if math.IsInf(pf.ModeledSeconds, 0) || math.IsNaN(pf.ModeledSeconds) {
		pf.ModeledSeconds = 0
	}
	for _, restr := range r.GraphPlan.Restrictions {
		rf := RestrictionFile{Attr: restr.Attr.String(), Limit: restr.Limit}
		if restr.Kind == core.Min {
			rf.Kind = "min"
			rf.Limit = 0
		} else {
			rf.Kind = "exact"
		}
		pf.Restrictions = append(pf.Restrictions, rf)
	}
	return json.MarshalIndent(pf, "", "  ")
}

// UnmarshalPlan reconstructs the searched plan (model kind, graph plan,
// operation plan, differentiated flag) from serialized bytes; the search
// statistics of the Result stay zero. It rejects what no search emits: a
// graph plan the model cannot execute (kernels.ValidPlanFor), an exact
// limit below 1, and dedup without batching. The caller checks the kind
// against its model and applies the graph plan with core.PartitionGraph.
func UnmarshalPlan(data []byte) (*Result, error) {
	var pf PlanFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, err
	}
	if pf.Version != 1 {
		return nil, fmt.Errorf("joint: unsupported plan version %d", pf.Version)
	}
	kind, err := nn.ParseModel(pf.Model)
	if err != nil {
		return nil, err
	}
	gp := core.GraphPlan{Name: pf.GraphPlanName}
	for _, rf := range pf.Restrictions {
		attr, err := core.ParseAttr(rf.Attr)
		if err != nil {
			return nil, err
		}
		switch rf.Kind {
		case "exact":
			if rf.Limit < 1 {
				return nil, fmt.Errorf("joint: %s limit %d, want ≥ 1", rf.Attr, rf.Limit)
			}
			gp.Restrictions = append(gp.Restrictions, core.Restriction{Attr: attr, Kind: core.Exact, Limit: rf.Limit})
		case "min":
			gp.Restrictions = append(gp.Restrictions, core.Restriction{Attr: attr, Kind: core.Min})
		default:
			return nil, fmt.Errorf("joint: unknown restriction kind %q", rf.Kind)
		}
	}
	switch {
	case !kernels.ValidPlanFor(kind, gp):
		return nil, fmt.Errorf("joint: graph plan %v cannot execute %v", gp, kind)
	case pf.Dedup && !pf.Batched:
		return nil, fmt.Errorf("joint: dedup without batched is no operation plan")
	}
	return &Result{
		Kind: kind, GraphPlan: gp,
		OpPlan:         kernels.Plan{Dedup: pf.Dedup, Batched: pf.Batched},
		Differentiated: pf.Differentiated,
	}, nil
}
