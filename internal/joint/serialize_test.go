package joint

import (
	"strings"
	"testing"

	"wisegraph/internal/device"
	"wisegraph/internal/nn"
)

func TestPlanSerializationRoundTrip(t *testing.T) {
	g := skewedGraph(12)
	res := Search(g, nn.RGCN, 32, 32, 4, Options{Spec: device.A100()})
	data, err := res.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 1`) {
		t.Fatalf("plan file missing version: %s", data)
	}
	got, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != nn.RGCN {
		t.Fatalf("model %v", got.Kind)
	}
	gp, op, diff := got.GraphPlan, got.OpPlan, got.Differentiated
	if gp.Name != res.GraphPlan.Name || len(gp.Restrictions) != len(res.GraphPlan.Restrictions) {
		t.Fatalf("graph plan mismatch: %v vs %v", gp, res.GraphPlan)
	}
	for i, r := range gp.Restrictions {
		o := res.GraphPlan.Restrictions[i]
		if r.Attr != o.Attr || r.Kind != o.Kind || (r.Kind == 0 && r.Limit != o.Limit) {
			t.Fatalf("restriction %d mismatch: %v vs %v", i, r, o)
		}
	}
	if op != res.OpPlan || diff != res.Differentiated {
		t.Fatalf("op plan mismatch: %v/%v vs %v/%v", op, diff, res.OpPlan, res.Differentiated)
	}
}

func TestUnmarshalPlanRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPlan([]byte("not json")); err == nil {
		t.Fatal("expected JSON error")
	}
	if _, err := UnmarshalPlan([]byte(`{"version":99}`)); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := UnmarshalPlan([]byte(`{"version":1,"model":"bogus"}`)); err == nil {
		t.Fatal("expected model error")
	}
	bad := `{"version":1,"model":"GCN","restrictions":[{"attr":"nope","kind":"exact","limit":1}]}`
	if _, err := UnmarshalPlan([]byte(bad)); err == nil {
		t.Fatal("expected attribute error")
	}
	bad2 := `{"version":1,"model":"GCN","restrictions":[{"attr":"dst-id","kind":"weird"}]}`
	if _, err := UnmarshalPlan([]byte(bad2)); err == nil {
		t.Fatal("expected kind error")
	}
	for _, c := range []struct{ why, plan string }{
		// a src-sorted plan would reorder each destination's sequence
		{"plan SAGE-LSTM cannot run", `{"version":1,"model":"SAGE-LSTM","batched":true,"restrictions":[{"attr":"src-id","kind":"exact","limit":32}]}`},
		{"negative limit", `{"version":1,"model":"GCN","batched":true,"restrictions":[{"attr":"dst-id","kind":"exact","limit":-1}]}`},
		{"zero limit", `{"version":1,"model":"GCN","batched":true,"restrictions":[{"attr":"dst-id","kind":"exact","limit":0}]}`},
		{"dedup without batched", `{"version":1,"model":"RGCN","dedup":true,"restrictions":[{"attr":"src-id","kind":"exact","limit":8}]}`},
	} {
		if _, err := UnmarshalPlan([]byte(c.plan)); err == nil {
			t.Fatalf("%s: accepted %s", c.why, c.plan)
		}
	}
	ok := `{"version":1,"model":"SAGE-LSTM","batched":true,"restrictions":[{"attr":"dst-id","kind":"exact","limit":32}]}`
	if _, err := UnmarshalPlan([]byte(ok)); err != nil {
		t.Fatalf("valid SAGE-LSTM plan rejected: %v", err)
	}
}
