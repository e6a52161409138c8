package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// small shrinks a workload so a test run takes a second or two.
func small(workload string) runConfig {
	return runConfig{
		workload: workload, seed: 7,
		window: 400 * time.Millisecond, warmup: 100 * time.Millisecond,
		setupReps: 2, maintTick: 20 * time.Millisecond,
		nodeCount: 8, keyCount: 200, simNodeCount: 300, simRequestCount: 2_000,
	}
}

func lastLine(t *testing.T, out string) resultOut {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultOut
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, code %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}

// TestSmallRuns runs every workload, untraced and traced, and checks the
// result line: every answer correct, every end-to-end metric present and
// non-zero, every per-layer metric present, and spans that find their
// parents.
func TestSmallRuns(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := small(name)
			cfg.trace = trace
			var out bytes.Buffer
			if err := run(cfg, t.TempDir(), &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%v: correct %v attempted %d failed %d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer()
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q", name, trace, d.name, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace {
				if s := r.Metrics["trace.orphan_rpc_share"].Value; s > 0.01 {
					t.Errorf("%s: %.3f of RPC spans found no parent", name, s)
				}
				if r.Metrics["trace.spans"].Value == 0 || !strings.Contains(out.String(), "self_ms") {
					t.Errorf("%s: traced run wrote no spans or no per-layer table\n%s", name, out.String())
				}
			}
			if name == "lookup_classic" && trace {
				for _, typ := range []string{"store_put", "store_get", "digest", "route_gossip"} {
					if v := r.Metrics["wire.rpc."+typ+".per_op"].Value; v != 0 {
						t.Errorf("lookup_classic sent %v %s RPCs per op", v, typ)
					}
				}
			}
			if name == "paper_sim" && trace {
				for _, typ := range append(append([]string(nil), rpcTypes...), "other") {
					if v := r.Metrics["wire.rpc."+typ+".per_op"].Value; v != 0 {
						t.Errorf("paper_sim sent %v %s RPCs per op", v, typ)
					}
				}
			}
		}
	}
}

// TestChecksFireOnPlantedWrongAnswers plants one wrong answer per check
// and requires the run to fail with that check's message.
func TestChecksFireOnPlantedWrongAnswers(t *testing.T) {
	for _, tc := range []struct{ workload, plant, want string }{
		{"lookup_classic", "lookup-owner", "oracle successor"},
		{"lookup_classic", "ring", "after set-up"},
		{"lookup_classic", "classic-bypass", "must send no store_put"},
		{"kv_onehop_mixed", "get-value", "differs from the last acked put"},
		{"kv_onehop_mixed", "deleted-resurrect", "reads back"},
		{"kv_onehop_mixed", "routes-table", "one-hop table"},
		{"kv_onehop_mixed", "kv-bypass", "one-hop hit ratio"},
		{"paper_sim", "sim-band", "HIERAS must beat Chord"},
		{"paper_sim", "sim-repeat", "different summary"},
	} {
		cfg := small(tc.workload)
		cfg.plant = tc.plant
		var out bytes.Buffer
		err := run(cfg, t.TempDir(), &out)
		if err == nil || !isWrong(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s plant %s: err %v, want a wrong answer mentioning %q", tc.workload, tc.plant, err, tc.want)
			continue
		}
		if r := lastLine(t, out.String()); r.Correct {
			t.Errorf("%s plant %s: result says correct", tc.workload, tc.plant)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "wire.a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 1, Name: "wire.b", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 1, Req: 1, Name: "wire.a", Start: 80, End: 90},
	}
	st := analyze(spans)
	if got := st.self(spans[0]); got != 100-60 {
		t.Errorf("self time %d, want 40", got)
	}
	if got := st.union(st.kids[1], func(n string) bool { return n == "wire.a" }); got != 50 {
		t.Errorf("union of wire.a children %d, want 50", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile([]float64{1, 2}, 0.99); q < 1.98 || q > 2 {
		t.Errorf("p99 %v", q)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
}
