package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
)

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadBenchmarkJSON(t *testing.T) (e2e, layer []benchMetric, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return b.EndToEnd, b.PerLayer, workloadNames
}

// TestMetricNamesMatchBenchmarkJSON keeps the program's metric lists and
// BENCHMARK.json in step, and checks that every workload it lists exists.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	e2e, layer, names := loadBenchmarkJSON(t)
	for _, name := range names {
		if _, err := workloadByName(name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		listed []benchMetric
		code   []string
	}{{e2e, endToEndNames}, {layer, perLayerNames}} {
		if len(c.listed) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.listed), len(c.code))
		}
		for i := range min(len(c.listed), len(c.code)) {
			if c.listed[i].Name != c.code[i] {
				t.Errorf("metric %d: BENCHMARK.json %q, program %q", i, c.listed[i].Name, c.code[i])
			}
		}
	}
}

// modulesLoaded is the set of modules each workload's traced run must show
// spans for.
var modulesLoaded = map[string][]string{
	"learn-cold": {"bench", "client", "server", "engine", "learning", "store"},
	"enum-cold":  {"bench", "client", "server", "engine", "equilibria", "design", "store"},
	"serve-hot":  {"bench", "client", "server", "engine", "learning", "store"},
}

// TestWorkloadsReducedSize runs every workload for one second, untraced
// and traced, and checks the result line against BENCHMARK.json.
func TestWorkloadsReducedSize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer, _ := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				out, err := run(context.Background(), config{workload: w.name, seed: 3, seconds: 1, trace: trace,
					workDir: dir, setups: 1, sample: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !out.report.Correct || out.report.Failed != 0 || out.report.Attempted < 1 {
					t.Fatalf("report %+v, failures %v", out.report, out.failures)
				}
				want := e2e
				if trace {
					want = layer
				}
				if len(out.report.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(out.report.Metrics), len(want))
				}
				for _, bm := range want {
					got, ok := out.report.Metrics[bm.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", bm.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", bm.Name, got.Value)
					case got.Unit != bm.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json %q", bm.Name, got.Unit, bm.Unit)
					case !trace && got.Value <= 0 && bm.Name != "retained_kb_per_job":
						// retained_kb_per_job is the difference of two
						// live-heap readings; only a window of many jobs
						// (a full-length run) makes it reliably positive.
						t.Errorf("end-to-end metric %s = %v, want > 0", bm.Name, got.Value)
					}
				}
				if !trace {
					return
				}
				seen := map[string]bool{}
				for _, s := range out.spans {
					seen[s.module()] = true
					if s.End < s.Start {
						t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
					}
				}
				for _, mod := range modulesLoaded[w.name] {
					if !seen[mod] {
						t.Errorf("no span for module %s", mod)
					}
				}
				if n := unresolvedParents(out.spans); n > 0 {
					t.Errorf("%d spans have a parent that is not in the trace", n)
				}
				if _, err := os.Stat(filepath.Join(dir, "spans-"+w.name+"-3.jsonl")); err != nil {
					t.Errorf("spans not written: %v", err)
				}
			})
		}
	}
}

// TestCorruptedResultFailsCheck feeds the correctness checks a result that
// differs from the reference by one byte, for each kind of check.
func TestCorruptedResultFailsCheck(t *testing.T) {
	ctx := context.Background()
	j := job{seed: 7, spec: engine.LearnSweep{Gen: core.GenSpec{Miners: 6, Coins: 3}, Runs: 2}}

	ref, err := engine.RunWire(ctx, engine.New(1), j.spec, j.seed)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2]++
	if errs := checkCold(ctx, 1, []coldRecord{{job: j, result: good}}, 1); len(errs) != 0 {
		t.Fatalf("the true aggregate failed the check: %v", errs)
	}
	if errs := checkCold(ctx, 1, []coldRecord{{job: j, result: bad}}, 1); len(errs) != 1 {
		t.Errorf("a corrupted aggregate passed the check")
	}

	mgr := engine.NewManager(engine.New(1))
	defer mgr.Close()
	jb, err := mgr.Submit(j.spec, j.seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := jb.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	docs, err := jb.ResultRange(0, j.spec.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkCold(ctx, 1, []coldRecord{{job: j, docs: docs}}, 1); len(errs) != 0 {
		t.Fatalf("the true documents failed the check: %v", errs)
	}
	corrupt := append([]json.RawMessage(nil), docs...)
	corrupt[1] = json.RawMessage(`{"steps":-1,"converged":true}`)
	if errs := checkCold(ctx, 1, []coldRecord{{job: j, docs: corrupt}}, 1); len(errs) != 1 {
		t.Errorf("a corrupted streamed document passed the check")
	}

	// A cache hit is checked against the bytes set-up fetched.
	st, err := openStack(ctx, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	want, err := computeHot(ctx, st.clients[0], []job{j})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hitOp(ctx, st.clients[0], nil, j, want[0]); err != nil {
		t.Fatalf("a true hit failed: %v", err)
	}
	wrong := append([]byte(nil), want[0]...)
	wrong[len(wrong)/2]++
	if _, err := hitOp(ctx, st.clients[0], nil, j, wrong); err == nil {
		t.Errorf("a hit compared against corrupted set-up bytes passed")
	}
}
