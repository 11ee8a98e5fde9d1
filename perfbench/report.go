package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"gameofcoins/internal/engine"
)

// endToEndNames and perLayerNames are the metrics of the result line with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names (the tests
// check that they agree).
var endToEndNames = []string{
	"setup_s", "ops_per_s", "op_p50_ms", "jobs_per_s", "job_p50_ms", "job_p90_ms",
	"first_doc_p50_ms", "cpu_ms_per_op", "alloc_kb_per_op", "retained_kb_per_job",
}

// Routes every workload drives, so their per-route metrics are measured on
// all three; serve-hot's spec and range routes appear in the spans only.
var (
	clientRoutes = []string{"submit", "events", "result", "release"}
	storeMethods = []string{"put_job", "put_job_range", "put_handle", "delete_handle"}
	busyModules  = []string{"client", "server", "engine", "learning", "equilibria", "design", "store"}
)

var perLayerNames = func() []string {
	var n []string
	for _, r := range clientRoutes {
		n = append(n, "client."+r+".headers_ms", "client."+r+".body_ms")
	}
	n = append(n, "client.resp_bytes_per_op")
	for _, r := range clientRoutes {
		n = append(n, "server."+r+".p50_ms", "server."+r+".p99_ms")
	}
	n = append(n, "server.non2xx",
		"traffic.admitted", "traffic.throttled", "traffic.unauthorized",
		"engine.resolve_us", "engine.canonical_us", "engine.cachekey_us",
		"engine.queue_wait_ms.p50", "engine.queue_wait_ms.p90", "engine.busy_ratio",
		"engine.steals", "engine.completed_tasks",
		"engine.encode_us_per_task", "engine.doc_bytes", "engine.aggregate_ms", "engine.result_bytes",
		"compute.task_ms.p50", "compute.task_ms.p99",
		"learning.tasks", "learning.steps_per_task", "learning.steps_per_ms",
		"equilibria.tasks", "equilibria.configs_per_task", "equilibria.configs_per_us",
		"design.tasks", "design.steps_per_task")
	for _, m := range storeMethods {
		n = append(n, "store."+m+".p50_us", "store."+m+".p99_us", "store."+m+".count")
	}
	n = append(n, "store.ops_per_op", "store.log_bytes_per_op", "store.load_ms")
	for _, m := range busyModules {
		n = append(n, "busy_share."+m)
	}
	return append(n, "trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.spans")
}()

func reported(name string, trace bool) bool {
	if trace {
		return slices.Contains(perLayerNames, name)
	}
	return slices.Contains(endToEndNames, name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEnd sets the end-to-end metrics of one untraced window. An op is any
// completed client operation: a cold job, or on serve-hot a cache-hit op.
// calibUs are the calibration timings of the run (see calib.go): every
// time-based metric is reported at reference machine speed, and the
// summary notes give the values as measured.
func endToEnd(m *metrics, setup []float64, ph phase, calibUs []float64) {
	slow := quantile(calibUs, calibQuantile) / calibRefUs
	secs := ph.elapsed.Seconds()
	var jobs, first []float64
	for _, r := range ph.cold {
		jobs = append(jobs, float64(r.lat)/1e6)
		first = append(first, float64(r.first)/1e6)
	}
	hits := millis(ph.hits)
	ops := append(append([]float64(nil), jobs...), hits...)
	n := float64(len(ops))
	// dur sets a duration metric, rate a per-second one, both at reference
	// speed, with the measured value in the note.
	dur := func(name, unit string, v float64, note string) {
		m.set(name, unit, v/slow, fmt.Sprintf("%s; measured %.6g", note, v))
	}
	// The writer's rate is taken over its lane's time less its pauses.
	jobRate := ratio(float64(len(jobs)), (ph.elapsed - ph.paused).Seconds())
	hitRate := ratio(float64(len(hits)), secs)
	rate := func(name string, v float64, note string) {
		m.set(name, "1/s", v*slow, fmt.Sprintf("%s; measured %.6g", note, v))
	}
	m.set("machine_slowdown", "ratio", slow, fmt.Sprintf("calibration p10 %.1f us / reference %.0f us, n=%d", quantile(calibUs, calibQuantile), calibRefUs, len(calibUs)))
	dur("setup_s", "s", median(setup), fmt.Sprintf("median of %d set-ups", len(setup)))
	rate("ops_per_s", jobRate+hitRate, fmt.Sprintf("%d ops in %.3f s, %.3f s of writer pauses", len(ops), secs, ph.paused.Seconds()))
	dur("op_p50_ms", "ms", median(ops), fmt.Sprintf("n=%d", len(ops)))
	rate("jobs_per_s", jobRate, fmt.Sprintf("%d cold jobs", len(jobs)))
	dur("job_p50_ms", "ms", median(jobs), fmt.Sprintf("n=%d", len(jobs)))
	dur("job_p90_ms", "ms", quantile(jobs, 0.9), fmt.Sprintf("n=%d", len(jobs)))
	dur("first_doc_p50_ms", "ms", median(first), fmt.Sprintf("n=%d", len(first)))
	dur("cpu_ms_per_op", "ms", ratio(float64(ph.res.cpu)/1e6, n), "process user+sys CPU")
	m.set("alloc_kb_per_op", "KiB", ratio(float64(ph.res.allocB)/1024, n), "")
	m.set("retained_kb_per_job", "KiB", ratio(float64(ph.res.retainedB)/1024, float64(len(jobs))), "live heap growth across the window, after forced GCs")
	m.set("peak_heap_mb", "MiB", float64(ph.res.peakHeapB)/(1<<20), "highest sampled HeapInuse; grows with jobs completed")
	// op_p90_ms is context only: on serve-hot it is the hit tail, which
	// swings with the host's wake-up latency far more than the medians do.
	dur("op_p90_ms", "ms", quantile(ops, 0.9), fmt.Sprintf("n=%d", len(ops)))
	if len(hits) > 0 {
		rate("hits_per_s", hitRate, fmt.Sprintf("%d hit ops", len(hits)))
		dur("hit_p50_ms", "ms", median(hits), fmt.Sprintf("n=%d", len(hits)))
		dur("hit_p99_ms", "ms", quantile(hits, 0.99), fmt.Sprintf("n=%d", len(hits)))
	}
}

// counters are the cumulative counters the per-layer metrics difference
// across the traced window.
type counters struct {
	sched                             engine.SchedStats
	admitted, throttled, unauthorized uint64
}

// layerCounters reads the engine's scheduler counters from /healthz and
// the admission counters from the traffic controller.
func layerCounters(ctx context.Context, st *stack) (counters, error) {
	var c counters
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+"/healthz", nil)
	if err != nil {
		return c, err
	}
	resp, err := (&http.Client{Transport: st.tps[0]}).Do(req)
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var body struct {
		Engine engine.SchedStats `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return c, fmt.Errorf("decode /healthz: %w", err)
	}
	c.sched = body.Engine
	ts := st.ctrl.Stats()
	c.unauthorized = ts.Unauthorized
	for _, cs := range ts.PerClient {
		c.admitted += cs.Admitted
		c.throttled += cs.Throttled
	}
	return c, nil
}

// perLayer sets the per-layer metrics from the traced window phB, the
// engine pass over its cold jobs, and the counters read around phB. It
// returns the spans.
func perLayer(m *metrics, tr *tracer, phA, phB phase, pass passResult, before, after counters) []span {
	rec := tr.snapshot()
	dur := map[string][]float64{} // milliseconds, by span name
	for _, s := range rec.spans {
		dur[s.Name] = append(dur[s.Name], float64(s.dur())/1e6)
	}
	opsB := float64(len(phB.cold) + len(phB.hits))
	for _, r := range clientRoutes {
		name := "client." + r
		m.set(name+".headers_ms", "ms", median(rec.samples[name+".headers_ms"]), fmt.Sprintf("p50, n=%d", len(rec.samples[name+".headers_ms"])))
		m.set(name+".body_ms", "ms", median(dur[name]), fmt.Sprintf("p50 to end of body, n=%d", len(dur[name])))
	}
	m.set("client.resp_bytes_per_op", "B", ratio(rec.counts["client.resp_bytes"], opsB), "")
	for _, r := range clientRoutes {
		d := dur["server."+r]
		m.set("server."+r+".p50_ms", "ms", median(d), fmt.Sprintf("n=%d", len(d)))
		m.set("server."+r+".p99_ms", "ms", quantile(d, 0.99), fmt.Sprintf("n=%d", len(d)))
	}
	m.set("server.non2xx", "count", rec.counts["server.non2xx"], "")
	m.set("traffic.admitted", "count", float64(after.admitted-before.admitted), "")
	m.set("traffic.throttled", "count", float64(after.throttled-before.throttled), "")
	m.set("traffic.unauthorized", "count", float64(after.unauthorized-before.unauthorized), "")
	for _, r := range []string{"resolve", "canonical", "cachekey"} {
		d := dur["engine."+r]
		m.set("engine."+r+"_us", "us", median(d)*1e3, fmt.Sprintf("p50, n=%d", len(d)))
	}

	qw := dur["engine.queue_wait"]
	m.set("engine.queue_wait_ms.p50", "ms", median(qw), fmt.Sprintf("n=%d", len(qw)))
	m.set("engine.queue_wait_ms.p90", "ms", quantile(qw, 0.9), fmt.Sprintf("n=%d", len(qw)))
	var task []float64
	for _, mod := range []string{"learning", "equilibria", "design"} {
		task = append(task, dur[mod+".task"]...)
	}
	encode := dur["engine.encode"]
	m.set("engine.busy_ratio", "ratio", ratio(sum(task)+sum(encode), workers*float64(pass.elapsed)/1e6),
		fmt.Sprintf("engine pass: %d jobs in %.3f s", pass.jobs, pass.elapsed.Seconds()))
	m.set("engine.steals", "count", float64(after.sched.Steals-before.sched.Steals), "")
	m.set("engine.completed_tasks", "count", float64(after.sched.CompletedTasks-before.sched.CompletedTasks), "")
	m.set("engine.encode_us_per_task", "us", ratio(sum(encode)*1e3, float64(len(encode))), "")
	m.set("engine.doc_bytes", "B", ratio(rec.counts["engine.doc_bytes"], float64(len(encode))), "per task")
	m.set("engine.aggregate_ms", "ms", ratio(sum(dur["engine.aggregate"])+sum(dur["engine.result_json"]), float64(pass.jobs)), "Aggregate + result JSON, per job")
	m.set("engine.result_bytes", "B", ratio(rec.counts["engine.result_bytes"], float64(pass.jobs)), "per job")
	m.set("compute.task_ms.p50", "ms", median(task), fmt.Sprintf("n=%d", len(task)))
	m.set("compute.task_ms.p99", "ms", quantile(task, 0.99), fmt.Sprintf("n=%d", len(task)))

	lt, et, dt := rec.counts["learning.tasks"], rec.counts["equilibria.tasks"], rec.counts["design.tasks"]
	m.set("learning.tasks", "count", lt, "")
	m.set("learning.steps_per_task", "count", ratio(rec.counts["learning.steps"], lt), "")
	m.set("learning.steps_per_ms", "1/ms", ratio(rec.counts["learning.steps"], sum(dur["learning.task"])), "")
	m.set("equilibria.tasks", "count", et, "")
	m.set("equilibria.configs_per_task", "count", ratio(rec.counts["equilibria.configs"], et), "m^n")
	m.set("equilibria.configs_per_us", "1/us", ratio(rec.counts["equilibria.configs"], sum(dur["equilibria.task"])*1e3), "")
	m.set("design.tasks", "count", dt, "")
	m.set("design.steps_per_task", "count", ratio(rec.counts["design.steps"], dt), "")

	storeOps := 0
	for _, meth := range storeMethods {
		d := dur["store."+meth]
		storeOps += len(d)
		m.set("store."+meth+".p50_us", "us", median(d)*1e3, "")
		m.set("store."+meth+".p99_us", "us", quantile(d, 0.99)*1e3, "")
		m.set("store."+meth+".count", "count", float64(len(d)), "")
	}
	storeOps += len(dur["store.put_pin"]) + len(dur["store.put_game"])
	m.set("store.ops_per_op", "count", ratio(float64(storeOps), opsB), "")
	m.set("store.log_bytes_per_op", "B", ratio(rec.counts["store.log_bytes"], opsB),
		fmt.Sprintf("%.0f compactions", rec.counts["store.compactions"]))
	m.set("store.load_ms", "ms", float64(rec.load)/1e6, "open + rehydrate of the served stack")

	// The engine pass replays only the jobs its budget allowed, so its
	// spans are scaled up to the traced window's job count before the
	// split is taken.
	passScale := ratio(float64(len(phB.cold)), float64(pass.jobs))
	self := selfTimes(rec.spans)
	busy := map[string]float64{}
	total := 0.0
	for _, s := range rec.spans {
		if waitSpans[s.Name] || replaySpans[s.Name] {
			continue
		}
		t := float64(self[s.ID])
		if passSpans[s.Name] {
			t *= passScale
		}
		busy[s.module()] += t
		total += t
	}
	for _, mod := range busyModules {
		m.set("busy_share."+mod, "ratio", ratio(busy[mod], total), fmt.Sprintf("%.1f ms self time", busy[mod]/1e6))
	}
	m.set("trace.ops_per_s_untraced", "1/s", ratio(float64(len(phA.cold)+len(phA.hits)), phA.elapsed.Seconds()), "first half, tracing off")
	m.set("trace.ops_per_s_traced", "1/s", ratio(opsB, phB.elapsed.Seconds()), "second half, tracing on")
	m.set("trace.spans", "count", float64(len(rec.spans)), fmt.Sprintf("%d with an unresolved parent", unresolvedParents(rec.spans)))
	return rec.spans
}
