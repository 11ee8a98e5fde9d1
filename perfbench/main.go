// Command perfbench is the repository's end-to-end benchmark. Each run
// starts an in-process gocserve (server.NewWithOptions over a store.File
// data directory, a keyed traffic.Controller with no rate limit or quota,
// two engine workers) and drives it over real HTTP through the client SDK
// with two closed-loop lanes, one API key each, using the built-in
// learn_sweep, equilibrium_sweep and design_sweep kinds. Every result is
// checked; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced,
// the time-based ones scaled to a reference machine speed (see calib.go).
// With --trace 1 the run is split into an untraced and a traced half, then
// the traced half's envelopes are replayed through the engine registry and
// its jobs through a bare engine.Manager, and the metrics are the per-layer
// ones. Run it from the repository root through
// run.sh, which builds it:
//
//	bash perfbench/run.sh --workload learn-cold --seed 1 --seconds 10 --trace 0
//
// WORKLOADS.md describes the workloads, the metrics and the profile
// commands.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"gameofcoins/client"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workDir holds the run's data directories and its spans file.
	workDir    string
	cpuProfile string
	memProfile string
	// setups and sample override the workload's set-up repeat count and
	// the correctness sample size when positive (the tests shrink them).
	setups int
	sample int
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{workDir: ".bench_build"}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "learn-cold, enum-cold or serve-hot")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same envelopes")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the untraced timed window")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile taken at the end of the untraced timed window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, name := range out.summary.names {
		v := out.summary.values[name]
		fmt.Fprintf(stdout, "%-10s %-32s %14.6g %-8s %s\n", cfg.workload, name, v.Value, v.Unit, out.summary.notes[name])
	}
	for _, err := range out.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", err)
	}
	line, err := json.Marshal(out.report)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.report.Correct {
		return 1
	}
	return 0
}

// outcome is a finished run: the result line, the human-readable summary
// (the result metrics plus sample counts and context), and the spans of a
// traced run.
type outcome struct {
	report   report
	summary  *metrics
	failures []error
	spans    []span
}

func run(ctx context.Context, cfg config) (outcome, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return outcome{}, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return outcome{}, err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setups := w.setups
	if cfg.setups > 0 {
		setups = cfg.setups
	}
	var calib *calibrator
	if !cfg.trace {
		calib = startCalibration()
		defer calib.stop()
	}
	var (
		st        *stack
		in        = phaseInput{w: w, seed: cfg.seed, tr: tr, next: new(atomic.Int64)}
		setupTime []float64
	)
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return outcome{}, err
			}
		}
		start := time.Now()
		st, in.hot, in.hotWant, err = setupOnce(ctx, w, cfg.seed, filepath.Join(tmp, fmt.Sprint("data-", i)), tr)
		if err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setupTime = append(setupTime, time.Since(start).Seconds())
	}
	in.st = st
	stackOpen := true
	defer func() {
		if stackOpen {
			st.close()
		}
	}()

	out := outcome{summary: newMetrics()}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if w.hot != nil {
		in.writerPause = window / writerBudget
	}
	var phases []phase
	if !cfg.trace {
		stopProfile, err := startProfile(cfg)
		if err != nil {
			return outcome{}, err
		}
		ph := runPhase(ctx, in, window)
		if err := stopProfile(); err != nil {
			return outcome{}, err
		}
		phases = append(phases, ph)
		stackOpen = false
		if err := st.close(); err != nil {
			return outcome{}, err
		}
		// Set up as many times again after the window, so that setup_s
		// samples the machine before and after it rather than in one
		// moment of a host whose speed drifts.
		for i := 0; i < setups; i++ {
			start := time.Now()
			extra, _, _, err := setupOnce(ctx, w, cfg.seed, filepath.Join(tmp, fmt.Sprint("data-post-", i)), nil)
			if err != nil {
				return outcome{}, fmt.Errorf("set-up: %w", err)
			}
			setupTime = append(setupTime, time.Since(start).Seconds())
			if err := extra.close(); err != nil {
				return outcome{}, err
			}
		}
		endToEnd(out.summary, setupTime, ph, calib.stop())
	} else {
		phA := runPhase(ctx, in, window/2)
		before, err := layerCounters(ctx, st)
		if err != nil {
			return outcome{}, err
		}
		tr.on.Store(true)
		phB := runPhase(ctx, in, window/2)
		after, err := layerCounters(ctx, st)
		if err != nil {
			return outcome{}, err
		}
		stackOpen = false
		if err := st.close(); err != nil {
			return outcome{}, err
		}
		for _, j := range phB.sent {
			timeRegistry(ctx, tr, j)
		}
		pass := enginePass(ctx, tr, phB.cold, window/4)
		tr.on.Store(false)
		out.failures = append(out.failures, pass.failures...)
		phases = append(phases, phA, phB)
		out.spans = perLayer(out.summary, tr, phA, phB, pass, before, after)
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			return outcome{}, err
		}
	}

	var cold []coldRecord
	for _, ph := range phases {
		out.report.Attempted += ph.attempted
		out.failures = append(out.failures, ph.failures...)
		cold = append(cold, ph.cold...)
	}
	sample := checkSample
	if cfg.sample > 0 {
		sample = cfg.sample
	}
	out.failures = append(out.failures, checkCold(ctx, cfg.seed, cold, sample)...)
	if out.report.Attempted == 0 {
		out.failures = append(out.failures, errors.New("no operation was attempted"))
	}
	out.report.Failed = min(len(out.failures), out.report.Attempted)
	out.report.Correct = len(out.failures) == 0
	out.report.Metrics = map[string]metric{}
	for _, name := range out.summary.names {
		if reported(name, cfg.trace) {
			out.report.Metrics[name] = out.summary.values[name]
		}
	}
	// error_rate is 0 on correct code, so it is not a gated metric; the
	// result line carries it as failed/attempted.
	out.summary.set("error_rate", "ratio", float64(out.report.Failed)/float64(max(out.report.Attempted, 1)),
		fmt.Sprintf("%d of %d operations failed, were refused or returned wrong bytes", out.report.Failed, out.report.Attempted))
	return out, nil
}

// setupOnce builds a stack from nothing in dir. On serve-hot it then
// computes the working set, closes the server and reopens it over the same
// data directory, so the working set is served from rehydrated state.
func setupOnce(ctx context.Context, w workload, seed uint64, dir string, tr *tracer) (*stack, []job, [][]byte, error) {
	st, err := openStack(ctx, dir, tr)
	if err != nil || w.hot == nil {
		return st, nil, nil, err
	}
	hot := w.hot(seed)
	want, err := computeHot(ctx, st.clients[0], hot)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, nil, err
	}
	st, err = openStack(ctx, dir, tr)
	return st, hot, want, err
}

// computeHot submits the whole working set, then collects and releases
// each result. The released jobs stay cached: a finished job keeps its
// cache entry when its last handle goes.
func computeHot(ctx context.Context, c *client.Client, hot []job) ([][]byte, error) {
	hs := make([]*client.Handle, len(hot))
	for i, j := range hot {
		h, err := c.SubmitSpec(ctx, j.spec, j.seed)
		if err != nil {
			return nil, err
		}
		hs[i] = h
	}
	want := make([][]byte, len(hot))
	for i, h := range hs {
		if _, err := h.Wait(ctx); err != nil {
			return nil, err
		}
		var raw json.RawMessage
		if err := h.Result(ctx, &raw); err != nil {
			return nil, err
		}
		b, err := compact(raw)
		if err != nil {
			return nil, err
		}
		want[i] = b
		if err := h.Release(ctx); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// startProfile starts the CPU profile, if asked for, and returns the
// function that stops it and writes the heap profile.
func startProfile(cfg config) (func() error, error) {
	var cpu *os.File
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if cfg.memProfile == "" {
			return nil
		}
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
