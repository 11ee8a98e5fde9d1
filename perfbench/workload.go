package main

import (
	"fmt"
	"math/rand/v2"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
)

// job is one generated envelope: the program sees only (kind, seed, spec),
// sent through the client SDK exactly as any other caller would send it.
type job struct {
	index int
	seed  uint64
	spec  engine.Spec
}

// workload is one traffic mix. The three are chosen so that each loads a
// different layer: learn-cold the better-response core, enum-cold the
// exponential enumeration and Algorithm 2, serve-hot the serving path
// (admission, decode, cache and handle tables, store appends) with compute
// near zero. WORKLOADS.md records what each one is predicted to move.
type workload struct {
	name string
	// setups is how many times set-up is repeated before the timed window,
	// and again after it; setup_s is the median of them all.
	setups int
	// cold generates the i-th cold job of a run seeded with seed. Every
	// index gets a distinct envelope seed, so no two cold jobs dedupe.
	cold func(seed uint64, i int) job
	// hot, when non-nil, generates the working set that set-up computes
	// before the restart and that the reader then resubmits as cache hits.
	// Its presence also makes lane 1 a streaming writer (see runPhase).
	hot func(seed uint64) []job
}

var workloads = []workload{
	{name: "learn-cold", setups: 40, cold: learnCold},
	{name: "enum-cold", setups: 40, cold: enumCold},
	{name: "serve-hot", setups: 10, cold: streamCold, hot: hotSet},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// envSeed derives the envelope seed of job i of stream tag: distinct for
// every (tag, i), and a pure function of the workload seed.
func envSeed(seed uint64, tag uint64, i int) uint64 {
	r := rand.New(rand.NewPCG(seed, tag))
	return r.Uint64() + uint64(i)
}

// learnMiners rotates game sizes so the fair-share/LPT scheduler sees a mix
// of short and long jobs.
var learnMiners = [...]int{48, 64, 80}

// learnCold is a LearnSweep over random 4-coin games with every built-in
// scheduler, 4 runs each: 24 tasks per job.
func learnCold(seed uint64, i int) job {
	return job{index: i, seed: envSeed(seed, 1, i), spec: engine.LearnSweep{
		Gen:  core.GenSpec{Miners: learnMiners[i%len(learnMiners)], Coins: 4},
		Runs: 4,
	}}
}

// enumCold mixes EquilibriumSweep and DesignSweep jobs 3:1. Which slot of
// each block of four holds the design job is drawn from the seed.
func enumCold(seed uint64, i int) job {
	block := rand.New(rand.NewPCG(seed, 2+uint64(i/4)<<8))
	if i%4 == block.IntN(4) {
		return job{index: i, seed: envSeed(seed, 3, i), spec: engine.DesignSweep{
			Gen:   core.GenSpec{Miners: 8, Coins: 3},
			Pairs: 16,
		}}
	}
	// 3^10 = 59,049 configurations per game.
	return job{index: i, seed: envSeed(seed, 3, i), spec: engine.EquilibriumSweep{
		Gen:   core.GenSpec{Miners: 10, Coins: 3},
		Games: 8,
	}}
}

// streamCold is the serve-hot writer's job: small games, many tasks (every
// scheduler × 8 runs = 48), so per-task documents, range fetches and range
// persistence dominate its cost rather than compute.
func streamCold(seed uint64, i int) job {
	return job{index: i, seed: envSeed(seed, 4, i), spec: engine.LearnSweep{
		Gen:  core.GenSpec{Miners: 8, Coins: 3},
		Runs: 8,
	}}
}

// hotSetSize is the serve-hot working set: small enough to compute in
// set-up, large enough that the reader cycles through distinct cache lines.
const hotSetSize = 32

// writerBudget caps the serve-hot writer's jobs per run: it pauses for
// run length / writerBudget after each job, so it starts at most this many
// however fast the server gets. The cap keeps a run's jobs under
// engine.DefaultRetention (4,096) and works around two defects of the
// program, which an unpaced writer (about 8,000 jobs in 30 s) shows: the
// engine manager evicts finished jobs in creation order however often
// they are hit, so cold churn evicts the hot working set; and a job can be
// evicted while a client holds a live v2 handle on it, so that handle's
// next request answers 404 "unknown job".
const writerBudget = 3500

func hotSet(seed uint64) []job {
	out := make([]job, hotSetSize)
	for i := range out {
		out[i] = job{index: i, seed: envSeed(seed, 5, i), spec: engine.LearnSweep{
			Gen:  core.GenSpec{Miners: 12, Coins: 3},
			Runs: 2,
		}}
	}
	return out
}

// computeModule names the package whose code does a spec kind's per-task
// compute, for the per-layer split.
func computeModule(kind string) string {
	switch kind {
	case "learn_sweep":
		return "learning"
	case "equilibrium_sweep":
		return "equilibria"
	case "design_sweep":
		return "design"
	}
	return "engine"
}
