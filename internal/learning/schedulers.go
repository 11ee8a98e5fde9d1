package learning

import (
	"fmt"
	"math"

	"gameofcoins/internal/core"
	"gameofcoins/internal/rng"
)

// improving calls yield for every better-response step (p, c) in s, in
// (MinerID, CoinID) order, with the payoff gain of the move, until yield
// returns false. powers must be g.CoinPowers(s): one vector answers every
// question of the step, so a full scan is O(n·m).
func improving(g *core.Game, s core.Config, powers []float64, yield func(p core.MinerID, c core.CoinID, gain float64) bool) {
	for p := range s {
		cur := g.PayoffWith(s, p, powers)
		for c, u := range g.BetterMovesWith(s, p, powers) {
			if !yield(p, c, u-cur) {
				return
			}
		}
	}
}

// RoundRobin cycles over miners in MinerID order, and whenever the miner
// under the cursor has a better response it plays that miner's *best*
// response. It is the classic fictitious-play-style update order.
type RoundRobin struct {
	cursor int
}

// NewRoundRobin returns a fresh round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (rr *RoundRobin) Name() string { return "round-robin" }

// Next implements Scheduler.
func (rr *RoundRobin) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	n := g.NumMiners()
	powers := g.CoinPowers(s)
	for i := 0; i < n; i++ {
		p := (rr.cursor + i) % n
		if c, ok := g.BestResponseWith(s, p, powers); ok {
			rr.cursor = (p + 1) % n
			return p, c, true
		}
	}
	return 0, 0, false
}

// Random picks a uniformly random (miner, improving coin) pair each step —
// the natural model of uncoordinated selfish miners.
type Random struct{}

// NewRandom returns the uniform-random scheduler.
func NewRandom() Random { return Random{} }

// Name implements Scheduler.
func (Random) Name() string { return "random" }

// Next implements Scheduler. It scans the improving moves twice, once to
// count them and once to walk to the drawn one, so it keeps no move list.
func (Random) Next(g *core.Game, s core.Config, r *rng.Rand) (core.MinerID, core.CoinID, bool) {
	powers := g.CoinPowers(s)
	total := 0
	improving(g, s, powers, func(core.MinerID, core.CoinID, float64) bool {
		total++
		return true
	})
	if total == 0 {
		return 0, 0, false
	}
	k := r.Intn(total)
	var bp core.MinerID
	var bc core.CoinID
	improving(g, s, powers, func(p core.MinerID, c core.CoinID, _ float64) bool {
		if k == 0 {
			bp, bc = p, c
			return false
		}
		k--
		return true
	})
	return bp, bc, true
}

// MaxGain greedily plays the single improving move with the largest absolute
// payoff gain — the "most eager miner" model.
type MaxGain struct{}

// NewMaxGain returns the greedy max-gain scheduler.
func NewMaxGain() MaxGain { return MaxGain{} }

// Name implements Scheduler.
func (MaxGain) Name() string { return "max-gain" }

// Next implements Scheduler.
func (MaxGain) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	bestGain := 0.0
	var bp core.MinerID
	var bc core.CoinID
	found := false
	improving(g, s, g.CoinPowers(s), func(p core.MinerID, c core.CoinID, gain float64) bool {
		if !found || gain > bestGain {
			found, bestGain, bp, bc = true, gain, p, c
		}
		return true
	})
	return bp, bc, found
}

// MinGain adversarially plays the improving move with the *smallest* payoff
// gain, maximizing the length of the improving path. Theorem 1 must hold
// even for this scheduler; experiment E8 uses it as the worst-case series.
type MinGain struct{}

// NewMinGain returns the adversarial min-gain scheduler.
func NewMinGain() MinGain { return MinGain{} }

// Name implements Scheduler.
func (MinGain) Name() string { return "min-gain" }

// Next implements Scheduler.
func (MinGain) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	bestGain := math.Inf(1)
	var bp core.MinerID
	var bc core.CoinID
	found := false
	improving(g, s, g.CoinPowers(s), func(p core.MinerID, c core.CoinID, gain float64) bool {
		if gain < bestGain {
			found, bestGain, bp, bc = true, gain, p, c
		}
		return true
	})
	return bp, bc, found
}

// SmallestFirst always moves the least powerful unstable miner (to its best
// response). Small miners are the most volatile in practice — they chase
// RPU hardest — and the §5 reward design argument is built around moving
// small miners first.
type SmallestFirst struct{}

// NewSmallestFirst returns the smallest-miner-first scheduler.
func NewSmallestFirst() SmallestFirst { return SmallestFirst{} }

// Name implements Scheduler.
func (SmallestFirst) Name() string { return "smallest-first" }

// Next implements Scheduler. Miners are sorted by descending power, so the
// smallest is the highest MinerID.
func (SmallestFirst) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	powers := g.CoinPowers(s)
	for p := g.NumMiners() - 1; p >= 0; p-- {
		if c, ok := g.BestResponseWith(s, p, powers); ok {
			return p, c, true
		}
	}
	return 0, 0, false
}

// LargestFirst always moves the most powerful unstable miner.
type LargestFirst struct{}

// NewLargestFirst returns the largest-miner-first scheduler.
func NewLargestFirst() LargestFirst { return LargestFirst{} }

// Name implements Scheduler.
func (LargestFirst) Name() string { return "largest-first" }

// Next implements Scheduler.
func (LargestFirst) Next(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
	powers := g.CoinPowers(s)
	for p := 0; p < g.NumMiners(); p++ {
		if c, ok := g.BestResponseWith(s, p, powers); ok {
			return p, c, true
		}
	}
	return 0, 0, false
}

// AllSchedulers returns one fresh instance of every scheduler in the
// package, for exhaustive convergence testing (Theorem 1 quantifies over all
// of them).
func AllSchedulers() []Scheduler {
	return []Scheduler{
		NewRoundRobin(),
		NewRandom(),
		NewMaxGain(),
		NewMinGain(),
		NewSmallestFirst(),
		NewLargestFirst(),
	}
}

// SchedulerByName returns a fresh instance of the built-in scheduler with
// the given Name. It is the one lookup shared by the experiment suite and
// the engine, so valid names cannot diverge between them.
func SchedulerByName(name string) (Scheduler, error) {
	for _, s := range AllSchedulers() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("learning: unknown scheduler %q", name)
}
