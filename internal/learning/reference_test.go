package learning

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"gameofcoins/internal/core"
	"gameofcoins/internal/numeric"
	"gameofcoins/internal/rng"
)

// The schedulers answer every payoff question of a step from one coin-power
// vector. The reference below answers each question from scratch: every
// Payoff and PayoffAfterMove re-sums CoinPower over all miners, which is
// O(n²·m) per step and never reads a CoinPowers vector. The two must pick
// the same (miner, coin) at every step.

// refBetterResponses is p's better-response coins, in CoinID order.
func refBetterResponses(g *core.Game, s core.Config, p core.MinerID) []core.CoinID {
	cur := g.Payoff(s, p)
	var out []core.CoinID
	for c := 0; c < g.NumCoins(); c++ {
		if c == s[p] || !g.Eligible(p, c) {
			continue
		}
		if numeric.Greater(g.PayoffAfterMove(s, p, c), cur, g.Epsilon()) {
			out = append(out, c)
		}
	}
	return out
}

// refBestResponse is p's best response, ties toward the lowest CoinID.
func refBestResponse(g *core.Game, s core.Config, p core.MinerID) (core.CoinID, bool) {
	best := s[p]
	bestU := g.Payoff(s, p)
	for c := 0; c < g.NumCoins(); c++ {
		if c == s[p] || !g.Eligible(p, c) {
			continue
		}
		if u := g.PayoffAfterMove(s, p, c); numeric.Greater(u, bestU, g.Epsilon()) {
			best, bestU = c, u
		}
	}
	return best, best != s[p]
}

type refNext func(g *core.Game, s core.Config, r *rng.Rand) (core.MinerID, core.CoinID, bool)

// refScheduler returns the reference for the built-in scheduler name, fresh.
func refScheduler(name string) refNext {
	bestOf := func(order func(n, i int) core.MinerID) refNext {
		return func(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
			for i := 0; i < g.NumMiners(); i++ {
				p := order(g.NumMiners(), i)
				if c, ok := refBestResponse(g, s, p); ok {
					return p, c, true
				}
			}
			return 0, 0, false
		}
	}
	gainOf := func(init float64, better func(gain, best float64, found bool) bool) refNext {
		return func(g *core.Game, s core.Config, _ *rng.Rand) (core.MinerID, core.CoinID, bool) {
			best := init
			var bp core.MinerID
			var bc core.CoinID
			found := false
			for p := 0; p < g.NumMiners(); p++ {
				cur := g.Payoff(s, p)
				for _, c := range refBetterResponses(g, s, p) {
					if gain := g.PayoffAfterMove(s, p, c) - cur; better(gain, best, found) {
						found, best, bp, bc = true, gain, p, c
					}
				}
			}
			return bp, bc, found
		}
	}
	switch name {
	case "round-robin":
		cursor := 0
		next := bestOf(func(n, i int) core.MinerID { return (cursor + i) % n })
		return func(g *core.Game, s core.Config, r *rng.Rand) (core.MinerID, core.CoinID, bool) {
			p, c, ok := next(g, s, r)
			if ok {
				cursor = (p + 1) % g.NumMiners()
			}
			return p, c, ok
		}
	case "random":
		return func(g *core.Game, s core.Config, r *rng.Rand) (core.MinerID, core.CoinID, bool) {
			var moves [][2]int
			for p := 0; p < g.NumMiners(); p++ {
				for _, c := range refBetterResponses(g, s, p) {
					moves = append(moves, [2]int{p, c})
				}
			}
			if len(moves) == 0 {
				return 0, 0, false
			}
			m := moves[r.Intn(len(moves))]
			return m[0], m[1], true
		}
	case "max-gain":
		return gainOf(0, func(gain, best float64, found bool) bool { return !found || gain > best })
	case "min-gain":
		return gainOf(math.Inf(1), func(gain, best float64, _ bool) bool { return gain < best })
	case "smallest-first":
		return bestOf(func(n, i int) core.MinerID { return n - 1 - i })
	case "largest-first":
		return bestOf(func(_, i int) core.MinerID { return i })
	}
	panic("no reference for scheduler " + name)
}

// refSimultaneous is RunSimultaneous over refBestResponse.
func refSimultaneous(g *core.Game, s0 core.Config, maxRounds int) SimultaneousResult {
	s := s0.Clone()
	seen := map[string]bool{s.Key(): true}
	var res SimultaneousResult
	for round := 1; round <= maxRounds; round++ {
		next := s.Clone()
		moved := false
		for p := range s {
			if c, ok := refBestResponse(g, s, p); ok {
				next[p] = c
				moved = true
			}
		}
		if !moved {
			return SimultaneousResult{Final: s, Rounds: round - 1, Converged: true}
		}
		s = next
		res.Rounds = round
		if seen[s.Key()] {
			return SimultaneousResult{Final: s, Rounds: round, Cycled: true}
		}
		seen[s.Key()] = true
	}
	res.Final = s
	return res
}

// Flags of diffGame.
const (
	diffEligibility = 1 << iota // restrict miners to random coin subsets
	diffExact                   // compare payoffs with eps = 0
	diffTenths                  // powers and rewards are multiples of 0.1
)

// diffGame draws a seeded game with n miners and m coins. Powers come from
// a pool smaller than n, so many miners have equal power and the
// schedulers' tie-breaking is exercised. With diffTenths and diffExact,
// payoffs tie exactly and coin powers are sums of values that are not
// binary fractions: a coin-power vector summed in a different order than
// CoinPower's rounds differently and turns some ties into moves.
func diffGame(seed uint64, n, m int, flags int) (*core.Game, error) {
	r := rng.New(seed)
	draw := func(hi float64) float64 {
		if flags&diffTenths != 0 {
			return float64(1+r.Intn(int(hi)*10)) / 10
		}
		return 1 + (hi-1)*r.Float64()
	}
	pool := make([]float64, 1+r.Intn(n))
	for i := range pool {
		pool[i] = draw(4)
	}
	miners := make([]core.Miner, n)
	for i := range miners {
		miners[i] = core.Miner{Name: fmt.Sprintf("p%02d", i), Power: pool[r.Intn(len(pool))]}
	}
	coins := make([]core.Coin, m)
	rewards := make([]float64, m)
	for c := range coins {
		coins[c] = core.Coin{Name: fmt.Sprintf("c%d", c)}
		rewards[c] = draw(3)
	}
	var opts []core.Option
	if flags&diffExact != 0 {
		opts = append(opts, core.WithEpsilon(0))
	}
	if flags&diffEligibility != 0 {
		allowed := make([][]bool, n)
		for p := range allowed {
			allowed[p] = make([]bool, m)
			for c := range allowed[p] {
				allowed[p][c] = c == p%m || r.Intn(3) > 0
			}
		}
		opts = append(opts, core.WithEligibility(func(p core.MinerID, c core.CoinID) bool { return allowed[p][c] }))
	}
	return core.NewGame(miners, coins, rewards, opts...)
}

// diffMaxSteps caps each differential run. With eps = 0 and payoffs that
// tie in exact arithmetic, a move can improve only by float rounding, and
// some such games cycle; the two sides must then agree up to the cap.
const diffMaxSteps = 4000

// checkSchedulersMatchReference runs every built-in scheduler and the
// simultaneous ablation against their references from one start in g.
func checkSchedulersMatchReference(t *testing.T, g *core.Game, seed uint64) {
	t.Helper()
	s0 := core.RandomConfig(rng.New(seed), g)
	for _, sched := range AllSchedulers() {
		ref := refScheduler(sched.Name())
		s, rs, rr := s0.Clone(), rng.New(seed+1), rng.New(seed+1)
		steps, converged := 0, false
		for ; steps < diffMaxSteps; steps++ {
			p, c, ok := sched.Next(g, s, rs)
			wp, wc, wok := ref(g, s, rr)
			if p != wp || c != wc || ok != wok {
				t.Fatalf("%s step %d in %v: got (%d, %d, %v), reference (%d, %d, %v)",
					sched.Name(), steps, s, p, c, ok, wp, wc, wok)
			}
			if !ok {
				converged = true
				break
			}
			s[p] = c
		}
		fresh, err := SchedulerByName(sched.Name())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, s0, fresh, rng.New(seed+1), Options{MaxSteps: diffMaxSteps})
		if converged != (err == nil) || (err != nil && !errors.Is(err, ErrStepLimit)) {
			t.Fatalf("%s: Run error %v, reference converged %v", sched.Name(), err, converged)
		}
		if res.Steps != steps || !res.Final.Equal(s) || res.Converged != converged {
			t.Fatalf("%s: Run took %d steps to %v, reference %d steps to %v",
				sched.Name(), res.Steps, res.Final, steps, s)
		}
	}
	got, err := RunSimultaneous(g, s0, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := refSimultaneous(g, s0, 50)
	if !got.Final.Equal(want.Final) || got.Rounds != want.Rounds ||
		got.Converged != want.Converged || got.Cycled != want.Cycled {
		t.Fatalf("RunSimultaneous = %+v, reference %+v", got, want)
	}
}

// TestSchedulersMatchReference is the differential test of the per-step
// coin-power view: on seeded random games of up to 80 miners and 8 coins,
// with and without eligibility restrictions and exact payoff ties, every
// scheduler takes the reference's moves step for step.
func TestSchedulersMatchReference(t *testing.T) {
	r := rng.New(14)
	games := 48
	if testing.Short() {
		games = 12
	}
	for i := 0; i < games; i++ {
		n, m, flags := 1+r.Intn(80), 1+r.Intn(8), i%8
		seed := r.Uint64()
		t.Run(fmt.Sprintf("n=%d/m=%d/flags=%d", n, m, flags), func(t *testing.T) {
			g, err := diffGame(seed, n, m, flags)
			if err != nil {
				t.Fatal(err)
			}
			checkSchedulersMatchReference(t, g, seed)
		})
	}
}

// FuzzSchedulersMatchReference is TestSchedulersMatchReference over fuzzed
// game shapes and seeds.
func FuzzSchedulersMatchReference(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3), uint8(0))
	f.Add(uint64(2), uint8(40), uint8(4), uint8(diffExact|diffTenths))
	f.Add(uint64(3), uint8(17), uint8(8), uint8(diffEligibility|diffExact|diffTenths))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, flags uint8) {
		g, err := diffGame(seed, 1+int(n)%40, 1+int(m)%8, int(flags)%8)
		if err != nil {
			t.Fatal(err)
		}
		checkSchedulersMatchReference(t, g, seed)
	})
}
