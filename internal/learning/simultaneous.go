package learning

import (
	"gameofcoins/internal/core"
)

// SimultaneousResult reports a RunSimultaneous execution.
type SimultaneousResult struct {
	Final     core.Config
	Rounds    int
	Converged bool
	// Cycled reports that the dynamics revisited a configuration without
	// converging — the behaviour Theorem 1 rules out for *sequential*
	// better response but which simultaneous updates exhibit.
	Cycled bool
}

// RunSimultaneous runs the natural-but-wrong variant of the dynamics in
// which, each round, every unstable miner simultaneously moves to its best
// response computed against the *current* configuration.
//
// This is an ablation, not part of the paper's model: Theorem 1's ordinal
// potential argument applies to one-miner-at-a-time improving steps, and
// simultaneous updates break it — two miners can chase the same
// high-RPU coin, overshoot, and chase each other back forever. The
// two-miner symmetric game cycles under this dynamic (see tests and
// experiment E12), which is precisely why the paper's "some miner will take
// a step" sequential model matters.
func RunSimultaneous(g *core.Game, s0 core.Config, maxRounds int) (SimultaneousResult, error) {
	if err := g.ValidateConfig(s0); err != nil {
		return SimultaneousResult{}, err
	}
	if maxRounds <= 0 {
		maxRounds = 1000
	}
	s := s0.Clone()
	seen := map[string]int{s.Key(): 0}
	var res SimultaneousResult
	for round := 1; round <= maxRounds; round++ {
		next := s.Clone()
		moved := false
		powers := g.CoinPowers(s)
		for p := range s {
			if c, ok := g.BestResponseWith(s, p, powers); ok {
				next[p] = c
				moved = true
			}
		}
		if !moved {
			res.Final = s
			res.Rounds = round - 1
			res.Converged = true
			return res, nil
		}
		s = next
		res.Rounds = round
		if _, dup := seen[s.Key()]; dup {
			res.Final = s
			res.Cycled = true
			return res, nil
		}
		seen[s.Key()] = round
	}
	res.Final = s
	return res, nil
}
