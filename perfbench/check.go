package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"gameofcoins/internal/engine"
)

// checkSample is how many cold jobs per run are recomputed on a 1-worker
// engine after the timed window. Checking every job would double a run on
// the compute-bound workloads, so a seeded sample is checked instead.
const checkSample = 12

// checkCold recomputes a seeded sample of recs outside the timed window and
// returns one error per job whose served bytes differ from the reference:
// aggregates against engine.RunWire of the same envelope, streamed
// documents against the result ledger of the same envelope run on a
// 1-worker engine.Manager.
func checkCold(ctx context.Context, seed uint64, recs []coldRecord, n int) []error {
	eng := engine.New(1)
	mgr := engine.NewManager(eng)
	defer mgr.Close()
	var failures []error
	for _, i := range rand.New(rand.NewPCG(seed, 99)).Perm(len(recs))[:min(n, len(recs))] {
		rec := recs[i]
		if err := checkOne(ctx, eng, mgr, rec); err != nil {
			failures = append(failures, fmt.Errorf("check job %d: %w", rec.job.index, err))
		}
	}
	return failures
}

func checkOne(ctx context.Context, eng *engine.Engine, mgr *engine.Manager, rec coldRecord) error {
	if rec.docs == nil {
		ref, err := engine.RunWire(ctx, eng, rec.job.spec, rec.job.seed)
		if err != nil {
			return err
		}
		want, err := json.Marshal(ref)
		if err != nil {
			return err
		}
		if !bytes.Equal(rec.result, want) {
			return fmt.Errorf("served result differs from engine.RunWire")
		}
		return nil
	}
	rs, err := resolve(rec.job)
	if err != nil {
		return err
	}
	j, err := mgr.Submit(rs.Spec, rec.job.seed)
	if err != nil {
		return err
	}
	if err := j.Wait(ctx); err != nil {
		return err
	}
	want, err := j.ResultRange(0, rs.Spec.Tasks())
	if err != nil {
		return err
	}
	if err := sameDocs(rec.docs, want); err != nil {
		return fmt.Errorf("streamed documents differ from the reference ledger: %w", err)
	}
	return nil
}
