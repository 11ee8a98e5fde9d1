package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
)

// tracedSpec delegates to a real built-in spec and records spans for its
// task compute, the queue wait before each task (task start minus job
// submit), its per-task ledger encode and its aggregate. It implements the
// same optional interfaces the built-ins do (Validator, Sizer, TaskCoder),
// so the engine schedules, ledgers and aggregates it exactly as it would
// the spec itself.
type tracedSpec struct {
	inner     engine.Spec
	tr        *tracer
	job       spanRef
	submitted int64
	module    string
	gen       core.GenSpec // equilibrium_sweep only: sizes the mⁿ count
}

func (s *tracedSpec) Kind() string { return s.inner.Kind() }

func (s *tracedSpec) Tasks() int { return s.inner.Tasks() }

func (s *tracedSpec) Validate() error {
	if v, ok := s.inner.(engine.Validator); ok {
		return v.Validate()
	}
	return nil
}

func (s *tracedSpec) TaskCost(i int) float64 {
	if z, ok := s.inner.(engine.Sizer); ok {
		return z.TaskCost(i)
	}
	return 1
}

func (s *tracedSpec) child(name string, start, end int64) {
	s.tr.add(span{ID: s.tr.newID(), Parent: s.job.id, Req: s.job.req, Name: name, Start: start, End: end})
}

func (s *tracedSpec) RunTask(ctx context.Context, i int, r *rng.Rand) (any, error) {
	start := s.tr.now()
	s.child("engine.queue_wait", s.submitted, start)
	out, err := s.inner.RunTask(ctx, i, r)
	s.child(s.module+".task", start, s.tr.now())
	return out, err
}

func (s *tracedSpec) EncodeTaskResult(res any) (json.RawMessage, error) {
	start := s.tr.now()
	raw, err := s.inner.(engine.TaskCoder).EncodeTaskResult(res)
	s.child("engine.encode", start, s.tr.now())
	if err != nil {
		return nil, err
	}
	s.tr.count("engine.doc_bytes", float64(len(raw)))
	s.tr.count(s.module+".tasks", 1)
	switch s.module {
	case "learning", "design":
		// Both task documents carry the run's step count.
		var doc struct {
			Steps float64 `json:"steps"`
		}
		if json.Unmarshal(raw, &doc) == nil {
			s.tr.count(s.module+".steps", doc.Steps)
		}
	case "equilibria":
		s.tr.count("equilibria.configs", math.Pow(float64(s.gen.Coins), float64(s.gen.Miners)))
	}
	return raw, nil
}

func (s *tracedSpec) DecodeTaskResult(raw json.RawMessage) (any, error) {
	return s.inner.(engine.TaskCoder).DecodeTaskResult(raw)
}

func (s *tracedSpec) Aggregate(results []any) (any, error) {
	start := s.tr.now()
	out, err := s.inner.Aggregate(results)
	s.child("engine.aggregate", start, s.tr.now())
	return out, err
}

// passResult is what the engine pass measured.
type passResult struct {
	elapsed  time.Duration
	jobs     int
	failures []error
}

// enginePass sends the traced HTTP phase's cold jobs, in order, through a
// bare engine.Manager with the same worker count and the same
// two-submitter closed loop, each spec wrapped in a tracedSpec. Submitters
// stop taking jobs after budget, which bounds a traced run's length. Every
// job's aggregate (or, for streamed jobs, its per-task documents) must
// equal what the HTTP run returned.
func enginePass(ctx context.Context, tr *tracer, recs []coldRecord, budget time.Duration) passResult {
	mgr := engine.NewManager(engine.New(workers))
	defer mgr.Close()
	var (
		next atomic.Int64
		done atomic.Int64
		mu   sync.Mutex
		res  passResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				done.Add(1)
				if err := passJob(ctx, mgr, tr, recs[i]); err != nil {
					mu.Lock()
					res.failures = append(res.failures, fmt.Errorf("engine pass, job %d: %w", recs[i].job.index, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.jobs = int(done.Load())
	return res
}

func passJob(ctx context.Context, mgr *engine.Manager, tr *tracer, rec coldRecord) error {
	rs, err := resolve(rec.job)
	if err != nil {
		return err
	}
	id := tr.newID()
	ts := &tracedSpec{inner: rs.Spec, tr: tr, job: spanRef{id: id, req: id}, module: computeModule(rs.Kind)}
	if eq, ok := rs.Spec.(engine.EquilibriumSweep); ok {
		ts.gen = eq.Gen
	}
	ts.submitted = tr.now()
	j, err := mgr.Submit(ts, rec.job.seed)
	if err != nil {
		return err
	}
	if err := j.Wait(ctx); err != nil {
		return err
	}
	out, _ := j.Result()
	var b []byte
	start := tr.now()
	b, err = json.Marshal(out)
	ts.child("engine.result_json", start, tr.now())
	tr.add(span{ID: id, Req: id, Name: "engine.job", Start: ts.submitted, End: tr.now()})
	if err != nil {
		return err
	}
	tr.count("engine.result_bytes", float64(len(b)))
	if rec.docs != nil {
		docs, err := j.ResultRange(0, rs.Spec.Tasks())
		if err != nil {
			return err
		}
		return sameDocs(docs, rec.docs)
	}
	if !bytes.Equal(b, rec.result) {
		return fmt.Errorf("aggregate differs from the HTTP result")
	}
	return nil
}

// resolve sends a generated job through the registry exactly as the server
// does for its envelope: canonical encoding, version resolution, schema
// validation, decode.
func resolve(j job) (engine.ResolvedSpec, error) {
	raw, err := engine.CanonicalSpecJSON(j.spec)
	if err != nil {
		return engine.ResolvedSpec{}, err
	}
	return engine.ResolveEnvelope(engine.JobEnvelope{Kind: j.spec.Kind(), Seed: j.seed, Spec: raw})
}
