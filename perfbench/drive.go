package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/engine"
)

// coldRecord is one completed cold job: its latency, when the client first
// saw a per-task result, and what it returned — the compacted aggregate
// (Submit → Wait → Result lanes) or the streamed documents (the writer).
type coldRecord struct {
	job    job
	lat    time.Duration
	first  time.Duration
	result []byte
	docs   []json.RawMessage
}

// phase is what one timed window of the closed loop produced.
type phase struct {
	elapsed   time.Duration
	cold      []coldRecord
	hits      []time.Duration
	attempted int
	// paused is the time the serve-hot writer spent pausing, which the
	// rates leave out of its lane's time.
	paused time.Duration
	// sent is every envelope the window submitted, recorded in traced
	// windows only, for the registry replay that follows them.
	sent     []job
	failures []error
	res      resources
}

// phaseInput is the state a timed window drives.
type phaseInput struct {
	w       workload
	seed    uint64
	st      *stack
	tr      *tracer
	next    *atomic.Int64 // next cold job index, shared by the cold lanes
	hot     []job         // serve-hot working set
	hotWant [][]byte      // compacted results fetched in set-up
	// writerPause is the serve-hot writer's pause after each job.
	writerPause time.Duration
}

// runPhase runs the closed loop for d: each lane sends its next operation
// only after the previous one has completed. On the cold workloads both
// lanes run cold jobs; on serve-hot lane 0 is the reader (cache hits) and
// lane 1 the streaming writer, which pauses after each job.
func runPhase(ctx context.Context, in phaseInput, d time.Duration) phase {
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		ph.failures = append(ph.failures, err)
		mu.Unlock()
	}
	meter := startMeter()
	start := time.Now()
	deadline := start.Add(d)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := in.st.clients[lane]
			for k := 0; time.Now().Before(deadline); k++ {
				var j job
				hit := in.hot != nil && lane == 0
				if hit {
					j = in.hot[k%len(in.hot)]
				} else {
					j = in.w.cold(in.seed, int(in.next.Add(1)-1))
				}
				mu.Lock()
				ph.attempted++
				if in.tr.recording() {
					ph.sent = append(ph.sent, j)
				}
				mu.Unlock()
				if hit {
					lat, err := hitOp(ctx, c, in.tr, j, in.hotWant[j.index])
					if err != nil {
						fail(err)
						continue
					}
					mu.Lock()
					ph.hits = append(ph.hits, lat)
					mu.Unlock()
					continue
				}
				var rec coldRecord
				var err error
				if in.hot != nil {
					rec, err = streamOp(ctx, c, in.tr, j)
					pause := min(in.writerPause, time.Until(deadline))
					time.Sleep(pause)
					mu.Lock()
					ph.paused += max(pause, 0)
					mu.Unlock()
				} else {
					rec, err = coldOp(ctx, c, in.tr, j)
				}
				if err != nil {
					fail(fmt.Errorf("job %d: %w", j.index, err))
					continue
				}
				mu.Lock()
				ph.cold = append(ph.cold, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.res = meter.stop()
	return ph
}

// coldOp is Submit → Wait → Result → Release. Wait is the SDK's Watch
// drained to its terminal status, done here so the first progress snapshot
// whose watermark covers task 0 can be timed.
func coldOp(ctx context.Context, c *client.Client, tr *tracer, j job) (coldRecord, error) {
	rec := coldRecord{job: j}
	ctx, finish := tr.root(ctx, "bench.job")
	defer finish()
	start := time.Now()
	h, err := c.SubmitSpec(ctx, j.spec, j.seed)
	if err != nil {
		return rec, err
	}
	if h.Submitted.Cached {
		return rec, errors.New("cold job answered from cache")
	}
	ch, err := h.Watch(ctx)
	if err != nil {
		return rec, err
	}
	var last engine.Status
	for st := range ch {
		if rec.first == 0 && st.Progress.Watermark > 0 {
			rec.first = time.Since(start)
		}
		last = st
	}
	if last.State != engine.StateDone {
		return rec, fmt.Errorf("job %s ended %q: %s", h.ID(), last.State, last.Error)
	}
	var raw json.RawMessage
	if err := h.Result(ctx, &raw); err != nil {
		return rec, err
	}
	rec.lat = time.Since(start)
	if rec.first == 0 {
		rec.first = rec.lat
	}
	if rec.result, err = compact(raw); err != nil {
		return rec, err
	}
	return rec, h.Release(ctx)
}

// streamOp is the serve-hot writer: Submit → StreamResult → Release. Each
// streamed document must arrive exactly once, in index order, and equal the
// ?range= fetch of its index.
func streamOp(ctx context.Context, c *client.Client, tr *tracer, j job) (coldRecord, error) {
	rec := coldRecord{job: j}
	ctx, finish := tr.root(ctx, "bench.job")
	defer finish()
	start := time.Now()
	h, err := c.SubmitSpec(ctx, j.spec, j.seed)
	if err != nil {
		return rec, err
	}
	if h.Submitted.Cached {
		return rec, errors.New("cold job answered from cache")
	}
	st, err := h.StreamResult(ctx, func(task int, doc json.RawMessage) error {
		if task != len(rec.docs) {
			return fmt.Errorf("streamed task %d, want %d", task, len(rec.docs))
		}
		if task == 0 {
			rec.first = time.Since(start)
		}
		rec.docs = append(rec.docs, append(json.RawMessage(nil), doc...))
		return nil
	})
	if err != nil {
		return rec, err
	}
	rec.lat = time.Since(start)
	if st.State != engine.StateDone || len(rec.docs) != j.spec.Tasks() {
		return rec, fmt.Errorf("job %s ended %q after %d of %d documents", h.ID(), st.State, len(rec.docs), j.spec.Tasks())
	}
	ranged, err := h.ResultRange(ctx, 0, len(rec.docs))
	if err != nil {
		return rec, err
	}
	if err := sameDocs(rec.docs, ranged); err != nil {
		return rec, fmt.Errorf("streamed vs ?range=: %w", err)
	}
	return rec, h.Release(ctx)
}

// hitOp resubmits a working-set envelope (deduped onto the finished job),
// then Wait → Result → Release: four requests, answered from the cache.
func hitOp(ctx context.Context, c *client.Client, tr *tracer, j job, want []byte) (time.Duration, error) {
	ctx, finish := tr.root(ctx, "bench.op")
	defer finish()
	start := time.Now()
	h, err := c.SubmitSpec(ctx, j.spec, j.seed)
	if err != nil {
		return 0, err
	}
	if !h.Submitted.Cached {
		return 0, errors.New("working-set envelope missed the cache")
	}
	if _, err := h.Wait(ctx); err != nil {
		return 0, err
	}
	var raw json.RawMessage
	if err := h.Result(ctx, &raw); err != nil {
		return 0, err
	}
	if err := h.Release(ctx); err != nil {
		return 0, err
	}
	lat := time.Since(start)
	got, err := compact(raw)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("hit on working-set job %d returned other bytes than set-up fetched", j.index)
	}
	return lat, nil
}

func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("compact result: %w", err)
	}
	return buf.Bytes(), nil
}

// sameDocs reports the first index at which two document lists differ.
func sameDocs(got, want []json.RawMessage) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d documents, want %d", len(got), len(want))
	}
	for i := range got {
		a, err := compact(got[i])
		if err != nil {
			return err
		}
		b, err := compact(want[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("document %d differs", i)
		}
	}
	return nil
}

// timeRegistry times, from the benchmark side, the engine registry calls
// the server makes for every submitted envelope: ResolveEnvelope (schema
// validation and decode), ResolveSpec + CanonicalSpecJSON, CacheKeyJSON.
// It runs once per envelope a traced window sent, after that window, so
// the replay takes no time from the window's ops. Each envelope's calls
// form a root span of their own, left out of the busy-time split: the
// server's own calls are already inside the server.submit span's self time.
func timeRegistry(ctx context.Context, tr *tracer, j job) {
	ctx, finish := tr.root(ctx, "engine.registry")
	defer finish()
	raw, err := engine.CanonicalSpecJSON(j.spec)
	if err != nil {
		return
	}
	var rs engine.ResolvedSpec
	tr.timed(ctx, "engine.resolve", func() {
		rs, err = engine.ResolveEnvelope(engine.JobEnvelope{Kind: j.spec.Kind(), Seed: j.seed, Spec: raw})
	})
	if err != nil {
		return
	}
	var canonical json.RawMessage
	tr.timed(ctx, "engine.canonical", func() {
		var spec engine.Spec
		if spec, err = engine.ResolveSpec(rs.Spec, nil); err == nil {
			canonical, err = engine.CanonicalSpecJSON(spec)
		}
	})
	if err != nil {
		return
	}
	tr.timed(ctx, "engine.cachekey", func() { _ = engine.CacheKeyJSON(rs.WireKind(), canonical, j.seed) })
}
