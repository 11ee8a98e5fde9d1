package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/store"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each module's public surface: an http.RoundTripper under the
// client SDK, a middleware around (*server.Server).ServeHTTP, a store.Store
// decorator, benchmark-side calls into the engine registry, and a
// delegating engine.Spec in the engine pass. Spans stay in memory and are
// written out when the run ends.

// span is one timed call. Parent is 0 for a root; Req groups the spans of
// one client operation (or one engine-pass job).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// module is the layer a span belongs to: the text before the first dot.
func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// waitSpans cover time spent waiting for other work (a job's tasks, the
// queue, the loop itself) rather than doing work in their own module; they
// are excluded from the busy-time split.
var waitSpans = map[string]bool{
	"bench.op": true, "bench.job": true, "engine.job": true, "engine.queue_wait": true,
	"client.events": true, "server.events": true,
}

// replaySpans time benchmark-side repeats of calls the server also makes
// itself (timeRegistry). They feed the engine registry metrics and are
// left out of the busy-time split, which would otherwise count that work
// twice.
var replaySpans = map[string]bool{
	"engine.registry": true, "engine.resolve": true, "engine.canonical": true, "engine.cachekey": true,
}

// passSpans are the spans the engine pass records.
var passSpans = map[string]bool{
	"engine.job": true, "engine.queue_wait": true, "engine.encode": true, "engine.aggregate": true,
	"engine.result_json": true, "learning.task": true, "equilibria.task": true, "design.task": true,
}

// tracer collects spans and counters while on.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64

	mu     sync.Mutex
	spans  []span             // guarded by mu
	counts map[string]float64 // guarded by mu
	// samples holds per-call values that are not spans: the client's time
	// to response headers, per route.
	samples map[string][]float64 // guarded by mu
	// load is the latest store open + rehydrate time: that of the stack
	// the timed window runs on.
	load time.Duration // guarded by mu
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) loadTime(d time.Duration) {
	t.mu.Lock()
	t.load = d
	t.mu.Unlock()
}

// spanRef is the (span, request) pair a child inherits from its context.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// root opens a root span for one operation; the returned context carries it
// to every call made on the operation's behalf. finish closes it. With the
// tracer off (or nil) both are no-ops.
func (t *tracer) root(ctx context.Context, name string) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, func() {}
	}
	id := t.newID()
	start := t.now()
	return withSpan(ctx, spanRef{id: id, req: id}), func() {
		t.add(span{ID: id, Req: id, Name: name, Start: start, End: t.now()})
	}
}

// recording reports whether spans are being recorded.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// timed runs fn as a child span of the span in ctx.
func (t *tracer) timed(ctx context.Context, name string, fn func()) {
	if t == nil || !t.on.Load() {
		fn()
		return
	}
	parent := spanFrom(ctx)
	start := t.now()
	fn()
	t.add(span{ID: t.newID(), Parent: parent.id, Req: parent.req, Name: name, Start: start, End: t.now()})
}

// route names an API request for per-route metrics.
func route(method, path, query string) string {
	switch {
	case method == http.MethodPost && path == "/v2/jobs":
		return "submit"
	case method == http.MethodDelete:
		return "release"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/result") && strings.Contains(query, "range="):
		return "range"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case strings.HasPrefix(path, "/v2/specs/"):
		return "spec"
	case path == "/v2/specs":
		return "catalog"
	case path == "/healthz":
		return "healthz"
	}
	return "other"
}

// spanHeader carries the client span to the server middleware, so server
// spans resolve to the client request that caused them.
const spanHeader = "X-Perfbench-Span"

// roundTripper wraps the client SDK's transport: one client.<route> span
// per request, from send to the end of the body, plus the time to headers
// as a counter.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return next.RoundTrip(req)
		}
		parent := spanFrom(req.Context())
		id := t.newID()
		name := "client." + route(req.Method, req.URL.Path, req.URL.RawQuery)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10)+":"+strconv.FormatUint(parent.req, 10))
		start := t.now()
		resp, err := next.RoundTrip(req)
		t.sample(name+".headers_ms", float64(t.now()-start)/1e6)
		if err != nil {
			t.add(span{ID: id, Parent: parent.id, Req: parent.req, Name: name, Start: start, End: t.now()})
			return nil, err
		}
		resp.Body = &tracedBody{ReadCloser: resp.Body, done: func(n int64) {
			t.add(span{ID: id, Parent: parent.id, Req: parent.req, Name: name, Start: start, End: t.now()})
			t.count("client.resp_bytes", float64(n))
		}}
		return resp, nil
	})
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// tracedBody reports the bytes read once, at EOF or Close, whichever is
// first.
type tracedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// middleware wraps (*server.Server).ServeHTTP: one server.<route> span per
// request, parented to the client span named in spanHeader.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		var parent, req uint64
		if p, q, ok := strings.Cut(r.Header.Get(spanHeader), ":"); ok {
			parent, _ = strconv.ParseUint(p, 10, 64)
			req, _ = strconv.ParseUint(q, 10, 64)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := t.now()
		next.ServeHTTP(sw, r)
		t.add(span{ID: t.newID(), Parent: parent, Req: req,
			Name: "server." + route(r.Method, r.URL.Path, r.URL.RawQuery), Start: start, End: t.now()})
		if sw.code < 200 || sw.code > 299 {
			t.count("server.non2xx", 1)
		}
	})
}

// statusWriter records the status code and keeps SSE flushing working.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// storeLogName is the file store's operation log inside its directory; the
// decorator stats it around each write to count appended bytes.
const storeLogName = "log.jsonl"

// tracedStore decorates the server's store: one store.<method> span per
// call (root spans: the server writes from its persistence goroutine, off
// any request), and the log bytes each write appended. A write that
// compacts the log shrinks it; those count as compactions, not bytes.
type tracedStore struct {
	inner   store.Store
	tr      *tracer
	logPath string
}

func (s *tracedStore) write(name string, fn func() error) error {
	if !s.tr.on.Load() {
		return fn()
	}
	before := fileSize(s.logPath)
	start := s.tr.now()
	err := fn()
	end := s.tr.now()
	s.tr.add(span{ID: s.tr.newID(), Name: "store." + name, Start: start, End: end})
	if d := fileSize(s.logPath) - before; d >= 0 {
		s.tr.count("store.log_bytes", float64(d))
	} else {
		s.tr.count("store.compactions", 1)
	}
	return err
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (s *tracedStore) Load() (store.Snapshot, error) { return s.inner.Load() }

func (s *tracedStore) PutGame(id string, g *core.Game) error {
	return s.write("put_game", func() error { return s.inner.PutGame(id, g) })
}

func (s *tracedStore) PutJob(rec store.JobRecord) error {
	return s.write("put_job", func() error { return s.inner.PutJob(rec) })
}

func (s *tracedStore) PutJobRange(jobID string, lo int, results []json.RawMessage) error {
	return s.write("put_job_range", func() error { return s.inner.PutJobRange(jobID, lo, results) })
}

func (s *tracedStore) PutHandle(handle, jobID string) error {
	return s.write("put_handle", func() error { return s.inner.PutHandle(handle, jobID) })
}

func (s *tracedStore) DeleteHandle(handle string) error {
	return s.write("delete_handle", func() error { return s.inner.DeleteHandle(handle) })
}

func (s *tracedStore) PutPin(jobID string) error {
	return s.write("put_pin", func() error { return s.inner.PutPin(jobID) })
}

func (s *tracedStore) Close() error { return s.inner.Close() }

// recorded is a copy of everything a tracer holds.
type recorded struct {
	spans   []span
	counts  map[string]float64
	samples map[string][]float64
	load    time.Duration
}

func (t *tracer) snapshot() recorded {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := recorded{spans: append([]span(nil), t.spans...), counts: map[string]float64{},
		samples: map[string][]float64{}, load: t.load}
	for k, v := range t.counts {
		r.counts[k] = v
	}
	for k, v := range t.samples {
		r.samples[k] = append([]float64(nil), v...)
	}
	return r
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End-s.Start-covered) * time.Nanosecond
	}
	return self
}

// unresolvedParents counts spans whose parent is not among spans.
func unresolvedParents(spans []span) int {
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	n := 0
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			n++
		}
	}
	return n
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
