package server

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

// size is the table's bookkeeping: handles plus job entries (cache entries
// are a subset of the latter).
func (t *jobTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.handles) + len(t.jobs)
}

// audit checks the table's structural invariants: every handle and cache
// entry is registered under its job, refs and owner counts equal the live
// handles, no entry outlives its last reference, and no cache entry points
// at a job that ended without a result.
func (t *jobTable) audit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	refs := map[*jobEntry]int{}
	owners := map[*jobEntry]map[string]int{}
	for name, h := range t.handles {
		if t.jobs[h.entry.job.ID()] != h.entry {
			return fmt.Errorf("handle %s: entry of %s not registered", name, h.entry.job.ID())
		}
		refs[h.entry]++
		if h.owner != "" {
			if owners[h.entry] == nil {
				owners[h.entry] = map[string]int{}
			}
			owners[h.entry][h.owner]++
		}
	}
	for id, e := range t.jobs {
		switch {
		case e.job.ID() != id:
			return fmt.Errorf("entry of %s registered as %s", e.job.ID(), id)
		case e.refs < 0 || e.refs != refs[e]:
			return fmt.Errorf("%s: refs %d, live handles %d", id, e.refs, refs[e])
		case !maps.Equal(e.owners, owners[e]):
			return fmt.Errorf("%s: owners %v, live handles' owners %v", id, e.owners, owners[e])
		case e.refs == 0 && !e.pinned && t.cache[e.key] != e:
			return fmt.Errorf("%s: unreferenced entry kept", id)
		}
	}
	for key, e := range t.cache {
		if e.key != key || t.jobs[e.job.ID()] != e {
			return fmt.Errorf("cache entry %s of %s not registered", key, e.job.ID())
		}
		if st := e.job.Status().State; st == engine.StateCanceled || st == engine.StateFailed {
			return fmt.Errorf("cache entry %s points at %s job %s", key, st, e.job.ID())
		}
	}
	return nil
}

// TestLiveHandleOutlivesManagerEviction: the engine manager evicts finished
// jobs past its retention, but a client still holding a v2 handle must keep
// getting that job's result — the handle used to dangle into a 404 "unknown
// job" once enough other jobs had come and gone.
func TestLiveHandleOutlivesManagerEviction(t *testing.T) {
	s := New(2)
	defer s.Close()
	submit := func(seed int) JobHandle {
		t.Helper()
		body := fmt.Sprintf(`{"kind":"toy_sum","seed":%d,"spec":{"n":1}}`, seed)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/jobs", strings.NewReader(body)))
		var jh JobHandle
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &jh) != nil {
			t.Fatalf("submit seed %d: %d %s", seed, rec.Code, rec.Body)
		}
		job, err := s.manager.Get(jh.ID)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		return jh
	}
	kept := submit(0)
	for seed := 1; seed <= engine.DefaultRetention+104; seed++ {
		jh := submit(seed)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v2/jobs/"+jh.Handle, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("release %s: %d %s", jh.Handle, rec.Code, rec.Body)
		}
	}
	if _, err := s.manager.Get(kept.ID); err == nil {
		t.Fatalf("%s still tracked by the manager; the test no longer exercises eviction", kept.ID)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/jobs/"+kept.Handle+"/result", nil))
	var res struct {
		ID     string `json:"id"`
		Result int    `json:"result"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil || res.ID != kept.ID {
		t.Fatalf("live handle %s after eviction: %d %s", kept.Handle, rec.Code, rec.Body)
	}
}

// TestHandleEvictionPastMaxHandles: past MaxHandles the oldest handles are
// evicted down to half the cap, newest kept, and the job they shared keeps
// running — eviction bounds memory, it is not a release.
func TestHandleEvictionPastMaxHandles(t *testing.T) {
	s := New(1)
	defer s.Close()
	name := fmt.Sprintf("evict-%d", latchRun.Add(1))
	defer close(latch(name))
	js := jobStart{spec: latchSpec{Name: name}}
	var job *engine.Job
	var last JobHandle
	for i := 0; i <= MaxHandles; i++ {
		var err error
		if job, _, last, err = s.table.attach("evict", false, "", js); err != nil {
			t.Fatal(err)
		}
	}
	if last.Clients != MaxHandles/2 {
		t.Fatalf("clients after eviction = %d, want %d", last.Clients, MaxHandles/2)
	}
	if _, _, err := s.table.lookup("h-1", ""); err == nil {
		t.Fatal("oldest handle survived eviction")
	}
	if _, n, err := s.table.lookup(last.Handle, ""); err != nil || n != MaxHandles/2 {
		t.Fatalf("newest handle after eviction: %d, %v", n, err)
	}
	if st := job.Status(); st.State != engine.StateRunning {
		t.Fatalf("eviction ended the shared job: %s", st.State)
	}
	if err := s.table.audit(); err != nil {
		t.Fatal(err)
	}
}

// TestRehydrateDisplacedCacheEntry: two finished records under one cache key
// (the older one's job had been evicted when the newer ran) come back with
// the newer one cached and no entry left behind for the older.
func TestRehydrateDisplacedCacheEntry(t *testing.T) {
	mem := store.NewMem()
	for _, id := range []string{"job-1", "job-2"} {
		rec := store.JobRecord{ID: id, Key: "same-key", Kind: "test_latch", Version: 1, Tasks: 1,
			Spec: json.RawMessage(`{"name":"displaced"}`), State: store.JobDone, Result: json.RawMessage(`1`)}
		if err := mem.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewWithOptions(1, Options{Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.table.audit(); err != nil {
		t.Fatal(err)
	}
	if n := s.table.size(); n != 1 {
		t.Fatalf("table holds %d entries, want 1", n)
	}
}

// latchSpec is a one-task job that runs until its latch opens, so the model
// test decides when a job finishes.
type latchSpec struct {
	Name string `json:"name"`
}

var latches sync.Map // name → chan struct{}

func latch(name string) chan struct{} {
	ch, _ := latches.LoadOrStore(name, make(chan struct{}))
	return ch.(chan struct{})
}

func (s latchSpec) Kind() string { return "test_latch" }
func (s latchSpec) Tasks() int   { return 1 }
func (s latchSpec) RunTask(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
	select {
	case <-latch(s.Name):
		return 1, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (s latchSpec) Aggregate(results []any) (any, error) { return len(results), nil }

func init() {
	engine.RegisterSpec("test_latch", 1, engine.DecodeJSON[latchSpec](), nil)
}

var latchRun atomic.Int64

// Reference model of the job table, as clients observe it.
type (
	modelJob struct {
		id     string
		key    int
		state  engine.State
		client string // the submitter the engine records; "" after a restart
		pinned bool
	}
	modelHandle struct {
		job   *modelJob
		owner string
	}
	tableModel struct {
		jobs    []*modelJob
		cache   map[int]*modelJob // key → the job a submission attaches to
		handles map[string]*modelHandle
		minted  int
	}
)

func (m *tableModel) refs(j *modelJob) int {
	n := 0
	for _, h := range m.handles {
		if h.job == j {
			n++
		}
	}
	return n
}

// heldByOther reports whether a client other than client owns a live
// handle on j.
func (m *tableModel) heldByOther(j *modelJob, client string) bool {
	for _, h := range m.handles {
		if h.job == j && foreign(h.owner, client) {
			return true
		}
	}
	return false
}

// tableHarness drives a keyed server over a store.Mem that outlives restarts.
type tableHarness struct {
	t       *testing.T
	rnd     *rand.Rand
	mem     *store.Mem
	keys    *traffic.Keyring
	s       *Server
	latches []string // per cache key
	m       tableModel
}

var modelClients = []string{"alice", "bob"}

func (h *tableHarness) open() {
	s, err := NewWithOptions(4, Options{Store: h.mem, Traffic: traffic.New(traffic.Config{Keyring: h.keys})})
	if err != nil {
		h.t.Fatal(err)
	}
	h.s = s
}

func (h *tableHarness) do(method, path, client, body string, out any) int {
	h.t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+client+"-secret-key")
	rec := httptest.NewRecorder()
	h.s.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			h.t.Fatalf("%s %s: %v\n%s", method, path, err, rec.Body)
		}
	}
	return rec.Code
}

func (h *tableHarness) envelope(key int) string {
	return fmt.Sprintf(`{"kind":"test_latch","seed":7,"spec":{"name":%q}}`, h.latches[key])
}

// expectAttach applies one submission of key by client to the model and
// checks the server's answer against it.
func (h *tableHarness) expectAttach(op string, key int, client string, job engine.Status, cached bool, jh *JobHandle) {
	h.t.Helper()
	m := &h.m
	j := m.cache[key]
	if cached != (j != nil) || (j != nil && job.ID != j.id) {
		h.t.Fatalf("%s key %d: server answered %s cached=%v, model expects %+v", op, key, job.ID, cached, j)
	}
	if j == nil {
		j = &modelJob{id: job.ID, key: key, state: engine.StateRunning, client: client}
		m.jobs = append(m.jobs, j)
		m.cache[key] = j
	}
	if jh == nil {
		j.pinned = true
		return
	}
	m.minted++
	if want := fmt.Sprintf("h-%d", m.minted); jh.Handle != want {
		h.t.Fatalf("%s key %d: minted %s, model expects %s", op, key, jh.Handle, want)
	}
	m.handles[jh.Handle] = &modelHandle{job: j, owner: client}
	if jh.Clients != m.refs(j) {
		h.t.Fatalf("%s key %d: clients %d, model expects %d", op, key, jh.Clients, m.refs(j))
	}
}

// cancelModel marks j canceled, as the server must have, and waits for the
// engine to agree.
func (h *tableHarness) cancelModel(j *modelJob) {
	if j.state != engine.StateRunning {
		return
	}
	j.state = engine.StateCanceled
	delete(h.m.cache, j.key)
	h.waitJob(j)
}

func (h *tableHarness) waitJob(j *modelJob) {
	h.t.Helper()
	job, err := h.s.manager.Get(j.id)
	if err != nil {
		h.t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		h.t.Fatalf("%s never ended; model expects %s", j.id, j.state)
	}
}

func (h *tableHarness) pickHandle() string {
	names := slices.Sorted(maps.Keys(h.m.handles))
	if len(names) == 0 || h.rnd.IntN(8) == 0 {
		return fmt.Sprintf("h-%d", h.rnd.IntN(h.m.minted+2)+1) // maybe released, maybe never minted
	}
	return names[h.rnd.IntN(len(names))]
}

func (h *tableHarness) step() string {
	m, rnd := &h.m, h.rnd
	client := modelClients[rnd.IntN(len(modelClients))]
	key := rnd.IntN(len(h.latches))
	switch op := rnd.IntN(20); {
	case op < 5:
		var jh JobHandle
		if code := h.do(http.MethodPost, "/v2/jobs", client, h.envelope(key), &jh); code != http.StatusCreated {
			h.t.Fatalf("v2 submit: %d", code)
		}
		h.expectAttach("v2 submit", key, client, jh.Status, jh.Cached, &jh)
		return fmt.Sprintf("%s v2 submit key %d → %s", client, key, jh.Handle)
	case op < 7:
		items := make([]string, 1+rnd.IntN(3))
		keys := make([]int, len(items))
		for i := range items {
			keys[i] = rnd.IntN(len(h.latches))
			items[i] = h.envelope(keys[i])
		}
		var out struct{ Results []BatchResult }
		if code := h.do(http.MethodPost, "/v2/batch", client, `{"jobs":[`+strings.Join(items, ",")+`]}`, &out); code != http.StatusOK || len(out.Results) != len(items) {
			h.t.Fatalf("batch: %d %+v", code, out)
		}
		for i, r := range out.Results {
			if r.Job == nil {
				h.t.Fatalf("batch item %d: %+v", i, r)
			}
			h.expectAttach("batch item", keys[i], client, r.Job.Status, r.Job.Cached, r.Job)
		}
		return fmt.Sprintf("%s batch keys %v", client, keys)
	case op < 9:
		// The v1 wire form has no custom kinds; this is the path POST
		// /v1/jobs takes after translating its request into an envelope.
		env := engine.JobEnvelope{Kind: "test_latch", Seed: 7, Spec: json.RawMessage(fmt.Sprintf(`{"name":%q}`, h.latches[key]))}
		jh, err := h.s.submitEnvelope(env, true, client)
		if err != nil {
			h.t.Fatal(err)
		}
		h.expectAttach("v1 submit", key, client, jh.Status, jh.Cached, nil)
		return fmt.Sprintf("%s v1 submit key %d → %s", client, key, jh.ID)
	case op < 13:
		name := h.pickHandle()
		var jh JobHandle
		code := h.do(http.MethodDelete, "/v2/jobs/"+name, client, "", &jh)
		mh, live := m.handles[name]
		switch {
		case !live:
			if code != http.StatusNotFound {
				h.t.Fatalf("release of dead handle %s: %d", name, code)
			}
		case foreign(mh.owner, client):
			if code != http.StatusForbidden {
				h.t.Fatalf("foreign release of %s: %d, want 403", name, code)
			}
		default:
			delete(m.handles, name)
			if code != http.StatusOK || jh.Clients != m.refs(mh.job) {
				h.t.Fatalf("release %s: %d clients %d, model expects 200 clients %d", name, code, jh.Clients, m.refs(mh.job))
			}
			if m.refs(mh.job) == 0 && !mh.job.pinned {
				h.cancelModel(mh.job)
			}
		}
		return fmt.Sprintf("%s release %s → %d", client, name, code)
	case op < 15:
		if len(m.jobs) == 0 {
			return "no job to cancel"
		}
		j := m.jobs[rnd.IntN(len(m.jobs))]
		code := h.do(http.MethodDelete, "/v1/jobs/"+j.id, client, "", nil)
		want := http.StatusOK
		switch {
		case foreign(j.client, client):
			want = http.StatusForbidden
		case m.heldByOther(j, client):
			want = http.StatusConflict
		}
		if code != want {
			h.t.Fatalf("%s v1 cancel of %s: %d, model expects %d", client, j.id, code, want)
		}
		if code == http.StatusOK {
			h.cancelModel(j)
		}
		return fmt.Sprintf("%s v1 cancel %s → %d", client, j.id, code)
	case op < 18:
		j := m.cache[key]
		if j == nil || j.state != engine.StateRunning {
			return fmt.Sprintf("key %d has no running job", key)
		}
		close(latch(h.latches[key]))
		j.state = engine.StateDone
		h.waitJob(j)
		return fmt.Sprintf("finish %s", j.id)
	default:
		h.restart()
		return "restart"
	}
}

// restart waits for every terminal job's record to reach the store, then
// closes the server and opens a new one on the same store. Handles come back
// ownerless and jobs unattributed; running jobs recompute under their IDs.
func (h *tableHarness) restart() {
	h.t.Helper()
	states := map[engine.State]string{engine.StateRunning: store.JobSubmitted, engine.StateDone: store.JobDone, engine.StateCanceled: store.JobCanceled}
	deadline := time.Now().Add(10 * time.Second)
	for _, j := range h.m.jobs {
		for {
			snap, err := h.mem.Load()
			if err != nil {
				h.t.Fatal(err)
			}
			if snap.Jobs[j.id].State == states[j.state] {
				break
			}
			if time.Now().After(deadline) {
				h.t.Fatalf("%s record %q never reached %q", j.id, snap.Jobs[j.id].State, states[j.state])
			}
			time.Sleep(time.Millisecond)
		}
	}
	h.s.Close()
	h.open()
	for _, j := range h.m.jobs {
		j.client = ""
	}
	for _, mh := range h.m.handles {
		mh.owner = ""
	}
}

// check compares every handle and job the model knows against the server,
// tries each owned handle as a foreign client, and audits the table.
func (h *tableHarness) check() {
	h.t.Helper()
	m := &h.m
	for name, mh := range m.handles {
		reader := mh.owner
		if reader == "" {
			reader = modelClients[0] // ownerless: any client may read it
		}
		var jh JobHandle
		if code := h.do(http.MethodGet, "/v2/jobs/"+name, reader, "", &jh); code != http.StatusOK {
			h.t.Fatalf("read %s as %s: %d", name, reader, code)
		}
		if jh.ID != mh.job.id || jh.Clients != m.refs(mh.job) || jh.State != mh.job.state {
			h.t.Fatalf("%s: server %s clients %d %s, model %s clients %d %s",
				name, jh.ID, jh.Clients, jh.State, mh.job.id, m.refs(mh.job), mh.job.state)
		}
		for _, other := range modelClients {
			if foreign(mh.owner, other) {
				if code := h.do(http.MethodGet, "/v2/jobs/"+name, other, "", nil); code != http.StatusForbidden {
					h.t.Fatalf("foreign read of %s by %s: %d, want 403", name, other, code)
				}
			}
		}
	}
	for _, j := range m.jobs {
		var st engine.Status
		if code := h.do(http.MethodGet, "/v1/jobs/"+j.id, "alice", "", &st); code != http.StatusOK || st.State != j.state {
			h.t.Fatalf("%s: %d %s, model expects %s", j.id, code, st.State, j.state)
		}
	}
	if err := h.s.table.audit(); err != nil {
		h.t.Fatal(err)
	}
}

// TestJobTableModel runs seeded random sequences of v1 and v2 submissions
// (batch items included), releases, v1 cancels, job completions and
// restarts over one store.Mem against a reference model. After every step
// each handle's refcount, job and state, each job's state, and the table's
// own invariants must match; foreign clients must get 403 without changing
// anything, and a job may end canceled only when the model canceled it: at
// refcount zero while unpinned, or by an explicit v1 cancel.
func TestJobTableModel(t *testing.T) {
	keys, err := traffic.ParseKeyring(strings.NewReader("alice:alice-secret-key\nbob:bob-secret-key"))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := &tableHarness{
				t:    t,
				rnd:  rand.New(rand.NewPCG(seed, 13)),
				mem:  store.NewMem(),
				keys: keys,
				m:    tableModel{cache: map[int]*modelJob{}, handles: map[string]*modelHandle{}},
			}
			run := latchRun.Add(1)
			for k := 0; k < 3; k++ {
				h.latches = append(h.latches, fmt.Sprintf("model-%d-%d", run, k))
			}
			h.open()
			defer func() {
				h.s.Close()
				for _, name := range h.latches {
					latches.Delete(name)
				}
			}()
			var trail []string
			defer func() {
				if t.Failed() {
					t.Logf("steps before the failure:\n%s", strings.Join(trail, "\n"))
				}
			}()
			for i := 0; i < 60; i++ {
				trail = append(trail, h.step())
				h.check()
			}
		})
	}
}
