package server

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/store"
)

// MaxHandles caps the v2 handle table. Handles are minted per client and
// many clients never DELETE, so unlike the result cache the table is not
// bounded by job retention; past the cap the oldest handles are evicted
// (404 on later use) *without* canceling their jobs. A live handle keeps
// its job, so the cap also bounds the jobs handles keep alive.
const MaxHandles = 4 * engine.DefaultRetention

// jobTable is the server's job bookkeeping: the result cache, the v2
// handles with their refcounts and owners, and the v1 pins, as one entry
// per job reached by cache key, by handle and by job ID. Its invariants:
//
//   - an entry's refs is the number of live handles on it, so never below 0;
//   - a cache hit never answers with a job that ended without a result, and
//     a job about to be canceled leaves the cache before Cancel runs;
//   - the table cancels a job only when its last handle is released and no
//     v1 client pinned it, or on an explicit v1 cancel;
//   - a claim owned by one client is refused to every other (foreign).
//
// Lock order: mu may be held while taking engine.Manager and engine.Job
// mutexes and while enqueueing store writes (so the log sees mints,
// releases and pins in table order), never the reverse.
type jobTable struct {
	manager *engine.Manager
	persist func(op func(store.Store) error)

	mu         sync.Mutex
	cache      map[string]*jobEntry // guarded by mu; cache key → entry holding the result
	jobs       map[string]*jobEntry // guarded by mu; job id → entry while cached, held or pinned
	handles    map[string]*handle   // guarded by mu; handle id ("h-N", N in mint order) → one client's claim
	nextHandle uint64               // guarded by mu
}

// jobEntry is one job's bookkeeping, protected by the table's mutex. It
// keeps the *engine.Job itself, so a handle serves its job even after the
// Manager's retention policy evicted it.
type jobEntry struct {
	job    *engine.Job
	key    string         // cache key the job was submitted under ("" if never cached)
	refs   int            // live handles on the job
	owners map[string]int // owning client → live handles it holds; ownerless handles are not counted
	pinned bool           // a v1 client submitted or attached to the job
}

// handle is one client's claim on a job. owner is the authenticated client
// it was minted for; "" (open server, or rehydrated from a previous life)
// is ownerless and fails open to any client.
type handle struct {
	entry *jobEntry
	owner string
}

// refusal is a table operation refused with an HTTP status: 404 for an
// unknown handle, 403 for another client's claim, 409 for a v1 cancel of a
// job another client still holds.
type refusal struct {
	code int
	error
}

// foreign reports whether a claim owned by owner bars client. It is the one
// ownership rule: an owned claim belongs to its owner alone, an ownerless
// one to everybody. With auth enforced, handles are sequential ("h-1",
// "h-2", ...) and job IDs enumerable, so without it any tenant could read,
// release or cancel another's work. On an open server every client is "".
func foreign(owner, client string) bool { return owner != "" && owner != client }

func newJobTable(m *engine.Manager, persist func(op func(store.Store) error)) *jobTable {
	return &jobTable{
		manager: m,
		persist: persist,
		cache:   map[string]*jobEntry{},
		jobs:    map[string]*jobEntry{},
		handles: map[string]*handle{},
	}
}

// jobStart is what attach needs to start a job on a cache miss.
type jobStart struct {
	spec   engine.Spec
	rec    store.JobRecord // persisted for the new job, which gets its ID
	weight float64         // the envelope's priority-class weight
}

// attach answers a submission under key: it attaches to the servable job
// cached there, or starts one from js and caches it, then claims it — a v2
// handle owned by client, or with pin a v1 pin. Lookup, start and claim are
// one critical section, so concurrent identical submissions share one job
// and no last-handle release can cancel it in between. The JobHandle is the
// minted one (v2).
func (t *jobTable) attach(key string, pin bool, client string, js jobStart) (*engine.Job, bool, JobHandle, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, cached := t.cache[key]
	cached = cached && t.servableLocked(e.job)
	if !cached {
		// Every envelope submission is distributable: the record's canonical
		// document and pinned wire kind are the job's wire identity, and remote
		// workers resolve the kind through their (fingerprint-verified)
		// registry. Client and weight ride along for quota accounting and
		// priority — pure scheduling inputs, invisible to the job's result and
		// cache identity.
		job, err := t.manager.SubmitJobOpts("", js.spec, js.rec.Seed, engine.SubmitOptions{
			Remote: remoteInfo(js.rec), Client: client, Weight: js.weight})
		if err != nil {
			return nil, false, JobHandle{}, err
		}
		// Persistence of the job table is best-effort: a store hiccup costs
		// durability of this record, not the submission (the job still
		// runs). Enqueued before the claim so the log always carries a job
		// record ahead of the handle/pin ops that reference it — what the
		// store's garbage collection keys on.
		rec := js.rec
		rec.ID = job.ID()
		t.persist(func(st store.Store) error { return st.PutJob(rec) })
		e = t.cacheLocked(key, job)
	}
	var jh JobHandle
	switch {
	case !pin:
		jh = t.mintLocked(e, client)
	case !e.pinned:
		e.pinned = true
		t.persist(func(st store.Store) error { return st.PutPin(e.job.ID()) })
	}
	t.sweepLocked()
	jh.Clients = e.refs
	return e.job, cached, jh, nil
}

// cacheLocked enters job into the cache under key, dropping the entry it
// displaces (dangling, or an older record's on restore). Callers hold t.mu.
func (t *jobTable) cacheLocked(key string, job *engine.Job) *jobEntry {
	if old, ok := t.cache[key]; ok {
		t.dropLocked(old)
	}
	e := &jobEntry{job: job, key: key}
	t.jobs[job.ID()] = e
	t.cache[key] = e
	return e
}

// mintLocked creates a fresh handle on e for client and enqueues its
// persistence. Callers hold t.mu.
func (t *jobTable) mintLocked(e *jobEntry, client string) JobHandle {
	t.nextHandle++
	name := fmt.Sprintf("h-%d", t.nextHandle)
	t.addHandleLocked(name, e, client)
	t.persist(func(st store.Store) error { return st.PutHandle(name, e.job.ID()) })
	return JobHandle{Handle: name, Client: client}
}

func (t *jobTable) addHandleLocked(name string, e *jobEntry, owner string) {
	t.handles[name] = &handle{entry: e, owner: owner}
	e.refs++
	if owner != "" {
		if e.owners == nil {
			e.owners = map[string]int{}
		}
		e.owners[owner]++
	}
}

// claimLocked resolves a handle for client: 404 if unknown, 403 if another
// client owns it. Callers hold t.mu.
func (t *jobTable) claimLocked(name, client string) (*handle, error) {
	h, ok := t.handles[name]
	if !ok {
		return nil, refusal{http.StatusNotFound, fmt.Errorf("unknown handle %q", name)}
	}
	if foreign(h.owner, client) {
		return nil, refusal{http.StatusForbidden, fmt.Errorf("handle %q belongs to another client", name)}
	}
	return h, nil
}

// lookup resolves a handle to its job and the job's live handle count.
func (t *jobTable) lookup(name, client string) (*engine.Job, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, err := t.claimLocked(name, client)
	if err != nil {
		return nil, 0, err
	}
	return h.entry.job, h.entry.refs, nil
}

// release drops one client's handle and returns its job and the handles
// left on it. Releasing the last handle of a job no v1 client pinned
// cancels the job (a no-op if it already finished).
func (t *jobTable) release(name, client string) (*engine.Job, int, error) {
	t.mu.Lock()
	h, err := t.claimLocked(name, client)
	if err != nil {
		t.mu.Unlock()
		return nil, 0, err
	}
	e := h.entry
	t.removeHandleLocked(name, h)
	remaining := e.refs
	cancel := remaining == 0 && !e.pinned
	if cancel {
		t.retractLocked(e)
	}
	t.mu.Unlock()
	if cancel {
		e.job.Cancel()
	}
	return e.job, remaining, nil
}

// cancel is the v1 DELETE: it refuses a job another client submitted (403;
// dedup never reassigns the submitter) or holds a live handle on (409) —
// even the submitter may not pull a shared job from under another tenant;
// refcounted release is for that — then retracts and cancels the job.
// Check and retraction share one critical section, so no handle can be
// minted on the job in between.
func (t *jobTable) cancel(job *engine.Job, client string) error {
	if foreign(job.Client(), client) {
		return refusal{http.StatusForbidden, fmt.Errorf("job %s belongs to another client", job.ID())}
	}
	t.mu.Lock()
	if e, ok := t.jobs[job.ID()]; ok {
		for owner := range e.owners {
			if foreign(owner, client) {
				t.mu.Unlock()
				return refusal{http.StatusConflict, fmt.Errorf("job %s is claimed by another client's handle", job.ID())}
			}
		}
		t.retractLocked(e)
	}
	t.mu.Unlock()
	job.Cancel()
	return nil
}

// retract takes a job that ended without a result out of the cache.
func (t *jobTable) retract(job *engine.Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.jobs[job.ID()]; ok {
		t.retractLocked(e)
	}
}

// retractLocked takes e out of the cache unless its job already has a
// result (a finished job stays servable; Cancel is a no-op on it). Callers
// hold t.mu and retract before canceling, so no concurrent identical
// submission can attach to a job being torn down.
func (t *jobTable) retractLocked(e *jobEntry) {
	if _, done := e.job.Result(); !done {
		t.dropLocked(e)
	}
}

// servableLocked reports whether a cache hit may attach to job: the Manager
// still tracks it (an evicted job is unreachable over v1), and it has a
// result or is still running. Status is read before Result: a non-terminal
// snapshot is servable whatever happens next, and a terminal job already
// has its result set (the engine stores both under one lock), so a job
// finishing between the two reads is never misread as failed.
func (t *jobTable) servableLocked(job *engine.Job) bool {
	if j, err := t.manager.Get(job.ID()); err != nil || j != job {
		return false
	}
	st := job.Status()
	_, done := job.Result()
	return done || !st.State.Terminal()
}

// dropLocked takes a dangling (or doomed) entry out of the cache and its
// pin off; the entry itself survives only while handles hold it. Callers
// hold t.mu.
func (t *jobTable) dropLocked(e *jobEntry) {
	if t.cache[e.key] == e {
		delete(t.cache, e.key)
	}
	e.pinned = false
	t.forgetUnusedLocked(e)
}

// forgetUnusedLocked removes e once nothing refers to it: no cache key, no
// handle, no pin. Callers hold t.mu.
func (t *jobTable) forgetUnusedLocked(e *jobEntry) {
	if e.refs == 0 && !e.pinned && t.cache[e.key] != e {
		delete(t.jobs, e.job.ID())
	}
}

// removeHandleLocked is the one way a handle goes away, by release or
// eviction: it drops the handle and its owner count, enqueues DeleteHandle
// (under t.mu like the mint, so the log never resurrects a removed handle)
// and forgets the entry once nothing refers to it. Callers hold t.mu.
func (t *jobTable) removeHandleLocked(name string, h *handle) {
	delete(t.handles, name)
	t.persist(func(st store.Store) error { return st.DeleteHandle(name) })
	e := h.entry
	e.refs--
	if h.owner != "" {
		if e.owners[h.owner]--; e.owners[h.owner] == 0 {
			delete(e.owners, h.owner)
		}
	}
	t.forgetUnusedLocked(e)
}

// sweepLocked bounds the bookkeeping and is the one sweep for dangling
// entries. It runs when the handles outgrow MaxHandles or the entries no
// handle holds outgrow twice the Manager's retention. Cache entries and
// pins whose job the Manager evicted, or that ended without a result, are
// dropped; past MaxHandles the oldest handles are evicted to half the cap
// *without* canceling their jobs (a memory bound, not a cancellation
// signal). Sweeping well under both triggers keeps the amortized cost per
// attach low. Callers hold t.mu.
func (t *jobTable) sweepLocked() {
	if len(t.handles) <= MaxHandles && len(t.jobs) <= len(t.handles)+2*engine.DefaultRetention {
		return
	}
	for _, e := range t.jobs {
		if !t.servableLocked(e.job) {
			t.dropLocked(e)
		}
	}
	if len(t.handles) <= MaxHandles {
		return
	}
	names := slices.Collect(maps.Keys(t.handles))
	sort.Slice(names, func(i, k int) bool { return idLess(names[i], names[k], "h-") })
	for _, name := range names[:len(names)-MaxHandles/2] {
		t.removeHandleLocked(name, t.handles[name])
	}
}

// restore rebuilds the table from a previous life once its jobs are back in
// the Manager: each record's job re-enters the cache if servable — records
// in ID order, so a key's later job displaces an earlier one — then the
// handles and pins on the jobs that came back (a claim on one that did not
// would dangle). Ownership is in-memory only: rehydrated handles are
// ownerless and fail open.
func (t *jobTable) restore(jobs []store.JobRecord, snap *store.Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range jobs {
		if job, err := t.manager.Get(rec.ID); err == nil && t.servableLocked(job) {
			t.cacheLocked(rec.Key, job)
		}
	}
	for name, id := range snap.Handles {
		if e := t.restoredEntryLocked(id); e != nil {
			t.addHandleLocked(name, e, "")
		}
	}
	for id := range snap.Pins {
		if e := t.restoredEntryLocked(id); e != nil {
			e.pinned = true
		}
	}
	t.nextHandle = snap.NextHandle
}

// restoredEntryLocked returns the entry of a rehydrated job, creating an
// uncached one, or nil if the job did not come back. Callers hold t.mu.
func (t *jobTable) restoredEntryLocked(id string) *jobEntry {
	if e, ok := t.jobs[id]; ok {
		return e
	}
	job, err := t.manager.Get(id)
	if err != nil {
		return nil
	}
	e := &jobEntry{job: job}
	t.jobs[id] = e
	return e
}
