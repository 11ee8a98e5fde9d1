// Package store persists gocserve's durable state: the game registry, the
// job table with its deterministic results, and the v2 handle/refcount
// bookkeeping. Everything the server keeps is a deterministic function of
// (canonical spec JSON, seed), so a persisted job record is a reusable
// artifact — after a restart a finished job serves its cached result
// byte-identically, and a job interrupted mid-run can simply be resubmitted
// under its original spec and seed.
//
// The Store interface is write-through: the server applies every mutation
// to its in-memory tables first and mirrors it into the store, then reads
// the whole state back once at startup (Load). Without a store (server.New,
// gocserve without -data) nothing is mirrored at all. Every mutation is one
// op folded by one reducer (Snapshot.apply); the two implementations share
// that reducer and its write path and differ only in durability:
//
//   - Mem: the bare reducer state; nothing survives exit. It is the
//     reference model for File and serves in-process restarts and tests.
//   - File: the same state plus an append-only JSONL log of the ops in a
//     directory, replayed on open and periodically compacted. Stdlib only.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
)

// Job record states. Submitted marks a job that was running (or about to
// run) when the record was last written — after a crash or shutdown it is
// the signal to resubmit. The other three are terminal.
const (
	JobSubmitted = "submitted"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCanceled  = "canceled"
)

// JobRecord is the durable form of one job: everything needed to re-serve
// its result (ID, kind, cached-result document) or to recompute it from
// scratch (canonical spec document + seed — determinism makes the rerun
// byte-identical).
type JobRecord struct {
	// ID is the manager job ID ("job-N"); rehydration preserves it so
	// pre-restart handles and result URLs stay valid.
	ID string `json:"id"`
	// Key is the engine cache key for (Spec, Seed) at Version.
	Key string `json:"key"`
	// Kind is the registered bare spec kind.
	Kind string `json:"kind"`
	// Version is the registered spec version the job resolved to. Records
	// written before the catalog redesign carry no version (0), which
	// rehydration maps to version 1 — the pre-versioning wire format — so
	// old data directories revive without migration.
	Version int `json:"version,omitempty"`
	// Seed roots the job's deterministic randomness.
	Seed uint64 `json:"seed"`
	// Tasks is the job's task fan-out (progress totals after rehydration).
	Tasks int `json:"tasks"`
	// Spec is the canonical, game-resolved spec document.
	Spec json.RawMessage `json:"spec,omitempty"`
	// State is one of the Job* constants above.
	State string `json:"state"`
	// Result is the marshalled result (State == JobDone only).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the terminal error (failed/canceled).
	Error string `json:"error,omitempty"`
}

// RangeRecord is one persisted span of a running job's result ledger: the
// TaskCoder-encoded documents of tasks [Lo, Lo+len(Results)). The server
// appends one per watermark advance; the store folds adjacent spans on
// apply (first-writer-wins, exactly like the engine's publication), so a
// job's folded records always cover the contiguous prefix [0, watermark).
type RangeRecord struct {
	Lo      int               `json:"lo"`
	Results []json.RawMessage `json:"results"`
}

// End returns the exclusive upper bound of the record's span.
func (r RangeRecord) End() int { return r.Lo + len(r.Results) }

// Snapshot is the full durable state, as Load returns it.
type Snapshot struct {
	// Games maps content-addressed game IDs to registered games.
	Games map[string]*core.Game
	// Jobs maps job IDs to their latest records.
	Jobs map[string]JobRecord
	// Ranges maps job IDs to their persisted per-task result spans. For a
	// *submitted* (interrupted) job they are the completed prefix a restart
	// prefills so only the missing suffix recomputes; for a *done* job they
	// keep ?range fetches and resumed result streams servable across a
	// restart (bounded by the MaxRangeDocs compaction cap). Failed and
	// canceled records clear their ranges — there is no result to serve.
	Ranges map[string][]RangeRecord
	// Handles maps live v2 handle IDs to job IDs.
	Handles map[string]string
	// Pins is the set of job IDs a v1 client submitted or attached to.
	Pins map[string]struct{}
	// NextHandle is the highest handle sequence number ever minted — not
	// just the highest live one, so a restart never re-mints a released
	// handle ID (a stale client could otherwise control a stranger's job).
	NextHandle uint64
}

// DefaultMaxJobRecords caps how many job records a store keeps. It matches
// the engine manager's default job retention: records beyond what the
// manager would rehydrate are dead weight. The reducer enforces it on every
// job op, with quarter-cap hysteresis: once the table overshoots the cap by
// a quarter, the oldest terminal records are dropped back down to it;
// interrupted ("submitted") records are always kept — they are the
// restart-recovery signal.
const DefaultMaxJobRecords = 4096

// DefaultMaxRangeDocs caps how many per-task result documents a store keeps
// per job (the -compact-ranges knob). The retained low-index prefix is what
// restart prefill and download resume consume; jobs with more tasks than
// the cap lose per-task servability past it after a restart, but never the
// aggregate result.
const DefaultMaxRangeDocs = 4096

// op is the one mutation type: every Store write becomes an op, Mem and
// File fold it through Snapshot.apply, and File also logs it as one JSONL
// line. Exactly one payload group is set, selected by Op: "game" (ID+Game),
// "job" (Job), "range" (JobID+Lo+Results — one span of a running job's
// per-task results), "handle" (ID+JobID), "release" (ID), "pin" (JobID),
// "seq" (Seq — preserves the handle mint counter across compactions, which
// drop the released handle ops it derives from).
type op struct {
	Op      string            `json:"op"`
	ID      string            `json:"id,omitempty"`
	Game    *core.Game        `json:"game,omitempty"`
	Job     *JobRecord        `json:"job,omitempty"`
	JobID   string            `json:"job_id,omitempty"`
	Lo      int               `json:"lo,omitempty"`
	Results []json.RawMessage `json:"results,omitempty"`
	Seq     uint64            `json:"seq,omitempty"`
}

// opKinds are the op names the reducer knows.
var opKinds = map[string]bool{"game": true, "job": true, "range": true, "handle": true, "release": true, "pin": true, "seq": true}

// check rejects ops the reducer cannot apply. It is the one validation
// step, shared by the write path and log replay.
func (o op) check() error {
	switch {
	case !opKinds[o.Op]:
		return fmt.Errorf("unknown op %q", o.Op)
	case o.Op == "game" && o.Game == nil:
		return fmt.Errorf("game %s without a game", o.ID)
	case o.Op == "job" && (o.Job == nil || o.Job.ID == ""):
		return errors.New("job record without an ID")
	case o.Op == "range" && o.JobID == "":
		return errors.New("range without a job ID")
	}
	return nil
}

// apply folds one checked op into the snapshot. It is the only place store
// state changes, so Mem, a live File and a replayed File agree by
// construction. maxJobs and maxRangeDocs are the stores' MaxJobs and
// MaxRangeDocs fields (zero means the default cap, negative MaxRangeDocs
// means unbounded).
func (s *Snapshot) apply(o op, maxJobs, maxRangeDocs int) {
	switch o.Op {
	case "game":
		s.Games[o.ID] = o.Game
	case "job":
		s.Jobs[o.Job.ID] = *o.Job
		if o.Job.State == JobFailed || o.Job.State == JobCanceled {
			// No result to serve: the per-task spans are dead weight.
			delete(s.Ranges, o.Job.ID)
		}
		if maxJobs <= 0 {
			maxJobs = DefaultMaxJobRecords
		}
		// Quarter-cap hysteresis, so a table sitting at the cap doesn't
		// rescan on every insert.
		if len(s.Jobs) > maxJobs+maxJobs/4 {
			s.dropExcessJobs(maxJobs)
		}
	case "range":
		if maxRangeDocs == 0 {
			maxRangeDocs = DefaultMaxRangeDocs
		}
		s.addRange(o.JobID, o.Lo, o.Results, maxRangeDocs)
	case "handle":
		s.Handles[o.ID] = o.JobID
		if n, _ := engine.ParseSeq(o.ID, "h-"); n > s.NextHandle {
			s.NextHandle = n
		}
	case "release":
		delete(s.Handles, o.ID)
	case "pin":
		s.Pins[o.JobID] = struct{}{}
	case "seq":
		if o.Seq > s.NextHandle {
			s.NextHandle = o.Seq
		}
	}
}

// addRange folds one range record into the snapshot, then applies the
// maxDocs compaction cap (see trimRanges). Spans are appended in watermark
// order, so the common case extends the previous record in place; an
// overlap keeps the bytes already recorded (first-writer-wins) and only
// the genuinely new suffix lands. Records for jobs that are not live
// "submitted" or "done" ones are dropped — there is no result the spans
// could serve (or the job was evicted), so they are dead weight.
func (s *Snapshot) addRange(jobID string, lo int, results []json.RawMessage, maxDocs int) {
	if rec, ok := s.Jobs[jobID]; !ok || (rec.State != JobSubmitted && rec.State != JobDone) {
		return
	}
	if lo < 0 || len(results) == 0 {
		return
	}
	defer s.trimRanges(jobID, maxDocs)
	recs := s.Ranges[jobID]
	if n := len(recs); n > 0 {
		last := &recs[n-1]
		if end := last.End(); lo <= end {
			if lo+len(results) <= end {
				return // fully covered: first writer already won
			}
			last.Results = append(last.Results, results[end-lo:]...)
			s.Ranges[jobID] = recs
			return
		}
	}
	if s.Ranges == nil {
		s.Ranges = map[string][]RangeRecord{}
	}
	s.Ranges[jobID] = append(recs, RangeRecord{Lo: lo, Results: results})
}

// trimRanges enforces the per-job compaction cap: at most max per-task
// documents survive, trimmed from the highest task indices — the low
// contiguous prefix is what restart prefill and download resume consume,
// so it is the part worth keeping. max <= 0 means unbounded.
func (s *Snapshot) trimRanges(jobID string, max int) {
	if max <= 0 {
		return
	}
	recs := s.Ranges[jobID]
	total := 0
	for _, r := range recs {
		total += len(r.Results)
	}
	for total > max && len(recs) > 0 {
		last := &recs[len(recs)-1]
		if drop := total - max; drop >= len(last.Results) {
			total -= len(last.Results)
			recs = recs[:len(recs)-1]
		} else {
			last.Results = last.Results[:len(last.Results)-drop]
			total -= drop
		}
	}
	if len(recs) == 0 {
		delete(s.Ranges, jobID)
	} else {
		s.Ranges[jobID] = recs
	}
}

// Store persists the server's durable state. Implementations must be safe
// for concurrent use. The server enqueues its mutations in order under its
// own mutex and performs them from a single persist-drain goroutine, never
// under that mutex, so a store may block and lock freely but must not call
// back into the server.
type Store interface {
	// Load returns the current state. The server calls it once at startup;
	// the returned maps are the caller's to keep.
	Load() (Snapshot, error)
	// PutGame upserts a registered game.
	PutGame(id string, g *core.Game) error
	// PutJob upserts a job record keyed by rec.ID. Writing a failed or
	// canceled state clears the job's persisted ranges — there is no result
	// they could serve. Done records keep theirs (bounded by the
	// implementation's MaxRangeDocs compaction cap), so range fetches and
	// resumed result streams survive a restart.
	PutJob(rec JobRecord) error
	// PutJobRange appends one span of a job's per-task results: the encoded
	// documents of tasks [lo, lo+len(results)). Only jobs in the submitted
	// or done state accumulate ranges; overlapping spans resolve
	// first-writer-wins, and spans past the compaction cap are trimmed from
	// the highest indices.
	PutJobRange(jobID string, lo int, results []json.RawMessage) error
	// PutHandle records a live handle claiming a job.
	PutHandle(handle, jobID string) error
	// DeleteHandle removes a released (or evicted) handle.
	DeleteHandle(handle string) error
	// PutPin marks a job as v1-attached.
	PutPin(jobID string) error
	// Close releases the store. Further mutations fail.
	Close() error
}

// dropExcessJobs evicts the oldest terminal job records past limit —
// mirroring the engine manager's retention policy — and garbage-collects
// handles and pins whose job record is gone. Submitted records always
// survive: they are the restart-recovery signal. (The server writes a job
// record before any handle or pin referencing it, so a missing record means
// the job itself was evicted, not that the ops raced.)
func (s *Snapshot) dropExcessJobs(limit int) {
	if len(s.Jobs) > limit {
		terminal := make([]string, 0, len(s.Jobs))
		for id, rec := range s.Jobs {
			if rec.State != JobSubmitted {
				terminal = append(terminal, id)
			}
		}
		// Ties (foreign ID shapes all parse as 0) break on the ID, so the
		// eviction — and hence a replayed snapshot — is deterministic.
		sort.Slice(terminal, func(i, k int) bool {
			si, sk := jobSeq(terminal[i]), jobSeq(terminal[k])
			return si < sk || (si == sk && terminal[i] < terminal[k])
		})
		for _, id := range terminal {
			if len(s.Jobs) <= limit {
				break
			}
			delete(s.Jobs, id)
		}
	}
	for h, id := range s.Handles {
		if _, ok := s.Jobs[id]; !ok {
			delete(s.Handles, h)
		}
	}
	for id := range s.Ranges {
		if rec, ok := s.Jobs[id]; !ok || (rec.State != JobSubmitted && rec.State != JobDone) {
			delete(s.Ranges, id)
		}
	}
	for id := range s.Pins {
		if _, ok := s.Jobs[id]; !ok {
			delete(s.Pins, id)
		}
	}
}

// jobSeq orders "job-N" IDs by age; foreign shapes sort first (oldest).
func jobSeq(id string) uint64 {
	n, _ := engine.ParseSeq(id, "job-")
	return n
}

// state is what Mem and File share: the caps, the snapshot, and the one
// write path (check, apply, then the optional log hook). Mem is a bare
// state; File is a state whose log hook appends each op to its log.
type state struct {
	// MaxJobs overrides DefaultMaxJobRecords when positive. Set before use.
	MaxJobs int
	// MaxRangeDocs caps the per-task result documents retained per job:
	// positive overrides DefaultMaxRangeDocs, negative disables the cap.
	// Set before use.
	MaxRangeDocs int

	mu     sync.Mutex
	snap   Snapshot // guarded by mu
	closed bool     // guarded by mu
	// replayed holds ops read back from File's log but not yet applied.
	// They are folded on first use, so replay honours the caps set after
	// OpenFile exactly as the live store did when it wrote them.
	replayed []op // guarded by mu
	// logLocked, when set, makes one applied op durable; line is its JSON
	// encoding without the newline. Called with mu held.
	logLocked func(line []byte) error
}

// foldLocked applies any replayed ops. Callers hold mu.
func (s *state) foldLocked() {
	for _, o := range s.replayed {
		s.snap.apply(o, s.MaxJobs, s.MaxRangeDocs)
	}
	s.replayed = nil
}

// put is the one write path: validate, encode, apply, log. Encoding is
// part of validation: an op File could not log is one Mem must not accept
// either, and it changes nothing.
func (s *state) put(o op) error {
	if err := o.check(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("store: encode op: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	s.foldLocked()
	s.snap.apply(o, s.MaxJobs, s.MaxRangeDocs)
	if s.logLocked == nil {
		return nil
	}
	return s.logLocked(line)
}

// Load implements Store.
func (s *state) Load() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, os.ErrClosed
	}
	s.foldLocked()
	return s.snap.clone(), nil
}

// PutGame implements Store.
func (s *state) PutGame(id string, g *core.Game) error {
	return s.put(op{Op: "game", ID: id, Game: g})
}

// PutJob implements Store.
func (s *state) PutJob(rec JobRecord) error {
	return s.put(op{Op: "job", Job: &rec})
}

// PutJobRange implements Store. An empty span records nothing.
func (s *state) PutJobRange(jobID string, lo int, results []json.RawMessage) error {
	if jobID != "" && len(results) == 0 {
		return nil // nothing to record; don't burn a log line
	}
	return s.put(op{Op: "range", JobID: jobID, Lo: lo, Results: results})
}

// PutHandle implements Store.
func (s *state) PutHandle(handle, jobID string) error {
	return s.put(op{Op: "handle", ID: handle, JobID: jobID})
}

// DeleteHandle implements Store.
func (s *state) DeleteHandle(handle string) error {
	return s.put(op{Op: "release", ID: handle})
}

// PutPin implements Store.
func (s *state) PutPin(jobID string) error {
	return s.put(op{Op: "pin", JobID: jobID})
}

// Mem is the in-memory Store: the reducer state without a log, so nothing
// survives the process. Because it folds the same ops through the same
// reducer and caps as File, it is File's reference model — a Mem and a File
// fed the same writes Load the same snapshot. The server uses it for
// in-process restarts (Options.Store); it is not the default — without a
// store the server mirrors nothing.
type Mem struct {
	state
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{state: state{snap: emptySnapshot()}}
}

// Close implements Store: later Loads and mutations fail, as on File.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func emptySnapshot() Snapshot {
	return Snapshot{
		Games:   map[string]*core.Game{},
		Jobs:    map[string]JobRecord{},
		Ranges:  map[string][]RangeRecord{},
		Handles: map[string]string{},
		Pins:    map[string]struct{}{},
	}
}

// clone copies the snapshot so Load callers can keep (and mutate) the maps
// without aliasing the store's live state. Games are shared pointers —
// immutable by construction.
func (s Snapshot) clone() Snapshot {
	out := emptySnapshot()
	for id, g := range s.Games {
		out.Games[id] = g
	}
	for id, rec := range s.Jobs {
		out.Jobs[id] = rec
	}
	for id, recs := range s.Ranges {
		// Fresh record slice per job; the document bytes are shared
		// read-only, like Result in the job records.
		cp := make([]RangeRecord, len(recs))
		copy(cp, recs)
		out.Ranges[id] = cp
	}
	for h, id := range s.Handles {
		out.Handles[h] = id
	}
	for id := range s.Pins {
		out.Pins[id] = struct{}{}
	}
	out.NextHandle = s.NextHandle
	return out
}
