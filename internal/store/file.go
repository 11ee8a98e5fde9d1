package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// compactMinOps is the default floor below which the log is never compacted,
// so small servers don't churn the file on every write.
const compactMinOps = 1024

// logName is the operation log inside the store directory; lockName is the
// advisory lock guarding the directory against a second process.
const (
	logName  = "log.jsonl"
	lockName = "lock"
)

// File is the file-backed Store: the same reducer state as Mem plus an
// append-only JSONL log of its ops, replayed on open and compacted in place
// (atomic rename) when the log has accumulated several times more
// operations than live records. Appends are flushed per operation but not
// fsynced — a power cut may lose the final lines, which rehydration
// tolerates (a lost terminal record resubmits the job; determinism
// recomputes the identical result). All methods are safe for concurrent
// use.
type File struct {
	state
	// CompactMinOps overrides the compaction floor when positive (tests).
	CompactMinOps int

	dir  string
	f    *os.File // guarded by mu
	lock *os.File // guarded by mu
	ops  int      // guarded by mu; operations appended since open/compaction
}

// OpenFile opens (creating if needed) the file store rooted at dir and
// reads its log; the ops are folded on first use, under the caps set by
// then. The directory is guarded by an advisory lock: a second concurrent
// opener — another gocserve on the same -data, or a restart racing a
// not-yet-exited old process — fails fast here instead of the two
// processes silently compacting each other's appends away.
func OpenFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock: %w", err)
	}
	if err := lockExclusive(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is already in use by another process: %w", dir, err)
	}
	logPath := filepath.Join(dir, logName)
	ops, good, err := readLog(logPath)
	if err != nil {
		lock.Close()
		return nil, err
	}
	s := &File{state: state{snap: emptySnapshot(), replayed: ops}, dir: dir, lock: lock}
	s.logLocked = s.appendLocked
	// Cut a torn tail off before appending: writing onto a partial line
	// would merge the next op into it — silently losing that op and turning
	// the garbage into fatal interior corruption at the next open.
	if info, err := os.Stat(logPath); err == nil && info.Size() > good {
		if err := os.Truncate(logPath, good); err != nil {
			lock.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s.f = f
	return s, nil
}

func (s *File) logPath() string { return filepath.Join(s.dir, logName) }

// readLog reads the ops of the log at path and returns them with the byte
// offset of the end of the last intact line. An unterminated final line —
// the only shape a crash mid-append can leave, since the newline is each
// op's last byte — is tolerated (OpenFile truncates it away); corruption in
// any *terminated* line is an error, because silently skipping interior
// history could resurrect released handles or lose results.
func readLog(path string) ([]op, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: read log: %w", err)
	}
	var ops []op
	for start, lineno := 0, 1; ; lineno++ {
		nl := bytes.IndexByte(data[start:], '\n')
		if nl < 0 {
			return ops, int64(start), nil // the rest is a torn tail from a crash mid-append
		}
		var o op
		err := json.Unmarshal(data[start:start+nl], &o)
		if err == nil {
			err = o.check()
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: corrupt log line %d: %w", lineno, err)
		}
		ops = append(ops, o)
		start += nl + 1
	}
}

// appendLocked writes one applied op's line to the log, then compacts if
// the log has outgrown the live state. Callers hold s.mu.
func (s *File) appendLocked(line []byte) error {
	if n, err := s.f.Write(append(line, '\n')); err != nil {
		// A short write (ENOSPC, I/O error) left partial bytes mid-log; cut
		// the file back to the last full line so later appends don't merge
		// into garbage that bricks the next open. The in-memory snapshot is
		// ahead of the log until the next successful compaction rewrites it.
		if n > 0 {
			if info, serr := s.f.Stat(); serr == nil {
				_ = os.Truncate(s.logPath(), info.Size()-int64(n))
			}
		}
		return fmt.Errorf("store: append: %w", err)
	}
	s.ops++
	return s.maybeCompactLocked()
}

// maybeCompactLocked rewrites the log as a snapshot once the appended
// operations outnumber the live records severalfold (with a floor, so small
// stores never churn). Callers must hold s.mu.
func (s *File) maybeCompactLocked() error {
	floor := s.CompactMinOps
	if floor <= 0 {
		floor = compactMinOps
	}
	live := len(s.snap.Games) + len(s.snap.Jobs) + len(s.snap.Handles) + len(s.snap.Pins)
	for _, recs := range s.snap.Ranges {
		live += len(recs)
	}
	if s.ops < floor || s.ops < 4*live {
		return nil
	}
	return s.compactLocked()
}

// compactLocked writes the live snapshot to a fresh log and atomically
// renames it over the old one. It only rewrites the log: the reducer has
// already applied every cap, so the compacted log replays to the same
// snapshot.
func (s *File) compactLocked() error {
	if err := s.writeSnapshotLocked(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	old := s.f
	f, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The rename just unlinked the inode old points at: appending there
		// would "succeed" into an orphan file and vanish on exit. Fail the
		// store outright — the on-disk log is the consistent compacted
		// snapshot, and every later mutation errors instead of silently
		// disappearing.
		old.Close()
		s.closed = true
		return fmt.Errorf("store: reopen log after compaction: %w", err)
	}
	old.Close()
	s.f = f
	s.ops = 0
	return nil
}

// writeSnapshotLocked writes the live snapshot as ops to a tmp file, fsyncs
// it and renames it over the log. On any failure the tmp file is closed and
// removed, and the cause is returned. Callers must hold s.mu.
func (s *File) writeSnapshotLocked() (err error) {
	tmpPath := s.logPath() + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			//goclint:allow errdrop -- best-effort tmp cleanup; err is the failure callers see
			os.Remove(tmpPath)
		}
	}()
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w) // Encode is json.Marshal plus the newline
	var ops []op
	for _, id := range slices.Sorted(maps.Keys(s.snap.Games)) {
		ops = append(ops, op{Op: "game", ID: id, Game: s.snap.Games[id]})
	}
	for _, id := range slices.Sorted(maps.Keys(s.snap.Jobs)) {
		rec := s.snap.Jobs[id]
		ops = append(ops, op{Op: "job", Job: &rec})
	}
	// Range spans land after the job records so replay's addRange sees the
	// owning record. The live map is already folded (addRange merges
	// adjacent spans on apply), so each job emits its spans as-is.
	for _, id := range slices.Sorted(maps.Keys(s.snap.Ranges)) {
		for _, rr := range s.snap.Ranges[id] {
			ops = append(ops, op{Op: "range", JobID: id, Lo: rr.Lo, Results: rr.Results})
		}
	}
	for _, h := range slices.Sorted(maps.Keys(s.snap.Handles)) {
		ops = append(ops, op{Op: "handle", ID: h, JobID: s.snap.Handles[h]})
	}
	for _, id := range slices.Sorted(maps.Keys(s.snap.Pins)) {
		ops = append(ops, op{Op: "pin", JobID: id})
	}
	if s.snap.NextHandle > 0 {
		ops = append(ops, op{Op: "seq", Seq: s.snap.NextHandle})
	}
	for _, o := range ops {
		if err := enc.Encode(o); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpPath, s.logPath())
}

// Close flushes and closes the log and releases the directory lock.
// Further mutations fail with ErrClosed.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	defer s.lock.Close() // releases the advisory lock
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	return s.f.Close()
}
