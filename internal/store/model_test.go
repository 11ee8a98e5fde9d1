package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"

	"gameofcoins/internal/core"
)

// Small caps, so both fire within a short op sequence.
const (
	modelMaxJobs      = 4
	modelMaxRangeDocs = 5
)

// randomOps returns a seeded, deterministic op sequence over small ID
// spaces: games, job records in every state (foreign IDs included, so the
// cap's eviction order has ties to break), range spans (overlaps and
// islands), handle mints and releases, and pins. It runs in phases of 25
// ops — a full mix, ranges only, or handles and pins only — so range spans
// pile up past the cap and long runs without job ops can trigger
// size-based compaction while the job table sits inside its hysteresis
// band. With invalid set, about one op in forty is one every store must
// reject.
func randomOps(g *core.Game, seed uint64, n int, invalid bool) []op {
	r := rand.New(rand.NewPCG(seed, 0))
	jobIDs := []string{"job-1", "job-2", "job-3", "job-4", "job-5", "job-6", "job-7", "job-8", "job-9", "legacy-a", "legacy-b"}
	states := []string{JobSubmitted, JobSubmitted, JobDone, JobDone, JobFailed, JobCanceled}
	job := func() string { return jobIDs[r.IntN(len(jobIDs))] }
	handle := func() string { return "h-" + itoa(1+r.IntN(12)) }
	ops := make([]op, 0, n)
	phase := 0
	for len(ops) < n {
		if len(ops)%25 == 0 {
			phase = r.IntN(3)
		}
		k := r.IntN(40)
		switch phase {
		case 1:
			k = 14 + k%12 // ranges
		case 2:
			k = 26 + k%14 // handles, releases, pins
		}
		switch {
		case invalid && k == 0:
			if r.IntN(2) == 0 {
				ops = append(ops, op{Op: "job", Job: &JobRecord{State: JobDone}})
			} else {
				ops = append(ops, op{Op: "range", Results: docs(1)})
			}
		case k < 2:
			ops = append(ops, op{Op: "game", ID: "g-" + itoa(r.IntN(3)), Game: g})
		case k < 14:
			rec := JobRecord{ID: job(), Kind: "toy_sum", Seed: r.Uint64N(100), Tasks: 8, State: states[r.IntN(len(states))]}
			switch rec.State {
			case JobDone:
				rec.Result = json.RawMessage(itoa(r.IntN(1000)))
			case JobFailed, JobCanceled:
				rec.Error = "boom"
			}
			ops = append(ops, op{Op: "job", Job: &rec})
		case k < 26:
			results := make([]json.RawMessage, 1+r.IntN(4))
			for i := range results {
				results[i] = json.RawMessage(itoa(r.IntN(1000)))
			}
			ops = append(ops, op{Op: "range", JobID: job(), Lo: r.IntN(10), Results: results})
		case k < 32:
			ops = append(ops, op{Op: "handle", ID: handle(), JobID: job()})
		case k < 36:
			ops = append(ops, op{Op: "release", ID: handle()})
		default:
			ops = append(ops, op{Op: "pin", JobID: job()})
		}
	}
	return ops
}

// drive feeds ops to s through the Store methods and returns each op's
// error (nil when accepted).
func drive(t testing.TB, s Store, ops []op) []error {
	t.Helper()
	errs := make([]error, len(ops))
	for i, step := range ops {
		switch step.Op {
		case "game":
			errs[i] = s.PutGame(step.ID, step.Game)
		case "job":
			errs[i] = s.PutJob(*step.Job)
		case "range":
			errs[i] = s.PutJobRange(step.JobID, step.Lo, step.Results)
		case "handle":
			errs[i] = s.PutHandle(step.ID, step.JobID)
		case "release":
			errs[i] = s.DeleteHandle(step.ID)
		case "pin":
			errs[i] = s.PutPin(step.JobID)
		default:
			t.Fatalf("op %d: cannot drive %q", i, step.Op)
		}
	}
	return errs
}

func modelMem() *Mem {
	m := NewMem()
	m.MaxJobs, m.MaxRangeDocs = modelMaxJobs, modelMaxRangeDocs
	return m
}

// openModelFile opens dir with the model caps and the given compaction
// floor (0 keeps the default).
func openModelFile(t *testing.T, dir string, compactMinOps int) *File {
	t.Helper()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	f.MaxJobs, f.MaxRangeDocs, f.CompactMinOps = modelMaxJobs, modelMaxRangeDocs, compactMinOps
	return f
}

func mustLoad(t *testing.T, s Store) Snapshot {
	t.Helper()
	snap, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestModelDifferential: Mem is the reference model for File. One seeded
// random op sequence, with both caps firing, must leave Mem, a live File,
// that File after a reopen, and a File compacting as often as it can (and
// its reopen) with identical snapshots, and every store must accept and
// reject the same ops.
func TestModelDifferential(t *testing.T) {
	g := testGame(t)
	for seed := uint64(1); seed <= 8; seed++ {
		ops := randomOps(g, seed, 400, true)
		mem := modelMem()
		memErrs := drive(t, mem, ops)
		want := mustLoad(t, mem)
		if len(want.Jobs) == 0 || len(want.Ranges) == 0 || len(want.Handles) == 0 {
			t.Fatalf("seed %d: degenerate model state %+v", seed, want)
		}

		for _, floor := range []int{0, 1} {
			dir := t.TempDir()
			f := openModelFile(t, dir, floor)
			fileErrs := drive(t, f, ops)
			for i := range ops {
				if (memErrs[i] == nil) != (fileErrs[i] == nil) {
					t.Fatalf("seed %d floor %d op %d %+v: Mem err %v, File err %v", seed, floor, i, ops[i], memErrs[i], fileErrs[i])
				}
			}
			if got := mustLoad(t, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d floor %d: live File diverges from Mem\n got %+v\nwant %+v", seed, floor, got, want)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			re := openModelFile(t, dir, floor)
			if got := mustLoad(t, re); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d floor %d: reopened File diverges from Mem\n got %+v\nwant %+v", seed, floor, got, want)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestModelCapsFire: the differential sequences really exercise both caps
// (a model that never evicted or trimmed would make the differential test
// vacuous), and the caps hold after every op.
func TestModelCapsFire(t *testing.T) {
	g := testGame(t)
	evictedSeeds, trimmedSeeds := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		mem, unbounded := modelMem(), modelMem()
		unbounded.MaxRangeDocs = -1
		evictions, trimmed := 0, false
		prev := 0
		for _, o := range randomOps(g, seed, 400, false) {
			drive(t, mem, []op{o})
			drive(t, unbounded, []op{o})
			snap := mustLoad(t, mem)
			if len(snap.Jobs) < prev {
				evictions++
			}
			prev = len(snap.Jobs)
			if n := len(snap.Jobs); n > modelMaxJobs+modelMaxJobs/4 {
				for id, rec := range snap.Jobs {
					if rec.State != JobSubmitted {
						t.Fatalf("seed %d: %d job records past the cap, %s is terminal", seed, n, id)
					}
				}
			}
			for id, recs := range snap.Ranges {
				total := 0
				for _, rr := range recs {
					total += len(rr.Results)
				}
				if total > modelMaxRangeDocs {
					t.Fatalf("seed %d: job %s keeps %d range docs past the cap", seed, id, total)
				}
			}
			trimmed = trimmed || !reflect.DeepEqual(snap.Ranges, mustLoad(t, unbounded).Ranges)
		}
		if evictions > 0 {
			evictedSeeds++
		}
		if trimmed {
			trimmedSeeds++
		}
	}
	t.Logf("job cap fired in %d of 8 seeds, range cap in %d", evictedSeeds, trimmedSeeds)
	if evictedSeeds < 6 || trimmedSeeds < 6 {
		t.Fatalf("caps fired too rarely: job cap in %d of 8 seeds, range cap in %d", evictedSeeds, trimmedSeeds)
	}
}

// TestFileCrashAtEveryOffset: a log cut at any byte — a crash mid-append —
// opens, and loads exactly what a Mem fed the ops of its complete lines
// holds.
func TestFileCrashAtEveryOffset(t *testing.T) {
	ops := randomOps(testGame(t), 5, 60, false)
	dir := t.TempDir()
	f := openModelFile(t, dir, 1<<30) // compaction off: one line per op
	for i, err := range drive(t, f, ops) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != len(ops) {
		t.Fatalf("log has %d lines for %d ops", n, len(ops))
	}
	// want[n] is the model after the first n ops.
	mem := modelMem()
	want := []Snapshot{mustLoad(t, mem)}
	for _, o := range ops {
		drive(t, mem, []op{o})
		want = append(want, mustLoad(t, mem))
	}

	for off := 0; off <= len(data); off++ {
		if err := os.WriteFile(logPath, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		s.MaxJobs, s.MaxRangeDocs = modelMaxJobs, modelMaxRangeDocs
		n := bytes.Count(data[:off], []byte("\n"))
		if got := mustLoad(t, s); !reflect.DeepEqual(got, want[n]) {
			t.Fatalf("offset %d (%d complete lines): got %+v, want %+v", off, n, got, want[n])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentWriters: writers racing each other, Load and compaction on
// one File leave a log that replays to the live snapshot.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	f := openModelFile(t, dir, 8)
	var wg sync.WaitGroup
	for w := 1; w <= modelMaxJobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := "job-" + itoa(w)
			if err := f.PutJob(JobRecord{ID: id, State: JobSubmitted}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				err := f.PutJobRange(id, i, docs(i))
				if err == nil {
					err = f.PutHandle("h-"+itoa(100*w+i), id)
				}
				if err == nil {
					_, err = f.Load()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := mustLoad(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re := openModelFile(t, dir, 8)
	defer re.Close()
	if got := mustLoad(t, re); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen diverges\n got %+v\nwant %+v", got, want)
	}
}

// TestMemRejectsWhatFileRejects: the write path validates once for both
// stores, so a record File refuses is one Mem refuses too.
func TestMemRejectsWhatFileRejects(t *testing.T) {
	f, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, s := range []Store{NewMem(), f} {
		if err := s.PutJob(JobRecord{}); err == nil {
			t.Fatalf("%T accepted a job record without an ID", s)
		}
		if err := s.PutJobRange("", 0, docs(1)); err == nil {
			t.Fatalf("%T accepted a range without a job ID", s)
		}
		if err := s.PutJob(JobRecord{ID: "job-1", State: JobDone, Result: json.RawMessage(`{`)}); err == nil {
			t.Fatalf("%T accepted a record whose result is not JSON", s)
		}
		if err := s.PutGame("g-1", nil); err == nil {
			t.Fatalf("%T accepted a nil game", s)
		}
		if snap := mustLoad(t, s); len(snap.Jobs)+len(snap.Ranges)+len(snap.Games) != 0 {
			t.Fatalf("%T kept rejected writes: %+v", s, snap)
		}
	}
}

// TestMemClosedRejectsWrites: like File, a closed Mem refuses mutations.
func TestMemClosedRejectsWrites(t *testing.T) {
	m := NewMem()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.PutPin("job-1"); err == nil {
		t.Fatal("write on closed store succeeded")
	}
}

// TestCompactionKeepsWriteCause: a compaction whose write fails reports the
// cause (here ENOSPC from /dev/full) and leaves no tmp file behind; the old
// log stays intact and replays.
func TestCompactionKeepsWriteCause(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	dir := t.TempDir()
	f := openModelFile(t, dir, 1)
	tmpPath := filepath.Join(dir, logName) + ".tmp"
	if err := os.Symlink("/dev/full", tmpPath); err != nil {
		t.Skipf("cannot symlink /dev/full: %v", err)
	}
	err := f.PutJob(JobRecord{ID: "job-1", State: JobSubmitted})
	for i := 0; i < 16 && err == nil; i++ {
		err = f.PutPin("job-1") // 8 ops over 2 live records trigger compaction
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("compaction error %v does not carry ENOSPC", err)
	}
	if _, serr := os.Lstat(tmpPath); !os.IsNotExist(serr) {
		t.Fatalf("tmp file left behind: %v", serr)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re := openModelFile(t, dir, 0)
	defer re.Close()
	if snap := mustLoad(t, re); len(snap.Pins) != 1 {
		t.Fatalf("pins after failed compaction = %+v", snap.Pins)
	}
}

// FuzzReplay: arbitrary log bytes either fail OpenFile or open without
// panicking, and then a close and reopen loads the same snapshot.
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		f.Fatal(err)
	}
	ops := randomOps(core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}},
		[]core.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{17, 9},
	), 7, 15, false)
	for i, err := range drive(f, s, ops) {
		if err != nil {
			f.Fatalf("op %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-7]) // torn tail
	f.Add([]byte(`{"op":"job","job":{"id":"legacy-1","state":"done"}}` + "\n" + `{"op":"seq","seq":3}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(dir)
		if err != nil {
			return
		}
		s.MaxJobs, s.MaxRangeDocs = modelMaxJobs, modelMaxRangeDocs
		want := mustLoad(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFile(dir)
		if err != nil {
			t.Fatalf("reopen of a log that opened: %v", err)
		}
		defer re.Close()
		re.MaxJobs, re.MaxRangeDocs = modelMaxJobs, modelMaxRangeDocs
		if got := mustLoad(t, re); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen diverges\n got %+v\nwant %+v", got, want)
		}
	})
}
