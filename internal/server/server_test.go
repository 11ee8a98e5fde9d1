package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gameofcoins/internal/core"
	"gameofcoins/internal/engine"
	"gameofcoins/internal/replay"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(4)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %v", method, url, resp.StatusCode, wantCode, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func pollUntilTerminal(t *testing.T, base, id string) engine.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st engine.Status
		doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, http.StatusOK, &st)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return engine.Status{}
}

// TestFullRoundTrip drives the whole intended flow: register a game, submit
// a learning sweep on it, poll status, fetch the result, and hit the result
// cache on resubmission.
func TestFullRoundTrip(t *testing.T) {
	_, ts := testServer(t)

	// Create the quick-start game.
	game := core.MustNewGame(
		[]core.Miner{{Name: "p1", Power: 13}, {Name: "p2", Power: 7}, {Name: "p3", Power: 5}, {Name: "p4", Power: 2}},
		[]core.Coin{{Name: "btc"}, {Name: "bch"}},
		[]float64{17, 9},
	)
	var created struct {
		ID     string `json:"id"`
		Miners int    `json:"miners"`
		Coins  int    `json:"coins"`
	}
	doJSON(t, http.MethodPost, ts.URL+"/v1/games", game, http.StatusCreated, &created)
	if created.ID == "" || created.Miners != 4 || created.Coins != 2 {
		t.Fatalf("created = %+v", created)
	}

	// The game round-trips.
	var back core.Game
	doJSON(t, http.MethodGet, ts.URL+"/v1/games/"+created.ID, nil, http.StatusOK, &back)
	if back.NumMiners() != 4 {
		t.Fatalf("fetched game has %d miners", back.NumMiners())
	}

	// Submit a sweep over the registered game.
	req := JobRequest{
		Type:       "learn_sweep",
		Seed:       11,
		GameID:     created.ID,
		Schedulers: []string{"random", "round-robin"},
		Runs:       20,
	}
	var st engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st)
	if st.ID == "" || st.Kind != "learn_sweep" {
		t.Fatalf("submit status = %+v", st)
	}

	// Poll until done.
	final := pollUntilTerminal(t, ts.URL, st.ID)
	if final.State != engine.StateDone {
		t.Fatalf("final state = %+v", final)
	}
	if final.Progress.Done != final.Progress.Total || final.Progress.Total != 40 {
		t.Fatalf("progress = %+v", final.Progress)
	}

	// Fetch the result.
	var res struct {
		Result engine.LearnSweepResult `json:"result"`
		Cached bool                    `json:"cached"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	if res.Result.TotalRuns != 40 || len(res.Result.Schedulers) != 2 {
		t.Fatalf("result = %+v", res.Result)
	}
	for _, s := range res.Result.Schedulers {
		if s.Converged != s.Runs {
			t.Fatalf("scheduler %s: %d/%d converged", s.Scheduler, s.Converged, s.Runs)
		}
	}

	// Resubmit the identical request: the cache points the client back at
	// the original job — no new job is minted — and flags the hit.
	var st2 engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st2)
	if st2.State != engine.StateDone || !st2.Cached {
		t.Fatalf("resubmit status = %+v", st2)
	}
	if st2.ID != st.ID {
		t.Fatalf("cache hit minted a new job: %s (original %s)", st2.ID, st.ID)
	}
	var res2 struct {
		Result engine.LearnSweepResult `json:"result"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st2.ID+"/result", nil, http.StatusOK, &res2)
	a, _ := json.Marshal(res.Result)
	b, _ := json.Marshal(res2.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result differs:\n%s\n%s", a, b)
	}

	// A different seed misses the cache.
	req.Seed = 12
	var st3 engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st3)
	if st3.Cached {
		t.Fatal("different seed hit the cache")
	}
	pollUntilTerminal(t, ts.URL, st3.ID)
}

// TestCancellationMidJob submits a job far too large to finish and cancels
// it through the API.
func TestCancellationMidJob(t *testing.T) {
	_, ts := testServer(t)
	req := JobRequest{
		Type:       "learn_sweep",
		Seed:       1,
		Gen:        &core.GenSpec{Miners: 24, Coins: 4},
		Schedulers: []string{"random"},
		Runs:       1000000,
	}
	var st engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st)

	// The result endpoint refuses while the job runs.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: status %d, want 409", resp.StatusCode)
	}

	var canceled engine.Status
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, http.StatusOK, &canceled)
	final := pollUntilTerminal(t, ts.URL, st.ID)
	if final.State != engine.StateCanceled {
		t.Fatalf("final state = %s, want canceled", final.State)
	}
	if final.Progress.Done >= final.Progress.Total {
		t.Fatalf("job finished despite cancellation: %+v", final.Progress)
	}

	// A canceled job has no result: 410 (terminal), distinct from the 409
	// that means "retry later".
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result of canceled job: status %d, want 410", resp.StatusCode)
	}
}

// TestAllJobTypes submits one small job of each type end to end.
func TestAllJobTypes(t *testing.T) {
	_, ts := testServer(t)
	reqs := []JobRequest{
		{Type: "learn_sweep", Seed: 2, Gen: &core.GenSpec{Miners: 5, Coins: 2}, Schedulers: []string{"max-gain"}, Runs: 4},
		{Type: "design_sweep", Seed: 3, Gen: &core.GenSpec{Miners: 4, Coins: 2}, Pairs: 2},
		{Type: "equilibrium_sweep", Seed: 4, Gen: &core.GenSpec{Miners: 4, Coins: 2}, Games: 6},
		{Type: "replay_sweep", Seed: 5, Runs: 1, Replay: &replayParams},
	}
	for _, req := range reqs {
		var st engine.Status
		doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st)
		final := pollUntilTerminal(t, ts.URL, st.ID)
		if final.State != engine.StateDone {
			t.Fatalf("%s: final = %+v", req.Type, final)
		}
		var res map[string]any
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
		if res["result"] == nil {
			t.Fatalf("%s: empty result", req.Type)
		}
	}

	// The job listing shows all four, terminal.
	var all []engine.Status
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, http.StatusOK, &all)
	if len(all) != len(reqs) {
		t.Fatalf("listed %d jobs, want %d", len(all), len(reqs))
	}
}

// TestCacheKeyIgnoresIrrelevantFields: two replay_sweep submissions that
// differ only in wire fields the job type ignores (learn-only fields) build
// the same job and must share one cache entry.
func TestCacheKeyIgnoresIrrelevantFields(t *testing.T) {
	_, ts := testServer(t)
	p1 := replayParams
	req1 := JobRequest{Type: "replay_sweep", Seed: 5, Runs: 1, Replay: &p1}
	var st1 engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req1, http.StatusCreated, &st1)
	if final := pollUntilTerminal(t, ts.URL, st1.ID); final.State != engine.StateDone {
		t.Fatalf("final = %+v", final)
	}
	p2 := replayParams
	req2 := JobRequest{Type: "replay_sweep", Seed: 5, Runs: 1, Replay: &p2, MaxSteps: 7, Schedulers: []string{"random"}}
	var st2 engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req2, http.StatusCreated, &st2)
	if !st2.Cached || st2.ID != st1.ID {
		t.Fatalf("normalized resubmit missed the cache: %+v (original %s)", st2, st1.ID)
	}
}

// TestReplayInnerSeedRejected: a non-zero seed inside the replay params used
// to be silently zeroed; it is now a 400 pointing the caller at the
// job-level seed field (the one that actually roots the randomness).
func TestReplayInnerSeedRejected(t *testing.T) {
	_, ts := testServer(t)
	p := replayParams
	p.Seed = 99
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", jsonBody(t, JobRequest{Type: "replay_sweep", Seed: 5, Runs: 1, Replay: &p}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inner-seed submission: status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "seed") || !strings.Contains(e.Error, "job-level") {
		t.Fatalf("rejection should point at the job-level seed field, got %q", e.Error)
	}
}

// TestInFlightDedup: an identical submission while the first job is still
// running attaches to the running job instead of recomputing it.
func TestInFlightDedup(t *testing.T) {
	_, ts := testServer(t)
	req := JobRequest{
		Type:       "learn_sweep",
		Seed:       1,
		Gen:        &core.GenSpec{Miners: 16, Coins: 4},
		Schedulers: []string{"random"},
		Runs:       100000, // far too large to finish before the resubmit
	}
	var st1, st2 engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st1)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st2)
	if st2.ID != st1.ID || !st2.Cached {
		t.Fatalf("in-flight duplicate not deduped: first %+v, second %+v", st1, st2)
	}
	// Cancel → the cache entry is retracted, so a resubmit mints a new job.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st1.ID, nil, http.StatusOK, nil)
	if final := pollUntilTerminal(t, ts.URL, st1.ID); final.State != engine.StateCanceled {
		t.Fatalf("final = %+v", final)
	}
	var st3 engine.Status
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, http.StatusCreated, &st3)
	if st3.ID == st1.ID || st3.Cached {
		t.Fatalf("canceled job still served from cache: %+v", st3)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st3.ID, nil, http.StatusOK, nil)
}

// TestPanicSafeJob: a request whose params would panic deep inside the
// simulator must fail cleanly (400 from validation) and never kill the
// server.
func TestPanicSafeJob(t *testing.T) {
	_, ts := testServer(t)
	bad := replayParams
	bad.Miners = -1
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		JobRequest{Type: "replay_sweep", Seed: 1, Runs: 1, Replay: &bad},
		http.StatusBadRequest, nil)
	// Server still alive.
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, nil)
}

// TestBadRequests covers the API's error surface.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodPost, "/v1/games", "not a game", http.StatusBadRequest},
		{http.MethodGet, "/v1/games/g-nope", nil, http.StatusNotFound},
		{http.MethodPost, "/v1/jobs", JobRequest{Type: "bogus"}, http.StatusBadRequest},
		{http.MethodPost, "/v1/jobs", JobRequest{Type: "learn_sweep", GameID: "g-nope", Runs: 1}, http.StatusBadRequest},
		{http.MethodPost, "/v1/jobs", JobRequest{Type: "learn_sweep", Gen: &core.GenSpec{Miners: 3, Coins: 2}}, http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs/job-404", nil, http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/job-404/result", nil, http.StatusNotFound},
		{http.MethodDelete, "/v1/jobs/job-404", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s_%s", c.method, c.path), func(t *testing.T) {
			doJSON(t, c.method, ts.URL+c.path, c.body, c.want, nil)
		})
	}
}

// TestHandleOrderBoundedUnderChurn: the documented SDK flow (Submit → Wait
// → Result → Release) must keep the table's bookkeeping bounded however
// many handles it mints, or a long-lived server leaks one entry per request.
func TestHandleOrderBoundedUnderChurn(t *testing.T) {
	s := New(1)
	defer s.Close()
	name := fmt.Sprintf("churn-%d", latchRun.Add(1))
	close(latch(name)) // the job finishes as soon as it runs
	js := jobStart{spec: latchSpec{Name: name}}
	for i := 0; i < 5*engine.DefaultRetention; i++ {
		job, _, jh, err := s.table.attach("churn", false, "", js)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done() // finished, so releasing the last handle cancels nothing
		// Immediate release, as a Submit→Release client produces.
		if _, _, err := s.table.release(jh.Handle, ""); err != nil {
			t.Fatal(err)
		}
		if n := s.table.size(); n > 2*engine.DefaultRetention+1 {
			t.Fatalf("table bookkeeping grew to %d entries under churn (cycle %d)", n, i)
		}
	}
}

// TestWriteJSONMarshalFailureIs500: writeJSON used to write the success
// header before encoding, so a marshal failure emitted a truncated 200
// body; it must buffer first and degrade to a clean 500 error document.
func TestWriteJSONMarshalFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN()) // json: unsupported value
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("500 body is not valid JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if e["error"] == "" {
		t.Fatalf("500 body carries no error: %s", rec.Body.Bytes())
	}

	// The happy path is unchanged: chosen code, indented JSON.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"n": 1})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\n  \"n\": 1\n}\n" {
		t.Fatalf("happy path changed: %d %q", rec.Code, rec.Body.String())
	}
}

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}

var replayParams = replay.ScenarioParams{Miners: 30, Epochs: 24 * 6, SpikeHour: 24 * 2}
