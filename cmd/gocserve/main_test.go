package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/rng"
	"gameofcoins/internal/server"
)

// TestServeAndGracefulShutdown boots the real server on an ephemeral port,
// checks liveness, then cancels the context and verifies a clean exit.
func TestServeAndGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", addr, "-workers", "2"}) }()

	// Wait for the listener.
	url := fmt.Sprintf("http://%s/healthz", addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			var body map[string]string
			_ = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body["status"] != "ok" {
				t.Fatalf("healthz = %v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestVersionFlag: -version prints and exits without serving (run returns
// immediately, no listener).
func TestVersionFlag(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), []string{"-version"}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run -version: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("-version did not exit")
	}
}

// gateSpec is a one-task job that runs until its gate is closed, so a test
// decides how long a job, and an event stream watching it, stays open.
type gateSpec struct {
	Name string `json:"name"`
}

var gates sync.Map // name → chan struct{}

func gateOf(name string) chan struct{} {
	ch, _ := gates.LoadOrStore(name, make(chan struct{}))
	return ch.(chan struct{})
}

func (gateSpec) Kind() string { return "gocserve_test_gate" }
func (gateSpec) Tasks() int   { return 1 }
func (s gateSpec) RunTask(ctx context.Context, _ int, _ *rng.Rand) (any, error) {
	select {
	case <-gateOf(s.Name):
		return 1, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (gateSpec) Aggregate(results []any) (any, error) { return len(results), nil }

func init() {
	engine.RegisterSpec("gocserve_test_gate", 1, engine.DecodeJSON[gateSpec](), nil)
}

// serveWithReadTimeout serves the real API from newHTTPServer, with the
// read timeout shortened to d so the tests run in well under a second per
// timeout; every other setting is gocserve's own.
func serveWithReadTimeout(t *testing.T, d time.Duration) string {
	t.Helper()
	api, err := server.NewWithOptions(1, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), api)
	srv.ReadTimeout = d
	go srv.Serve(ln)
	t.Cleanup(func() {
		api.Close()
		srv.Close()
	})
	return ln.Addr().String()
}

func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("timeouts read=%v idle=%v header=%v", srv.ReadTimeout, srv.IdleTimeout, srv.ReadHeaderTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v; a server-wide write deadline cuts SSE streams", srv.WriteTimeout)
	}
}

// TestStalledBodyIsDisconnected: a client that sends half a request body
// and then stalls is answered and disconnected once the read timeout passes.
func TestStalledBodyIsDisconnected(t *testing.T) {
	const timeout = 300 * time.Millisecond
	addr := serveWithReadTimeout(t, timeout)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v2/jobs HTTP/1.1\r\nHost: gocserve\r\nContent-Length: 1000\r\n\r\n{\"kind\":"); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection; the local deadline only stops
	// the test from hanging if it does not.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept a stalled request open for 10s")
	}
	if took := time.Since(start); took < timeout {
		t.Fatalf("connection closed after %v, before the %v read timeout", took, timeout)
	}
}

// TestEventStreamOutlivesReadTimeout: an SSE stream stays open across many
// read timeouts and still delivers its terminal "end" event.
func TestEventStreamOutlivesReadTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	base := "http://" + serveWithReadTimeout(t, timeout)
	name := fmt.Sprintf("%s-%d", t.Name(), time.Now().UnixNano())
	resp, err := http.Post(base+"/v2/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"kind":"gocserve_test_gate","seed":1,"spec":{"name":%q}}`, name)))
	if err != nil {
		t.Fatal(err)
	}
	var h struct{ Handle string }
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Handle == "" {
		t.Fatalf("submit: status %d, handle %q, err %v", resp.StatusCode, h.Handle, err)
	}
	events, err := http.Get(base + "/v2/jobs/" + h.Handle + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	time.Sleep(4 * timeout)
	close(gateOf(name))
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		if sc.Text() == "event: end" {
			return
		}
	}
	t.Fatalf("stream ended without an end event (err %v)", sc.Err())
}
