package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"gameofcoins/client"
	"gameofcoins/internal/server"
	"gameofcoins/internal/store"
	"gameofcoins/internal/traffic"
)

// lanes is the closed loop's client count: one goroutine, one API key and
// one HTTP transport per lane.
const lanes = 2

// workers is the engine pool size of the served stack and of the traced
// engine pass; both lanes and both workers share a 2-core machine.
const workers = 2

// keys is the keyring the admission controller enforces: one key per lane,
// no rate limit and no quota, so no operation is ever refused.
var keys = [lanes]string{"perfbench-lane-0-key", "perfbench-lane-1-key"}

// stack is one in-process gocserve: a file store in dir, a keyed traffic
// controller, a server on a loopback listener, and one SDK client per lane.
type stack struct {
	file    *store.File
	srv     *server.Server
	ctrl    *traffic.Controller
	hs      *http.Server
	served  chan error
	base    string
	clients [lanes]*client.Client
	tps     [lanes]*http.Transport
}

// openStack builds a stack over dir (rehydrating whatever the store holds)
// and warms each lane's connection with a catalog fetch. A non-nil tr
// installs the tracing decorators; they record only while tr is on.
func openStack(ctx context.Context, dir string, tr *tracer) (*stack, error) {
	kr, err := traffic.ParseKeyring(strings.NewReader("lane-0:" + keys[0] + "\nlane-1:" + keys[1] + "\n"))
	if err != nil {
		return nil, err
	}
	st := &stack{ctrl: traffic.New(traffic.Config{Keyring: kr})}
	t0 := time.Now()
	if st.file, err = store.OpenFile(dir); err != nil {
		return nil, err
	}
	var backing store.Store = st.file
	if tr != nil {
		backing = &tracedStore{inner: st.file, tr: tr, logPath: filepath.Join(dir, storeLogName)}
	}
	st.srv, err = server.NewWithOptions(workers, server.Options{Store: backing, Traffic: st.ctrl})
	if err != nil {
		st.file.Close()
		return nil, err
	}
	if tr != nil {
		tr.loadTime(time.Since(t0))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		st.file.Close()
		return nil, err
	}
	var h http.Handler = st.srv
	if tr != nil {
		h = tr.middleware(h)
	}
	st.hs = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	for i := range st.clients {
		st.tps[i] = &http.Transport{MaxIdleConnsPerHost: 4}
		var rt http.RoundTripper = st.tps[i]
		if tr != nil {
			rt = tr.roundTripper(rt)
		}
		st.clients[i] = client.New(st.base, client.WithAPIKey(keys[i]),
			client.WithHTTPClient(&http.Client{Transport: rt}), client.WithRetryLimit(0))
		if _, err := st.clients[i].Catalog(ctx); err != nil {
			st.close()
			return nil, fmt.Errorf("prewarm lane %d: %w", i, err)
		}
	}
	return st, nil
}

// close stops the listener and every connection, cancels running jobs,
// drains the persistence queue and closes the store, in that order.
func (st *stack) close() error {
	err := st.hs.Close()
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	for _, tp := range st.tps {
		if tp != nil {
			tp.CloseIdleConnections()
		}
	}
	st.srv.Close()
	return errors.Join(err, st.file.Close())
}
