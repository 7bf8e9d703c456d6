package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
)

const sampleFraction = 0.2

// system is one booted server on a loopback listener.
type system struct {
	sys  *core.System
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error // Serve's return
}

// boot wires a server exactly as cmd/verdict-server does — one registry
// shared by core's stage timer and the serving layer, a request logger (to
// io.Discard) — and serves it on 127.0.0.1:0. A non-nil tracer mounts the
// span wrapper and the fan-out stage timer; nothing else differs.
func boot(table *storage.Table, seed int64, synopsisCap int, tr *tracer) (*system, error) {
	sample, err := aqp.BuildSample(table, sampleFraction, 0, seed+1)
	if err != nil {
		return nil, err
	}
	logger, err := obs.NewLogger(io.Discard, "text", "info")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	var stages obs.StageTimer = obs.NewQueryStages(reg)
	if tr != nil {
		stages = stageTimer{real: stages, t: tr}
	}
	sys := core.NewSystem(aqp.NewEngine(table, sample, aqp.CachedCost), core.Config{
		SynopsisCap: synopsisCap,
		Stages:      stages,
	})
	srv := server.New(sys, server.Config{Logger: logger, Metrics: reg})
	handler := srv.Handler()
	if tr != nil {
		handler = tr.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &system{
		sys: sys, srv: srv,
		hs:   &http.Server{Handler: handler},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// teardown goes through Server.Drain, the one public completion edge: once
// it returns every admitted handler and subscription has finished, so the
// leak checks below race nothing.
func (s *system) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	s.srv.Close()
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	if n := s.sys.Engine().PinnedGens(); n != 0 {
		return fmt.Errorf("teardown: %d sample generations still pinned", n)
	}
	if n := s.sys.ActiveSubscriptions(); n != 0 {
		return fmt.Errorf("teardown: %d subscriptions still active", n)
	}
	if n := s.srv.InFlight(); n != 0 {
		return fmt.Errorf("teardown: %d requests still in flight", n)
	}
	return nil
}

// tally counts operations attempted and failed across client goroutines. A
// failure is any non-200, transport error, malformed body or missing push.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	t.firstErr.CompareAndSwap(nil, &msg)
}

// client is one closed-loop HTTP caller: it sends its next request only
// after the previous reply is complete.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request as its caller saw it.
type reply struct {
	status int
	body   []byte
	first  time.Duration // send → response headers
	total  time.Duration // send → body complete
}

// do sends one request and reads the whole body.
func (c *client) do(method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp span
	if c.tr != nil {
		sp = c.tr.startClient(req, path)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, first: time.Since(t0)}
	r.body, err = io.ReadAll(resp.Body)
	r.total = time.Since(t0)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.endClient(sp, r.status, len(r.body))
	}
	return r, err
}

// post sends JSON and decodes a 200 reply into out (when non-nil).
func (c *client) post(path string, in, out any) (reply, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return reply{}, err
	}
	r, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return r, err
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %s", path, r.status, bytes.TrimSpace(r.body))
	}
	if out != nil {
		if err := json.Unmarshal(r.body, out); err != nil {
			return r, fmt.Errorf("%s: malformed body: %w", path, err)
		}
	}
	return r, nil
}

// stream posts a request whose reply is NDJSON and hands each chunk to
// onChunk with its arrival time since the send; onChunk returning false
// stops reading. The client span covers send to end of body.
func (c *client) stream(path string, in any, onChunk func(server.StreamChunk, time.Duration) bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if c.tr != nil {
		sp = c.tr.startClient(req, path)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	bytesRead := 0
	defer func() {
		if c.tr != nil {
			c.tr.endClient(sp, resp.StatusCode, bytesRead)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, rerr := rd.ReadBytes('\n')
		if len(line) > 0 {
			at := time.Since(t0)
			bytesRead += len(line)
			var chunk server.StreamChunk
			if err := json.Unmarshal(line, &chunk); err != nil {
				return fmt.Errorf("%s: malformed chunk: %w", path, err)
			}
			if !onChunk(chunk, at) {
				return nil
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}
