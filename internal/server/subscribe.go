package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
)

// POST /subscribe — continuous queries. A subscriber registers a SQL
// statement once and holds the connection open; the server pushes one
// NDJSON StreamChunk whenever an append, sample rebuild or training pass
// moves the answer past the subscriber's thresholds (plus an immediate
// initial chunk with the current state, push_reason "subscribe"). Chunks
// have the same shape as /query/stream chunks — estimate/ci/sample_gen/seq
// — with push_reason set; every chunk's answer replays bit-identically via
// ViewAtGen + ExecuteView at its pinned (sample_gen, base_rows,
// sample_rows) provenance. N subscribers on the same SQL share ONE
// incremental scan per notify batch (plan dedup in core).
//
// Subscriptions do not occupy worker slots: they are idle waiters, capped
// separately by Config.MaxSubscriptions, so open dashboards never starve
// admission or hold the auto-rebuild quiet gate open. A slow consumer's
// queue coalesces to the latest update; it never blocks the hub or other
// subscribers. A draining server closes every subscription with a final
// chunk carrying stop_reason "drain".

// SubscribeRequest registers one standing query.
type SubscribeRequest struct {
	SQL     string `json:"sql"`
	Session string `json:"session,omitempty"`
	// DeltaCI suppresses pushes until some cell's 95% half-width moved by
	// more than this absolute amount since the last push; DeltaRel until
	// some estimate moved by more than this fraction of its last pushed
	// magnitude. Both zero: every change pushes.
	DeltaCI  float64 `json:"delta_ci,omitempty"`
	DeltaRel float64 `json:"delta_rel,omitempty"`
	// Queue bounds the subscriber's update queue (default 8, at most
	// maxQueue); a full queue coalesces to the latest update.
	Queue int `json:"queue,omitempty"`
	// DebounceMS suppresses pushes for this many milliseconds after each
	// delivered one (measured on the system clock).
	DebounceMS int64 `json:"debounce_ms,omitempty"`
}

func (req *SubscribeRequest) validate() error {
	if req.SQL == "" {
		return fmt.Errorf("missing sql")
	}
	if req.DeltaCI < 0 {
		return fmt.Errorf("delta_ci %v is negative", req.DeltaCI)
	}
	if req.DeltaRel < 0 {
		return fmt.Errorf("delta_rel %v is negative", req.DeltaRel)
	}
	if req.Queue < 0 || req.Queue > maxQueue {
		return fmt.Errorf("queue %d is outside [0, %d]", req.Queue, maxQueue)
	}
	if req.DebounceMS < 0 {
		return fmt.Errorf("debounce_ms %d is negative", req.DebounceMS)
	}
	return nil
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if err := noteSession(r, req.Session); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	if s.draining.Load() {
		s.shed(w, r, codeDraining, fmt.Errorf("server draining: not accepting new subscriptions"))
		return
	}
	// Registered with the drain WaitGroup (not the worker pool) so Drain
	// waits for the terminal stop_reason chunk to flush before returning.
	// Deferred first so it runs last: once handlers is at rest, the
	// subscriber count and the subscription are released too.
	s.handlers.Add(1)
	defer s.handlers.Done()
	if s.subscribers.Add(1) > int64(s.cfg.MaxSubscriptions) {
		s.subscribers.Add(-1)
		s.shed(w, r, codeSaturated, fmt.Errorf("subscription cap reached: %d open", s.cfg.MaxSubscriptions))
		return
	}
	defer s.subscribers.Add(-1)

	sub, err := s.sys.Subscribe(req.SQL, core.SubscribeOptions{
		DeltaCI:         req.DeltaCI,
		DeltaRel:        req.DeltaRel,
		Queue:           req.Queue,
		MinPushInterval: millis(req.DebounceMS),
	})
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	defer sub.Close()
	if s.draining.Load() {
		// BeginDrain raced our registration: its CloseSubscriptions pass may
		// have run before Subscribe landed, so close out explicitly and shed
		// before any chunk is written.
		sub.Close()
		s.shed(w, r, codeDraining, fmt.Errorf("server draining: not accepting new subscriptions"))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		upd, ok := sub.Next(ctx)
		if !ok {
			if ctx.Err() != nil {
				return // client disconnected; nothing left to tell it
			}
			// Subscription closed server-side (drain): terminal chunk so the
			// client can tell an orderly close from a dropped connection.
			c := StreamChunk{Supported: true, StopReason: sub.CloseReason()}
			if enc.Encode(c) == nil {
				flusher.Flush()
			}
			return
		}
		if enc.Encode(s.subscribeChunk(upd)) != nil {
			return
		}
		flusher.Flush()
	}
}

// subscribeChunk converts one push into its wire form: a stream chunk at
// the full sample prefix, with seq and push_reason from the subscription.
func (s *Server) subscribeChunk(upd core.PushUpdate) StreamChunk {
	res := upd.Result
	c := s.chunkFrom(res, core.Progress{
		Seq: upd.Seq, Rows: res.SampleRows, SampleRows: res.SampleRows,
	})
	c.PushReason = upd.Reason
	return c
}
