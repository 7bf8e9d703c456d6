package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/query"
)

// POST /query/stream — the progressive (online-aggregation) query path.
// The response is chunked NDJSON: one StreamChunk per increment, flushed as
// soon as it is computed, so clients watch the estimate converge and the
// confidence interval shrink live. The whole stream runs against one pinned
// engine view and one pinned synopsis snapshot; a client that has seen
// enough simply closes the connection, which cancels the request context,
// stops the scan at the next increment boundary and frees the worker slot
// immediately — or supplies target_ci and lets the server stop the stream
// the moment the raw confidence interval is tight enough. Each chunk
// carries a ready-to-resend cursor: POSTing it back (with the original sql
// and min_rows) resumes the stream mid-sample after a dropped connection,
// with the remaining chunks bit-identical to the ones the uninterrupted
// stream would have sent. Each chunk also carries (sample_gen, base_rows,
// sample_rows, rows_seen) — everything needed to replay its raw answer
// bit-for-bit via Engine.ViewAtGen + System.ExecuteViewPrefix, for as long
// as the generation stays inside the replay horizon (-max-retained-gens).

// StreamRequest asks for a progressive query.
type StreamRequest struct {
	SQL     string `json:"sql"`
	Session string `json:"session,omitempty"`
	// MinRows is the first increment's sample-row budget, doubling until
	// the sample is exhausted; 0 selects the engine default (one block,
	// 4096 rows). Negative values are rejected with 400.
	MinRows int `json:"min_rows,omitempty"`
	// PaceMS delays each non-final increment by this many milliseconds — a
	// demo/ops knob for watching convergence (capped at 1000 ms so a client
	// cannot park a worker slot indefinitely).
	PaceMS int64 `json:"pace_ms,omitempty"`
	// TargetCI, when positive, stops the stream server-side at the first
	// increment whose raw 95% half-width is within the target for every
	// result cell; the closing chunk carries stop_reason "target". With
	// TargetRelative it is a fraction of each raw estimate instead of an
	// absolute half-width.
	TargetCI       float64 `json:"target_ci,omitempty"`
	TargetRelative bool    `json:"target_relative,omitempty"`
	// Cursor resumes an interrupted stream: send back the cursor object of
	// the last chunk received, together with the original sql and
	// min_rows. The server re-pins the cursor's sample generation and
	// continues from the next increment. A cursor behind the replay
	// horizon gets a structured 410 (code "behind_replay_horizon") —
	// restart without the cursor.
	Cursor *StreamCursor `json:"cursor,omitempty"`
}

// StreamCursor is the resume token attached to every streamed chunk. It is
// self-contained: (sample_gen, base_rows, sample_rows) reconstruct the
// stream's pinned view, (rows_seen, seq) locate the increment on the
// schedule, and fingerprint binds it to the (sql, min_rows) pair whose
// schedule produced it, so a cursor cannot resume a different query.
// Epoch is informational provenance carried through verbatim (it names
// the original serving view's publication; the engine keeps no epoch
// history to check it against) — replay tooling must key on the
// (sample_gen, base_rows, sample_rows) triple, which is validated.
type StreamCursor struct {
	SampleGen   uint64 `json:"sample_gen"`
	Epoch       uint64 `json:"epoch"`
	BaseRows    int    `json:"base_rows"`
	SampleRows  int    `json:"sample_rows"`
	RowsSeen    int    `json:"rows_seen"`
	Seq         int    `json:"seq"`
	Fingerprint string `json:"fingerprint"`
}

// maxPaceMS caps client-requested pacing per increment.
const maxPaceMS = 1000

// maxQueue caps a /subscribe client's update queue: a subscriber that
// stops reading holds at most this many pushed Results.
const maxQueue = 1024

// StreamChunk is one NDJSON line of a /query/stream response.
type StreamChunk struct {
	// Seq is the 0-based increment index; RowsSeen is the sample prefix the
	// estimates reflect, out of SampleRows.
	Seq        int `json:"seq"`
	RowsSeen   int `json:"rows_seen"`
	SampleRows int `json:"sample_rows"`
	// SampleGen/Epoch/BaseRows pin the serving snapshot: constant for the
	// whole stream (increments never mix sample generations), and enough to
	// replay any chunk later.
	SampleGen uint64 `json:"sample_gen"`
	Epoch     uint64 `json:"epoch"`
	BaseRows  int    `json:"base_rows"`
	// Estimate and CI summarize the first cell — the common single-
	// aggregate case: the model-improved answer and its 95% half-width.
	// RawEstimate/RawCI are the engine's unimproved values. Rows carries
	// every group and cell.
	Estimate    float64  `json:"estimate"`
	CI          float64  `json:"ci"`
	RawEstimate float64  `json:"raw_estimate"`
	RawCI       float64  `json:"raw_ci"`
	Rows        []Row    `json:"rows,omitempty"`
	Supported   bool     `json:"supported"`
	Reasons     []string `json:"reasons,omitempty"`
	// Final marks the increment that consumed the whole sample (which is
	// also the moment the answer is recorded into the synopsis).
	Final      bool    `json:"final,omitempty"`
	SimTimeMS  float64 `json:"sim_time_ms,omitempty"`
	OverheadUS float64 `json:"overhead_us,omitempty"`
	// GroupsTruncated reports that the answer set exceeded the configured
	// Nmax group cap and rows carries only the first Nmax groups.
	GroupsTruncated bool `json:"groups_truncated,omitempty"`
	// PushReason is set only on /subscribe chunks: what triggered this push
	// ("subscribe" for the initial state, then "append", "rebuild" or
	// "train").
	PushReason string `json:"push_reason,omitempty"`
	// StopReason marks a stream that ended before exhausting the sample:
	// "target" when the raw CI met the requested target_ci, "error" on a
	// terminal chunk reporting a mid-stream execution failure (Error set,
	// RequestID naming the failed request for log correlation), "drain" on
	// a /subscribe stream's final chunk when the server began draining.
	StopReason string `json:"stop_reason,omitempty"`
	Error      string `json:"error,omitempty"`
	RequestID  string `json:"request_id,omitempty"`
	// Cursor is the resume token for this increment: POST it back with the
	// original sql and min_rows to continue the stream from here.
	Cursor *StreamCursor `json:"cursor,omitempty"`
}

// GoneResponse is the structured 410 body a resume (or replay) request
// receives when its cursor's sample generation has been evicted behind the
// bounded replay horizon. Clients restart the stream without a cursor.
type GoneResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"` // always "behind_replay_horizon"
	// ReplayHorizon is the oldest generation still replayable.
	ReplayHorizon uint64 `json:"replay_horizon"`
	// RequestID names the rejected request for log correlation.
	RequestID string `json:"request_id,omitempty"`
}

// streamFingerprint binds a cursor to the request parameters that shape the
// increment schedule: resuming with a different sql or min_rows could never
// line up with the original stream's chunks, so such cursors are rejected
// before any work happens.
func streamFingerprint(sql string, minRows int) string {
	h := fnv.New64a()
	io.WriteString(h, sql)
	h.Write([]byte{0})
	io.WriteString(h, strconv.Itoa(minRows))
	return strconv.FormatUint(h.Sum64(), 16)
}

// validate rejects malformed stream requests before admission-grade work
// begins (every error maps to a 400) and returns the request's schedule
// fingerprint, computed once and shared by cursor validation and the
// cursors attached to outgoing chunks.
func (req *StreamRequest) validate() (fingerprint string, err error) {
	if req.SQL == "" {
		return "", fmt.Errorf("missing sql")
	}
	if req.MinRows < 0 {
		return "", fmt.Errorf("min_rows %d is negative", req.MinRows)
	}
	if req.PaceMS < 0 {
		return "", fmt.Errorf("pace_ms %d is negative", req.PaceMS)
	}
	if req.TargetCI < 0 {
		return "", fmt.Errorf("target_ci %v is negative", req.TargetCI)
	}
	if req.TargetRelative && req.TargetCI == 0 {
		return "", fmt.Errorf("target_relative requires a positive target_ci")
	}
	fp := streamFingerprint(req.SQL, req.MinRows)
	if c := req.Cursor; c != nil {
		if c.RowsSeen < 0 || c.Seq < 0 || c.BaseRows < 0 || c.SampleRows <= 0 {
			return "", fmt.Errorf("cursor coordinates (seq %d, rows_seen %d, base_rows %d, sample_rows %d) are malformed",
				c.Seq, c.RowsSeen, c.BaseRows, c.SampleRows)
		}
		if c.Fingerprint == "" {
			return "", fmt.Errorf("cursor is missing its fingerprint")
		}
		if c.Fingerprint != fp {
			return "", fmt.Errorf("cursor fingerprint does not match this sql and min_rows: resume with the original query parameters")
		}
	}
	return fp, nil
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req StreamRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	fp, err := req.validate()
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	if err := noteSession(r, req.Session); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	s.streams.Add(1)
	if s.metrics != nil {
		s.metrics.activeStreams.Add(1)
		defer s.metrics.activeStreams.Add(-1)
		if req.Cursor != nil {
			s.metrics.resumes.Inc()
		}
	}

	pace := min(millis(req.PaceMS), maxPaceMS*time.Millisecond)
	ctx := r.Context()
	enc := json.NewEncoder(w)
	wrote := false
	var lastChunk time.Time
	writeChunk := func(c StreamChunk) bool {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if err := enc.Encode(c); err != nil {
			return false
		}
		flusher.Flush()
		// Increment lag is chunk-to-chunk delivery time: scan + inference
		// + encode + pace, the cadence a watching client experiences.
		if s.metrics != nil {
			now := time.Now()
			if !lastChunk.IsZero() {
				s.metrics.streamLag.Observe(now.Sub(lastChunk).Seconds())
			}
			lastChunk = now
		}
		return true
	}

	opts := core.ProgressiveOptions{
		FirstRows:      req.MinRows,
		TargetCI:       req.TargetCI,
		TargetRelative: req.TargetRelative,
	}
	var faultErr error
	yield := func(pres *core.Result, p core.Progress) bool {
		c := s.chunkFrom(pres, p)
		c.Cursor = &StreamCursor{
			SampleGen: pres.SampleGen, Epoch: pres.Epoch,
			BaseRows: pres.BaseRows, SampleRows: pres.SampleRows,
			RowsSeen: p.Rows, Seq: p.Seq, Fingerprint: fp,
		}
		if s.streamFault != nil {
			if err := s.streamFault(p.Seq); err != nil {
				faultErr = err
				return false
			}
		}
		if !writeChunk(c) {
			return false
		}
		// No pacing after a terminal chunk (sample exhausted or target met):
		// the stream is semantically finished, so holding the worker slot
		// another pace_ms would only delay the client's EOF.
		if pace > 0 && !p.Final && !p.TargetMet {
			select {
			case <-ctx.Done():
				return false
			case <-time.After(pace):
			}
		}
		return true
	}

	var res *core.Result
	if req.Cursor != nil {
		res, err = s.sys.ExecuteProgressiveFrom(ctx, req.SQL, opts, core.ProgressiveCursor{
			SampleGen:  req.Cursor.SampleGen,
			Epoch:      req.Cursor.Epoch,
			BaseRows:   req.Cursor.BaseRows,
			SampleRows: req.Cursor.SampleRows,
			RowsSeen:   req.Cursor.RowsSeen,
			Seq:        req.Cursor.Seq,
		}, yield)
	} else {
		res, err = s.sys.ExecuteProgressive(ctx, req.SQL, opts, yield)
	}
	if err == nil && faultErr != nil {
		err = faultErr
	}
	if err != nil {
		switch {
		case wrote:
			// The 200 header and earlier chunks are gone; a vanished client
			// (context cancelled) gets nothing, but any other mid-stream
			// failure is reported as a terminal error chunk so clients can
			// tell a failed stream from a completed one instead of seeing a
			// silently truncated body.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				writeChunk(StreamChunk{
					Supported:  true,
					StopReason: "error", Error: err.Error(),
					RequestID: requestID(r),
				})
			}
		case errors.Is(err, aqp.ErrGenEvicted):
			// The cursor's generation fell behind the replay horizon:
			// structured 410 so clients restart a fresh stream cleanly. The
			// horizon comes from the typed error — snapshotted under the
			// same lock that rejected the generation — so the body can
			// never contradict its own message.
			gone := GoneResponse{Error: err.Error(), Code: "behind_replay_horizon", RequestID: requestID(r)}
			var ge *aqp.GenEvictedError
			if errors.As(err, &ge) {
				gone.ReplayHorizon = ge.Horizon
			} else {
				gone.ReplayHorizon = s.sys.Engine().ReplayHorizon()
			}
			if s.metrics != nil {
				s.metrics.behindHorizon.Inc()
			}
			writeJSON(w, http.StatusGone, gone)
		default:
			// Parse/plan failures and bad cursors surface before the first
			// chunk and can still carry a status.
			writeErr(w, r, http.StatusBadRequest, err)
		}
		return
	}
	if res != nil && !res.Supported && !wrote {
		// Unsupported queries terminate in one chunk, mirroring /query.
		writeChunk(StreamChunk{
			Supported: false, Reasons: res.Reasons, Final: true,
			Epoch: res.Epoch, SampleGen: res.SampleGen,
			BaseRows: res.BaseRows, SampleRows: res.SampleRows,
		})
	}
}

// chunkFrom converts one progressive increment into its wire form.
func (s *Server) chunkFrom(res *core.Result, p core.Progress) StreamChunk {
	c := StreamChunk{
		Seq: p.Seq, RowsSeen: p.Rows, SampleRows: p.SampleRows,
		SampleGen: res.SampleGen, Epoch: res.Epoch, BaseRows: res.BaseRows,
		Rows: s.jsonRows(res), Supported: true, Final: p.Final,
		SimTimeMS:  float64(res.SimTime) / float64(time.Millisecond),
		OverheadUS: float64(res.Overhead) / float64(time.Microsecond),

		GroupsTruncated: res.GroupsTruncated,
	}
	if p.TargetMet {
		c.StopReason = "target"
	}
	if len(c.Rows) > 0 && len(c.Rows[0].Cells) > 0 {
		first := c.Rows[0].Cells[0]
		c.Estimate, c.CI = first.Value, first.ErrBound
		c.RawEstimate, c.RawCI = first.RawValue, query.Saturate(core.Alpha95*first.RawStdErr)
	}
	return c
}
