package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// runClient is the -connect mode: the shell forwards every command to a
// running verdict-server, so many shells share one synopsis and each
// benefits from what the others taught it.
func runClient(hostport string) {
	base := "http://" + hostport
	hc := &http.Client{Timeout: 60 * time.Second}

	var st server.StatsResponse
	if err := getJSON(hc, base+"/stats", &st); err != nil {
		fmt.Fprintf(os.Stderr, "cannot reach verdict-server at %s: %v\n", hostport, err)
		os.Exit(1)
	}
	session := fmt.Sprintf("cli-%d", os.Getpid())
	fmt.Printf("verdict-cli — connected to %s (session %s)\n", hostport, session)
	fmt.Printf("table %s: %d rows (%d sampled), epoch %d\n",
		st.Table.Name, st.Table.BaseRows, st.Table.SampleRows, st.Table.Epoch)
	fmt.Printf("columns: %s\n", strings.Join(st.Table.Columns, ", "))
	fmt.Println(`type SQL (single line; streams progressive increments), or \oneshot SQL, \exact SQL, \subscribe [ci=X] [rel=Y] SQL, \train, \stats, \append N, \quit`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("verdict> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\train`:
			var tr server.TrainResponse
			if err := postJSON(hc, base+"/train", struct{}{}, &tr); err != nil {
				fmt.Println("training failed:", err)
			} else {
				fmt.Printf("trained on %d snippets across %d aggregate functions\n", tr.Snippets, tr.Functions)
			}
		case line == `\stats`:
			var st server.StatsResponse
			if err := getJSON(hc, base+"/stats", &st); err != nil {
				fmt.Println("stats failed:", err)
				continue
			}
			printServerStats(st)
		case strings.HasPrefix(line, `\append`):
			n, err := parseAppendCount(line)
			if err != nil {
				fmt.Println(err)
				continue
			}
			var ar server.AppendResponse
			req := server.AppendRequest{Session: session, Generate: n}
			if err := postJSON(hc, base+"/append", req, &ar); err != nil {
				fmt.Println("append failed:", err)
				continue
			}
			fmt.Printf("appended %d rows (%d sampled); base now %d rows, sample %d, epoch %d\n",
				ar.Appended, ar.Sampled, ar.BaseRows, ar.SampleRows, ar.Epoch)
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			var sr server.SnapshotResponse
			if err := postJSON(hc, base+"/save", server.PathRequest{Path: path}, &sr); err != nil {
				fmt.Println("save failed:", err)
			} else {
				fmt.Printf("synopsis saved server-side to %s (%d snippets)\n", sr.Path, sr.Snippets)
			}
		case strings.HasPrefix(line, `\load `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\load `))
			var sr server.SnapshotResponse
			if err := postJSON(hc, base+"/load", server.PathRequest{Path: path}, &sr); err != nil {
				fmt.Println("load failed:", err)
			} else {
				fmt.Printf("synopsis loaded server-side: %d snippets\n", sr.Snippets)
			}
		case strings.HasPrefix(line, `\subscribe `):
			remoteSubscribe(base, session, strings.TrimPrefix(line, `\subscribe `))
		case strings.HasPrefix(line, `\exact `):
			remoteQuery(hc, base, session, strings.TrimPrefix(line, `\exact `), true)
		case strings.HasPrefix(line, `\oneshot `):
			remoteQuery(hc, base, session, strings.TrimPrefix(line, `\oneshot `), false)
		default:
			remoteStream(hc, base, session, line)
		}
	}
}

// remoteStream drives /query/stream: one progress line per increment as the
// estimate converges, then the full answer at the final chunk. Servers
// without the endpoint fall back to the one-shot /query. A transport error
// mid-stream is retried once from the last received chunk's cursor — the
// server folds the already-consumed prefix and continues bit-identically —
// before giving up.
func remoteStream(hc *http.Client, base, session, sql string) {
	var last server.StreamChunk
	increments := 0
	for attempt := 0; ; attempt++ {
		req := server.StreamRequest{SQL: sql, Session: session}
		if attempt > 0 {
			req.Cursor = last.Cursor
		}
		done, err := streamOnce(hc, base, req, attempt == 0, &last, &increments)
		if done {
			return
		}
		if err == nil {
			break
		}
		if last.Final || last.StopReason != "" {
			// The terminal chunk already arrived; the transport error only
			// clipped the clean EOF. Render the answer we hold — resuming a
			// completed stream would be rejected (and waste a rescan).
			break
		}
		// One resume from the last cursor; anything further is fatal.
		if attempt == 0 && last.Cursor != nil {
			fmt.Printf("  stream interrupted (%v); reconnecting with cursor…\n", err)
			continue
		}
		fmt.Println("stream error:", err)
		return
	}
	if increments == 0 {
		fmt.Println("stream ended without an answer")
		return
	}
	if last.StopReason == "target" {
		fmt.Printf("  target CI reached after %d/%d sample rows\n", last.RowsSeen, last.SampleRows)
	}
	printRows(last.Rows, false)
	fmt.Printf("  epoch %d gen %d (%d base rows), %d increments, simulated AQP latency %.1fms, verdict overhead %.0fµs\n",
		last.Epoch, last.SampleGen, last.BaseRows, increments, last.SimTimeMS, last.OverheadUS)
}

// streamOnce performs one /query/stream attempt (fresh or cursor-resumed),
// accumulating chunks into *last / *increments. done=true means the caller
// should return immediately (fallback taken, HTTP error printed, or a
// terminal condition rendered); err non-nil with done=false is a transport
// error eligible for a cursor retry.
func streamOnce(hc *http.Client, base string, req server.StreamRequest, allowFallback bool, last *server.StreamChunk, increments *int) (done bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Println("error:", err)
		return true, nil
	}
	resp, err := hc.Post(base+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		if req.Cursor != nil {
			return false, err // connect failure on resume: report as stream error
		}
		fmt.Println("error:", err)
		return true, nil
	}
	defer resp.Body.Close()
	if allowFallback && (resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed) {
		io.Copy(io.Discard, resp.Body)
		remoteQuery(hc, base, req.Session, req.SQL, false)
		return true, nil
	}
	if resp.StatusCode == http.StatusGone {
		// The cursor fell behind the replay horizon; the only clean move is
		// a fresh stream, which the user can reissue.
		fmt.Println("error:", decodeResponse(resp, nil))
		return true, nil
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Println("error:", decodeResponse(resp, nil))
		return true, nil
	}
	if req.Cursor != nil {
		fmt.Printf("  resumed at row %d\n", req.Cursor.RowsSeen)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c server.StreamChunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			// A connection that dies mid-chunk can surface as a clean EOF
			// whose final partial line fails to parse; that is a transport
			// failure, not a server answer — eligible for a cursor resume.
			return false, fmt.Errorf("truncated chunk: %w", err)
		}
		if !c.Supported {
			fmt.Printf("unsupported query (bypassing learning): %s\n", strings.Join(c.Reasons, "; "))
			return true, nil
		}
		if c.Error != "" {
			fmt.Println("server error mid-stream:", c.Error)
			return true, nil
		}
		*last = c
		*increments++
		if !c.Final && c.StopReason == "" {
			fmt.Printf("  … %3.0f%%  %9d/%d sample rows   %.4g ± %.3g (raw ± %.3g)\n",
				100*float64(c.RowsSeen)/float64(c.SampleRows), c.RowsSeen, c.SampleRows,
				c.Estimate, c.CI, c.RawCI)
		}
	}
	return false, sc.Err()
}

// remoteSubscribe drives POST /subscribe: register the SQL once, then
// render every pushed update live until the server closes the stream
// (drain) or the connection drops. Optional leading ci=<abs> and
// rel=<frac> tokens set the push thresholds (both absent: every change
// pushes). The subscription uses its own timeout-free client — the shared
// one would kill the stream after 60 s.
func remoteSubscribe(base, session, args string) {
	req := server.SubscribeRequest{Session: session}
	toks := strings.Fields(args)
	i := 0
	for ; i < len(toks); i++ {
		if v, ok := strings.CutPrefix(toks[i], "ci="); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				fmt.Println("bad ci= value:", err)
				return
			}
			req.DeltaCI = f
		} else if v, ok := strings.CutPrefix(toks[i], "rel="); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				fmt.Println("bad rel= value:", err)
				return
			}
			req.DeltaRel = f
		} else {
			break
		}
	}
	req.SQL = strings.Join(toks[i:], " ")
	if req.SQL == "" {
		fmt.Println(`usage: \subscribe [ci=X] [rel=Y] SELECT ...`)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	resp, err := (&http.Client{}).Post(base+"/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Println("error:", decodeResponse(resp, nil))
		return
	}
	fmt.Println("  subscribed — updates push on append/rebuild/train (server drain ends the stream)")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var c server.StreamChunk
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			fmt.Println("truncated chunk:", err)
			return
		}
		if c.StopReason != "" {
			fmt.Printf("  subscription closed by server (%s)\n", c.StopReason)
			return
		}
		if len(c.Rows) > 1 || (len(c.Rows) == 1 && len(c.Rows[0].Group) > 0) {
			// Grouped standing query: one line per group row.
			trunc := ""
			if c.GroupsTruncated {
				trunc = ", truncated"
			}
			fmt.Printf("  [%s #%d, gen %d, %d base rows, %d groups%s]\n",
				c.PushReason, c.Seq, c.SampleGen, c.BaseRows, len(c.Rows), trunc)
			printRows(c.Rows, false)
			continue
		}
		fmt.Printf("  [%s #%d, gen %d, %d base rows] %.6g ± %.3g\n",
			c.PushReason, c.Seq, c.SampleGen, c.BaseRows, c.Estimate, c.CI)
	}
	if err := sc.Err(); err != nil {
		fmt.Println("subscription stream error:", err)
	} else {
		fmt.Println("  subscription stream ended")
	}
}

func remoteQuery(hc *http.Client, base, session, sql string, exact bool) {
	var qr server.QueryResponse
	req := server.QueryRequest{SQL: sql, Session: session, Exact: exact}
	if err := postJSON(hc, base+"/query", req, &qr); err != nil {
		fmt.Println("error:", err)
		return
	}
	if !qr.Supported {
		fmt.Printf("unsupported query (bypassing learning): %s\n", strings.Join(qr.Reasons, "; "))
		return
	}
	printRows(qr.Rows, exact)
	fmt.Printf("  epoch %d (%d base rows), simulated AQP latency %.1fms, verdict overhead %.0fµs\n",
		qr.Epoch, qr.BaseRows, qr.SimTimeMS, qr.OverheadUS)
}

func printRows(rows []server.Row, exact bool) {
	for _, row := range rows {
		var parts []string
		for _, g := range row.Group {
			if g.Str != "" {
				parts = append(parts, g.Str)
			} else {
				parts = append(parts, fmt.Sprintf("%g", g.Num))
			}
		}
		for _, c := range row.Cells {
			cell := fmt.Sprintf("%s = %.4g ± %.3g", c.Agg, c.Value, c.ErrBound)
			if c.UsedModel {
				cell += " (learned)"
			}
			if exact {
				cell += fmt.Sprintf(" [exact %.4g, raw %.4g]", c.Exact, c.RawValue)
			}
			parts = append(parts, cell)
		}
		fmt.Println("  " + strings.Join(parts, " | "))
	}
}

func printServerStats(st server.StatsResponse) {
	fmt.Printf("table %s: %d rows (%d sampled), epoch %d\n",
		st.Table.Name, st.Table.BaseRows, st.Table.SampleRows, st.Table.Epoch)
	fmt.Printf("queries: %d total, %d aggregate, %d supported; snippets: %d; improved: %d\n",
		st.System.Total, st.System.Aggregate, st.System.Supported, st.System.Snippets, st.System.Improved)
	fmt.Printf("appends: %d batches, %d rows\n", st.System.Appends, st.System.AppendRows)
	fmt.Printf("synopsis: %d snippets across %d functions, ~%.1f KB\n",
		st.Synopsis.Snippets, st.Synopsis.Functions, float64(st.Synopsis.FootprintBytes)/1024)
	fmt.Printf("server: %d served, %d shed, up %.0fs\n",
		st.Server.Served, st.Server.Rejected, float64(st.Server.UptimeMS)/1000)
	if m := st.Metrics; m != nil {
		fmt.Printf("metrics: %d requests, latency p50=%.2fms p95=%.2fms p99=%.2fms, %d shed (full catalog: GET /metrics)\n",
			m.TotalRequests, m.RequestP50MS, m.RequestP95MS, m.RequestP99MS, m.Shed)
	}
	if st.Sample.NumPartitions > 0 {
		col := st.Sample.StratumColumn
		if col == "" {
			col = "(round-robin)"
		}
		fmt.Printf("sample layout: %d partitions, stratum column %s\n", st.Sample.NumPartitions, col)
		for _, p := range st.Sample.Partitions {
			fmt.Printf("  partition %d: %d rows, %d strata, gen %d, zone selectivity %.3f\n",
				p.Partition, p.Rows, p.Strata, p.Generation, p.ZoneSelectivity)
		}
	}
}

func postJSON(hc *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	return decodeResponse(r, resp)
}

func getJSON(hc *http.Client, url string, resp any) error {
	r, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	return decodeResponse(r, resp)
}

func decodeResponse(r *http.Response, resp any) error {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s (HTTP %d)", e.Error, r.StatusCode)
		}
		return fmt.Errorf("HTTP %d: %s", r.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, resp)
}
