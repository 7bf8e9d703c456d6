package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/aqp"
	"repro/internal/core"
)

// postRaw posts a JSON body and returns (status, decoded error envelope);
// the envelope is zero-valued on 200s.
func postRaw(t *testing.T, url, body string) (int, errJSON) {
	t.Helper()
	r, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env errJSON
	if r.StatusCode != http.StatusOK {
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("error response is not the envelope: %v (%s)", err, data)
		}
	}
	return r.StatusCode, env
}

// TestServerRebuildPartitionValidation: /rebuild layouts naming unknown or
// categorical columns are rejected with a structured 400 (code
// "invalid_column") and nothing moves — no generation swap, no Rebuilds
// bump. This is the serving-layer surface of aqp.ErrBadLayout, which used
// to be a panic deep inside the cluster sort.
func TestServerRebuildPartitionValidation(t *testing.T) {
	_, sys, ts := fixture(t, 8000, Config{})

	cases := []struct {
		name, body, wantErr string
	}{
		{"categorical cluster column", `{"cluster_column": "region"}`, "not a numeric column"},
		{"unknown cluster column", `{"cluster_column": "nope"}`, "unknown column"},
		{"categorical stratum column", `{"partitions": 4, "stratum_column": "region"}`, "not a numeric column"},
		{"unknown stratum column", `{"partitions": 4, "stratum_column": "nope"}`, "unknown column"},
	}
	for _, c := range cases {
		code, env := postRaw(t, ts.URL+"/rebuild", c.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, code)
		}
		if env.Code != "invalid_column" {
			t.Fatalf("%s: envelope code %q, want invalid_column", c.name, env.Code)
		}
		if !strings.Contains(env.Error, c.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", c.name, env.Error, c.wantErr)
		}
	}
	if gen := sys.Engine().Acquire().SampleGen; gen != 0 {
		t.Fatalf("rejected rebuilds moved the sample generation to %d", gen)
	}
	if st := sys.StatsSnapshot(); st.Rebuilds != 0 {
		t.Fatalf("rejected rebuilds bumped the counter to %d", st.Rebuilds)
	}
}

// TestServerPartitionedRebuildAndStats: a /rebuild layout override produces
// the stratified partitioned sample, /stats exposes the per-partition
// digest, /metrics gains the partition gauges, and queries keep answering.
func TestServerPartitionedRebuildAndStats(t *testing.T) {
	_, sys, ts := fixture(t, 12000, Config{})

	var rr RebuildResponse
	if code := post(t, ts.URL+"/rebuild", json.RawMessage(`{"partitions": 4, "stratum_column": "week"}`), &rr); code != 200 {
		t.Fatalf("partitioned rebuild status %d", code)
	}
	if rr.Generation != 1 || rr.Partitions != 4 {
		t.Fatalf("rebuild response %+v", rr)
	}

	var st StatsResponse
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Sample.NumPartitions != 4 || st.Sample.StratumColumn != "week" {
		t.Fatalf("stats sample layout: %d partitions, column %q", st.Sample.NumPartitions, st.Sample.StratumColumn)
	}
	if len(st.Sample.Partitions) != 4 {
		t.Fatalf("stats carries %d partition entries", len(st.Sample.Partitions))
	}
	total := 0
	for i, p := range st.Sample.Partitions {
		if p.Partition != i || p.Rows == 0 || p.Strata == 0 || p.Generation != 1 {
			t.Fatalf("partition digest %d: %+v", i, p)
		}
		if p.ZoneSelectivity <= 0 || p.ZoneSelectivity > 0.5 {
			t.Fatalf("partition %d zone selectivity %v: stratified layout should cluster week", i, p.ZoneSelectivity)
		}
		total += p.Rows
	}
	if total != st.Table.SampleRows {
		t.Fatalf("partition rows sum to %d, sample has %d", total, st.Table.SampleRows)
	}

	// The partitioned sample still answers queries.
	var qr QueryResponse
	req := QueryRequest{SQL: "SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20"}
	if code := post(t, ts.URL+"/query", req, &qr); code != 200 || !qr.Supported {
		t.Fatalf("query over partitioned sample: status %d, %+v", code, qr)
	}
	if v := qr.Rows[0].Cells[0].Value; v < 70 || v > 100 {
		t.Fatalf("AVG(revenue | week 10..20) = %v over partitioned sample", v)
	}

	// An empty-body rebuild repeats the (now standing) partitioned layout.
	if code := post(t, ts.URL+"/rebuild", struct{}{}, &rr); code != 200 {
		t.Fatalf("default rebuild status %d", code)
	}
	if rr.Generation != 2 || rr.Partitions != 4 {
		t.Fatalf("default rebuild did not keep the layout: %+v", rr)
	}
	if st := sys.StatsSnapshot(); st.Rebuilds != 2 {
		t.Fatalf("rebuild counter %d, want 2", st.Rebuilds)
	}
}

// TestServerPartitionMetricsGauges: the scrape-time partition gauges follow
// the layout — zero/empty on a flat sample, one labeled sample per
// partition after a partitioned rebuild.
func TestServerPartitionMetricsGauges(t *testing.T) {
	_, ts, _ := metricsFixture(t, 8000, Config{})

	values, _ := scrape(t, ts.URL)
	if got := values["verdict_sample_partitions"]; got != 0 {
		t.Fatalf("flat sample reports %v partitions", got)
	}
	var rr RebuildResponse
	if code := post(t, ts.URL+"/rebuild", json.RawMessage(`{"partitions": 3, "stratum_column": "week"}`), &rr); code != 200 {
		t.Fatalf("rebuild status %d", code)
	}
	values, _ = scrape(t, ts.URL)
	if got := values["verdict_sample_partitions"]; got != 3 {
		t.Fatalf("partition count gauge %v, want 3", got)
	}
	for p := 0; p < 3; p++ {
		key := `verdict_sample_partition_rows{partition="` + strconv.Itoa(p) + `"}`
		if v, ok := values[key]; !ok || v <= 0 {
			t.Fatalf("missing or empty %s (=%v)", key, v)
		}
		selKey := `verdict_sample_partition_zone_selectivity{partition="` + strconv.Itoa(p) + `"}`
		if sel, ok := values[selKey]; !ok || sel <= 0 || sel > 0.5 {
			t.Fatalf("%s = %v: stratified layout should cluster week", selKey, sel)
		}
	}
}

// TestServerPartitionBootConfig: core.Config's NumPartitions/StratumColumn
// lay the sample out at boot, before any rebuild, without moving the
// generation.
func TestServerPartitionBootConfig(t *testing.T) {
	tb := salesTable(t, 8000, 42)
	sample, err := aqp.BuildSample(tb, 0.2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(aqp.NewEngine(tb, sample, aqp.CachedCost), core.Config{
		NumPartitions: 2,
		StratumColumn: "week",
	})
	srv := New(sys, Config{})
	defer srv.Close()

	stats := sys.Engine().PartitionStats()
	if len(stats) != 2 {
		t.Fatalf("boot layout produced %d partitions, want 2", len(stats))
	}
	if stats[0].Gen != 0 {
		t.Fatalf("boot layout bumped the generation to %d", stats[0].Gen)
	}
	res, err := sys.Execute("SELECT AVG(revenue) FROM sales WHERE week BETWEEN 10 AND 20")
	if err != nil || !res.Supported {
		t.Fatalf("query over boot-partitioned sample: %v, %+v", err, res)
	}
}
