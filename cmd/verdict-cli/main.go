// Command verdict-cli is an interactive SQL shell over a generated dataset,
// answering queries through the full Verdict pipeline: approximate answers
// from the sampling engine, improved by database learning, with 95%
// confidence intervals.
//
// Usage:
//
//	verdict-cli -dataset customer1 -rows 50000
//	verdict-cli -dataset tpch -rows 100000 -fraction 0.2
//	verdict-cli -connect localhost:8765        # drive a running verdict-server
//
// Meta commands inside the shell:
//
//	\train       learn correlation parameters from the synopsis
//	\stats       show synopsis and workload statistics
//	\exact SQL   also compute the exact answer for comparison
//	\append N    stream N freshly generated rows into the served relation
//	\save PATH   persist the synopsis and learned parameters
//	\load PATH   restore a synopsis saved against the same dataset+seed
//	\quit        exit
//
// In -connect mode every command is forwarded to the server, so many shells
// can share (and jointly improve) one synopsis.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	var (
		dataset  = flag.String("dataset", "customer1", "customer1 | tpch | synthetic")
		rows     = flag.Int("rows", 50000, "base relation rows")
		fraction = flag.Float64("fraction", 0.2, "offline sample fraction")
		seed     = flag.Int64("seed", 1, "random seed")
		connect  = flag.String("connect", "", "host:port of a running verdict-server (client mode)")
	)
	flag.Parse()

	if *connect != "" {
		runClient(*connect)
		return
	}

	table, err := buildTable(*dataset, *rows, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sample, err := aqp.BuildSample(table, *fraction, 0, *seed+1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sys := core.NewSystem(aqp.NewEngine(table, sample, aqp.CachedCost), core.Config{})

	fmt.Printf("verdict-cli — %s (%d rows, %.0f%% sample). Table: %s\n",
		*dataset, table.Rows(), *fraction*100, table.Name())
	fmt.Printf("columns: %s\n", strings.Join(table.Schema().Names(), ", "))
	fmt.Println(`type SQL (single line), or \train, \stats, \append N, \quit`)

	appendSeed := *seed + 1000
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
			if err := sys.Verdict().Train(); err != nil {
				fmt.Println("training failed:", err)
			} else {
				fmt.Printf("trained on %d snippets across %d aggregate functions\n",
					sys.Verdict().SnippetCount(), len(sys.Verdict().FuncIDs()))
			}
		case line == `\stats`:
			st := sys.StatsSnapshot()
			fmt.Printf("queries: %d total, %d aggregate, %d supported; snippets: %d; improved: %d\n",
				st.Total, st.Aggregate, st.Supported, st.Snippets, st.Improved)
			fmt.Printf("appends: %d batches, %d rows; base relation now %d rows\n",
				st.Appends, st.AppendRows, sys.Engine().Acquire().BaseRows)
			fmt.Printf("synopsis: %d snippets, ~%.1f KB\n",
				sys.Verdict().SnippetCount(), float64(sys.Verdict().FootprintBytes())/1024)
		case strings.HasPrefix(line, `\append`):
			n, err := parseAppendCount(line)
			if err != nil {
				fmt.Println(err)
				continue
			}
			appendSeed++
			batch, err := buildTable(*dataset, n, appendSeed)
			if err != nil {
				fmt.Println("generating batch:", err)
				continue
			}
			sampled, err := sys.Append(batch)
			if err != nil {
				fmt.Println("append failed:", err)
				continue
			}
			view := sys.Engine().Acquire()
			fmt.Printf("appended %d rows (%d sampled); base now %d rows, sample %d, epoch %d\n",
				n, sampled, view.BaseRows, view.SampleRows, view.Epoch)
		case strings.HasPrefix(line, `\exact `):
			runQuery(sys, strings.TrimPrefix(line, `\exact `), true)
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			if err := saveSynopsis(sys, path); err != nil {
				fmt.Println("save failed:", err)
			} else {
				fmt.Println("synopsis saved to", path)
			}
		case strings.HasPrefix(line, `\load `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\load `))
			if err := loadSynopsis(sys, path); err != nil {
				fmt.Println("load failed:", err)
			} else {
				fmt.Printf("synopsis loaded: %d snippets\n", sys.Verdict().SnippetCount())
			}
		default:
			runQuery(sys, line, false)
		}
	}
}

// parseAppendCount parses "\append N" (default 1000 rows).
func parseAppendCount(line string) (int, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, `\append`))
	if rest == "" {
		return 1000, nil
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf(`usage: \append N  (N > 0 rows to generate and stream in)`)
	}
	return n, nil
}

func saveSynopsis(sys *core.System, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sys.Verdict().Save(f)
}

// loadSynopsis restores the synopsis in place; the engine and sample are
// reused and in-flight state is unaffected.
func loadSynopsis(sys *core.System, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sys.LoadSynopsis(f)
}

func buildTable(dataset string, rows int, seed int64) (*storage.Table, error) {
	switch dataset {
	case "customer1":
		return workload.GenerateCustomer1(rows, seed)
	case "tpch":
		return workload.GenerateTPCH(rows, seed)
	case "synthetic":
		spec := workload.DefaultSyntheticSpec()
		spec.Rows = rows
		spec.Seed = seed
		syn, err := workload.GenerateSynthetic(spec)
		if err != nil {
			return nil, err
		}
		return syn.Table, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (customer1|tpch|synthetic)", dataset)
	}
}

func runQuery(sys *core.System, sql string, exact bool) {
	var (
		res *core.Result
		err error
	)
	if exact {
		res, err = sys.ExecuteWithExact(sql)
	} else {
		res, err = sys.Execute(sql)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if !res.Supported {
		fmt.Printf("unsupported query (bypassing learning): %s\n", strings.Join(res.Reasons, "; "))
		return
	}
	alpha := core.Alpha95
	for _, row := range res.Rows {
		var parts []string
		for _, g := range row.Group {
			if g.Str != "" {
				parts = append(parts, g.Str)
			} else {
				parts = append(parts, fmt.Sprintf("%g", g.Num))
			}
		}
		for _, c := range row.Cells {
			cell := fmt.Sprintf("%s = %.4g ± %.3g", c.Agg, c.Improved.Value, alpha*c.Improved.StdErr)
			if c.UsedModel {
				cell += " (learned)"
			}
			if exact {
				cell += fmt.Sprintf(" [exact %.4g, raw %.4g ± %.3g]",
					c.Exact, c.Raw.Value, alpha*c.Raw.StdErr)
			}
			parts = append(parts, cell)
		}
		fmt.Println("  " + strings.Join(parts, " | "))
	}
	fmt.Printf("  simulated AQP latency %s, verdict overhead %s\n",
		res.SimTime.Round(1e6), res.Overhead.Round(1e3))
}
