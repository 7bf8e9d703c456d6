package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/aqp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// System wires the full runtime pipeline of Algorithm 2 around a black-box
// AQP engine: parse → type-check → decompose into snippets → obtain raw
// answers → infer improved answers → validate → record into the synopsis →
// recompose user aggregates. Examples and the CLI consume this facade;
// experiments mostly drive the snippet-level APIs directly.
//
// System is safe for concurrent use — it is the unit the serving layer
// (internal/server) shares across sessions. Each query pins one immutable
// engine view for its whole execution (snapshot isolation against streaming
// appends), inference runs against Verdict's published model snapshots, and
// the workload counters are mutex-guarded so /stats can be read live.
type System struct {
	engine *aqp.Engine
	cfg    Config

	vmu     sync.RWMutex // guards the verdict pointer (swapped by LoadSynopsis)
	verdict *Verdict

	statsMu sync.Mutex
	// Stats accumulates workload counters for Table 3-style reporting.
	// Concurrent readers must use StatsSnapshot; direct access remains for
	// single-threaded callers.
	Stats SystemStats

	appendMu    sync.Mutex // serializes Append/RebuildSample end-to-end
	appendSeed  int64
	rebuildSeed int64

	// standing holds the continuous-query state: the notify hub, the
	// deduplicated standing plans and their carried scans (see standing.go).
	// Lock order is appendMu → standing.mu → engine/verdict internals.
	standing standingState

	// memo carries each repeated one-shot statement's fold from one
	// execution to the next, and a streamed statement's raw increments from
	// one stream to the next (see scanmemo.go).
	memo scanMemo
}

// SystemStats counts processed queries by classification.
type SystemStats struct {
	Total       int
	Aggregate   int
	Supported   int
	Improved    int // snippets whose model-based answer passed validation
	Snippets    int
	Appends     int   // streaming append batches applied
	AppendRows  int   // rows landed by streaming appends
	DriftRows   int   // pre-append sample rows the drift estimate bucketed, summed over AVG models
	Rebuilds    int   // sample rebuild epochs (RebuildSample calls)
	Progressive int   // queries served through ExecuteProgressive
	Resumed     int   // cursor resumptions served through ExecuteProgressiveFrom
	Increments  int   // progressive increments emitted across all streams
	InferenceNS int64 // cumulative wall-clock inference+record overhead

	// Continuous-query (standing subscription) counters. NotifyScans counts
	// incremental sample passes: one per unique plan per notify batch, plus
	// one full fold when a plan is first created or must rebind after a
	// generation swap — NOT one per subscriber, which is the shared-scan
	// dedup the tests assert. NotifyCoalesced counts pushes that overwrote a
	// stalled subscriber's queued update instead of growing its queue.
	Subscribes      int // Subscribe calls accepted
	NotifyBatches   int // append/rebuild/train events fanned out to standing plans
	NotifyScans     int // incremental (or rebinding) scans run for standing plans
	NotifyPushes    int // updates pushed to subscribers (threshold passed)
	NotifyCoalesced int // pushes coalesced into a full subscriber queue
	NotifyDebounced int // pushes suppressed by a subscriber's min push interval

	// Scan-memo outcomes, one per recorded one-shot query and one per
	// progressive stream, resumed or not (scanmemo.go): Reused scanned
	// nothing (a query on the same snapshot as the statement's last
	// execution; a stream whose every increment was stored), Extended folded
	// only the rows appended since (one-shot only), Folded scanned from the
	// start (first sight, a rebuild, moved bounds, a view behind the carried
	// prefix; a stream with any increment not stored). ScanMemoRows is the
	// sample rows those queries and streams folded in total; ScanMemoEntries
	// is the current entry count, not a counter.
	ScanMemoReused   int
	ScanMemoExtended int
	ScanMemoFolded   int
	ScanMemoRows     int
	ScanMemoEntries  int
}

// NewSystem builds a System over an engine with the given configuration.
func NewSystem(engine *aqp.Engine, cfg Config) *System {
	applyEngineConfig(engine, cfg)
	return &System{
		engine:  engine,
		verdict: New(engine.Base(), cfg),
		cfg:     cfg.withDefaults(),
	}
}

// applyEngineConfig wires the replay retention bound, the stage timer and
// the sample layout into the engine.
func applyEngineConfig(engine *aqp.Engine, cfg Config) {
	engine.SetMaxRetainedGens(cfg.withDefaults().MaxRetainedGens)
	engine.SetStageTimer(cfg.Stages)
	if cfg.NumPartitions > 0 {
		col := -1
		if cfg.StratumColumn != "" {
			c, ok := engine.Base().Schema().Lookup(cfg.StratumColumn)
			if !ok {
				// Unknown column: leave the flat layout rather than guessing.
				// The serving layer validates the flag at boot and fails fast;
				// library callers who pass a bad name get the K=1 behavior,
				// which is answer-identical anyway.
				return
			}
			col = c
		}
		if err := engine.SetSampleLayout(aqp.RebuildOptions{
			Partitions:    cfg.NumPartitions,
			StratumColumn: col,
		}); err != nil {
			// Categorical stratum column and the like: same fail-soft as above.
			return
		}
	}
}

// observeStage reports one pipeline-stage duration to the configured timer;
// with no timer wired (the default) the call sites reduce to one branch.
func (s *System) observeStage(name, mode string, grouped bool, d time.Duration) {
	s.cfg.Stages.ObserveStage(obs.Stage{Name: name, Mode: mode, Grouped: grouped}, d)
}

// Verdict exposes the learning layer (training, parameter control).
func (s *System) Verdict() *Verdict {
	s.vmu.RLock()
	defer s.vmu.RUnlock()
	return s.verdict
}

// LoadSynopsis restores the learning state from a snapshot, atomically
// swapping the live Verdict; in-flight queries finish against the old one.
func (s *System) LoadSynopsis(r io.Reader) error {
	v, err := Load(r, s.engine.Base(), s.cfg)
	if err != nil {
		return err
	}
	s.vmu.Lock()
	s.verdict = v
	s.vmu.Unlock()
	return nil
}

// Engine exposes the underlying AQP engine.
func (s *System) Engine() *aqp.Engine { return s.engine }

// StatsSnapshot returns a consistent copy of the workload counters; the
// serving layer's /stats endpoint reads it while queries are in flight.
func (s *System) StatsSnapshot() SystemStats {
	entries := s.memo.len()
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st := s.Stats
	st.ScanMemoEntries = entries
	return st
}

func (s *System) bumpStats(f func(*SystemStats)) {
	s.statsMu.Lock()
	f(&s.Stats)
	s.statsMu.Unlock()
}

// Append lands a batch of new rows into the served relation: the engine
// appends and re-samples under snapshot isolation (scans in flight keep
// their stable prefix), then the synopsis is adjusted for drift per
// Appendix D / Lemma 3 — using the pre-append sample as the "small sample
// of r" and the batch itself as the sample of r^a. Returns how many batch
// rows entered the AQP sample.
func (s *System) Append(batch *storage.Table) (sampled int, err error) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	oldView := s.engine.Acquire()
	s.appendSeed++
	seed := s.appendSeed
	sampled, err = s.engine.Append(batch, seed)
	if err != nil {
		return 0, err
	}
	// Drift is estimated from the pre-append sample (the "small sample of
	// r"); Lemma 3's ratio uses the true relation cardinalities.
	driftRows := s.Verdict().OnAppendSampled(oldView.Sample, batch, seed)
	s.bumpStats(func(st *SystemStats) {
		st.Appends++
		st.AppendRows += batch.Rows()
		st.DriftRows += driftRows
	})
	// Standing subscriptions see the append after the drift adjustment has
	// published, so a pushed update and its later replay infer against the
	// same model states.
	s.notifyStanding(PushReasonAppend)
	return sampled, nil
}

// Now reads the system clock — time.Now unless Config.Now injected a fake
// one. The serving layer keys its quiet-period and debounce decisions off
// this, so one injected clock drives every time-gated policy in a test.
func (s *System) Now() time.Time { return s.cfg.Now() }

// Train re-fits every model in the synopsis (Verdict.Train) and then
// notifies standing subscriptions: training republishes model states, so
// every standing plan's estimate may have moved. Prefer this over
// Verdict().Train() when subscriptions may be live.
func (s *System) Train() error {
	if err := s.Verdict().Train(); err != nil {
		return err
	}
	s.notifyStanding(PushReasonTrain)
	return nil
}

// SaveSynopsis serializes the synopsis while holding the append lock, so
// the snapshot can never interleave with an in-flight Append's per-model
// Lemma 3 drift adjustments (some models adjusted, others not). The
// serving layer's /save uses this; Verdict.Save alone is only as coherent
// as each individual model.
func (s *System) SaveSynopsis(w io.Writer) error {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	return s.Verdict().Save(w)
}

// RebuildSample re-lays-out the AQP sample under the engine's current
// default layout (see aqp.Engine.RebuildSample and Layout), undoing the
// tail-pile-up of streamed appends. It serializes with Append; queries in
// flight keep their pinned generation and replay via ViewAtGen. The
// synopsis needs no adjustment — the sample's content is unchanged, only
// its order. Returns the new sample generation and its row count. The
// engine's standing layout was validated at boot, so this cannot fail.
func (s *System) RebuildSample() (gen uint64, sampleRows int) {
	gen, sampleRows, err := s.RebuildSampleOpts(s.engine.Layout())
	if err != nil {
		// Layout() returned an option set the engine already accepted once;
		// re-validation failing means the schema changed under us, which the
		// storage layer forbids.
		panic(err)
	}
	return gen, sampleRows
}

// RebuildSampleOpts rebuilds the sample under an explicit layout — the
// serving layer's /rebuild uses it to honor per-request cluster/stratum
// column overrides. Invalid layouts (aqp.ErrBadLayout) are rejected before
// any state moves: no generation swap, no Rebuilds bump, no standing
// notification.
func (s *System) RebuildSampleOpts(opts aqp.RebuildOptions) (gen uint64, sampleRows int, err error) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.rebuildSeed++
	gen, err = s.engine.RebuildSample(8_000_000+s.rebuildSeed, opts)
	if err != nil {
		s.rebuildSeed--
		return 0, 0, err
	}
	s.bumpStats(func(st *SystemStats) { st.Rebuilds++ })
	// The generation swap invalidates every carried standing fold; the
	// notify pass re-pins each plan on the new generation and pays one full
	// re-fold per plan (still one scan per plan, not per subscriber).
	s.notifyStanding(PushReasonRebuild)
	return gen, s.engine.Acquire().SampleRows, nil
}

// AggregateCell is one user aggregate's answer in a result row.
type AggregateCell struct {
	Agg sqlparse.AggFunc
	// Raw is the AQP engine's answer; Improved is Verdict's.
	Raw      query.ScalarEstimate
	Improved query.ScalarEstimate
	// UsedModel reports whether the model-based answer survived validation.
	UsedModel bool
	// Exact is filled only by ExecuteWithExact (ground-truth evaluation).
	Exact float64
}

// ResultRow is one output row: group values plus aggregate cells.
type ResultRow struct {
	Group []query.GroupValue
	Cells []AggregateCell
}

// Result is a processed query's outcome.
type Result struct {
	SQL       string
	Supported bool
	Reasons   []string
	Rows      []ResultRow
	// SimTime is the simulated AQP latency; Overhead is Verdict's measured
	// wall-clock inference cost (the §8.5 quantity).
	SimTime  time.Duration
	Overhead time.Duration
	// Epoch identifies the engine view that served this query (0 for replay
	// views); SampleGen is the sample generation and BaseRows/SampleRows
	// pin the snapshot prefix, so
	// ExecuteView(engine.ViewAtGen(SampleGen, BaseRows, SampleRows), SQL)
	// replays the identical scan even after further appends and sample
	// rebuilds.
	Epoch      uint64
	SampleGen  uint64
	BaseRows   int
	SampleRows int
	// GroupsTruncated reports that the query's answer set exceeded the
	// configured Nmax group cap (§2.3) and the tail groups were dropped from
	// Rows — surfaced instead of silently truncating.
	GroupsTruncated bool
}

// Execute runs one SQL query through the full pipeline, consuming the
// entire sample (online aggregation run to completion).
func (s *System) Execute(sql string) (*Result, error) {
	res, _, err := s.execute(s.engine.Acquire(), sql, 0)
	return res, err
}

// ExecuteTimeBound runs one SQL query under a simulated time budget.
func (s *System) ExecuteTimeBound(sql string, budget time.Duration) (*Result, error) {
	res, _, err := s.execute(s.engine.Acquire(), sql, budget)
	return res, err
}

// ExecuteView runs one SQL query against an explicit engine view — the
// serial-replay entry point concurrency tests use to audit answers served
// under streaming appends: the prefix replay of the whole sample, which is
// the final increment of a stream and, bit for bit, what Execute answered
// on the same snapshot. Replays are side-effect-free: nothing is recorded
// into the synopsis and no workload counters move, so auditing a system
// does not change it.
func (s *System) ExecuteView(view *aqp.View, sql string) (*Result, error) {
	return s.ExecuteViewPrefix(view, sql, view.SampleRows)
}

// newResult is the header every mode's Result starts from: the statement
// and the replay coordinate of the view that served it. epoch is the
// serving view's publication epoch — a resumed stream reports its original
// stream's.
func newResult(sql string, view *aqp.View, epoch uint64) *Result {
	return &Result{
		SQL: sql, Supported: true,
		Epoch: epoch, SampleGen: view.SampleGen,
		BaseRows: view.BaseRows, SampleRows: view.SampleRows,
	}
}

// queryPlan is the parsed, checked, decomposed form of one SQL query
// against a pinned view — everything evaluation needs, independent of how
// the scan is driven (one-shot, time-bound or progressive increments).
type queryPlan struct {
	view *aqp.View
	stmt *sqlparse.SelectStmt
	decs []*query.Decomposition
	// snips flattens the snippet list across groups for one shared scan;
	// offsets[i] is group i's first snippet index within it.
	snips   []*query.Snippet
	offsets []int
	// truncated records that group discovery found more than Nmax groups.
	truncated bool
	// spec, when non-nil, is a grouped plan for the discovery kernel: it has
	// no decompositions until a discovery fold of the view reports its
	// answer set (materialize), and set is that answer set.
	spec *query.GroupedSpec
	set  *aqp.GroupedResult
}

// nmax returns the configured group cap, defaulted.
func (s *System) nmax() int {
	if s.cfg.Nmax > 0 {
		return s.cfg.Nmax
	}
	return DefaultNmax
}

// decompose fills the plan's decompositions for an answer set's groups, at
// most nmax of them.
func (pl *queryPlan) decompose(groups [][]query.GroupValue, nmax int) error {
	decs, err := query.Decompose(pl.stmt, pl.view.Base, groups, nmax)
	if err != nil {
		return err
	}
	pl.decs, pl.snips, pl.offsets = decs, nil, make([]int, len(decs))
	for i, d := range decs {
		pl.offsets[i] = len(pl.snips)
		pl.snips = append(pl.snips, d.Snippets...)
	}
	pl.truncated = len(groups) > nmax
	return nil
}

// materialize fills a grouped plan's decompositions from a discovery fold's
// answer set, so inference and recomposition run on the same per-snippet
// structures as every other plan.
func (pl *queryPlan) materialize(gr *aqp.GroupedResult, nmax int) error {
	if err := pl.decompose(gr.Groups, nmax); err != nil {
		return err
	}
	pl.set, pl.truncated = gr, gr.Truncated
	return nil
}

// scanCarried drives the plan's full-sample scan through a carried fold —
// bit-identical to the reference one-shot scan of pl.view — and, for a
// grouped plan, materializes the decompositions from the groups the fold
// discovered.
func (pl *queryPlan) scanCarried(f *aqp.CarriedFold, nmax int) (aqp.FoldResult, error) {
	fr := f.Run(pl.view, pl.snips, pl.spec, nmax)
	if fr.Grouped == nil {
		return fr, nil
	}
	return fr, pl.materialize(fr.Grouped, nmax)
}

// answerSet gives a grouped plan the answer set a prefix scan — a stream,
// a resume, a prefix replay, a time-bound query — expands its increments
// onto: one full discovery fold of the plan's view, outside the scan memo.
// It is planning, not the query's scan, so a timed call is observed as a
// prune-stage span. A flat plan already has its snippets.
func (s *System) answerSet(pl *queryPlan, mode string, timed bool) error {
	if pl.spec == nil {
		return nil
	}
	start := time.Now()
	if err := pl.materialize(pl.view.GroupedRunToCompletion(pl.spec, s.nmax()), s.nmax()); err != nil {
		return err
	}
	if timed && s.cfg.Stages != nil {
		s.observeStage(obs.StagePrune, mode, true, time.Since(start))
	}
	return nil
}

// progressive starts the plan's progressive scan at the prefix [0, rows)
// emitted as increment seq (aqp.ProgressiveScan.From): the discovery
// kernel expanded onto the answer set for a grouped plan, the per-snippet
// kernel otherwise.
func (pl *queryPlan) progressive(rows, seq, workers int) *aqp.ProgressiveScan {
	if pl.spec != nil {
		return pl.view.GroupedProgressive(pl.spec, pl.set).From(rows, seq, workers)
	}
	return pl.view.Progressive(pl.snips).From(rows, seq, workers)
}

// plan parses, checks and plans sql against the view, bumping the workload
// counters when record is set. On success the returned Result is the
// pre-filled header (provenance, support verdict); a nil plan with a nil
// error means the query is unsupported and the Result is terminal. A
// GROUP BY over categorical columns becomes a grouped plan (queryPlan.spec)
// whose groups the discovery kernel finds; any other statement is
// decomposed here, its groups — numeric grouping columns, or codes too wide
// to pack — found by a GroupRows pass. mode labels stage-latency
// observations (obs.ModeOneShot or obs.ModeProgressive); stages are
// observed only when record is set, so replays and resumes never re-count
// a query they didn't plan.
func (s *System) plan(view *aqp.View, sql, mode string, record bool) (*queryPlan, *Result, error) {
	timed := record && s.cfg.Stages != nil
	var tParse time.Time
	if timed {
		tParse = time.Now()
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sup := query.Check(stmt)
	if timed {
		s.observeStage(obs.StageParse, mode, len(stmt.GroupBy) > 0, time.Since(tParse))
	}
	if record {
		s.bumpStats(func(st *SystemStats) {
			st.Total++
			if sup.HasAggregate {
				st.Aggregate++
			}
		})
	}
	res := newResult(sql, view, view.Epoch)
	res.Supported, res.Reasons = sup.OK, sup.Reasons
	if !sup.OK {
		// Unsupported: Verdict bypasses inference and returns raw answers
		// untouched (§2.2); for this engine the raw path requires a
		// supported shape anyway, so unsupported queries yield no rows.
		return nil, res, nil
	}
	// The view's frozen base table is the query's whole world: snippets,
	// domains and cardinalities all resolve against the same stable prefix.
	table := view.Base
	if stmt.Table != table.Name() && stmt.Table != "" {
		return nil, nil, fmt.Errorf("core: query targets %q, engine holds %q", stmt.Table, table.Name())
	}
	if record {
		s.bumpStats(func(st *SystemStats) { st.Supported++ })
	}

	// The prune stage is everything that decides what to scan: group-column
	// resolution, region binding, and either the grouped spec or group
	// discovery and decomposition.
	var tPrune time.Time
	if timed {
		tPrune = time.Now()
	}
	var groupCols []int
	for _, g := range stmt.GroupBy {
		col, ok := table.Schema().Lookup(g.Name)
		if !ok {
			return nil, nil, fmt.Errorf("core: unknown group column %s", g.Name)
		}
		groupCols = append(groupCols, col)
	}
	pl := &queryPlan{view: view, stmt: stmt}
	// GroupedSpecOf is nil outside the discovery kernel's shape; a decompose
	// error is then re-raised with context by Decompose below.
	if pl.spec = query.GroupedSpecOf(stmt, table, groupCols); pl.spec == nil {
		baseRegion, err := query.BindRegion(stmt.Where, table)
		if err != nil {
			return nil, nil, err
		}
		groups, err := view.GroupRows(groupCols, baseRegion)
		if err != nil {
			return nil, nil, err
		}
		if err := pl.decompose(groups, s.nmax()); err != nil {
			return nil, nil, err
		}
	}
	if timed {
		s.observeStage(obs.StagePrune, mode, len(groupCols) > 0, time.Since(tPrune))
	}
	return pl, res, nil
}

// answer is Algorithm 2's answer step, the last step of every mode: it
// sanitizes each raw estimate of inc, improves snippet i's through infer in
// snippet order — how a mode infers, against the live synopsis recording as
// it goes or against one pinned InferSnapshot, is all its answer step
// varies — recomposes the user aggregates per group row and fills res's
// rows, simulated latency and truncation flag. It returns how long
// inference took, composition excluded, and how many snippets the model
// improved.
func (pl *queryPlan) answer(res *Result, inc aqp.Increment, infer func(i int, sn *query.Snippet, raw query.ScalarEstimate) Improved) (time.Duration, int, error) {
	t0 := time.Now()
	raw := make([]query.ScalarEstimate, len(pl.snips))
	improved := make([]query.ScalarEstimate, len(pl.snips))
	usedModel := make([]bool, len(pl.snips))
	improvedCount := 0
	for i, sn := range pl.snips {
		raw[i] = aqp.Sanitize(inc.Estimates[i])
		inf := infer(i, sn, raw[i])
		improved[i] = query.ScalarEstimate{Value: inf.Answer, StdErr: inf.Err}
		usedModel[i] = inf.UsedModel
		if inf.UsedModel {
			improvedCount++
		}
	}
	overhead := time.Since(t0)

	res.SimTime, res.GroupsTruncated = inc.SimTime, pl.truncated
	tableRows := pl.view.Base.Rows()
	for i, d := range pl.decs {
		row := ResultRow{Group: d.Group}
		for _, ua := range d.Aggregates {
			cell := AggregateCell{Agg: ua.Agg}
			rawAvg, rawFreq := pick(raw, pl.offsets[i], ua)
			impAvg, impFreq := pick(improved, pl.offsets[i], ua)
			var err error
			if cell.Raw, err = query.ComposeAggregate(ua.Agg, rawAvg, rawFreq, tableRows); err != nil {
				return overhead, improvedCount, err
			}
			if cell.Improved, err = query.ComposeAggregate(ua.Agg, impAvg, impFreq, tableRows); err != nil {
				return overhead, improvedCount, err
			}
			cell.UsedModel = cellUsedModel(usedModel, pl.offsets[i], ua)
			row.Cells = append(row.Cells, cell)
		}
		res.Rows = append(res.Rows, row)
	}
	return overhead, improvedCount, nil
}

// execute is a recorded /query on view: plan, one scan, and the answer step
// with Infer and Record interleaved. It returns the executed plan beside
// the Result (nil when the statement is unsupported).
func (s *System) execute(view *aqp.View, sql string, budget time.Duration) (*Result, *queryPlan, error) {
	verdict := s.Verdict()
	pl, res, err := s.plan(view, sql, obs.ModeOneShot, true)
	if err != nil || pl == nil {
		return res, nil, err
	}

	var inc aqp.Increment
	if budget > 0 {
		// A time-bound query is one prefix of a progressive scan.
		if err := s.answerSet(pl, obs.ModeOneShot, true); err != nil {
			return nil, nil, err
		}
		tScan := time.Now()
		inc = pl.progressive(0, -1, 0).Step(view.RowsWithin(budget))
		view.ObserveScan(obs.ModeOneShot, pl.spec != nil, tScan)
	} else {
		// A one-shot query extends the fold the statement's last execution
		// left in the scan memo; a grouped fold also materializes the plan.
		fr, err := s.scanMemoized(strings.TrimSpace(sql), pl)
		if err != nil {
			return nil, nil, err
		}
		inc = fr.Update
	}
	s.bumpStats(func(st *SystemStats) { st.Snippets += len(pl.snips) })

	// Inference + synopsis updates (the Verdict overhead §8.5 measures).
	// Infer and Record interleave deliberately: within one query, later
	// snippets see the synopsis grown by earlier ones — progressive streams
	// instead pin one InferSnapshot so their error bounds evolve coherently.
	overhead, improvedCount, err := pl.answer(res, inc, func(i int, sn *query.Snippet, raw query.ScalarEstimate) Improved {
		inf := verdict.Infer(sn, raw)
		if inc.Valid[i] {
			verdict.Record(sn, raw)
		}
		return inf
	})
	res.Overhead = overhead
	if s.cfg.Stages != nil {
		s.observeStage(obs.StageInfer, obs.ModeOneShot, len(pl.stmt.GroupBy) > 0, overhead)
	}
	s.bumpStats(func(st *SystemStats) {
		st.Improved += improvedCount
		st.InferenceNS += overhead.Nanoseconds()
	})
	if err != nil {
		return nil, nil, err
	}
	return res, pl, nil
}

// ExecuteWithExact runs Execute and fills each cell's Exact field from the
// base relation — the oracle experiments compare against. The exact answers
// are the executed plan's own snippets, evaluated on the same pinned view
// and recomposed as the approximate cells were.
func (s *System) ExecuteWithExact(sql string) (*Result, error) {
	view := s.engine.Acquire()
	res, pl, err := s.execute(view, sql, 0)
	if err != nil || pl == nil {
		return res, err
	}
	exact := make([]query.ScalarEstimate, len(pl.snips))
	for i, sn := range pl.snips {
		exact[i] = query.ScalarEstimate{Value: view.Exact(sn)}
	}
	for ri, d := range pl.decs {
		for ci, ua := range d.Aggregates {
			av, fr := pick(exact, pl.offsets[ri], ua)
			cell, err := query.ComposeAggregate(ua.Agg, av, fr, view.Base.Rows())
			if err != nil {
				return nil, err
			}
			res.Rows[ri].Cells[ci].Exact = cell.Value
		}
	}
	return res, nil
}

func pick(ests []query.ScalarEstimate, off int, ua query.UserAggregate) (avg, freq query.ScalarEstimate) {
	if ua.Avg >= 0 {
		avg = ests[off+ua.Avg]
	}
	if ua.Freq >= 0 {
		freq = ests[off+ua.Freq]
	}
	return avg, freq
}

func cellUsedModel(used []bool, off int, ua query.UserAggregate) bool {
	ok := false
	if ua.Avg >= 0 {
		ok = used[off+ua.Avg]
	}
	if ua.Freq >= 0 {
		ok = ok || used[off+ua.Freq]
	}
	return ok
}
