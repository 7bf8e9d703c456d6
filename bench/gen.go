package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/storage"
	"repro/internal/workload"
)

// Everything the server receives is generated here, from the seed, before
// any clock starts. Op counts are fixed by the sizing (rate × seconds), not
// by how fast the server answers, so two commits measured with the same
// arguments do identical work and their synopses evolve identically.

// workloadSpec is one workload's fixed shape. The names are normative:
// later issues cite them.
type workloadSpec struct {
	name string
	why  string
	// synopsisCap is core.Config.SynopsisCap (0 = the program's default).
	synopsisCap int
	// clients is the number of closed-loop query (or stream) clients.
	clients int
	// opsPerSecond sizes the timed phase: ops = opsPerSecond × seconds. The
	// rates are what this benchmark measured on its 2-core reference box, so
	// `--seconds 10` times about ten seconds there.
	opsPerSecond float64
	// warm is the number of warm-up statements (explore) or the pool size
	// (the others warm every pool statement once).
	warm int
	pool int
	// train says whether set-up ends with POST /train.
	train  bool
	stream bool // ops go to /query/stream
	live   bool // ops are /append batches beside a looping reader
}

const (
	batchRows  = 500  // rows per live /append
	targetCI   = 0.02 // stream target: relative 95% half-width
	auditCount = 50   // seeded timed answers replayed bit for bit
	coverCount = 150  // distinct timed statements re-issued with "exact": true
)

var workloads = []workloadSpec{
	{
		name: "explore", clients: 1, opsPerSecond: 60, synopsisCap: 128, warm: 300,
		why: "unique ad-hoc queries against a synopsis at its cap of 128: every answer is recorded and evicts, so inference, kernel and Cholesky carry ~90% of a request",
	},
	{
		name: "dashboard", clients: 2, opsPerSecond: 340, pool: 32, train: true,
		why: "32 repeated queries (8 grouped) from 2 clients with a trained default-cap synopsis that fits: scan and inference share the request and the clients contend",
	},
	{
		name: "stream", clients: 1, opsPerSecond: 430, pool: 48, train: true, stream: true,
		why: "progressive /query/stream to a 2% relative target over 48 repeated queries: resumable scan steps, pinned inference snapshot, one NDJSON chunk per increment",
	},
	{
		name: "live", clients: 1, opsPerSecond: 80, pool: 32, train: true, live: true,
		why: "500-row /append batches pushed to 4 standing subscribers over 3 plans, one /rebuild midway, beside a looping dashboard reader: what writes cost and cost readers",
	},
}

func specByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// sizing scales a run. The driver's runs use defaultSizing with its
// --seconds; -smoke shrinks data, warm-up and synopsis cap together so all
// four workloads and their traced runs finish in seconds.
type sizing struct {
	rows      int     // base relation rows; the sample is a fifth of it
	seconds   float64 // timed-phase length the op counts are sized for
	setupReps int     // fewest set-ups per untraced run (see setupBudget); setup_s is their median
	smoke     bool
}

func defaultSizing(seconds float64) sizing {
	return sizing{rows: 1_000_000, seconds: seconds, setupReps: 3}
}

func smokeSizing() sizing {
	return sizing{rows: 50_000, seconds: 0.2, setupReps: 1, smoke: true}
}

// resolve applies the sizing to a spec: smoke runs shrink the warm-up and
// the synopsis cap with the data.
func (z sizing) resolve(w workloadSpec) workloadSpec {
	if z.smoke && w.name == "explore" {
		w.synopsisCap, w.warm = 16, 40
	}
	return w
}

// ops is the timed op count for a spec; traced legs run half of it.
func (z sizing) ops(w workloadSpec, traced bool) int {
	n := int(math.Round(w.opsPerSecond * z.seconds))
	if traced {
		n /= 2
	}
	if n < 4 {
		n = 4
	}
	return n
}

// inputs is one run's generated request material.
type inputs struct {
	warm    []string // issued once each during set-up
	ops     []string // timed SQL, dealt round-robin to the clients (live: the reader's loop)
	subs    []string // live: the 4 standing queries (two share a plan)
	batches [][]byte // live: /append bodies, one per timed op
	fresh   []string // statements the server never sees: inputs of the direct-call pass
	digest  uint64   // FNV-64a over all of the above
}

var (
	channels = []string{"web", "mobile", "api", "batch", "partner"}
	statuses = []string{"ok", "error", "retry"}
)

// sqlGen draws customer1-trace-style statements: a time range on
// event_date plus at most one further predicate.
type sqlGen struct {
	rng  *rand.Rand
	seen map[string]bool
	// at walks the date axis by the golden ratio from a seeded start, so the
	// ranges of any run of consecutive statements spread evenly over the
	// dates: how much statements overlap — what the model learns from — is
	// then a property of the workload, not of the seed's luck.
	at float64
}

func newSQLGen(seed int64) *sqlGen {
	rng := rand.New(rand.NewSource(seed))
	return &sqlGen{rng: rng, seen: map[string]bool{}, at: rng.Float64()}
}

func (g *sqlGen) timeRange(minWidth, maxWidth float64) string {
	g.at = math.Mod(g.at+0.6180339887498949, 1)
	lo := g.at * 360
	return fmt.Sprintf("event_date BETWEEN %.1f AND %.1f", lo, lo+minWidth+g.rng.Float64()*(maxWidth-minWidth))
}

// extra draws the values of one further predicate of the given kind.
func (g *sqlGen) extra(kind int) string {
	switch kind % 4 {
	case 0:
		return fmt.Sprintf("product = 'prod%02d'", g.rng.Intn(20))
	case 1:
		return fmt.Sprintf("status = '%s'", statuses[g.rng.Intn(len(statuses))])
	case 2:
		h := g.rng.Intn(12)
		return fmt.Sprintf("hour BETWEEN %d AND %d", h, h+2+g.rng.Intn(7))
	default:
		return fmt.Sprintf("channel = '%s'", channels[g.rng.Intn(len(channels))])
	}
}

// where is statement i's predicate list: a time range, and for every
// second triple of statements one further predicate whose kind cycles
// (over the first three kinds when the statement groups by channel).
func (g *sqlGen) where(i int, minWidth, maxWidth float64, byChannel bool) string {
	w := g.timeRange(minWidth, maxWidth)
	if (i/3)%2 == 1 {
		kind := (i / 6) % 4
		if byChannel {
			kind = (i / 6) % 3
		}
		w += " AND " + g.extra(kind)
	}
	return w
}

var exploreAggs = []string{"AVG(amount)", "COUNT(*)", "SUM(amount)"}

// statement i of a unique-query sequence. The shape is a function of i —
// the aggregate cycles, one in four groups by channel, every second triple
// carries a further predicate — so every seed has the same mix and only
// the predicates' values vary.
func (g *sqlGen) unique(i int) string {
	for {
		agg, group := exploreAggs[i%3], ""
		if i%4 == 3 {
			agg, group = "channel, "+agg, " GROUP BY channel"
		}
		sql := fmt.Sprintf("SELECT %s FROM events WHERE %s%s", agg, g.where(i, 7, 40, group != ""), group)
		if !g.seen[sql] {
			g.seen[sql] = true
			return sql
		}
	}
}

// pool draws n distinct repeated-traffic statements, the last grouped of
// them grouped (alternating channel and status, COUNT+AVG per group).
func (g *sqlGen) pool(n, grouped int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		var sql string
		if i := len(out); i >= n-grouped {
			col := []string{"channel", "status"}[i%2]
			sql = fmt.Sprintf("SELECT %s, COUNT(*), AVG(amount) FROM events WHERE %s GROUP BY %s", col, g.timeRange(20, 60), col)
		} else {
			sql = fmt.Sprintf("SELECT %s FROM events WHERE %s", exploreAggs[i%3], g.where(i, 7, 40, false))
		}
		if !g.seen[sql] {
			g.seen[sql] = true
			out = append(out, sql)
		}
	}
	return out
}

// generate builds a run's inputs. traced selects the half-length op
// sequence both legs of a traced run use.
func generate(w workloadSpec, z sizing, seed int64, traced bool) (*inputs, error) {
	g := newSQLGen(seed)
	in := &inputs{}
	n := z.ops(w, traced)
	if w.pool == 0 {
		for i := 0; i < w.warm; i++ {
			in.warm = append(in.warm, g.unique(i))
		}
		for i := 0; i < n; i++ {
			in.ops = append(in.ops, g.unique(i))
		}
	} else {
		grouped := w.pool / 4
		if w.stream {
			grouped = 0
		}
		pool := g.pool(w.pool, grouped)
		in.warm = pool
		draws := n
		if w.live {
			// The reader loops its sequence until the appender is done.
			draws = 4 * w.pool
		}
		// Shuffled passes over the pool: uniform traffic in which every
		// statement is asked equally often under every seed.
		for len(in.ops) < draws {
			for _, k := range g.rng.Perm(len(pool)) {
				if len(in.ops) < draws {
					in.ops = append(in.ops, pool[k])
				}
			}
		}
	}
	if w.live {
		plans := []string{
			fmt.Sprintf("SELECT COUNT(*), AVG(amount) FROM events WHERE %s", g.timeRange(60, 120)),
			fmt.Sprintf("SELECT channel, COUNT(*), AVG(amount) FROM events WHERE %s GROUP BY channel", g.timeRange(60, 120)),
			fmt.Sprintf("SELECT product, COUNT(*), AVG(amount) FROM events WHERE %s GROUP BY product", g.timeRange(60, 120)),
		}
		in.subs = []string{plans[0], plans[0], plans[1], plans[2]}
		var err error
		if in.batches, err = appendBodies(n, seed); err != nil {
			return nil, err
		}
	}
	// 320 statements, three in four ungrouped: enough for 200 direct calls.
	for i := 0; i < 320; i++ {
		in.fresh = append(in.fresh, g.unique(i))
	}
	in.digest = in.hash(w)
	return in, nil
}

// appendBodies renders n batches of batchRows rows as explicit /append JSON.
// The rows come from the same generator and seed as the base relation (they
// are its first rows again), so they follow its trend: the stream carries
// no drift of its own.
func appendBodies(n int, seed int64) ([][]byte, error) {
	t, err := workload.GenerateCustomer1(n*batchRows, seed)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	out := make([][]byte, n)
	for b := range out {
		buf := []byte(`{"rows":[`)
		for r := b * batchRows; r < (b+1)*batchRows; r++ {
			if r > b*batchRows {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for c := 0; c < schema.Len(); c++ {
				if c > 0 {
					buf = append(buf, ',')
				}
				if schema.Col(c).Kind == storage.Numeric {
					buf = strconv.AppendFloat(buf, t.NumAt(r, c), 'g', -1, 64)
				} else {
					buf = strconv.AppendQuote(buf, t.StrAt(r, c))
				}
			}
			buf = append(buf, ']')
		}
		out[b] = append(buf, "]}"...)
	}
	return out, nil
}

// hash is the input digest: FNV-64a over the spec's shape and every
// generated statement, sequence and batch body, so a drift in this file or
// in internal/workload shows as a changed digest, not as a silent shift in
// the numbers.
func (in *inputs) hash(w workloadSpec) uint64 {
	h := fnv.New64a()
	put := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	put(fmt.Sprintf("%s cap=%d clients=%d", w.name, w.synopsisCap, w.clients))
	for _, part := range [][]string{in.warm, in.ops, in.subs, in.fresh} {
		put(strings.Join(part, "\x01"))
	}
	for _, b := range in.batches {
		h.Write(b)
		h.Write([]byte{0})
	}
	return h.Sum64()
}
