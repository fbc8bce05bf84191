// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each experiment is a function from Options to a
// Table of labelled numeric rows; cmd/almbench renders them, tests assert
// their shapes, and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"alm/internal/engine"
	"alm/internal/faults"
	"alm/internal/metrics"
	"alm/internal/sweep"
	"alm/internal/workloads"
)

// Options scales and seeds an experiment run.
type Options struct {
	// Scale multiplies every dataset size; 1.0 reproduces paper-scale
	// inputs, smaller values give quick CI-friendly runs. Zero means 1.
	Scale float64
	// Seed for the deterministic simulations. Zero means 11.
	Seed int64
	// Workers bounds parallel simulations; zero means runtime.NumCPU().
	Workers int
	// MetricsSink, when non-nil, receives each simulation's metrics
	// snapshot keyed by case key ("<experiment>/<case>"). Delivery is
	// serialised and, within one experiment, in sorted case-key order.
	MetricsSink func(caseKey string, snap *metrics.Snapshot)

	// wl are the paper benchmarks every case of one experiment runs, set
	// by withWorkloads on entry to each experiment.
	wl *benchmarks
}

// benchmarks holds one workload of each paper benchmark. An experiment's
// cases share them, so each split is generated and mapped once per
// experiment rather than once per map attempt (Workload.MapOutput); the
// built splits die with the experiment.
type benchmarks struct {
	terasort, wordcount, secondarysort *workloads.Workload
}

// withWorkloads returns o carrying fresh benchmark workloads.
func (o Options) withWorkloads() Options {
	o.wl = &benchmarks{
		terasort:      workloads.Terasort(),
		wordcount:     workloads.Wordcount(),
		secondarysort: workloads.Secondarysort(),
	}
	return o
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 11
	}
	return o.Seed
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Row is one labelled result line.
type Row struct {
	Label  string
	Values []float64
}

// Table is one reproduced figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string // column names for Row.Values
	Rows    []Row
	Notes   []string
}

// Value looks up a row by label and returns the named column.
func (t *Table) Value(label, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == label && ci < len(r.Values) {
			return r.Values[ci], true
		}
	}
	return 0, false
}

// MarshalJSON renders the table as a stable JSON object.
func (t *Table) MarshalJSON() ([]byte, error) {
	type row struct {
		Label  string    `json:"label"`
		Values []float64 `json:"values"`
	}
	out := struct {
		ID      string   `json:"id"`
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    []row    `json:"rows"`
		Notes   []string `json:"notes,omitempty"`
	}{ID: t.ID, Title: t.Title, Columns: t.Columns, Notes: t.Notes}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, row{Label: r.Label, Values: r.Values})
	}
	return json.Marshal(out)
}

// RenderCSV formats the table as CSV: a header row of "label" plus the
// column names, then one line per row.
func (t *Table) RenderCSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(append([]string{"label"}, t.Columns...))
	for _, r := range t.Rows {
		rec := make([]string, 0, len(r.Values)+1)
		rec = append(rec, r.Label)
		for _, v := range r.Values {
			rec = append(rec, strconv.FormatFloat(v, 'f', 4, 64))
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-34s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-34s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %14.2f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Func runs one experiment.
type Func func(Options) (*Table, error)

// Entry is one registered experiment.
type Entry struct {
	ID   string
	Desc string
	Run  Func
}

// Registry lists the experiments in paper order.
var Registry = []Entry{
	{"fig1", "Recovery time: 1 ReduceTask failure vs many MapTask failures", Fig1},
	{"fig2", "Delayed job execution from a single task failure", Fig2},
	{"fig3", "Temporal amplification of a ReduceTask failure (YARN)", Fig3},
	{"fig4", "Spatial amplification: one node failure infects healthy reducers (YARN)", Fig4},
	{"fig8", "ALG vs YARN under single ReduceTask failures at 10-90% progress", Fig8},
	{"fig9", "SFM vs YARN migration/recovery under node failures", Fig9},
	{"fig10", "SFM eliminates temporal amplification (timeline)", Fig10},
	{"table2", "Speculative recovery scheduling curbs infectious node failures", Table2},
	{"fig11", "ALG overhead in failure-free runs (Terasort 10-320 GB)", Fig11},
	{"fig12", "ALG performance at different logging frequencies", Fig12},
	{"fig13", "Impact of ALG replication level on the reduce stage", Fig13},
	{"fig14", "SFM recovery of multiple concurrent failures (1-32 GB/reducer)", Fig14},
	{"fig15", "Benefits of enabling both ALG and SFM", Fig15},
	{"ablations", "ALM design-choice ablations (extension beyond the paper)", Ablations},
	{"related", "ALM vs heavyweight checkpointing and ISS (extension beyond the paper)", RelatedWork},
	{"shuffle", "Remote-shuffle tier amplification showdown: {stock,ALM}x{local,remote} (extension beyond the paper)", Shuffle},
}

// index maps experiment IDs to Registry positions; built once so every
// lookup path (Lookup, ByID, Describe) shares it instead of scanning.
var index = func() map[string]int {
	m := make(map[string]int, len(Registry))
	for i, e := range Registry {
		m[e.ID] = i
	}
	return m
}()

// Lookup returns the registry entry for id.
func Lookup(id string) (Entry, bool) {
	i, ok := index[id]
	if !ok {
		return Entry{}, false
	}
	return Registry[i], true
}

// ByID returns the registered experiment function.
func ByID(id string) (Func, bool) {
	e, ok := Lookup(id)
	if !ok {
		return nil, false
	}
	return e.Run, true
}

// Describe returns the one-line description for id ("" when unknown).
func Describe(id string) string {
	e, _ := Lookup(id)
	return e.Desc
}

// IDs returns every experiment ID in paper order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// ---- shared machinery ----

const gb = int64(1) << 30

// job builds a JobSpec for one of the paper benchmarks.
func job(w *workloads.Workload, inputBytes int64, reduces int, mode engine.Mode, opt Options) engine.JobSpec {
	in := int64(float64(inputBytes) * opt.scale())
	if in < 256<<20 {
		in = 256 << 20
	}
	return engine.JobSpec{
		Workload:   w,
		InputBytes: in,
		NumReduces: reduces,
		Mode:       mode,
		Seed:       opt.seed(),
	}
}

// runCase is one simulation to execute. needTrace keeps Result.Trace
// attached for the tables that draw raw events (the fig3/fig4/fig10
// timelines). measure, if set, runs in the worker on the traced Result,
// for a table that reads only a scalar of the events (fig14's
// meanTaskRecovery); its case then drops the trace like every other.
// No table reads Result.Output, so runAll drops it for every case. A
// Result references no simulator state, so a full-scale sweep retains
// only Result scalars and the timelines its tables draw.
type runCase struct {
	key       string
	spec      engine.JobSpec
	plan      *faults.Plan
	needTrace bool
	measure   func(engine.Result)
}

// runAll executes cases on the shared sweep scheduler (one engine per
// worker, indexed result slots, deterministic first-error selection);
// results are keyed by case key.
func runAll(cases []runCase, opt Options) (map[string]engine.Result, error) {
	slots := make([]engine.Result, len(cases))
	err := sweep.Do(context.Background(), len(cases), opt.workers(), func(i int) error {
		c := cases[i]
		opts := []engine.RunOption{engine.WithPlan(c.plan)}
		if !c.needTrace && c.measure == nil {
			opts = append(opts, engine.WithoutTrace())
		}
		if opt.MetricsSink != nil {
			opts = append(opts, engine.WithMetrics())
		}
		res, err := engine.Run(c.spec, engine.DefaultClusterSpec(), opts...)
		if err != nil {
			return fmt.Errorf("case %s: %w", c.key, err)
		}
		if c.measure != nil {
			c.measure(res)
			if !c.needTrace {
				res.Trace = nil
			}
		}
		res.Output = nil
		slots[i] = res
		return nil
	}, nil)
	results := make(map[string]engine.Result, len(cases))
	if err == nil {
		for i, c := range cases {
			results[c.key] = slots[i]
		}
	}
	if err == nil && opt.MetricsSink != nil {
		keys := make([]string, 0, len(results))
		for k := range results {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			opt.MetricsSink(k, results[k].Metrics)
		}
	}
	return results, err
}

func secs(d time.Duration) float64 { return d.Seconds() }

// pct returns the percentage improvement of b over a ((a-b)/a*100).
func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a * 100
}
