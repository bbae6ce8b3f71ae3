// Package experiments regenerates every table and figure of the paper's
// evaluation (Cheng, Gong, Cheung, ICDE 2010, Section VI) on the synthetic
// Table II datasets: mapping overlap (Table II), block-tree spatial
// efficiency and construction (Figures 9a–9e), PTQ and top-k PTQ query
// performance (Figures 9f, 10a–10d), and top-h mapping generation
// (Figures 10e, 10f).
//
// Each experiment returns a Table that prints the same rows/series the
// paper reports; cmd/experiments renders them and EXPERIMENTS.md records
// the measured-vs-paper comparison.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/xmltree"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Note   string // expected shape vs the paper
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "   %s\n", t.Note); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV with a leading comment line carrying
// the title, for downstream plotting.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Config scales the experiments. Full reproduces the paper's parameters;
// the reduced defaults keep a complete run under a couple of minutes.
type Config struct {
	// M is the default possible-mapping count |M| (paper: 100).
	M int
	// Repeats averages each timing over this many runs (paper: 50).
	Repeats int
	// DocNodes is the source document size (paper: 3473).
	DocNodes int
	// GenH is h for the mapping-generation comparison of Figure 10(e).
	GenH int
	// GenRepeats overrides Repeats for the expensive mapping-generation
	// experiments (Figures 10(e) and 10(f)); 0 means use Repeats.
	GenRepeats int
	// MaxH is the largest h in the Figure 10(f) sweep (paper: 1000).
	MaxH int
}

// DefaultConfig returns paper-equivalent parameters except for fewer
// timing repeats.
func DefaultConfig() Config {
	return Config{M: 100, Repeats: 5, DocNodes: 3473, GenH: 100, MaxH: 1000}
}

// Suite caches the shared workload state (datasets, mapping sets, the
// source document) across experiments.
type Suite struct {
	Cfg Config

	datasets map[string]*dataset.Dataset
	sets     map[string]*mapping.Set // key: "<id>/<m>"
	doc      *xmltree.Document
}

// NewSuite prepares a suite with the given configuration.
func NewSuite(cfg Config) *Suite {
	if cfg.M == 0 {
		cfg = DefaultConfig()
	}
	return &Suite{
		Cfg:      cfg,
		datasets: map[string]*dataset.Dataset{},
		sets:     map[string]*mapping.Set{},
	}
}

func (s *Suite) dataset(id string) (*dataset.Dataset, error) {
	if d, ok := s.datasets[id]; ok {
		return d, nil
	}
	d, err := dataset.Load(id)
	if err != nil {
		return nil, err
	}
	s.datasets[id] = d
	return d, nil
}

func (s *Suite) mappingSet(id string, m int) (*mapping.Set, error) {
	key := fmt.Sprintf("%s/%d", id, m)
	if set, ok := s.sets[key]; ok {
		return set, nil
	}
	d, err := s.dataset(id)
	if err != nil {
		return nil, err
	}
	set, err := mapgen.TopH(d.Matching, m, mapgen.Partition)
	if err != nil {
		return nil, err
	}
	s.sets[key] = set
	return set, nil
}

func (s *Suite) document() (*xmltree.Document, error) {
	if s.doc != nil {
		return s.doc, nil
	}
	d, err := s.dataset("D7")
	if err != nil {
		return nil, err
	}
	s.doc = d.OrderDocument(s.Cfg.DocNodes, 42)
	return s.doc, nil
}

// timeIt returns the mean wall time of fn over the configured repeats.
func (s *Suite) timeIt(fn func()) time.Duration { return timeN(s.Cfg.Repeats, fn) }

// timeGen is timeIt for the mapping-generation experiments, which get
// their own repeat count because the murty baseline is orders of magnitude
// slower than everything else.
func (s *Suite) timeGen(fn func()) time.Duration {
	n := s.Cfg.GenRepeats
	if n == 0 {
		n = s.Cfg.Repeats
	}
	return timeN(n, fn)
}

func timeN(n int, fn func()) time.Duration {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// tauSweep is the τ range of Figures 9(a) and 9(b).
var tauSweep = []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// Table2 reproduces Table II: dataset composition plus the measured
// average o-ratio of the |M| generated mappings next to the paper's value.
func (s *Suite) Table2() (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: "Schema matching datasets (measured o-ratio vs paper)",
		Note:  "expected shape: all datasets show high mapping overlap (o-ratio well above 0.5)",
		Header: []string{"ID", "S", "|S|", "T", "|T|", "opt", "Cap.",
			"o-ratio", "paper", "partitions"},
	}
	for _, id := range dataset.IDs() {
		d, err := s.dataset(id)
		if err != nil {
			return nil, err
		}
		set, err := s.mappingSet(id, s.Cfg.M)
		if err != nil {
			return nil, err
		}
		st := d.Matching.Stats()
		t.Rows = append(t.Rows, []string{
			d.Info.ID, d.Info.Src, fmt.Sprint(d.Source.Len()),
			d.Info.Tgt, fmt.Sprint(d.Target.Len()), d.Info.Opt,
			fmt.Sprint(d.Matching.Capacity()),
			fmt.Sprintf("%.2f", set.AverageORatio()),
			fmt.Sprintf("%.2f", d.Info.PaperORatio),
			fmt.Sprint(st.NumPartitions),
		})
	}
	return t, nil
}

// Fig9a reproduces Figure 9(a): compression ratio vs τ on D7.
func (s *Suite) Fig9a() (*Table, error) {
	set, err := s.mappingSet("D7", s.Cfg.M)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig9a",
		Title:  "Compression ratio vs tau (D7)",
		Note:   "expected shape: ratio decreases as tau increases (fewer c-blocks)",
		Header: []string{"tau", "compression-ratio", "#c-blocks"},
	}
	for _, tau := range tauSweep {
		bt, err := core.Build(set, core.Options{Tau: tau})
		if err != nil {
			return nil, err
		}
		comp := bt.Compress()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", tau),
			fmt.Sprintf("%.2f%%", 100*comp.CompressionRatio()),
			fmt.Sprint(bt.NumBlocks),
		})
	}
	return t, nil
}

// Fig9b reproduces Figure 9(b): number of c-blocks vs τ on D7.
func (s *Suite) Fig9b() (*Table, error) {
	set, err := s.mappingSet("D7", s.Cfg.M)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig9b",
		Title:  "Number of c-blocks vs tau (D7)",
		Note:   "expected shape: steep drop at small tau, then a plateau",
		Header: []string{"tau", "#c-blocks"},
	}
	for _, tau := range tauSweep {
		bt, err := core.Build(set, core.Options{Tau: tau})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", tau), fmt.Sprint(bt.NumBlocks)})
	}
	return t, nil
}

// Fig9c reproduces Figure 9(c): the distribution of c-block sizes on D7 at
// the default τ.
func (s *Suite) Fig9c() (*Table, error) {
	set, err := s.mappingSet("D7", s.Cfg.M)
	if err != nil {
		return nil, err
	}
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	st := bt.Stats()
	t := &Table{
		ID:    "fig9c",
		Title: "Distribution of c-block sizes (D7, tau=0.2)",
		Note: fmt.Sprintf("expected shape: many multi-correspondence blocks; avg=%.2f max=%d (%.1f%% of target nodes)",
			st.AvgSize, st.MaxSize, 100*st.MaxCoverage),
		Header: []string{"#correspondences", "#c-blocks"},
	}
	sizes := make([]int, 0, len(st.SizeHistogram))
	for sz := range st.SizeHistogram {
		sizes = append(sizes, sz)
	}
	sort.Ints(sizes)
	for _, sz := range sizes {
		t.Rows = append(t.Rows, []string{fmt.Sprint(sz), fmt.Sprint(st.SizeHistogram[sz])})
	}
	return t, nil
}

// Fig9d reproduces Figure 9(d): block-tree construction time per dataset
// for |M| and 2|M|.
func (s *Suite) Fig9d() (*Table, error) {
	t := &Table{
		ID:     "fig9d",
		Title:  fmt.Sprintf("Block-tree construction time Tc (|M|=%d and %d)", s.Cfg.M, 2*s.Cfg.M),
		Note:   "expected shape: construction completes quickly on every dataset; larger |M| costs more",
		Header: []string{"dataset", fmt.Sprintf("Tc(ms) |M|=%d", s.Cfg.M), fmt.Sprintf("Tc(ms) |M|=%d", 2*s.Cfg.M)},
	}
	for _, id := range dataset.IDs() {
		row := []string{id}
		for _, m := range []int{s.Cfg.M, 2 * s.Cfg.M} {
			set, err := s.mappingSet(id, m)
			if err != nil {
				return nil, err
			}
			dur := s.timeIt(func() {
				if _, err := core.Build(set, core.DefaultOptions()); err != nil {
					panic(err)
				}
			})
			row = append(row, ms(dur))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9e reproduces Figure 9(e): construction time vs MAX_B on D7.
func (s *Suite) Fig9e() (*Table, error) {
	set, err := s.mappingSet("D7", s.Cfg.M)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig9e",
		Title:  "Construction time Tc vs MAX_B (D7)",
		Note:   "expected shape: Tc grows with MAX_B, then flattens once all c-blocks fit",
		Header: []string{"MAX_B", "Tc(ms)", "#c-blocks"},
	}
	for _, maxB := range []int{20, 60, 100, 160, 200, 260, 300} {
		var bt *core.BlockTree
		dur := s.timeIt(func() {
			var err error
			bt, err = core.Build(set, core.Options{Tau: 0.2, MaxB: maxB})
			if err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(maxB), ms(dur), fmt.Sprint(bt.NumBlocks)})
	}
	return t, nil
}

// queryTimes measures basic and block-tree evaluation for one query.
func (s *Suite) queryTimes(text string, set *mapping.Set, bt *core.BlockTree) (basic, tree time.Duration, err error) {
	doc, err := s.document()
	if err != nil {
		return 0, 0, err
	}
	q, err := core.PrepareQuery(text, set)
	if err != nil {
		return 0, 0, err
	}
	basic = s.timeIt(func() { core.EvaluateBasic(q, set, doc) })
	tree = s.timeIt(func() { core.Evaluate(q, set, doc, bt) })
	return basic, tree, nil
}

// figQueries runs the Table III workload at a given |M| (Figures 9(f) and
// 10(a)).
func (s *Suite) figQueries(id string, m int) (*Table, error) {
	set, err := s.mappingSet("D7", m)
	if err != nil {
		return nil, err
	}
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("PTQ time Tq per query, basic vs block-tree (D7, |M|=%d)", m),
		Note:   "expected shape: block-tree at least matches and mostly beats basic on every query",
		Header: []string{"query", "basic(ms)", "block-tree(ms)", "speedup"},
	}
	var sumB, sumT time.Duration
	for _, q := range dataset.Queries() {
		b, tr, err := s.queryTimes(q.Text, set, bt)
		if err != nil {
			return nil, err
		}
		sumB += b
		sumT += tr
		t.Rows = append(t.Rows, []string{q.ID, ms(b), ms(tr), speedup(b, tr)})
	}
	t.Rows = append(t.Rows, []string{"avg", ms(sumB / 10), ms(sumT / 10), speedup(sumB, sumT)})
	return t, nil
}

func speedup(basic, tree time.Duration) string {
	if tree <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(basic)/float64(tree))
}

// Fig9f reproduces Figure 9(f): per-query Tq at |M|.
func (s *Suite) Fig9f() (*Table, error) { return s.figQueries("fig9f", s.Cfg.M) }

// Fig10a reproduces Figure 10(a): per-query Tq at 5|M|.
func (s *Suite) Fig10a() (*Table, error) { return s.figQueries("fig10a", 5*s.Cfg.M) }

// Fig10b reproduces Figure 10(b): Tq vs τ for Q10 with the block tree.
func (s *Suite) Fig10b() (*Table, error) {
	set, err := s.mappingSet("D7", s.Cfg.M)
	if err != nil {
		return nil, err
	}
	doc, err := s.document()
	if err != nil {
		return nil, err
	}
	q10 := dataset.Queries()[9]
	q, err := core.PrepareQuery(q10.Text, set)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig10b",
		Title:  "Block-tree PTQ time Tq vs tau (D7, Q10)",
		Note:   "expected shape: non-monotone — Tq rises as c-blocks disappear, then falls when few large blocks remain",
		Header: []string{"tau", "Tq(ms)", "#c-blocks"},
	}
	for _, tau := range []float64{0.02, 0.12, 0.22, 0.32, 0.42, 0.52, 0.65} {
		bt, err := core.Build(set, core.Options{Tau: tau})
		if err != nil {
			return nil, err
		}
		dur := s.timeIt(func() { core.Evaluate(q, set, doc, bt) })
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", tau), ms(dur), fmt.Sprint(bt.NumBlocks)})
	}
	return t, nil
}

// Fig10c reproduces Figure 10(c): Tq vs |M| for Q10, basic vs block-tree.
func (s *Suite) Fig10c() (*Table, error) {
	t := &Table{
		ID:     "fig10c",
		Title:  "PTQ time Tq vs |M| (D7, Q10)",
		Note:   "expected shape: both grow with |M|; block-tree stays below basic throughout",
		Header: []string{"|M|", "basic(ms)", "block-tree(ms)", "speedup"},
	}
	q10 := dataset.Queries()[9]
	for _, m := range []int{30, 40, 50, 60, 70, 80, 90, 100, 120, 140, 160, 180, 200} {
		set, err := s.mappingSet("D7", m)
		if err != nil {
			return nil, err
		}
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		b, tr, err := s.queryTimes(q10.Text, set, bt)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(m), ms(b), ms(tr), speedup(b, tr)})
	}
	return t, nil
}

// Fig10d reproduces Figure 10(d): top-k PTQ vs normal PTQ for Q10.
func (s *Suite) Fig10d() (*Table, error) {
	set, err := s.mappingSet("D7", s.Cfg.M)
	if err != nil {
		return nil, err
	}
	doc, err := s.document()
	if err != nil {
		return nil, err
	}
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	q10 := dataset.Queries()[9]
	q, err := core.PrepareQuery(q10.Text, set)
	if err != nil {
		return nil, err
	}
	normal := s.timeIt(func() { core.Evaluate(q, set, doc, bt) })
	t := &Table{
		ID:     "fig10d",
		Title:  fmt.Sprintf("Top-k PTQ time vs k (D7, Q10); normal PTQ = %s ms", ms(normal)),
		Note:   "expected shape: top-k well below normal at small k, approaching it as k grows",
		Header: []string{"k", "top-k(ms)", "normal(ms)"},
	}
	for k := 10; k <= s.Cfg.M; k += 10 {
		kk := k
		dur := s.timeIt(func() { core.EvaluateTopK(q, set, doc, bt, kk) })
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), ms(dur), ms(normal)})
	}
	return t, nil
}

// Fig10e reproduces Figure 10(e): top-h generation time, whole-graph Murty
// vs the partitioning approach, per dataset.
func (s *Suite) Fig10e() (*Table, error) {
	t := &Table{
		ID:     "fig10e",
		Title:  fmt.Sprintf("Top-h generation time Tg, murty vs partition (h=%d)", s.Cfg.GenH),
		Note:   "expected shape: partition beats murty on every dataset, by about an order of magnitude on sparse matchings",
		Header: []string{"dataset", "murty(ms)", "partition(ms)", "speedup", "partitions"},
	}
	for _, id := range dataset.IDs() {
		d, err := s.dataset(id)
		if err != nil {
			return nil, err
		}
		tm := s.timeGen(func() {
			if _, err := mapgen.TopH(d.Matching, s.Cfg.GenH, mapgen.Murty); err != nil {
				panic(err)
			}
		})
		tp := s.timeGen(func() {
			if _, err := mapgen.TopH(d.Matching, s.Cfg.GenH, mapgen.Partition); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			id, ms(tm), ms(tp), speedup(tm, tp),
			fmt.Sprint(d.Matching.Stats().NumPartitions),
		})
	}
	return t, nil
}

// Fig10f reproduces Figure 10(f): Tg vs h on D1, murty vs partition, with
// the percentage improvement.
func (s *Suite) Fig10f() (*Table, error) {
	d, err := s.dataset("D1")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig10f",
		Title:  "Top-h generation time Tg vs h (D1)",
		Note:   "expected shape: both grow with h; partition's improvement stays large throughout",
		Header: []string{"h", "murty(ms)", "partition(ms)", "improvement"},
	}
	for h := 100; h <= s.Cfg.MaxH; h += 100 {
		hh := h
		tm := s.timeGen(func() {
			if _, err := mapgen.TopH(d.Matching, hh, mapgen.Murty); err != nil {
				panic(err)
			}
		})
		tp := s.timeGen(func() {
			if _, err := mapgen.TopH(d.Matching, hh, mapgen.Partition); err != nil {
				panic(err)
			}
		})
		impr := 100 * (1 - float64(tp)/float64(tm))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(h), ms(tm), ms(tp), fmt.Sprintf("%.1f%%", impr),
		})
	}
	return t, nil
}

// registry maps experiment names to suite methods.
func (s *Suite) registry() []struct {
	Name string
	Run  func() (*Table, error)
} {
	return []struct {
		Name string
		Run  func() (*Table, error)
	}{
		{"table2", s.Table2},
		{"fig9a", s.Fig9a},
		{"fig9b", s.Fig9b},
		{"fig9c", s.Fig9c},
		{"fig9d", s.Fig9d},
		{"fig9e", s.Fig9e},
		{"fig9f", s.Fig9f},
		{"fig10a", s.Fig10a},
		{"fig10b", s.Fig10b},
		{"fig10c", s.Fig10c},
		{"fig10d", s.Fig10d},
		{"fig10e", s.Fig10e},
		{"fig10f", s.Fig10f},
	}
}

// Names lists the available experiment identifiers in order.
func (s *Suite) Names() []string {
	reg := s.registry()
	out := make([]string, len(reg))
	for i, r := range reg {
		out[i] = r.Name
	}
	return out
}

// Run executes one experiment by name ("all" runs every one) and writes the
// rendered tables to w.
func (s *Suite) Run(name string, w io.Writer) error {
	return s.run(name, w, (*Table).Render)
}

// RunCSV is Run with CSV output.
func (s *Suite) RunCSV(name string, w io.Writer) error {
	return s.run(name, w, (*Table).RenderCSV)
}

func (s *Suite) run(name string, w io.Writer, render func(*Table, io.Writer) error) error {
	for _, r := range s.registry() {
		if name == "all" || name == r.Name {
			tbl, err := r.Run()
			if err != nil {
				return fmt.Errorf("experiment %s: %w", r.Name, err)
			}
			if err := render(tbl, w); err != nil {
				return err
			}
			if name == r.Name {
				return nil
			}
		}
	}
	if name != "all" {
		return fmt.Errorf("experiments: unknown experiment %q (have %s)", name, strings.Join(s.Names(), ", "))
	}
	return nil
}
