package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"time"
)

// Spec is the part of BENCHMARK.json the benchmark reads.
type Spec struct {
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// MetricDef declares one metric: its unit, which direction is better,
// and (end-to-end only) the share of the baseline median it may worsen.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// unit returns a per-layer metric's declared unit.
func (s *Spec) unit(name string) string {
	for _, d := range s.PerLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return "count"
}

func loadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func loadResults(path string) ([]*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, &r)
		}
	}
	return out, sc.Err()
}

// Verdict is one workload × metric comparison of a base result set (A)
// against a changed one (B).
type Verdict struct {
	Workload, Metric string
	N                [2]int
	Median, Q1, Q3   [2]float64
	Won              float64 // share of pairs B won, ties counting for neither
	Verdict          string  // improved, worse or unresolved
	Reason           string
}

// judge applies the rule: B improved when it wins at least nine tenths
// of the pairs and the medians differ by more than A's interquartile
// spread; B is worse when its median is worse than A's by more than the
// bound; anything else is unresolved (including a change within bounds).
// Where A's spread exceeds the bound, only "every B run beats every A
// run" resolves a change.
func judge(def MetricDef, a, b []float64, pairs [][2]float64) Verdict {
	v := Verdict{Metric: def.Name, N: [2]int{len(a), len(b)}}
	for k, xs := range [][]float64{a, b} {
		v.Median[k] = Median(xs)
		v.Q1[k], v.Q3[k], _ = Quartiles(xs)
	}
	sign := 1.0 // positive delta = B better
	if def.Better == "lower" {
		sign = -1
	}
	var won int
	for _, p := range pairs {
		if sign*(p[1]-p[0]) > 0 {
			won++
		}
	}
	v.Won = ratio(float64(won), float64(len(pairs)))
	gain := sign * (v.Median[1] - v.Median[0])
	spread := v.Q3[0] - v.Q1[0]
	spreadShare := ratio(spread, math.Abs(v.Median[0]))
	allBetter := len(a) > 0 && len(b) > 0 && sign*(extreme(b, -sign)-extreme(a, sign)) > 0
	switch {
	case allBetter || (v.Won >= 0.9 && gain > spread):
		v.Verdict, v.Reason = "improved", fmt.Sprintf("won %.0f%% of pairs, median moved %.3g past A's spread %.3g", 100*v.Won, gain, spread)
	case -gain > def.Bound*math.Abs(v.Median[0]) && spreadShare <= def.Bound:
		v.Verdict, v.Reason = "worse", fmt.Sprintf("median worse by %.1f%%, bound %.0f%%", 100*ratio(-gain, math.Abs(v.Median[0])), 100*def.Bound)
	case spreadShare > def.Bound:
		v.Verdict, v.Reason = "unresolved", fmt.Sprintf("A's spread %.1f%% exceeds the bound %.0f%%", 100*spreadShare, 100*def.Bound)
	default:
		v.Verdict, v.Reason = "unresolved", fmt.Sprintf("within the %.0f%% bound (median moved %+.1f%% in the better direction)", 100*def.Bound, 100*ratio(gain, math.Abs(v.Median[0])))
	}
	return v
}

// extreme returns the maximum of xs when dir > 0, the minimum otherwise.
func extreme(xs []float64, dir float64) float64 {
	s := Sorted(xs)
	if dir > 0 {
		return s[len(s)-1]
	}
	return s[0]
}

// exactCounts are fuzz-dist's effectiveness counts. They repeat exactly
// for a seed, so compare mode judges them seed by seed: a faster fuzzer
// that finds fewer violations must not pass as a win.
var exactCounts = []string{"fuzz_hit_rate", "probes_to_violation_p50"}

// compareFiles prints, for each workload × end-to-end metric, the two
// sides' medians and quartiles, the share of pairs B won and a verdict
// against BENCHMARK.json's bounds, then the exact counts seed by seed.
// The k-th run of a seed in A pairs with the k-th run of that seed in B,
// or runs pair in file order when no seed is shared. A timing verdict
// needs A and B runs that alternate in time; sets run one after the
// other leave it unresolved, since a drift of the host between them
// would read as a change. It reports false when any verdict is "worse"
// or two runs of one seed produced different outputs.
func compareFiles(w io.Writer, def *Spec, pathA, pathB string) (bool, error) {
	ra, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	byWorkload := func(rs []*Result) map[string][]*Result {
		m := map[string][]*Result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(ra), byWorkload(rb)
	var names []string
	for k := range wa {
		if _, ok := wb[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-12s %-24s %5s %12s %12s %23s %23s %6s  %s\n", "workload", "metric", "runs", "median A", "median B", "quartiles A", "quartiles B", "won", "verdict")
	row := func(v Verdict) {
		if v.Verdict == "worse" {
			ok = false
		}
		fmt.Fprintf(w, "%-12s %-24s %2d/%-2d %12.5g %12.5g [%10.4g,%10.4g] [%10.4g,%10.4g] %5.0f%%  %s: %s\n",
			v.Workload, v.Metric, v.N[0], v.N[1], v.Median[0], v.Median[1], v.Q1[0], v.Q3[0], v.Q1[1], v.Q3[1], 100*v.Won, v.Verdict, v.Reason)
	}
	for _, name := range names {
		as, bs := wa[name], wb[name]
		for _, msg := range digestMismatches(append(append([]*Result(nil), as...), bs...)) {
			fmt.Fprintf(w, "%-12s OUTPUT MISMATCH: %s\n", name, msg)
			ok = false
		}
		alternate := interleaved(as, bs)
		for _, d := range def.EndToEnd {
			a, b, pairs := values(as, bs, d.Name, false)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(d, a, b, pairs)
			v.Workload = name
			if timed(d) && !alternate && v.Verdict != "unresolved" {
				v.Reason = fmt.Sprintf("A and B ran one after the other, so host drift cannot be told from a change; interleave their runs (would be %s: %s)", v.Verdict, v.Reason)
				v.Verdict = "unresolved"
			}
			row(v)
		}
		for _, d := range def.PerLayer {
			if !slices.Contains(exactCounts, d.Name) {
				continue
			}
			a, b, pairs := values(as, bs, d.Name, true)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judgeExact(d, a, b, pairs)
			v.Workload = name
			row(v)
		}
	}
	return ok, nil
}

// timed reports whether a metric is a time or a rate, which a change in
// the host's speed moves.
func timed(d MetricDef) bool { return d.Unit == "s" || d.Unit == "ms" || d.Unit == "1/s" }

// interleaved reports whether the runs of A and B alternate in time:
// sorted by start, the sequence changes side at least as often as the
// smaller set has runs. Sets run one after the other change side once.
func interleaved(as, bs []*Result) bool {
	type run struct {
		start time.Time
		b     bool
	}
	var rs []run
	for _, r := range as {
		rs = append(rs, run{r.Env.Start, false})
	}
	for _, r := range bs {
		rs = append(rs, run{r.Env.Start, true})
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].start.Before(rs[j].start) })
	var changes int
	for i := 1; i < len(rs); i++ {
		if rs[i].b != rs[i-1].b {
			changes++
		}
	}
	return changes >= min(len(as), len(bs))
}

// judgeExact compares an exact count seed by seed: B is worse when it
// reads worse at any shared seed, improved when it reads better at some
// and worse at none.
func judgeExact(def MetricDef, a, b []float64, pairs [][2]float64) Verdict {
	v := judge(def, a, b, pairs)
	sign := 1.0
	if def.Better == "lower" {
		sign = -1
	}
	var better, worse int
	for _, p := range pairs {
		switch d := sign * (p[1] - p[0]); {
		case d > 0:
			better++
		case d < 0:
			worse++
		}
	}
	switch {
	case len(pairs) == 0:
		v.Verdict, v.Reason = "unresolved", "no seed ran on both sides"
	case worse > 0:
		v.Verdict, v.Reason = "worse", fmt.Sprintf("worse at %d of %d shared seeds", worse, len(pairs))
	case better > 0:
		v.Verdict, v.Reason = "improved", fmt.Sprintf("better at %d of %d shared seeds, worse at none", better, len(pairs))
	default:
		v.Verdict, v.Reason = "unresolved", fmt.Sprintf("equal at all %d shared seeds", len(pairs))
	}
	return v
}

// pairRuns matches the k-th A run of a seed with the k-th B run of the
// same seed.
func pairRuns(as, bs []*Result) [][2]*Result {
	bySeed := map[int64][]*Result{}
	for _, r := range as {
		bySeed[r.Env.Seed] = append(bySeed[r.Env.Seed], r)
	}
	var pairs [][2]*Result
	for _, r := range bs {
		if q := bySeed[r.Env.Seed]; len(q) > 0 {
			pairs = append(pairs, [2]*Result{q[0], r})
			bySeed[r.Env.Seed] = q[1:]
		}
	}
	return pairs
}

// values extracts one metric from both sides and pairs the runs by seed;
// unless seedOnly, runs pair in file order when no seed is shared.
func values(as, bs []*Result, metric string, seedOnly bool) (a, b []float64, pairs [][2]float64) {
	column := func(rs []*Result) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.metric(metric); ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	a, b = column(as), column(bs)
	runs := pairRuns(as, bs)
	if len(runs) == 0 && !seedOnly {
		for i := 0; i < len(as) && i < len(bs); i++ {
			runs = append(runs, [2]*Result{as[i], bs[i]})
		}
	}
	for _, p := range runs {
		x, okA := p[0].metric(metric)
		y, okB := p[1].metric(metric)
		if okA && okB {
			pairs = append(pairs, [2]float64{x.Value, y.Value})
		}
	}
	return a, b, pairs
}

// digestMismatches lists runs whose deterministic output differs from
// that of the first run of the same seed.
func digestMismatches(rs []*Result) []string {
	first := map[int64]string{}
	var out []string
	for _, r := range rs {
		d, ok := first[r.Env.Seed]
		switch {
		case !ok:
			first[r.Env.Seed] = r.Digest
		case d != r.Digest:
			out = append(out, fmt.Sprintf("seed %d: output digest %.12s vs %.12s", r.Env.Seed, d, r.Digest))
		}
	}
	return out
}
