// Command benchmark is the repository's end-to-end benchmark: five
// workloads over the adversarial search engines (hunt, matrix, dist
// fuzz) and the live replicated log, each measured from outside through
// public APIs and checked against its oracle.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash benchmark/run.sh --workload hunt-lean --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --compare before.jsonl after.jsonl
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the same units untraced and then traced and
// reports the per-layer metrics, the tracing overhead and the share of
// time no span covers. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupReps is how many timed batches of engine set-ups a run makes,
	// spread over its measured time so that they meet the same states of
	// the host as the units do; setup_s is the median batch's time per
	// set-up. A batch repeats a set-up until it has taken at least
	// setupBatch.
	setupReps  = 15
	setupBatch = 50 * time.Millisecond
	// sampleWall is the least measured time one throughput sample
	// covers: ops_per_s and allocs_per_op are medians over samples of
	// consecutive units.
	sampleWall = 100 * time.Millisecond
	// warmupUnit is the index of the unit a run executes, on an engine of
	// its own, before timing: process-wide caches and pools fill with
	// inputs no measured unit shares.
	warmupUnit = 1 << 30
	// specFile defines the metrics, their units and bounds; runs start at
	// the repository root, where it lives.
	specFile = "BENCHMARK.json"
)

// Metric is one measured value with its unit and sample count.
type Metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// Result is one run's full record, appended to --out as a JSON line.
type Result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Env       Env      `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Digest hashes the outputs of the units every run of the seed
	// completes, so runs of one seed can be compared across commits.
	Digest  string   `json:"digest"`
	Metrics []Metric `json:"metrics"`
	// Rates are the throughput samples ops_per_s is the median of.
	Rates []float64 `json:"rates,omitempty"`
}

func (r *Result) add(name string, v float64, unit string, samples int, note string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, Samples: samples, Note: note})
}

func (r *Result) metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_out", "results.jsonl"), "file the full result is appended to (empty: none)")
	traceOut := flag.String("trace-out", ".bench_out", "directory the traced run's spans are written to")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()

	def, err := loadSpec(specFile)
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("--compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, def, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "all":
		if !runAll(os.Args[1:]) {
			os.Exit(1)
		}
	default:
		w, err := lookupWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
		}
		if *seconds <= 0 {
			fatal(fmt.Errorf("--seconds must be positive, got %v", *seconds))
		}
		res, err := run(w, def, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			fatal(err)
		}
		if err := emit(os.Stdout, def, res, *out); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func benchWorkers() int { return min(2, runtime.NumCPU()) }

// run measures one workload: units until the deadline with set-up
// batches between them, then the output checks outside the timed region;
// traced, the same units again through the tracing wrappers.
func run(w Workload, def *Spec, seed int64, seconds float64, traced bool, traceOut string) (*Result, error) {
	res := &Result{Workload: w.Name, Trace: traced, Seconds: seconds, Env: stampEnv(seed)}
	if err := warmUp(w, seed); err != nil {
		return nil, err
	}
	eng, err := w.Setup(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}

	budget := time.Duration(seconds * float64(time.Second))
	if traced {
		budget /= 2 // the traced pass repeats these units
	}
	var units []UnitResult
	var rss float64
	var setups, rates, allocRates []float64
	var sOps int
	var sWall time.Duration
	runtime.GC()
	sAllocs := mallocs()
	start := time.Now()
	for i := 0; i < w.MinUnits || time.Since(start) < budget; i++ {
		if len(setups) < setupReps && time.Since(start) >= time.Duration(len(setups))*budget/setupReps {
			before := mallocs()
			d, err := timeSetup(w, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
			sAllocs += mallocs() - before // set-up is not the units' work
		}
		u, err := eng.Unit(i, SpanRef{})
		res.Attempted += u.Ops
		if err != nil {
			res.Failed += max(u.Ops, 1)
			res.Problems = append(res.Problems, fmt.Sprintf("unit %d: %v", i, err))
			continue
		}
		res.Failed += u.Failed
		units = append(units, u)
		if len(units) == w.MinUnits {
			rss = peakRSSMB() // after a fixed amount of work, however fast
		}
		if sOps, sWall = sOps+u.Ops, sWall+u.Wall; sWall >= sampleWall {
			a := mallocs()
			rates = append(rates, float64(sOps)/sWall.Seconds())
			allocRates = append(allocRates, float64(a-sAllocs)/float64(sOps))
			sOps, sWall, sAllocs = 0, 0, a
		}
	}
	if rss == 0 {
		rss = peakRSSMB()
	}
	for len(setups) < setupReps { // units too long to fit every batch between them
		d, err := timeSetup(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	failed, problems := eng.Verify(units)
	res.Failed += failed
	res.Problems = append(res.Problems, problems...)
	res.Digest = digest(units, w.MinUnits)

	var ops int
	var msgs float64
	walls := make([]float64, 0, len(units))
	for _, u := range units {
		ops += u.Ops
		msgs += u.MsgsPerN2
		walls = append(walls, u.Wall.Seconds()*1e3)
	}
	opName, unitName := "probes", "unit"
	if w.Name == "smr-chaos" {
		opName, unitName = "commits", "commit"
	}
	if !traced {
		res.Rates = rates
		res.add("ops_per_s", Median(rates), "1/s", len(rates), fmt.Sprintf("%s per second, median over samples of >= %v", opName, sampleWall))
		res.add("unit_p50_ms", Median(walls), "ms", len(walls), unitName+" latency median")
		if p, v, ok := Tail(walls); ok {
			res.add("unit_tail_ms", v, "ms", len(walls), fmt.Sprintf("%s latency p%g (highest percentile with >= 10 samples beyond)", unitName, p))
		}
		res.add("setup_s", Median(setups), "s", len(setups), "engine set-up, median over batches")
		res.add("allocs_per_op", Median(allocRates), "count", len(allocRates), "heap allocations per "+strings.TrimSuffix(opName, "s")+", median over the same samples")
		res.add("peak_rss_mb", rss, "MB", 1, fmt.Sprintf("peak resident set (VmHWM) after warm-up and %d units", w.MinUnits))
		res.add("msgs_per_n2", ratio(msgs, float64(ops)), "count", ops, "correct-process messages per execution or slot ÷ n²")
		// The workload-specific names of the same measurements.
		if w.Name == "smr-chaos" {
			res.add("commits_per_s", Median(rates), "1/s", len(rates), "alias of ops_per_s")
			res.add("commit_p50_ms", Median(walls), "ms", len(walls), "alias of unit_p50_ms")
			if Supports(len(walls), 99) {
				res.add("commit_p99_ms", Percentile(walls, 99), "ms", len(walls), "CommitSlot latency p99")
			}
		} else {
			res.add("probes_per_s", Median(rates), "1/s", len(rates), "alias of ops_per_s")
		}
	}
	if w.Name == "fuzz-dist" {
		hit, p50 := fuzzEffectiveness(units)
		res.add("fuzz_hit_rate", hit, "frac", fuzzK, "share of master seeds with a violation within budget")
		res.add("probes_to_violation_p50", p50, "count", fuzzK, "median first_violation_probe, a miss counting as budget+1")
	}

	if traced {
		if err := tracedPass(w, def, seed, units, res, traceOut); err != nil {
			return nil, err
		}
	}
	res.add("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "frac", res.Attempted, "failed ÷ attempted operations")
	res.Correct = res.Failed == 0 && len(res.Problems) == 0 && res.Attempted > 0
	return res, nil
}

func warmUp(w Workload, seed int64) error {
	eng, err := w.Setup(seed, nil)
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	if _, err := eng.Unit(warmupUnit, SpanRef{}); err != nil {
		return fmt.Errorf("%s warm-up: %w", w.Name, err)
	}
	return nil
}

// timeSetup builds the workload's engines for one timed batch and
// returns the batch's time per set-up.
func timeSetup(w Workload, seed int64) (float64, error) {
	runtime.GC() // every batch starts from a collected heap
	start := time.Now()
	var n int
	for n == 0 || time.Since(start) < setupBatch {
		if _, err := w.Setup(seed, nil); err != nil {
			return 0, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		n++
	}
	return time.Since(start).Seconds() / float64(n), nil
}

// tracedPass re-runs the untraced units through a traced engine, checks
// their outputs are byte-identical, and adds the per-layer metrics.
func tracedPass(w Workload, def *Spec, seed int64, plain []UnitResult, res *Result, traceOut string) error {
	tr := NewTracer()
	eng, err := w.Setup(seed, tr)
	if err != nil {
		return fmt.Errorf("%s traced set-up: %w", w.Name, err)
	}
	var units []UnitResult
	var plainWall, tracedWall time.Duration
	for _, p := range plain {
		root := tr.Root(w.Name+".unit", int64(p.Index))
		u, err := eng.Unit(p.Index, root)
		root.End()
		if err != nil {
			res.Failed += max(u.Ops, 1)
			res.Problems = append(res.Problems, fmt.Sprintf("traced unit %d: %v", p.Index, err))
			continue
		}
		if u.Digest != p.Digest {
			res.Failed += u.Ops
			res.Problems = append(res.Problems, fmt.Sprintf("traced unit %d: output differs from the untraced run", p.Index))
		}
		units = append(units, u)
		plainWall += p.Wall
		tracedWall += u.Wall
	}
	spans, dropped := tr.Spans()
	layers := eng.Layers(units)
	layers["trace.overhead_s"] = (tracedWall - plainWall).Seconds()
	layers["trace.overhead_frac"] = ratio(float64(tracedWall-plainWall), float64(plainWall))
	layers["trace.unattributed_frac"] = Unattributed(spans)
	layers["trace.spans"] = float64(len(spans) + dropped)
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		res.add(k, layers[k], def.unit(k), len(units), "")
	}
	if traceOut == "" {
		return nil
	}
	if err := os.MkdirAll(traceOut, 0o755); err != nil {
		return err
	}
	return tr.WriteSpans(filepath.Join(traceOut, "spans-"+w.Name+".jsonl"))
}

// digest hashes the output digests of the first n units.
func digest(units []UnitResult, n int) string {
	h := sha256.New()
	for _, u := range units {
		if u.Index < n {
			h.Write(u.Digest[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// emit prints the human-readable table, appends the full result to
// outPath, and prints the contract line last.
func emit(w *os.File, def *Spec, res *Result, outPath string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s seed %d trace=%v: correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Env.Seed, res.Trace, res.Correct, res.Attempted, res.Failed)
	fmt.Fprintf(bw, "env: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%.12s\n",
		res.Env.CPU, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.Go, res.Env.Commit, res.Env.SourceSHA256)
	for _, p := range res.Problems {
		fmt.Fprintf(bw, "FAIL: %s\n", p)
	}
	for _, m := range res.Metrics {
		fmt.Fprintf(bw, "  %-28s %14.6g %-6s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(append(full, '\n'))
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			return werr
		}
	}

	want := def.EndToEnd
	if res.Trace {
		want = def.PerLayer
	}
	metrics := make(map[string]any, len(want))
	for _, d := range want {
		m, ok := res.metric(d.Name)
		switch {
		case !ok && res.Trace:
			m.Value = 0 // the layer is not on this workload's path
		case !ok:
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		metrics[d.Name] = map[string]any{"value": m.Value, "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(bw, string(line))
	return bw.Flush()
}

// runAll runs every workload in its own process (so peak memory is per
// workload) and reports whether all of them passed their checks.
func runAll(args []string) bool {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ok := true
	var failed []string
	for _, w := range workloads() {
		argv := replaceFlag(args, "workload", w.Name)
		cmd := exec.Command(self, argv...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			ok = false
			failed = append(failed, w.Name)
		}
	}
	if ok {
		fmt.Println("all workloads passed their output checks")
	} else {
		fmt.Printf("FAILED workloads: %s\n", strings.Join(failed, ", "))
	}
	return ok
}

// replaceFlag sets --name=value in an argument list.
func replaceFlag(args []string, name, value string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == name:
			i++ // skip the value
		case strings.HasPrefix(a, name+"="):
		default:
			out = append(out, args[i])
		}
	}
	return append(out, "--"+name+"="+value)
}
