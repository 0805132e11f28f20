package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/adversary/fuzz"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
	"expensive/internal/dist"
	"expensive/internal/sim"
)

const (
	fuzzN, fuzzT = 4, 3
	fuzzBudget   = 4096
	fuzzSeedStr  = "random-send-omission"
	// fuzzK is how many master seeds the effectiveness counts cover.
	fuzzK = 8
	// workerGrace bounds the wait for workers after the coordinator
	// returns.
	workerGrace = 10 * time.Second
)

func fuzzDist() Workload {
	// Every run completes at least 32 jobs: the effectiveness counts need
	// the first fuzzK, and peak memory read after 8 jobs spread by ±20%
	// between runs.
	return Workload{Name: "fuzz-dist", MinUnits: 4 * fuzzK, Setup: newFuzzDist}
}

// fuzzDistRun runs one fuzz job per unit through a dist.Coordinator with
// two in-process dist.Workers on loopback TCP, Parallelism 1 each. The
// job's fuzz master seed derives from the workload seed and the unit.
type fuzzDistRun struct {
	seed    int64
	workers int
	tr      *Tracer
	spec    catalog.Spec
}

// fuzzRecheck is how many of a job's violations Verify re-checks: a job
// records every violation it finds, often hundreds.
const fuzzRecheck = 3

type fuzzExtra struct {
	first int // the report's first_violation_probe
	// Traced units only.
	links                         []*link
	coordWall                     time.Duration
	serialWall                    time.Duration
	derive, probe, fold, finish   time.Duration
	probeCounts                   Counts
	simRuns                       int64
	generations, corpus, newCover int
	session                       [32]byte // the stepped session's output digest
}

func newFuzzDist(seed int64, tr *Tracer) (Engine, error) {
	spec, err := catalog.Get("floodset")
	if err != nil {
		return nil, err
	}
	r := &fuzzDistRun{seed: seed, workers: benchWorkers(), tr: tr, spec: spec}
	// Bring-up: a small job through a fresh coordinator, so set-up time
	// covers Coordinator.Start and both worker handshakes, which every
	// measured job pays again. Its 128 one-probe units outlast both
	// handshakes, so neither worker joins after the last unit.
	job := r.job(-1)
	job.Fuzz.Budget = 128
	job.Fuzz.Batch = 1
	if _, _, err := r.runJob(job, nil); err != nil {
		return nil, fmt.Errorf("fuzz-dist bring-up: %w", err)
	}
	return r, nil
}

func (r *fuzzDistRun) job(i int) *dist.Job {
	return &dist.Job{Kind: "fuzz", Fuzz: &dist.FuzzJob{
		Protocol:     r.spec.ID,
		SeedStrategy: fuzzSeedStr,
		Bias:         huntBias,
		N:            fuzzN,
		T:            fuzzT,
		Budget:       fuzzBudget,
		FuzzSeed:     derive(r.seed, fmt.Sprintf("fuzz|%d", i)),
	}}
}

// runJob distributes one job. With a relay, the workers reach the
// coordinator through it.
func (r *fuzzDistRun) runJob(job *dist.Job, withRelay func(target string) (*relay, error)) (*dist.Report, *relay, error) {
	c := &dist.Coordinator{Job: job}
	if err := c.Start(); err != nil {
		return nil, nil, err
	}
	addr := c.ListenAddr()
	var rl *relay
	if withRelay != nil {
		var err error
		if rl, err = withRelay(addr); err != nil {
			return nil, nil, err
		}
		addr = rl.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, r.workers)
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = (&dist.Worker{Addr: addr, Name: fmt.Sprintf("bench-%d", w), Parallelism: 1}).Run()
		}(w)
	}
	rep, err := c.Run()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(workerGrace):
		// A worker whose handshake came after the last unit is never told
		// the job is done; only closing its connection releases it.
		if rl == nil {
			return nil, nil, fmt.Errorf("a dist worker did not finish within %v of the job", workerGrace)
		}
		rl.Close()
		<-done
	}
	if rl != nil {
		rl.Close()
	}
	if err != nil {
		return nil, rl, err
	}
	for _, werr := range errs {
		if werr != nil {
			return rep, rl, fmt.Errorf("worker: %w", werr)
		}
	}
	return rep, rl, nil
}

func (r *fuzzDistRun) Unit(i int, root SpanRef) (UnitResult, error) {
	job := r.job(i)
	if r.tr == nil {
		start := time.Now()
		rep, _, err := r.runJob(job, nil)
		wall := time.Since(start)
		if err != nil {
			return UnitResult{Index: i, Ops: fuzzBudget}, err
		}
		return fuzzResult(i, rep, wall, fuzzExtra{})
	}

	// Traced: the same job driven three ways — a local fuzz.Session one
	// step at a time (fuzz layer), the coordinator through the relay
	// (dist layer), and dist.Serial (the speed-up's base).
	var x fuzzExtra
	if err := r.session(job, root, &x); err != nil {
		return UnitResult{Index: i, Ops: fuzzBudget}, err
	}
	span := root.Child("dist.run")
	start := time.Now()
	rep, rl, err := r.runJob(job, newRelay)
	wall := time.Since(start)
	span.End()
	if err != nil {
		return UnitResult{Index: i, Ops: fuzzBudget}, err
	}
	x.coordWall = rep.Wall
	x.links = rl.Links()
	for _, l := range x.links {
		for _, t := range l.rtts {
			span.Interval("dist.unit", t.start, t.end)
		}
	}
	s := root.Child("dist.serial")
	if _, err := dist.Serial(context.Background(), r.job(i)); err != nil {
		return UnitResult{Index: i, Ops: fuzzBudget}, err
	}
	x.serialWall = s.End()
	res, err := fuzzResult(i, rep, wall, x)
	if err == nil && res.Digest != x.session {
		err = fmt.Errorf("job %d: stepped fuzz.Session output differs from the coordinator's", i)
	}
	return res, err
}

// session drives the job's fuzzer as a local fuzz.Session, one step at a
// time, with the strategy and factory wrappers in place.
func (r *fuzzDistRun) session(job *dist.Job, root SpanRef, x *fuzzExtra) error {
	j := job.Fuzz
	strat, _ := adversary.FromLibrary(j.SeedStrategy, j.Bias)
	f, err := matrix.FuzzerFor(r.spec, catalog.DefaultParams(j.N, j.T), TraceStrategy(r.tr, strat), j.Budget)
	if err != nil {
		return err
	}
	f.FuzzSeed = j.FuzzSeed
	f.Factory = TraceFactory(r.tr, f.Factory)
	runs, before := sim.Runs(), r.tr.Counts()
	s, err := f.NewSession()
	if err != nil {
		return err
	}
	for {
		sp := root.Child("fuzz.derive")
		g := s.NextGeneration()
		x.derive += sp.End()
		if g == nil {
			break
		}
		sp = root.Child("fuzz.probe")
		outs := make([]fuzz.Outcome, g.Count)
		for k := range outs {
			if outs[k], err = s.Probe(g, k); err != nil {
				return err
			}
		}
		x.probe += sp.End()
		sp = root.Child("fuzz.fold")
		s.Fold(g, outs)
		x.fold += sp.End()
	}
	x.probeCounts = r.tr.Counts().Sub(before)
	sp := root.Child("fuzz.finish")
	rep, err := s.Finish()
	x.finish += sp.End()
	if err != nil {
		return err
	}
	x.simRuns = sim.Runs() - runs
	x.generations, x.corpus, x.newCover = rep.Generations, rep.CorpusSize, rep.NewCoverage
	x.session, err = fuzzDigest(rep, f.Corpus)
	return err
}

// fuzzDigest hashes a job's deterministic output: report and corpus.
func fuzzDigest(rep *fuzz.Report, corpus *fuzz.Corpus) ([32]byte, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(rep); err != nil {
		return [32]byte{}, err
	}
	if err := enc.Encode(corpus); err != nil {
		return [32]byte{}, err
	}
	var d [32]byte
	h.Sum(d[:0])
	return d, nil
}

func fuzzResult(i int, rep *dist.Report, wall time.Duration, x fuzzExtra) (UnitResult, error) {
	if rep.Fuzz == nil {
		return UnitResult{Index: i, Ops: fuzzBudget}, fmt.Errorf("job %d: no fuzz report", i)
	}
	d, err := fuzzDigest(rep.Fuzz, rep.Corpus)
	if err != nil {
		return UnitResult{Index: i, Ops: fuzzBudget}, err
	}
	x.first = rep.Fuzz.FirstViolationProbe
	res := UnitResult{
		Index:     i,
		Ops:       rep.Fuzz.Probes,
		Wall:      wall,
		Digest:    d,
		MsgsPerN2: float64(rep.Fuzz.Messages.Sum) / float64(fuzzN*fuzzN),
		Failed:    len(rep.Quarantined),
		Extra:     x,
	}
	for _, v := range rep.Fuzz.Violations[:min(fuzzRecheck, len(rep.Fuzz.Violations))] {
		res.Found = append(res.Found, found{Protocol: rep.Fuzz.Protocol, N: fuzzN, T: fuzzT, V: v})
	}
	return res, nil
}

// Verify requires every job's report and corpus to be byte-identical to
// dist.Serial's, and re-checks each job's first violations.
func (r *fuzzDistRun) Verify(units []UnitResult) (int, []string) {
	var failed int
	var problems []string
	for _, u := range units {
		rep, err := dist.Serial(context.Background(), r.job(u.Index))
		if err != nil {
			problems = append(problems, fmt.Sprintf("job %d: serial oracle: %v", u.Index, err))
			failed += u.Ops
			continue
		}
		if want, err := fuzzDigest(rep.Fuzz, rep.Corpus); err != nil || want != u.Digest {
			problems = append(problems, fmt.Sprintf("job %d: report or corpus differs from dist.Serial", u.Index))
			failed += u.Ops
		}
	}
	f, p := recheck(units)
	return failed + f, append(problems, p...)
}

// fuzzEffectiveness returns the share of the first fuzzK jobs that found
// a violation and the median first-violation probe, a miss counting as
// budget + 1.
func fuzzEffectiveness(units []UnitResult) (hitRate, p50 float64) {
	var hits int
	var firsts []float64
	for _, u := range units {
		x, ok := u.Extra.(fuzzExtra)
		if !ok || u.Index >= fuzzK {
			continue
		}
		first := float64(fuzzBudget + 1)
		if x.first > 0 {
			hits++
			first = float64(x.first)
		}
		firsts = append(firsts, first)
	}
	return ratio(float64(hits), float64(len(firsts))), Median(firsts)
}

func (r *fuzzDistRun) Layers(units []UnitResult) map[string]float64 {
	m := map[string]float64{}
	var ops, jobs int
	var probe Counts
	var x fuzzExtra
	var rtts, handshakes []float64
	var frames int
	var wireBytes int64
	var busy, jobWall time.Duration
	var speedups []float64
	for _, u := range units {
		e, ok := u.Extra.(fuzzExtra)
		if !ok || e.links == nil {
			continue
		}
		jobs++
		ops += u.Ops
		for k := range probe {
			probe[k] += e.probeCounts[k]
		}
		x.derive += e.derive
		x.probe += e.probe
		x.fold += e.fold
		x.finish += e.finish
		x.simRuns += e.simRuns
		x.generations += e.generations
		x.corpus += e.corpus
		x.newCover += e.newCover
		jobWall += time.Duration(len(e.links)) * e.coordWall
		speedups = append(speedups, ratio(float64(e.serialWall), float64(e.coordWall)))
		for _, l := range e.links {
			handshakes = append(handshakes, l.handshake.Seconds()*1e3)
			frames += l.frames
			wireBytes += l.bytes
			for _, t := range l.rtts {
				d := t.end.Sub(t.start)
				rtts = append(rtts, d.Seconds()*1e3)
				busy += d
			}
		}
	}
	seamLayers(m, probe, ops)
	per := func(d time.Duration) float64 { return ratio(float64(d), float64(ops)) }
	m["fuzz.derive_ns"] = per(x.derive)
	m["fuzz.probe_ns"] = per(x.probe)
	m["fuzz.fold_ns"] = per(x.fold)
	m["fuzz.finish_ns"] = per(x.finish)
	m["fuzz.generations"] = ratio(float64(x.generations), float64(jobs))
	m["fuzz.corpus_size"] = ratio(float64(x.corpus), float64(jobs))
	m["fuzz.novel_frac"] = ratio(float64(x.newCover), float64(ops))
	m["sim.runs"] = float64(x.simRuns)
	m["sim.runs_per_probe"] = ratio(float64(x.simRuns), float64(ops))
	m["sim.residual_ns"] = ratio(residual(int64(x.probe), probe), float64(ops))
	m["dist.handshake_ms"] = Median(handshakes)
	m["dist.units"] = ratio(float64(len(rtts)), float64(jobs))
	m["dist.unit_rtt_p50_ms"] = Percentile(rtts, 50)
	m["dist.unit_rtt_p99_ms"] = Percentile(rtts, 99)
	m["dist.frames"] = ratio(float64(frames), float64(jobs))
	m["dist.wire_bytes"] = ratio(float64(wireBytes), float64(jobs))
	m["dist.bytes_per_probe"] = ratio(float64(wireBytes), float64(ops))
	m["dist.worker_idle_frac"] = 1 - ratio(float64(busy), float64(jobWall))
	m["dist.speedup"] = Median(speedups)
	return m
}
