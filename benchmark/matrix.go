package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
	"expensive/internal/obs"
	"expensive/internal/sim"
)

const matrixWindow = 16

func matrixWorkload() Workload {
	return Workload{Name: "matrix", MinUnits: 2, Setup: newMatrix}
}

// matrixRun sweeps the full registry × strategy library × default sizes
// per unit, over consecutive 16-seed windows, on the runner pool.
type matrixRun struct {
	seed    int64
	workers int
	m       matrix.Matrix
	tr      *Tracer
	rec     *obs.Recorder
}

type matrixExtra struct {
	probe   Counts
	simRuns int64
}

func newMatrix(seed int64, tr *Tracer) (Engine, error) {
	specs := catalog.Protocols()
	strategies := adversary.Library(matrix.DefaultBias)
	r := &matrixRun{seed: seed, workers: benchWorkers(), tr: tr}
	if tr != nil {
		for i := range specs {
			build := specs[i].New
			specs[i].New = func(p catalog.Params) (sim.Factory, error) {
				f, err := build(p)
				if err != nil {
					return nil, err
				}
				return TraceFactory(tr, f), nil
			}
		}
		for i := range strategies {
			strategies[i].Strategy = TraceStrategy(tr, strategies[i].Strategy)
		}
		r.rec = obs.New()
		r.m.Ctx = obs.Into(context.Background(), r.rec)
	}
	r.m.Protocols = specs
	r.m.Strategies = strategies
	r.m.Sizes = matrix.DefaultSizes()
	r.m.Parallelism = r.workers
	return r, nil
}

func (r *matrixRun) Unit(i int, root SpanRef) (UnitResult, error) {
	m := r.m
	m.Seeds = window(r.seed, "matrix", i, matrixWindow)
	before, runs := r.tr.Counts(), sim.Runs()
	start := time.Now()
	span := root.Child("matrix.run")
	g, err := m.Run()
	span.End()
	wall := time.Since(start)
	if err != nil {
		return UnitResult{Index: i}, err
	}
	out, err := json.Marshal(g)
	if err != nil {
		return UnitResult{Index: i}, err
	}
	res := UnitResult{
		Index: i, Ops: g.Probes, Wall: wall, Digest: sha256.Sum256(out),
		Extra: matrixExtra{probe: r.tr.Counts().Sub(before), simRuns: sim.Runs() - runs},
	}
	for _, c := range g.Cells {
		if !c.Skipped {
			res.MsgsPerN2 += float64(c.Messages.Sum) / float64(c.N*c.N)
		}
		for _, v := range c.Violations {
			res.Found = append(res.Found, found{Protocol: c.Protocol, N: c.N, T: c.T, V: v})
		}
	}
	return res, nil
}

// Verify re-runs unit 0 for identical grid bytes and re-checks every
// recorded violation against its cell's protocol.
func (r *matrixRun) Verify(units []UnitResult) (int, []string) {
	failed, problems := rerunMatches(r, units)
	f, p := recheck(units)
	return failed + f, append(problems, p...)
}

func (r *matrixRun) Layers(units []UnitResult) map[string]float64 {
	m := map[string]float64{}
	var ops int
	var probe Counts
	var wall time.Duration
	var simRuns int64
	for _, u := range units {
		x, ok := u.Extra.(matrixExtra)
		if !ok {
			continue
		}
		ops += u.Ops
		wall += u.Wall
		simRuns += x.simRuns
		for k := range probe {
			probe[k] += x.probe[k]
		}
	}
	seamLayers(m, probe, ops)
	m["sim.runs"] = float64(simRuns)
	m["sim.runs_per_probe"] = ratio(float64(simRuns), float64(ops))
	// Each cell runs its campaign serially through runner.Map, which
	// books that busy time to worker 0 as well; campaign_probe_ns sums
	// exactly those nested jobs, so subtracting it leaves the cell pool's.
	probeNS := r.rec.Histogram("campaign_probe_ns").Sum()
	var busy int64
	for w := 0; w < r.workers; w++ {
		busy += r.rec.Counter(fmt.Sprintf("runner_worker_%d_busy_ns", w)).Value()
	}
	m["runner.busy_frac"] = ratio(float64(busy-probeNS), float64(r.workers)*float64(wall))
	m["runner.jobs"] = float64(r.rec.Counter("runner_jobs").Value() - r.rec.Counter("campaign_probes").Value())
	m["sim.residual_ns"] = ratio(residual(probeNS, probe), float64(ops))
	m["campaign.replays"] = float64(r.rec.Counter("campaign_replays").Value())
	return m
}
