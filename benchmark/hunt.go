package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	_ "expensive/internal/catalog/all"
	"expensive/internal/catalog/matrix"
	"expensive/internal/obs"
	"expensive/internal/omission"
	"expensive/internal/sim"
)

const (
	huntN, huntT = 16, 3
	huntWindow   = 2000
	huntKeep     = 3
	huntBias     = 40
)

func huntLean() Workload {
	return Workload{Name: "hunt-lean", MinUnits: 2, Setup: func(seed int64, tr *Tracer) (Engine, error) {
		return newHunt(seed, "random-omission", tr)
	}}
}

func huntReplay() Workload {
	return Workload{Name: "hunt-replay", MinUnits: 2, Setup: func(seed int64, tr *Tracer) (Engine, error) {
		return newHunt(seed, "targeted-withhold", tr)
	}}
}

// hunt runs one serial floodset campaign per unit over consecutive
// 2000-seed windows, keeping three violations and shrinking them.
type hunt struct {
	seed     int64
	strategy string
	c        *adversary.Campaign
	tr       *Tracer
	rec      *obs.Recorder
}

// huntExtra is what a traced unit measured beyond the campaign itself.
type huntExtra struct {
	campaign time.Duration // Campaign.Run (probe loop, replays) span
	probe    Counts        // aggregate counters during Campaign.Run
	replays  int64         // campaign_replays delta
	simRuns  int64         // sim.Runs() delta across the unit
	shrink   time.Duration
	steps    int
	direct   replayTimes
}

// replayTimes are the benchmark's direct calls into the replay layers.
type replayTimes struct {
	calls                                    int
	fullRun, validate, conforms, extract, ck time.Duration
}

func newHunt(seed int64, strategy string, tr *Tracer) (*hunt, error) {
	spec, err := catalog.Get("floodset")
	if err != nil {
		return nil, err
	}
	strat, ok := adversary.FromLibrary(strategy, huntBias)
	if !ok {
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
	if tr != nil {
		strat = TraceStrategy(tr, strat)
	}
	c, err := matrix.CampaignFor(spec, catalog.DefaultParams(huntN, huntT), strat, window(seed, strategy, 0, huntWindow))
	if err != nil {
		return nil, err
	}
	c.MaxViolations = huntKeep
	c.Shrink = true
	c.Parallelism = 1
	h := &hunt{seed: seed, strategy: strategy, c: c, tr: tr}
	if tr != nil {
		c.Factory = TraceFactory(tr, c.Factory)
		// The benchmark shrinks itself, with the call Campaign.Run makes,
		// so the shrinker gets its own span.
		c.Shrink = false
		h.rec = obs.New()
		c.Ctx = obs.Into(context.Background(), h.rec)
	}
	return h, nil
}

func (h *hunt) Unit(i int, root SpanRef) (UnitResult, error) {
	c := *h.c
	c.Seeds = window(h.seed, h.strategy, i, huntWindow)
	start := time.Now()
	if h.tr == nil {
		rep, err := c.Run()
		if err != nil {
			return UnitResult{Index: i, Ops: c.Seeds.Count()}, err
		}
		return huntResult(i, rep, time.Since(start))
	}

	var x huntExtra
	runsBefore, replaysBefore, before := sim.Runs(), h.rec.Counter("campaign_replays").Value(), h.tr.Counts()
	span := root.Child("adversary.campaign")
	rep, err := c.Run()
	x.campaign = span.End()
	x.probe = h.tr.Counts().Sub(before)
	x.replays = h.rec.Counter("campaign_replays").Value() - replaysBefore
	if err != nil {
		return UnitResult{Index: i, Ops: c.Seeds.Count()}, err
	}
	opts := c.RecheckOptions()
	for _, v := range rep.Violations {
		if v.Plan == nil {
			continue
		}
		s := root.Child("adversary.shrink")
		sh, err := adversary.Shrink(v, opts)
		x.shrink += s.End()
		if err != nil {
			return UnitResult{Index: i, Ops: rep.Probes}, fmt.Errorf("shrink seed %d: %w", v.Seed, err)
		}
		v.Shrunk = sh
		x.steps += sh.Steps
	}
	wall := time.Since(start)
	if err := h.replayLayers(rep, root, &x.direct); err != nil {
		return UnitResult{Index: i, Ops: rep.Probes}, err
	}
	x.simRuns = sim.Runs() - runsBefore
	res, err := huntResult(i, rep, wall)
	res.Extra = x
	return res, err
}

// replayLayers calls the replay pipeline's layers directly on the unit's
// recorded violations — sim.Run at RecordFull, omission.Validate,
// sim.Conforms, adversary.Extract and CheckExecution — each in its own
// span, and checks they reproduce the campaign's verdict.
func (h *hunt) replayLayers(rep *adversary.CampaignReport, root SpanRef, rt *replayTimes) error {
	c := h.c
	env := adversary.Env{N: c.N, T: c.T, Rounds: c.Rounds, Horizon: rep.Horizon, Factory: c.Factory}
	for _, v := range rep.Violations {
		plan := c.Strategy.Build(v.Seed, env)
		cfg := sim.Config{N: c.N, T: c.T, Proposals: v.Proposals, MaxRounds: rep.Horizon, Recording: sim.RecordFull}
		s := root.Child("sim.full_run")
		e, err := sim.Run(cfg, c.Factory, plan)
		rt.fullRun += s.End()
		if err != nil {
			return fmt.Errorf("replay seed %d: %w", v.Seed, err)
		}
		s = root.Child("omission.validate")
		err = omission.Validate(e)
		rt.validate += s.End()
		if err != nil {
			return fmt.Errorf("replay seed %d: validate: %w", v.Seed, err)
		}
		s = root.Child("sim.conforms")
		err = sim.Conforms(e, c.Factory, adversary.ByzantineSkip(plan, e.Faulty))
		rt.conforms += s.End()
		if err != nil {
			return fmt.Errorf("replay seed %d: conforms: %w", v.Seed, err)
		}
		s = root.Child("adversary.extract")
		_, err = adversary.Extract(e, plan)
		rt.extract += s.End()
		if err != nil && v.Plan != nil {
			return fmt.Errorf("replay seed %d: extract: %w", v.Seed, err)
		}
		s = root.Child("adversary.check")
		got := adversary.CheckExecution(e, v.Proposals, c.Validity, c.Agreement)
		rt.ck += s.End()
		if got == nil || got.Kind != v.Kind {
			return fmt.Errorf("replay seed %d: verdict %v does not reproduce %s", v.Seed, got, v.Kind)
		}
		rt.calls++
	}
	return nil
}

func huntResult(i int, rep *adversary.CampaignReport, wall time.Duration) (UnitResult, error) {
	out, err := json.Marshal(rep)
	if err != nil {
		return UnitResult{Index: i, Ops: rep.Probes}, err
	}
	res := UnitResult{
		Index:     i,
		Ops:       rep.Probes,
		Wall:      wall,
		Digest:    sha256.Sum256(out),
		MsgsPerN2: float64(rep.Messages.Sum) / float64(rep.N*rep.N),
	}
	for _, v := range rep.Violations {
		res.Found = append(res.Found, found{Protocol: rep.Protocol, N: rep.N, T: rep.T, V: v})
	}
	return res, nil
}

// Verify re-runs unit 0 and requires identical report bytes, and
// re-checks every recorded violation with adversary.Recheck.
func (h *hunt) Verify(units []UnitResult) (int, []string) {
	failed, problems := rerunMatches(h, units)
	f, p := recheck(units)
	return failed + f, append(problems, p...)
}

func (h *hunt) Layers(units []UnitResult) map[string]float64 {
	m := map[string]float64{}
	var ops int
	var probe Counts
	var campaign, shrink time.Duration
	var replays, simRuns int64
	var steps int
	var rt replayTimes
	for _, u := range units {
		x, ok := u.Extra.(huntExtra)
		if !ok {
			continue
		}
		ops += u.Ops
		for k := range probe {
			probe[k] += x.probe[k]
		}
		campaign += x.campaign
		shrink += x.shrink
		replays += x.replays
		simRuns += x.simRuns
		steps += x.steps
		rt.calls += x.direct.calls
		rt.fullRun += x.direct.fullRun
		rt.validate += x.direct.validate
		rt.conforms += x.direct.conforms
		rt.extract += x.direct.extract
		rt.ck += x.direct.ck
	}
	seamLayers(m, probe, ops)
	m["sim.runs"] = float64(simRuns)
	m["sim.runs_per_probe"] = ratio(float64(simRuns), float64(ops))
	m["sim.residual_ns"] = ratio(residual(int64(campaign), probe), float64(ops))
	m["campaign.replays"] = float64(replays)
	m["adversary.shrink_ns"] = ratio(float64(shrink), float64(ops))
	m["adversary.shrink_replays"] = float64(steps)
	perCall := func(d time.Duration) float64 { return ratio(float64(d), float64(rt.calls)) }
	m["sim.full_run_ns"] = perCall(rt.fullRun)
	m["omission.validate_ns"] = perCall(rt.validate)
	m["sim.conforms_ns"] = perCall(rt.conforms)
	m["adversary.extract_ns"] = perCall(rt.extract)
	m["adversary.check_ns"] = perCall(rt.ck)
	// A serial campaign runs its probes as runner worker 0's jobs.
	m["runner.busy_frac"] = ratio(float64(h.rec.Counter("runner_worker_0_busy_ns").Value()), float64(campaign))
	m["runner.jobs"] = float64(h.rec.Counter("runner_jobs").Value())
	return m
}

// seamLayers fills the adversary and protocols metrics from aggregate
// counter deltas, per operation. Seam times include the timing's own
// cost; trace.overhead_s measures what tracing adds in total.
func seamLayers(m map[string]float64, d Counts, ops int) {
	per := func(v int64) float64 { return ratio(float64(v), float64(ops)) }
	m["adversary.build_ns"] = per(d[cBuildNS])
	m["adversary.build_calls"] = per(d[cBuildCalls])
	m["adversary.omit_ns"] = per(d[cOmitNS])
	m["adversary.omit_calls"] = per(d[cOmitCalls])
	m["adversary.omit_frac"] = ratio(float64(d[cOmitted]), float64(d[cOmitCalls]))
	m["protocols.step_ns"] = per(d[cStepNS])
	m["protocols.step_calls"] = per(d[cStepCalls])
	m["protocols.msgs"] = per(d[cMsgs])
	m["protocols.payload_bytes"] = per(d[cPayloadBytes])
}

// residual is the part of a probe-loop span spent outside the adversary
// and protocol seams: the engine's round loop and the property checks.
func residual(span int64, d Counts) float64 {
	return float64(span - d[cBuildNS] - d[cOmitNS] - d[cStepNS])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
