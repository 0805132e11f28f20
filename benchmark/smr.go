package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"expensive/internal/proc"
	"expensive/internal/protocols/phaseking"
	"expensive/internal/sim"
	"expensive/internal/smr"
	"expensive/internal/transport"
	"expensive/internal/transport/chaosnet"
	"expensive/internal/transport/memnet"
)

const smrN, smrT = 9, 2

func smrChaos() Workload {
	return Workload{Name: "smr-chaos", MinUnits: 2000, Setup: newSMR}
}

// smrRun is one closed-loop client on a phase-king LiveLog: each unit
// submits a unanimous command at every replica and commits one slot
// over a fresh memnet mesh wrapped by the chaosnet "drop" profile.
type smrRun struct {
	log       *smr.LiveLog
	chaosSeed int64
	tr        *Tracer
	profile   chaosnet.Profile

	// Per-slot seam timings of the traced pass, read by Unit.
	meshStart, meshEnd, closeStart, closeEnd time.Time
}

// smrExtra is what a traced commit measured.
type smrExtra struct {
	mesh, cluster time.Duration
	counts        Counts
}

// command is slot i's unanimous command.
func command(i int) smr.Command { return smr.Command(strconv.Itoa(i % 2)) }

func newSMR(seed int64, tr *Tracer) (Engine, error) {
	profile, ok := chaosnet.ByID("drop")
	if !ok {
		return nil, fmt.Errorf("chaos profile drop not found")
	}
	r := &smrRun{chaosSeed: derive(seed, "smr-chaos"), tr: tr, profile: profile}
	log, err := smr.NewLive(smr.LiveConfig{
		N:    smrN,
		T:    smrT,
		NoOp: "0",
		Protocol: func(int) (sim.Factory, int) {
			f := phaseking.New(phaseking.Config{N: smrN, T: smrT})
			if tr != nil {
				f = TraceFactory(tr, f)
			}
			return f, phaseking.RoundBound(smrT)
		},
		Mesh:   r.mesh,
		Faulty: func(slot int) proc.Set { return r.plan(slot).Budget() },
	})
	if err != nil {
		return nil, err
	}
	r.log = log
	return r, nil
}

func (r *smrRun) plan(slot int) *chaosnet.Plan {
	return r.profile.Build(r.chaosSeed+int64(slot), chaosnet.Env{N: smrN, T: smrT})
}

// mesh builds a slot's mesh; traced, endpoint decorators sit above and
// below chaosnet.Wrap and the teardown is timed.
func (r *smrRun) mesh(slot int) ([]transport.Endpoint, func() error, error) {
	if r.tr == nil {
		eps := chaosnet.Wrap(memnet.New(smrN, nil).Endpoints(), r.plan(slot), nil)
		return eps, eps[0].Close, nil
	}
	r.meshStart = time.Now()
	eps := TraceEndpoints(r.tr, memnet.New(smrN, nil).Endpoints(), false)
	eps = TraceEndpoints(r.tr, chaosnet.Wrap(eps, r.plan(slot), nil), true)
	r.meshEnd = time.Now()
	return eps, func() error {
		r.closeStart = time.Now()
		err := eps[0].Close()
		r.closeEnd = time.Now()
		return err
	}, nil
}

func (r *smrRun) Unit(i int, root SpanRef) (UnitResult, error) {
	cmd := command(i)
	for p := 0; p < smrN; p++ {
		if err := r.log.Submit(proc.ID(p), cmd); err != nil {
			return UnitResult{Index: i, Ops: 1}, err
		}
	}
	before := r.tr.Counts()
	start := time.Now()
	e, err := r.log.CommitSlot()
	wall := time.Since(start)
	if err != nil {
		return UnitResult{Index: i, Ops: 1, Wall: wall}, err
	}
	out, err := json.Marshal(e)
	if err != nil {
		return UnitResult{Index: i, Ops: 1, Wall: wall}, err
	}
	res := UnitResult{
		Index:     i,
		Ops:       1,
		Wall:      wall,
		Digest:    sha256.Sum256(out),
		MsgsPerN2: float64(e.Messages) / float64(smrN*smrN),
	}
	if r.tr != nil {
		root.Interval("smr.mesh", r.meshStart, r.meshEnd)
		root.Interval("smr.cluster", r.meshEnd, r.closeStart)
		root.Interval("smr.close", r.closeStart, r.closeEnd)
		res.Extra = smrExtra{
			mesh:    r.meshEnd.Sub(r.meshStart),
			cluster: r.closeStart.Sub(r.meshEnd),
			counts:  r.tr.Counts().Sub(before),
		}
	}
	return res, nil
}

// Verify requires every slot to have committed its unanimous command in
// order and the safety monitor to be silent.
func (r *smrRun) Verify(units []UnitResult) (int, []string) {
	var failed int
	var problems []string
	entries := r.log.Entries()
	for k, u := range units {
		if k >= len(entries) || entries[k].Slot != u.Index || entries[k].Command != command(u.Index) {
			problems = append(problems, fmt.Sprintf("slot %d did not commit its unanimous command %q", u.Index, command(u.Index)))
			failed++
		}
	}
	for _, d := range r.log.Divergences() {
		problems = append(problems, fmt.Sprintf("slot %d diverged: %s", d.Slot, d.Detail))
		failed++
	}
	return failed, problems
}

func (r *smrRun) Layers(units []UnitResult) map[string]float64 {
	m := map[string]float64{}
	var d Counts
	var mesh, cluster time.Duration
	var msgs float64
	for _, u := range units {
		x, ok := u.Extra.(smrExtra)
		if !ok {
			continue
		}
		for k := range d {
			d[k] += x.counts[k]
		}
		mesh += x.mesh
		cluster += x.cluster
		msgs += u.MsgsPerN2 * smrN * smrN
	}
	n := float64(len(units))
	per := func(v int64) float64 { return ratio(float64(v), n) }
	seamLayers(m, d, len(units))
	m["transport.frames"] = per(d[cInnerFrames])
	m["transport.bytes"] = per(d[cInnerBytes])
	m["transport.send_ns"] = per(d[cOuterSendNS])
	m["transport.recv_wait_ns"] = per(d[cInnerRecvNS])
	// Every frame passes one outer and one inner Send and Recv (the drop
	// profile neither duplicates nor withholds frames), so what the outer
	// decorators timed beyond the inner ones is chaosnet's own work (fault
	// decisions, checksums) plus the inner decorators' timing.
	m["chaosnet.overhead_ns"] = per(d[cOuterSendNS] + d[cOuterRecvNS] - d[cInnerSendNS] - d[cInnerRecvNS])
	m["chaosnet.drop_frac"] = 1 - ratio(float64(d[cInnerPayloads]), float64(d[cOuterPayloads]))
	m["smr.mesh_ns"] = per(int64(mesh))
	m["smr.cluster_ns"] = per(int64(cluster))
	m["smr.msgs_per_slot"] = ratio(msgs, n)
	return m
}
