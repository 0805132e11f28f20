package adversary

import (
	"fmt"

	"expensive/internal/msg"
	"expensive/internal/omission"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// Horizon resolves a probe execution length: horizon when positive, else
// the default of rounds+2 that campaigns, the fuzzer and the shrinker
// share.
func Horizon(horizon, rounds int) int {
	if horizon > 0 {
		return horizon
	}
	return rounds + 2
}

// RunVerified runs one configuration at sim.RecordFull and holds the trace
// to the evidence standard before it verdicts it: the five Appendix A.1.6
// execution guarantees (omission.Validate), then conformance of every
// honest machine to its recorded inputs (sim.Conforms, skipping the
// processes whose machines the plan replaced), then CheckExecution. A
// failure of either check is an engine or protocol-determinism bug, never
// a protocol violation, and comes back as an error. The violation, if
// any, carries the proposals.
func RunVerified(env Env, proposals []msg.Value, plan sim.FaultPlan, validity ValidityFunc, compat AgreementFunc) (*sim.Execution, *Violation, error) {
	cfg := sim.Config{N: env.N, T: env.T, Proposals: proposals, MaxRounds: env.Horizon, Recording: sim.RecordFull}
	e, err := sim.Run(cfg, env.Factory, plan)
	if err != nil {
		return nil, nil, err
	}
	//balint:allow leantier RunVerified records at sim.RecordFull above
	if err := omission.Validate(e); err != nil {
		return nil, nil, fmt.Errorf("invalid trace: %w", err)
	}
	//balint:allow leantier RunVerified records at sim.RecordFull above
	if err := sim.Conforms(e, env.Factory, ByzantineSkip(plan, e.Faulty)); err != nil {
		return nil, nil, fmt.Errorf("conformance: %w", err)
	}
	v := CheckExecution(e, proposals, validity, compat)
	if v != nil {
		v.Proposals = proposals
	}
	return e, v, nil
}

// Probe runs one configuration at the requested tier and returns the
// execution of that run plus its violation, if any. build is called once
// per run, since Byzantine machines are stateful. At sim.RecordFull the
// run itself goes through RunVerified. At sim.RecordDecisions only a
// violating run pays for evidence: the configuration is replayed through
// RunVerified, and the replay must reproduce the lean verdict (kind, both
// witnesses and decisions), or the engine or protocol is nondeterministic.
// The violation carries the proposals and, when the plan is replayable,
// the ExplicitPlan extracted from the full trace.
func Probe(env Env, proposals []msg.Value, build func() sim.FaultPlan, rec sim.Recording, validity ValidityFunc, compat AgreementFunc) (*sim.Execution, *Violation, error) {
	if rec == sim.RecordFull {
		plan := build()
		e, v, err := RunVerified(env, proposals, plan, validity, compat)
		if v != nil {
			attachPlan(v, e, plan)
		}
		return e, v, err
	}
	cfg := sim.Config{N: env.N, T: env.T, Proposals: proposals, MaxRounds: env.Horizon, Recording: rec}
	e, err := sim.Run(cfg, env.Factory, build())
	if err != nil {
		return nil, nil, err
	}
	lean := CheckExecution(e, proposals, validity, compat)
	if lean == nil {
		return e, nil, nil
	}
	plan := build()
	full, v, err := RunVerified(env, proposals, plan, validity, compat)
	if err != nil {
		return nil, nil, fmt.Errorf("full replay: %w", err)
	}
	if !sameVerdict(v, lean) {
		return nil, nil, fmt.Errorf("full replay does not reproduce the lean probe's %s violation — engine or protocol nondeterminism", lean.Kind)
	}
	attachPlan(v, full, plan)
	return e, v, nil
}

// attachPlan materializes the plan a full trace exercised for replay and
// shrinking. Foreign Byzantine machines are the only non-replayable case;
// the violation is still reported, just without a plan.
func attachPlan(v *Violation, e *sim.Execution, plan sim.FaultPlan) {
	if ep, err := Extract(e, plan); err == nil {
		v.Plan = ep
	}
}

// sameVerdict reports whether got is the violation want records: the same
// kind, witnesses and decisions.
func sameVerdict(got, want *Violation) bool {
	return got != nil && got.Kind == want.Kind && got.Witness1 == want.Witness1 &&
		got.Witness2 == want.Witness2 && got.D1 == want.D1 && got.D2 == want.D2
}

// ByzantineSkip returns the processes whose machines the plan replaced —
// the set sim.Conforms must skip, since no honest machine produced their
// behavior.
func ByzantineSkip(plan sim.FaultPlan, faulty proc.Set) proc.Set {
	skip := proc.Set{}
	for _, id := range faulty.Members() {
		if plan.Byzantine(id) != nil {
			skip = skip.Add(id)
		}
	}
	return skip
}
