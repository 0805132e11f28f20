package main

import (
	"fmt"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
)

// Workload is one benchmark input family. Setup builds the workload's
// engines from the seed; the harness times it several times, keeps the
// last engine, and drives it unit by unit.
type Workload struct {
	Name string
	// MinUnits is how many units a run completes even past its deadline,
	// so that seed-derived counts, the output digest and peak memory cover
	// a fixed amount of work.
	MinUnits int
	Setup    func(seed int64, tr *Tracer) (Engine, error)
}

// Engine runs one workload's units. Units are numbered from 0 and their
// inputs derive from (seed, index) alone, so an untraced and a traced
// engine built from one seed run identical inputs.
type Engine interface {
	// Unit runs unit i. root is the unit's root span (inert untraced).
	Unit(i int, root SpanRef) (UnitResult, error)
	// Verify checks the untraced units' outputs outside the timed region
	// and returns the number of failed operations with a reason for each
	// failing check.
	Verify(units []UnitResult) (failed int, problems []string)
	// Layers returns the engine's per-layer metrics (traced engines only)
	// over the units it ran.
	Layers(units []UnitResult) map[string]float64
}

// UnitResult is one unit's outcome.
type UnitResult struct {
	Index int
	// Ops is the probes or commits the unit completed; Wall its duration
	// as the benchmark timed it.
	Ops  int
	Wall time.Duration
	// Digest is the SHA-256 of the unit's deterministic output (JSON
	// reports, corpora, committed entries), compared across passes and
	// oracles without keeping the bytes.
	Digest [32]byte
	// Found holds the unit's recorded violations, which Verify re-checks.
	Found []found
	// MsgsPerN2 sums, over the unit's executions or slots, the
	// correct-process messages divided by n².
	MsgsPerN2 float64
	// Failed counts operations the unit itself reported as failed
	// (quarantined units, divergences).
	Failed int
	// Extra carries workload-specific values to Verify and Layers.
	Extra any
}

// found is one recorded violation with the protocol and size it was
// found against.
type found struct {
	Protocol string
	N, T     int
	V        *adversary.Violation
}

// recheck re-checks every recorded violation with adversary.Recheck
// against its protocol at the catalog's default parameters.
func recheck(units []UnitResult) (failed int, problems []string) {
	opts := map[string]adversary.ShrinkOptions{}
	for _, u := range units {
		for _, f := range u.Found {
			key := fmt.Sprintf("%s/%d/%d", f.Protocol, f.N, f.T)
			o, ok := opts[key]
			if !ok {
				spec, err := catalog.Get(f.Protocol)
				if err == nil {
					o, err = matrix.ShrinkOptionsFor(spec, catalog.DefaultParams(f.N, f.T))
				}
				if err != nil {
					problems = append(problems, fmt.Sprintf("unit %d: %v", u.Index, err))
					failed++
					continue
				}
				opts[key] = o
			}
			if err := adversary.Recheck(f.V, o); err != nil {
				problems = append(problems, fmt.Sprintf("unit %d %s n=%d seed %d: recheck: %v", u.Index, f.Protocol, f.N, f.V.Seed, err))
				failed++
			}
		}
	}
	return failed, problems
}

// rerunMatches re-runs the first unit and requires the same output.
func rerunMatches(eng Engine, units []UnitResult) (failed int, problems []string) {
	if len(units) == 0 {
		return 0, nil
	}
	first := units[0]
	again, err := eng.Unit(first.Index, SpanRef{})
	switch {
	case err != nil:
		return first.Ops, []string{fmt.Sprintf("unit %d re-run: %v", first.Index, err)}
	case again.Digest != first.Digest:
		return first.Ops, []string{fmt.Sprintf("unit %d: output differs between two runs", first.Index)}
	}
	return 0, nil
}

// workloads lists the benchmark's workloads in run order.
func workloads() []Workload {
	return []Workload{huntLean(), huntReplay(), matrixWorkload(), fuzzDist(), smrChaos()}
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// derive mixes the workload seed with a salt into an independent stream
// seed, through the same mixer the adversary uses for its own streams.
func derive(seed int64, salt string) int64 {
	return adversary.SubSeed(seed, "benchmark|"+salt)
}

// window returns the i-th seed window of width w for a seed: windows of
// one seed are contiguous, and different seeds start far apart.
func window(seed int64, salt string, i, w int) adversary.SeedRange {
	base := (derive(seed, salt) & (1<<40 - 1)) * int64(w)
	from := base + int64(i)*int64(w)
	return adversary.SeedRange{From: from, To: from + int64(w)}
}
