package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/catalog"
	"expensive/internal/catalog/matrix"
	"expensive/internal/msg"
	"expensive/internal/sim"
)

// chaosCampaign hunts floodset with the Byzantine chaos strategy, whose
// violations carry machine specs that adversary.Extract reads through
// the plan's Specs method.
func chaosCampaign(t *testing.T, strat adversary.Strategy) *adversary.Campaign {
	t.Helper()
	spec, err := catalog.Get("floodset")
	if err != nil {
		t.Fatal(err)
	}
	c, err := matrix.CampaignFor(spec, catalog.DefaultParams(4, 1), strat, adversary.SeedRange{From: 0, To: 64})
	if err != nil {
		t.Fatal(err)
	}
	c.MaxViolations = 3
	c.Shrink = true
	return c
}

func reportBytes(t *testing.T, c *adversary.Campaign) []byte {
	t.Helper()
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// specless hides the wrapped plan's Specs method, as a wrapper that
// forgot to forward it would.
type specless struct{ sim.FaultPlan }

func TestStrategyAndFactoryWrappersKeepChaosReport(t *testing.T) {
	plain := reportBytes(t, chaosCampaign(t, adversary.Chaos()))

	tr := NewTracer()
	c := chaosCampaign(t, TraceStrategy(tr, adversary.Chaos()))
	c.Factory = TraceFactory(tr, c.Factory)
	if got := reportBytes(t, c); !bytes.Equal(got, plain) {
		t.Fatalf("traced report differs:\n%s\nvs\n%s", got, plain)
	}
	d := tr.Counts()
	if d[cBuildCalls] == 0 || d[cStepCalls] == 0 || d[cMsgs] == 0 {
		t.Fatalf("wrappers recorded nothing: %v", d)
	}

}

// Chaos plans carry Byzantine machine specs that adversary.Extract reads
// through the plan's Specs method: the traced plan must yield the same
// explicit plan, and a wrapper that dropped Specs would not.
func TestTracedPlanForwardsSpecs(t *testing.T) {
	spec, err := catalog.Get("floodset")
	if err != nil {
		t.Fatal(err)
	}
	factory, rounds, err := spec.Build(catalog.DefaultParams(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	env := adversary.Env{N: 4, T: 1, Rounds: rounds, Horizon: rounds + 2, Factory: factory}
	extract := func(plan sim.FaultPlan) ([]byte, error) {
		cfg := sim.Config{N: 4, T: 1, Proposals: []msg.Value{"0", "1", "0", "1"}, MaxRounds: env.Horizon, Recording: sim.RecordFull}
		e, err := sim.Run(cfg, factory, plan)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := adversary.Extract(e, plan)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ep)
	}
	chaos := adversary.Chaos()
	traced := TraceStrategy(NewTracer(), chaos)
	for seed := int64(0); seed < 8; seed++ {
		want, err := extract(chaos.Build(seed, env))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(want, []byte(`"byzantine"`)) {
			t.Fatalf("seed %d: chaos plan has no Byzantine specs: %s", seed, want)
		}
		got, err := extract(traced.Build(seed, env))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: traced plan extracts %s (%v), want %s", seed, got, err, want)
		}
		if lost, err := extract(specless{chaos.Build(seed, env)}); err == nil && bytes.Equal(lost, want) {
			t.Fatalf("seed %d: a plan without Specs extracts the same plan; the test cannot tell", seed)
		}
	}
}

// Every workload's traced engine (strategy, factory and endpoint
// wrappers, the dist relay) must produce the untraced engine's bytes.
func TestTracedEnginesMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			units := 1
			if w.Name == "smr-chaos" {
				units = 20
			}
			plain := runUnits(t, w, 7, nil, units)
			tr := NewTracer()
			traced := runUnits(t, w, 7, tr, units)
			for i := range plain {
				if plain[i] != traced[i] {
					t.Fatalf("unit %d: traced output differs from untraced", i)
				}
			}
			if spans, _ := tr.Spans(); len(spans) == 0 {
				t.Fatal("traced engine recorded no spans")
			}
		})
	}
}

func runUnits(t *testing.T, w Workload, seed int64, tr *Tracer, n int) [][32]byte {
	t.Helper()
	eng, err := w.Setup(seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	var out [][32]byte
	for i := 0; i < n; i++ {
		root := tr.Root("unit", int64(i))
		u, err := eng.Unit(i, root)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, u.Digest)
	}
	return out
}

func TestSeedDerivesInputs(t *testing.T) {
	if window(1, "x", 0, 2000) != window(1, "x", 0, 2000) {
		t.Fatal("one seed gave two windows")
	}
	a, b := window(1, "x", 0, 2000), window(2, "x", 0, 2000)
	if a == b {
		t.Fatal("different seeds gave the same window")
	}
	if next := window(1, "x", 1, 2000); next.From != a.To {
		t.Fatalf("window 1 starts at %d, want %d", next.From, a.To)
	}
	if window(1, "x", 0, 16) == window(1, "y", 0, 16) {
		t.Fatal("different workloads share a window")
	}
	f1, f2 := &fuzzDistRun{seed: 1}, &fuzzDistRun{seed: 2}
	if f1.job(3).Fuzz.FuzzSeed != f1.job(3).Fuzz.FuzzSeed || f1.job(3).Fuzz.FuzzSeed == f2.job(3).Fuzz.FuzzSeed || f1.job(3).Fuzz.FuzzSeed == f1.job(4).Fuzz.FuzzSeed {
		t.Fatal("fuzz master seeds do not follow the workload seed and job index")
	}
	// A different seed moves the smr chaos plans, and with them the
	// committed entries' message counts.
	smr := workloads()[4]
	a7, b7, a8 := runUnits(t, smr, 7, nil, 20), runUnits(t, smr, 7, nil, 20), runUnits(t, smr, 8, nil, 20)
	if !slices.Equal(a7, b7) {
		t.Fatal("one seed gave two smr logs")
	}
	if slices.Equal(a7, a8) {
		t.Fatal("different seeds gave the same smr log")
	}
}

func TestUnattributed(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the root
		{ID: 5, Parent: 3, Start: 25, End: 45},  // grandchild: not counted
	}
	if got, want := Unattributed(spans), 0.5; got != want {
		t.Fatalf("Unattributed = %v, want %v", got, want)
	}
}

func TestFrameKind(t *testing.T) {
	for body, want := range map[string]string{
		`{"kind":"unit","unit":{"id":3}}`: "unit",
		`{"kind":"job"}`:                  "job",
		`{"unit":1}`:                      "",
		`{"kind":"unterminated`:           "",
	} {
		if got := frameKind([]byte(body)); got != want {
			t.Errorf("frameKind(%s) = %q, want %q", body, got, want)
		}
	}
}
