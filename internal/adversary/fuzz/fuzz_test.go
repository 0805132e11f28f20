package fuzz

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"expensive/internal/adversary"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/protocols/floodset"
	"expensive/internal/sim"
)

// floodsetFuzzer is the canonical hunt target: FloodSet at t = n-1,
// seeded with the blind random-send-omission strategy the fuzzer is
// benchmarked against. The split it must find is the E10 withholding
// attack, which blind random sweeps essentially never produce at n >= 4.
func floodsetFuzzer(n, t, budget, parallelism int) *Fuzzer {
	return &Fuzzer{
		Protocol: "floodset",
		Factory:  floodset.New(floodset.Config{N: n, T: t}),
		Rounds:   floodset.RoundBound(t),
		N:        n,
		T:        t,
		Seed:     adversary.RandomSendOmission(40),
		Budget:   budget,
		Validity: adversary.WeakValidity,
		New: func(n2, t2 int) (sim.Factory, int, error) {
			return floodset.New(floodset.Config{N: n2, T: t2}), floodset.RoundBound(t2), nil
		},
		Parallelism: parallelism,
	}
}

// TestFuzzerFindsAndShrinksFloodSetSplit is the subsystem's acceptance
// path: coverage-guided mutation reaches the FloodSet agreement split at
// t = n-1 within budget, the violation shrinks to a minimal plan, and the
// certificate survives independent re-checking — while the blind sweep of
// the same seed strategy over the same budget finds nothing (pinned by
// the bench comparison in scripts/bench.sh).
func TestFuzzerFindsAndShrinksFloodSetSplit(t *testing.T) {
	f := floodsetFuzzer(4, 3, 2048, 0)
	f.Shrink = true
	f.StopOnViolation = true
	f.MaxViolations = 3
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Broken() {
		t.Fatalf("no violation within %d probes (corpus %d)", rep.Probes, rep.CorpusSize)
	}
	if rep.FirstViolationProbe <= 0 || rep.FirstViolationProbe > rep.Probes {
		t.Fatalf("first violation probe %d outside 1..%d", rep.FirstViolationProbe, rep.Probes)
	}
	v := rep.Violations[0]
	if v.Kind != "agreement" {
		t.Fatalf("expected an agreement split, got %v", v)
	}
	if v.Plan == nil {
		t.Fatal("violation carries no replayable plan")
	}
	if v.Shrunk == nil {
		t.Fatal("violation was not shrunk")
	}
	// The shrinker is 1-minimal, not globally minimal: a fuzz-found split
	// may genuinely need two cooperating withholders. It must never grow.
	if v.Shrunk.FaultyAfter > v.Shrunk.FaultyBefore || v.Shrunk.OmitAfter > v.Shrunk.OmitBefore {
		t.Errorf("shrink grew the plan: %v", v.Shrunk)
	}
	if err := adversary.Recheck(v, f.ShrinkOptions()); err != nil {
		t.Fatalf("certificate failed independent recheck: %v", err)
	}
}

// TestFuzzerParallelDeterminism is the repo-wide invariant applied to the
// fuzzer: the JSON encodings of both the report and the grown corpus are
// byte-identical at parallelism 1 and 8 — generation batching makes
// corpus growth a pure function of the fuzzer's inputs.
func TestFuzzerParallelDeterminism(t *testing.T) {
	encode := func(parallelism int) (report, corpus []byte) {
		f := floodsetFuzzer(4, 3, 768, parallelism)
		f.Corpus = NewCorpus("floodset", 4, 3)
		rep, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		report, err = json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		corpus, err = json.MarshalIndent(f.Corpus, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return report, corpus
	}
	serialRep, serialCorpus := encode(1)
	parallelRep, parallelCorpus := encode(8)
	if !bytes.Equal(serialRep, parallelRep) {
		t.Errorf("fuzz reports differ between parallelism levels:\nserial:\n%s\nparallel:\n%s", serialRep, parallelRep)
	}
	if !bytes.Equal(serialCorpus, parallelCorpus) {
		t.Error("fuzz corpora differ between parallelism levels")
	}
}

// TestFuzzerCorpusRoundTripAndResume pins the persistence path: a saved
// corpus reloads byte-identically, resumes a fuzzer without a seed
// strategy, and refuses targets it was not grown against.
func TestFuzzerCorpusRoundTripAndResume(t *testing.T) {
	f := floodsetFuzzer(4, 3, 128, 1)
	f.Corpus = NewCorpus("floodset", 4, 3)
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Corpus.Size() == 0 {
		t.Fatal("run grew no corpus")
	}

	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := f.Corpus.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(f.Corpus)
	got, _ := json.Marshal(loaded)
	if !bytes.Equal(want, got) {
		t.Fatal("corpus did not round-trip through Save/Load")
	}

	// Resume: no seed strategy, population from the loaded corpus.
	resumed := floodsetFuzzer(4, 3, 64, 1)
	resumed.Seed = adversary.Strategy{}
	resumed.Corpus = loaded
	rep, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorpusLoaded != loaded.Size()-rep.NewCoverage {
		t.Errorf("CorpusLoaded = %d, want %d (final %d - new %d)",
			rep.CorpusLoaded, loaded.Size()-rep.NewCoverage, loaded.Size(), rep.NewCoverage)
	}
	if rep.Probes != 64 {
		t.Errorf("resumed run executed %d probes, want 64", rep.Probes)
	}
	if rep.Generations == 0 {
		t.Error("resumed run processed no generations")
	}

	// A corpus grown against a different target is refused.
	foreign := floodsetFuzzer(5, 4, 64, 1)
	foreign.Corpus = loaded
	if _, err := foreign.Run(); err == nil {
		t.Error("expected a target-mismatch error for a foreign corpus")
	}
}

// TestFuzzerValidation rejects malformed fuzzers.
func TestFuzzerValidation(t *testing.T) {
	cases := []func(f *Fuzzer){
		func(f *Fuzzer) { f.Factory = nil },
		func(f *Fuzzer) { f.Rounds = 0 },
		func(f *Fuzzer) { f.T = 0 },
		func(f *Fuzzer) { f.Budget = 0 },
		func(f *Fuzzer) { f.Seed = adversary.Strategy{} }, // no strategy, no corpus
	}
	for i, breakIt := range cases {
		f := floodsetFuzzer(4, 3, 64, 1)
		breakIt(f)
		if _, err := f.Run(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestCoverageTierIndependence pins the coverage hash across recording
// tiers: the lean probe and the full replay of one configuration must
// hash identically, or violating corpus entries would drift from their
// evidence replays.
func TestCoverageTierIndependence(t *testing.T) {
	n, tf := 5, 2
	factory := floodset.New(floodset.Config{N: n, T: tf})
	plan := adversary.ExplicitPlan{
		Faulty: []proc.ID{0, 2},
		SendOmit: []msg.Key{
			{Sender: 0, Receiver: 1, Round: 1},
			{Sender: 0, Receiver: 3, Round: 2},
			{Sender: 2, Receiver: 4, Round: 1},
		},
		ReceiveOmit: []msg.Key{{Sender: 1, Receiver: 2, Round: 2}},
	}
	proposals := []msg.Value{msg.Zero, msg.One, msg.One, msg.Zero, msg.One}
	env := adversary.Env{N: n, T: tf, Rounds: floodset.RoundBound(tf), Horizon: 5, Factory: factory}
	run := func(rec sim.Recording) uint64 {
		cfg := sim.Config{N: n, T: tf, Proposals: proposals, MaxRounds: 5, Recording: rec}
		e, err := sim.Run(cfg, factory, plan.Plan(env))
		if err != nil {
			t.Fatal(err)
		}
		return coverage(e)
	}
	if lean, full := run(sim.RecordDecisions), run(sim.RecordFull); lean != full {
		t.Fatalf("coverage hash differs between tiers: lean %x, full %x", lean, full)
	}
}

// TestMutatorInvariants hammers the operator table and checks that every
// candidate keeps the plan invariants the engine enforces — corrupted set
// within budget, omissions hanging off corrupted endpoints, canonical
// element order — and that the engine accepts the plan without a harness
// error.
func TestMutatorInvariants(t *testing.T) {
	n, tf, horizon := 5, 3, 6
	m := mutator{n: n, t: tf, horizon: horizon}
	corpus := NewCorpus("floodset", n, tf)
	corpus.add(Entry{
		Parent: -1,
		Op:     "seed",
		Plan: adversary.ExplicitPlan{
			Faulty:   []proc.ID{1},
			SendOmit: []msg.Key{{Sender: 1, Receiver: 0, Round: 1}},
		},
		Proposals: []msg.Value{msg.Zero, msg.One, msg.One, msg.Zero, msg.One},
	})
	factory := floodset.New(floodset.Config{N: n, T: tf})
	env := adversary.Env{N: n, T: tf, Rounds: floodset.RoundBound(tf), Horizon: horizon, Factory: factory}

	for i := 0; i < 600; i++ {
		c := m.mutate(adversary.Stream(42, string(rune(i))), corpus)
		p := &c.Plan
		if len(p.Faulty) > tf {
			t.Fatalf("op %s: %d faulty > t=%d", c.Op, len(p.Faulty), tf)
		}
		if !slices.IsSorted(p.Faulty) {
			t.Fatalf("op %s: faulty set not sorted: %v", c.Op, p.Faulty)
		}
		fset := proc.NewSet(p.Faulty...)
		for _, k := range p.SendOmit {
			if !fset.Contains(k.Sender) || k.Round < 1 || k.Round > horizon {
				t.Fatalf("op %s: invalid send-omit %v (faulty %v)", c.Op, k, p.Faulty)
			}
		}
		for _, k := range p.ReceiveOmit {
			if !fset.Contains(k.Receiver) || k.Round < 1 || k.Round > horizon {
				t.Fatalf("op %s: invalid receive-omit %v (faulty %v)", c.Op, k, p.Faulty)
			}
		}
		for _, e := range p.Byzantine {
			if !fset.Contains(e.ID) {
				t.Fatalf("op %s: byzantine entry for correct %s", c.Op, e.ID)
			}
		}
		if len(c.Proposals) != n {
			t.Fatalf("op %s: %d proposals, want %d", c.Op, len(c.Proposals), n)
		}
		// Every tenth candidate is actually executed: normalize must make
		// plans the engine never rejects.
		if i%10 == 0 {
			cfg := sim.Config{N: n, T: tf, Proposals: c.Proposals, MaxRounds: horizon, Recording: sim.RecordDecisions}
			if _, err := sim.Run(cfg, factory, c.Plan.Plan(env)); err != nil {
				t.Fatalf("op %s: engine rejected normalized plan: %v", c.Op, err)
			}
		}
		// Feed some candidates back so later mutations see mixed lineage.
		if i%7 == 0 {
			corpus.add(Entry{Parent: c.Parent, Op: c.Op, Plan: c.Plan, Proposals: c.Proposals})
		}
	}
}

// TestFuzzerCorpusConcurrencyRace drives several parallel fuzzers at once
// — shared engine scratch pool, per-fuzzer corpora, full worker fan-out —
// so `go test -race` patrols the corpus handling and the generation
// barrier for data races (the CI bench job runs exactly this test under
// -race).
func TestFuzzerCorpusConcurrencyRace(t *testing.T) {
	var wg sync.WaitGroup
	reports := make([]*Report, 4)
	errs := make([]error, 4)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := floodsetFuzzer(4, 3, 256, 4)
			f.Corpus = NewCorpus("floodset", 4, 3)
			reports[i], errs[i] = f.Run()
		}(i)
	}
	wg.Wait()
	want, _ := json.Marshal(reports[0])
	for i := 1; i < len(reports); i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		got, _ := json.Marshal(reports[i])
		if !bytes.Equal(want, got) {
			t.Errorf("concurrent fuzzer %d diverged from fuzzer 0", i)
		}
	}
}

// buildCountMachine decides in round 1 and sends nothing. The first n
// machines its factory builds split (process 0 decides "0", the rest "1");
// every later one decides "1". A lean probe over the first n builds
// therefore violates Agreement, and its full replay does not.
type buildCountMachine struct {
	d       msg.Value
	stepped bool
}

func (m *buildCountMachine) Init() []sim.Outgoing { return nil }
func (m *buildCountMachine) Step(int, []msg.Message) []sim.Outgoing {
	m.stepped = true
	return nil
}
func (m *buildCountMachine) Decision() (msg.Value, bool) { return m.d, m.stepped }
func (m *buildCountMachine) Quiescent() bool             { return true }

func buildCountFactory(n int) sim.Factory {
	var mu sync.Mutex
	builds := 0
	return func(id proc.ID, _ msg.Value) sim.Machine {
		mu.Lock()
		defer mu.Unlock()
		builds++
		d := msg.Value("1")
		if builds <= n && id == 0 {
			d = "0"
		}
		return &buildCountMachine{d: d}
	}
}

// TestFullReplayNondeterminismGuard: when the full replay of a violating
// lean probe does not reproduce the lean verdict, a lean campaign and a
// fuzz candidate probe both fail with the nondeterminism error instead of
// reporting a violation the evidence does not back.
func TestFullReplayNondeterminismGuard(t *testing.T) {
	const n, tf, rounds = 3, 1, 2
	const want = "full replay does not reproduce the lean probe's agreement violation"
	noFaults := adversary.Strategy{Name: "none", Build: func(int64, adversary.Env) sim.FaultPlan { return sim.NoFaults{} }}
	c := &adversary.Campaign{
		Protocol: "build-count", Factory: buildCountFactory(n), Rounds: rounds, N: n, T: tf,
		Strategy: noFaults, Seeds: adversary.SeedRange{From: 0, To: 1}, Parallelism: 1,
	}
	if _, err := c.Run(); err == nil || !strings.HasPrefix(err.Error(), "seed 0: "+want) {
		t.Errorf("lean campaign: got %v, want %q", err, "seed 0: "+want)
	}
	f := &Fuzzer{
		Protocol: "build-count", Factory: buildCountFactory(n), Rounds: rounds, N: n, T: tf,
		Seed: noFaults, Budget: 1,
	}
	_, err := f.Prober().Candidate(&Candidate{Proposals: []msg.Value{"0", "1", "1"}, Parent: -1, Op: "test"})
	if err == nil || !strings.HasPrefix(err.Error(), "mutant (test of entry -1): "+want) {
		t.Errorf("fuzz candidate: got %v, want %q", err, "mutant (test of entry -1): "+want)
	}
}
