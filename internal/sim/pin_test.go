package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
)

// renderExecution is a canonical text rendering of everything an
// execution records at either tier: the header, then every Behavior —
// full fragments message by message, or the lean count series and
// decision record.
func renderExecution(e *sim.Execution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d t=%d faulty=%v rounds=%d quiesced=%v recording=%s\n",
		e.N, e.T, e.Faulty.Members(), e.Rounds, e.Quiesced, e.Recording)
	msgs := func(label string, ms []msg.Message) {
		fmt.Fprintf(&b, " %s[", label)
		for _, m := range ms {
			fmt.Fprintf(&b, "%d>%d@%d:%q ", m.Sender, m.Receiver, m.Round, m.Payload)
		}
		b.WriteString("]")
	}
	for _, beh := range e.Behaviors {
		fmt.Fprintf(&b, "%s proposal=%q\n", beh.ID, beh.Proposal)
		for _, f := range beh.Fragments {
			fmt.Fprintf(&b, " r%d", f.Round)
			msgs("S", f.Sent)
			msgs("SO", f.SendOmitted)
			msgs("R", f.Received)
			msgs("RO", f.ReceiveOmitted)
			fmt.Fprintf(&b, " decided=%v:%q\n", f.Decided, f.Decision)
		}
		if l := beh.Lean; l != nil {
			fmt.Fprintf(&b, " lean S%v SO%v R%v RO%v decided=%v:%q first=%d\n",
				l.Sent, l.SendOmitted, l.Received, l.ReceiveOmitted, l.Decided, l.Decision, l.DecidedRound)
		}
	}
	return b.String()
}

// twoFacedMachine is a Byzantine replacement that tells lower IDs "a" and
// higher IDs "z" for three rounds and never decides.
type twoFacedMachine struct {
	n  int
	id proc.ID
	r  int
}

func (m *twoFacedMachine) send() []sim.Outgoing {
	var out []sim.Outgoing
	for p := proc.ID(0); p < proc.ID(m.n); p++ {
		switch {
		case p < m.id:
			out = append(out, sim.Outgoing{To: p, Payload: "a"})
		case p > m.id:
			out = append(out, sim.Outgoing{To: p, Payload: "z"})
		}
	}
	return out
}

func (m *twoFacedMachine) Init() []sim.Outgoing { return m.send() }

func (m *twoFacedMachine) Step(round int, _ []msg.Message) []sim.Outgoing {
	m.r = round
	if round >= 3 {
		return nil
	}
	return m.send()
}

func (m *twoFacedMachine) Decision() (msg.Value, bool) { return msg.NoDecision, false }
func (m *twoFacedMachine) Quiescent() bool             { return m.r >= 3 }

// flipFlopMachine breaks the decide-once contract on purpose: it decides
// "a" in round 1 and un-decides in round 2; odd IDs decide again ("b") in
// round 3. It pings its successor for three rounds.
type flipFlopMachine struct {
	n  int
	id proc.ID
	r  int
}

func (m *flipFlopMachine) ping() []sim.Outgoing {
	return []sim.Outgoing{{To: (m.id + 1) % proc.ID(m.n), Payload: "ping"}}
}

func (m *flipFlopMachine) Init() []sim.Outgoing { return m.ping() }

func (m *flipFlopMachine) Step(round int, _ []msg.Message) []sim.Outgoing {
	m.r = round
	if round >= 3 {
		return nil
	}
	return m.ping()
}

func (m *flipFlopMachine) Decision() (msg.Value, bool) {
	switch {
	case m.r == 1:
		return "a", true
	case m.r >= 3 && m.id%2 == 1:
		return "b", true
	}
	return msg.NoDecision, false
}

func (m *flipFlopMachine) Quiescent() bool { return m.r >= 3 }

// TestTracePin pins the sha256 of the canonical rendering of every
// Behavior the engine records, at both tiers, for the TestLeanMatchesFull
// plans (at a horizon past quiescence, so the early stop fires), a
// ByzantinePlan run, and a machine that decides in round 1 and un-decides
// in round 2. A change to the round loop that moves any recorded byte —
// a message, a count, a decision, the lean DecidedRound stamp — turns it
// red.
func TestTracePin(t *testing.T) {
	n, tf, rounds := 5, 2, 4
	proposals := []msg.Value{"b", "a", "c", "a", "b"}
	flood := floodFactory(n, rounds)
	// Cases without a factory run the flood machine over the proposals
	// above; full and lean are the pinned hashes of the two tiers.
	type pinCase struct {
		name       string
		plan       func() sim.FaultPlan
		full, lean string
		n, t       int
		horizon    int
		factory    sim.Factory
		props      []msg.Value
		validate   func(t *testing.T, full, lean *sim.Execution)
	}
	cases := []pinCase{
		{name: "no-faults", plan: func() sim.FaultPlan { return sim.NoFaults{} },
			full: "037dd2194adb47345746f704e4caa9ec7d67669ff00b35a52337db07af35fd88",
			lean: "ff31585b302a34781b495a8b5af6973faec76fa62e4e1e6a335f1ac8e332589a"},
		{name: "send-omit", plan: func() sim.FaultPlan {
			return sim.OmissionPlan{
				F:      proc.NewSet(0),
				SendFn: func(m msg.Message) bool { return m.Round == 1 && m.Receiver == 1 },
			}
		}, full: "1538954221ea2f5da3d2e481249ad17d73aea1d5b7fbbdb9ff7604b986dccca5",
			lean: "8e26f0f71af0ddc41a54e5fd6c16f8c6b2c26f1aeb8a23c9e38f62c062e14380"},
		{name: "receive-omit", plan: func() sim.FaultPlan {
			return sim.OmissionPlan{
				F:         proc.NewSet(3),
				ReceiveFn: func(m msg.Message) bool { return m.Round <= 2 },
			}
		}, full: "336248df00ed7618a3603382dbf772c3505e3ad4d19de0149469f68ca87e8ee9",
			lean: "4a4e70cc2eca8bd056c59e191a1797167e7913de9f31cf056308e8914cb7e061"},
		{name: "crash", plan: func() sim.FaultPlan {
			return sim.Crash(map[proc.ID]sim.CrashSpec{2: {Round: 2, DeliverTo: proc.NewSet(0)}})
		}, full: "1a74fbb45bbba5cf1ab9bc8daac961327cc6a416206d702463399a4e3816beeb",
			lean: "cccf029c45daf30312d8ea7c14b08bbda3b8582adabb9e87c3bda8723d20702e"},
		{name: "byzantine", plan: func() sim.FaultPlan {
			return sim.ByzantinePlan{Machines: map[proc.ID]sim.Machine{
				1: &twoFacedMachine{n: n, id: 1},
				3: &twoFacedMachine{n: n, id: 3},
			}}
		}, full: "2f36f598e17e395be1844f14fdae77328217c8900517d007c1fa5caf98466e00",
			lean: "68a69f070f9dd7a2b627a52d81c79a429c18b593938a9bc7a93ee9d3c60eae90"},
		{name: "un-decide", plan: func() sim.FaultPlan { return sim.NoFaults{} },
			full: "2322a029b68bb786aceee024b69f3168efa10f8fe6a401649b78865be432ff7d",
			lean: "9c5b39f4bdeab41331b168747248eb425d20ddca5f8e7a3eeefa38c5791750c9",
			n:    4, t: 1, horizon: 5,
			factory: func(id proc.ID, _ msg.Value) sim.Machine { return &flipFlopMachine{n: 4, id: id} },
			props:   []msg.Value{"x", "x", "x", "x"},
			validate: func(t *testing.T, full, lean *sim.Execution) {
				for i := 0; i < 4; i++ {
					id := proc.ID(i)
					for _, e := range []*sim.Execution{full, lean} {
						b := e.Behavior(id)
						if got := b.DecisionRound(); got != 1 {
							t.Errorf("%s %s: DecisionRound %d, want 1 (stamped once)", e.Recording, id, got)
						}
						v, ok := b.FinalDecision()
						if want := i%2 == 1; ok != want || (ok && v != "b") {
							t.Errorf("%s %s: final decision (%q,%v), want the last round's state", e.Recording, id, v, ok)
						}
					}
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cn, ct, horizon, factory, props := n, tf, rounds+2, flood, proposals
			if c.factory != nil {
				cn, ct, horizon, factory, props = c.n, c.t, c.horizon, c.factory, c.props
			}
			fullCfg, leanCfg := tierConfigs(cn, ct, horizon, props)
			full, err := sim.Run(fullCfg, factory, c.plan())
			if err != nil {
				t.Fatal(err)
			}
			lean, err := sim.Run(leanCfg, factory, c.plan())
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range []struct {
				e    *sim.Execution
				want string
			}{{full, c.full}, {lean, c.lean}} {
				sum := sha256.Sum256([]byte(renderExecution(tier.e)))
				if got := hex.EncodeToString(sum[:]); got != tier.want {
					t.Errorf("%s trace hash %s, pinned %s\n%s", tier.e.Recording, got, tier.want, renderExecution(tier.e))
				}
			}
			if c.validate != nil {
				c.validate(t, full, lean)
			}
		})
	}
}
