package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expensive/internal/adversary"
	"expensive/internal/msg"
	"expensive/internal/proc"
	"expensive/internal/sim"
	"expensive/internal/transport"
)

// Span is one traced interval. Spans of one workload unit share a
// Trace ID; Parent is 0 for a unit's root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 18

// counter indexes the Tracer's aggregate counters: per-call seams too
// hot to record one span each (a fault decision per message, a machine
// step per process and round) are summed instead.
type counter int

const (
	cBuildNS counter = iota
	cBuildCalls
	cOmitNS
	cOmitCalls
	cOmitted
	cStepNS
	cStepCalls
	cMsgs
	cPayloadBytes
	cOuterSendNS
	cOuterRecvNS
	cOuterPayloads
	cInnerSendNS
	cInnerRecvNS
	cInnerFrames
	cInnerBytes
	cInnerPayloads
	numCounters
)

// Counts is a snapshot of the aggregate counters.
type Counts [numCounters]int64

// Sub returns c - o element-wise.
func (c Counts) Sub(o Counts) Counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// Tracer records spans in memory and sums the hot seams' counters. A nil
// *Tracer records nothing, so untraced runs share the workload code.
type Tracer struct {
	origin  time.Time
	nextID  atomic.Int64
	c       [numCounters]atomic.Int64
	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTracer starts an empty trace whose span times count from now.
func NewTracer() *Tracer {
	return &Tracer{origin: time.Now()}
}

func (t *Tracer) add(c counter, v int64) { t.c[c].Add(v) }

// Counts snapshots the aggregate counters (zero for a nil tracer).
func (t *Tracer) Counts() Counts {
	var out Counts
	if t == nil {
		return out
	}
	for i := range out {
		out[i] = t.c[i].Load()
	}
	return out
}

// SpanRef is an open span; End closes and records it.
type SpanRef struct {
	t      *Tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  time.Time
}

// Root opens the root span of one workload unit.
func (t *Tracer) Root(name string, trace int64) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{t: t, id: t.nextID.Add(1), trace: trace, name: name, start: time.Now()}
}

// Child opens a span caused by s.
func (s SpanRef) Child(name string) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	return SpanRef{t: s.t, id: s.t.nextID.Add(1), parent: s.id, trace: s.trace, name: name, start: time.Now()}
}

// End records the span and returns its duration.
func (s SpanRef) End() time.Duration {
	if s.t == nil {
		return 0
	}
	end := time.Now()
	s.t.record(s, s.start, end)
	return end.Sub(s.start)
}

// Interval records a child span of s over an interval observed
// elsewhere (the relay's unit round trips, the gap between two seams).
func (s SpanRef) Interval(name string, start, end time.Time) {
	if s.t == nil {
		return
	}
	c := s.Child(name)
	s.t.record(c, start, end)
}

func (t *Tracer) record(s SpanRef, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{
		ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
}

// Spans returns the recorded spans and the count dropped past maxSpans.
func (t *Tracer) Spans() ([]Span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

// Unattributed returns the share of root-span time that no child span
// covers: a root's self time over its duration, summed over roots.
func Unattributed(spans []Span) float64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, covered int64
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		total += s.End - s.Start
		covered += unionWithin(children[s.ID], s.Start, s.End)
	}
	if total == 0 {
		return 0
	}
	return float64(total-covered) / float64(total)
}

// unionWithin measures the union of the spans' intervals clipped to [lo, hi].
func unionWithin(spans []Span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			sum += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		sum += curB - curA
	}
	return sum
}

// WriteSpans writes the span log as JSON lines.
func (t *Tracer) WriteSpans(path string) error {
	spans, dropped := t.Spans()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TraceStrategy wraps a strategy so every Build and every fault decision
// of the plans it returns is timed. The plan wrapper forwards Specs,
// which adversary.Extract type-asserts to replay Byzantine machines.
func TraceStrategy(t *Tracer, s adversary.Strategy) adversary.Strategy {
	build := s.Build
	s.Build = func(seed int64, env adversary.Env) sim.FaultPlan {
		start := time.Now()
		p := build(seed, env)
		t.add(cBuildNS, int64(time.Since(start)))
		t.add(cBuildCalls, 1)
		return &tracedPlan{inner: p, t: t}
	}
	return s
}

type tracedPlan struct {
	inner sim.FaultPlan
	t     *Tracer
}

func (p *tracedPlan) Faulty() proc.Set                 { return p.inner.Faulty() }
func (p *tracedPlan) Byzantine(id proc.ID) sim.Machine { return p.inner.Byzantine(id) }
func (p *tracedPlan) SendOmit(m msg.Message) bool      { return p.omit(m, p.inner.SendOmit) }
func (p *tracedPlan) ReceiveOmit(m msg.Message) bool   { return p.omit(m, p.inner.ReceiveOmit) }

func (p *tracedPlan) omit(m msg.Message, decide func(msg.Message) bool) bool {
	start := time.Now()
	omit := decide(m)
	p.t.add(cOmitNS, int64(time.Since(start)))
	p.t.add(cOmitCalls, 1)
	if omit {
		p.t.add(cOmitted, 1)
	}
	return omit
}

// Specs forwards the inner plan's Byzantine machine specs (nil when it
// has none, which is what adversary.Extract sees for an unwrapped plan
// without them).
func (p *tracedPlan) Specs() []adversary.ByzEntry {
	if sp, ok := p.inner.(interface{ Specs() []adversary.ByzEntry }); ok {
		return sp.Specs()
	}
	return nil
}

// TraceFactory wraps a protocol factory so every machine's Init and Step
// is timed and its outgoing messages and payload bytes counted.
func TraceFactory(t *Tracer, f sim.Factory) sim.Factory {
	return func(id proc.ID, proposal msg.Value) sim.Machine {
		return &tracedMachine{inner: f(id, proposal), t: t}
	}
}

type tracedMachine struct {
	inner sim.Machine
	t     *Tracer
}

func (m *tracedMachine) Init() []sim.Outgoing {
	start := time.Now()
	return m.count(start, m.inner.Init())
}

func (m *tracedMachine) Step(round int, received []msg.Message) []sim.Outgoing {
	start := time.Now()
	return m.count(start, m.inner.Step(round, received))
}

func (m *tracedMachine) count(start time.Time, out []sim.Outgoing) []sim.Outgoing {
	m.t.add(cStepNS, int64(time.Since(start)))
	m.t.add(cStepCalls, 1)
	m.t.add(cMsgs, int64(len(out)))
	var b int
	for _, o := range out {
		b += len(o.Payload)
	}
	m.t.add(cPayloadBytes, int64(b))
	return out
}

func (m *tracedMachine) Decision() (msg.Value, bool) { return m.inner.Decision() }
func (m *tracedMachine) Quiescent() bool             { return m.inner.Quiescent() }

// TraceEndpoints decorates a mesh's endpoints. Outer decorators sit above
// chaosnet.Wrap and see the protocol's frames; inner ones sit below it
// and see what reaches the wire.
func TraceEndpoints(t *Tracer, eps []transport.Endpoint, outer bool) []transport.Endpoint {
	out := make([]transport.Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = &tracedEndpoint{inner: ep, t: t, outer: outer}
	}
	return out
}

type tracedEndpoint struct {
	inner transport.Endpoint
	t     *Tracer
	outer bool
}

func (e *tracedEndpoint) Send(to proc.ID, f transport.Frame) error {
	start := time.Now()
	err := e.inner.Send(to, f)
	d := int64(time.Since(start))
	if e.outer {
		e.t.add(cOuterSendNS, d)
		if f.Has {
			e.t.add(cOuterPayloads, 1)
		}
		return err
	}
	e.t.add(cInnerSendNS, d)
	e.t.add(cInnerFrames, 1)
	e.t.add(cInnerBytes, int64(len(f.Payload)))
	if f.Has {
		e.t.add(cInnerPayloads, 1)
	}
	return err
}

func (e *tracedEndpoint) Recv() (transport.Frame, error) {
	start := time.Now()
	f, err := e.inner.Recv()
	if e.outer {
		e.t.add(cOuterRecvNS, int64(time.Since(start)))
	} else {
		e.t.add(cInnerRecvNS, int64(time.Since(start)))
	}
	return f, err
}

func (e *tracedEndpoint) Close() error { return e.inner.Close() }
