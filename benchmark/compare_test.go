package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestJudge(t *testing.T) {
	higher := MetricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	pair := func(a, b []float64) [][2]float64 {
		var p [][2]float64
		for i := range a {
			p = append(p, [2]float64{a[i], b[i]})
		}
		return p
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "improved"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "worse"},
		{[]float64{99, 100, 101, 98, 100, 102, 100, 99, 101, 100}, "unresolved"},
	}
	for _, c := range cases {
		if v := judge(higher, base, c.b, pair(base, c.b)); v.Verdict != c.want {
			t.Errorf("B=%v: verdict %s (%s), want %s", c.b, v.Verdict, v.Reason, c.want)
		}
	}
	// Lower is better: the same shift reads the other way.
	lower := MetricDef{Name: "unit_p50_ms", Better: "lower", Bound: 0.1}
	b := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if v := judge(lower, base, b, pair(base, b)); v.Verdict != "improved" {
		t.Errorf("lower-is-better drop: verdict %s, want improved", v.Verdict)
	}
	// A spread wider than the bound leaves a shift unresolved.
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	b = []float64{50, 130, 60, 120, 70, 110, 80, 100, 90, 90}
	if v := judge(higher, noisy, b, pair(noisy, b)); v.Verdict != "unresolved" {
		t.Errorf("noisy base: verdict %s (%s), want unresolved", v.Verdict, v.Reason)
	}
}

// result builds an untraced result of one seed that started at minute
// start, with one metric.
func result(seed int64, start int, metric string, v float64) *Result {
	return &Result{
		Workload: "w",
		Env:      Env{Seed: seed, Start: time.Date(2026, 1, 1, 0, start, 0, 0, time.UTC)},
		Metrics:  []Metric{{Name: metric, Value: v}},
	}
}

func TestValuesPairsRepeatedSeedsInOrder(t *testing.T) {
	var as, bs []*Result
	for k := 0; k < 3; k++ {
		as = append(as, result(1, k, "m", float64(k+1)))
		bs = append(bs, result(1, k, "m", float64(10*(k+1))))
	}
	as = append(as, result(2, 3, "m", 4))
	bs = append(bs, result(2, 3, "m", 40))
	_, _, pairs := values(as, bs, "m", false)
	want := [][2]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs %v, want %v", pairs, want)
	}
	// Without a shared seed, runs pair in file order unless seedOnly.
	other := []*Result{result(7, 0, "m", 70), result(8, 1, "m", 80)}
	if _, _, p := values(as, other, "m", false); !reflect.DeepEqual(p, [][2]float64{{1, 70}, {2, 80}}) {
		t.Errorf("file-order pairs %v", p)
	}
	if _, _, p := values(as, other, "m", true); len(p) != 0 {
		t.Errorf("seed-only pairs %v, want none", p)
	}
}

func TestInterleaved(t *testing.T) {
	var as, bs, later []*Result
	for k := 0; k < 4; k++ {
		as = append(as, result(int64(k), 2*k, "m", 1))
		bs = append(bs, result(int64(k), 2*k+1, "m", 1))
		later = append(later, result(int64(k), 10+k, "m", 1))
	}
	if !interleaved(as, bs) {
		t.Error("alternating runs read as not interleaved")
	}
	if interleaved(as, later) {
		t.Error("runs one set after the other read as interleaved")
	}
	if !interleaved(as, as) {
		t.Error("a set against itself reads as not interleaved")
	}
}

func TestJudgeExact(t *testing.T) {
	hit := MetricDef{Name: "fuzz_hit_rate", Better: "higher"}
	cases := []struct {
		pairs [][2]float64
		want  string
	}{
		{[][2]float64{{0.5, 0.5}, {0.75, 0.75}}, "unresolved"},
		{[][2]float64{{0.5, 0.5}, {0.75, 0.625}}, "worse"},
		{[][2]float64{{0.5, 0.625}, {0.75, 0.75}}, "improved"},
		{[][2]float64{{0.5, 0.625}, {0.75, 0.625}}, "worse"},
		{nil, "unresolved"},
	}
	for _, c := range cases {
		var a, b []float64
		for _, p := range c.pairs {
			a, b = append(a, p[0]), append(b, p[1])
		}
		if v := judgeExact(hit, a, b, c.pairs); v.Verdict != c.want {
			t.Errorf("pairs %v: verdict %s (%s), want %s", c.pairs, v.Verdict, v.Reason, c.want)
		}
	}
}

// A faster run set that was not interleaved with its base is left
// unresolved on timing metrics, and a drop in the exact fuzz counts at
// a shared seed still fails the comparison.
func TestCompareFiles(t *testing.T) {
	def := &Spec{
		EndToEnd: []MetricDef{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}},
		PerLayer: []MetricDef{{Name: "fuzz_hit_rate", Unit: "frac", Better: "higher"}},
	}
	write := func(name string, rs []*Result) string {
		path := filepath.Join(t.TempDir(), name)
		var buf bytes.Buffer
		for _, r := range rs {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var base, slower, lessHits []*Result
	for k := 0; k < 10; k++ {
		base = append(base, result(int64(k), 2*k, "ops_per_s", 100+float64(k%3)))
		slower = append(slower, result(int64(k), 30+k, "ops_per_s", 70+float64(k%3)))
		r := result(int64(k), 2*k+1, "ops_per_s", 100+float64(k%3))
		r.Metrics = append(r.Metrics, Metric{Name: "fuzz_hit_rate", Value: 0.5})
		lessHits = append(lessHits, r)
		base[k].Metrics = append(base[k].Metrics, Metric{Name: "fuzz_hit_rate", Value: 0.5})
	}
	lessHits[3].Metrics[1].Value = 0.375
	pa := write("a.jsonl", base)
	var out bytes.Buffer
	ok, err := compareFiles(&out, def, pa, write("b.jsonl", slower))
	if err != nil || !ok || !strings.Contains(out.String(), "unresolved: A and B ran one after the other") {
		t.Errorf("sequential slower set: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, def, pa, write("c.jsonl", lessHits))
	if err != nil || ok || !strings.Contains(out.String(), "worse: worse at 1 of 10 shared seeds") {
		t.Errorf("fewer fuzz hits: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
