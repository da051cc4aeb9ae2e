package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values is not NaN")
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// Two failures in ten: p80 still lands on a success, p90 on a failure.
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, failedMS, failedMS}
	if got := percentile(vals, 80); got != 8 {
		t.Errorf("p80 = %v, want 8", got)
	}
	if got := percentile(vals, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf", got)
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestDueTimeLatency(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(300 * time.Microsecond)
	done := due.Add(4 * time.Millisecond)
	if got := dueLatencyMS(due, done, true); got != 4 {
		t.Errorf("latency from due = %v ms, want 4 (not 3.7 from the send)", got)
	}
	if got := lateMS(due, sent); got != 0.3 {
		t.Errorf("lateness = %v ms, want 0.3", got)
	}
	if got := dueLatencyMS(due, done, false); !math.IsInf(got, 1) {
		t.Errorf("failed request latency = %v, want +Inf", got)
	}
}

func TestPerAskCounterDeltas(t *testing.T) {
	before := counters{"forwards": 7, "mux_calls": 100}
	after := counters{"forwards": 10, "mux_calls": 160, "retries": 2}
	d := delta(before, after)
	want := counters{"forwards": 3, "mux_calls": 60, "retries": 2}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("delta[%s] = %d, want %d", k, d[k], v)
		}
	}
	if got := perAsk(d["mux_calls"], 20); got != 3 {
		t.Errorf("mux calls per ask = %v, want 3", got)
	}
	if got := perAsk(d["forwards"], 0); got != 0 {
		t.Errorf("per ask with no asks = %v, want 0", got)
	}
	if got := ratio(3, 12); got != 0.25 {
		t.Errorf("ratio = %v, want 0.25", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over 0 = %v, want 0", got)
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(5)), 200, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(5)), 200, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
		if a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v, past the phase", i, a[i])
		}
	}
	// 2000 expected; a Poisson count's standard deviation is ~45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 10s at 200/s", n)
	}
}

func TestOracleCheck(t *testing.T) {
	o := oracle{"q": {[]byte(`[1]`), []byte(`[2]`), []byte(`[1]`)}}
	for _, c := range []struct {
		got       string
		apWorkers int
		ok, diff  bool
	}{
		{`[1]`, 1, true, false},
		{`[2]`, 2, true, true},
		{`[2]`, 1, false, false}, // right bytes for another worker count
		{`[2]`, 0, true, true},   // worker count unknown: any entry
		{`[1]`, 3, true, false},
		{`[3]`, 0, false, false},
	} {
		var out outcome
		o.check("q", []byte(c.got), c.apWorkers, &out)
		if out.ok != c.ok || out.mismatch == c.ok || out.seqDiff != c.diff {
			t.Errorf("check(%s, %d workers) = ok %v mismatch %v seqDiff %v, want ok %v seqDiff %v",
				c.got, c.apWorkers, out.ok, out.mismatch, out.seqDiff, c.ok, c.diff)
		}
	}
	var out outcome
	o.check("unknown question", []byte(`[1]`), 0, &out)
	if out.ok || !out.mismatch {
		t.Error("an unknown question passed the oracle")
	}
}

func TestQuestionStreamAsksEveryQuestionOncePerCycle(t *testing.T) {
	qs := []string{"a", "b", "c", "d", "e"}
	s := &questionStream{rng: rand.New(rand.NewSource(3)), qs: qs}
	var cycles [][]string
	for c := 0; c < 4; c++ {
		seen := map[string]bool{}
		var order []string
		for range qs {
			q := s.next()
			if seen[q] {
				t.Fatalf("cycle %d asked %q twice", c, q)
			}
			seen[q] = true
			order = append(order, q)
		}
		cycles = append(cycles, order)
	}
	same := true
	for c := 1; c < len(cycles); c++ {
		for i := range qs {
			if cycles[c][i] != cycles[0][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("every cycle came in the same order; cycles are not reshuffled")
	}
	if qs[0] != "a" || qs[4] != "e" {
		t.Error("the stream reordered its question list")
	}
}
