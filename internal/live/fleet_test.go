package live

import (
	"testing"
	"time"

	"distqa/internal/obs"
)

// TestMetricsPullSingleNode checks the non-fleet pull: one node returns its
// own registry snapshot with the counters the traffic actually produced.
func TestMetricsPullSingleNode(t *testing.T) {
	nodes := startCluster(t, 1)
	if _, err := Ask(nodes[0].Addr(), "What is the capital of France?", 0); err != nil {
		t.Fatalf("ask: %v", err)
	}
	snap, err := QueryMetricsPull(nodes[0].Addr(), 0)
	if err != nil {
		t.Fatalf("metrics pull: %v", err)
	}
	if snap.Node != nodes[0].Addr() {
		t.Errorf("snapshot node = %q, want %q", snap.Node, nodes[0].Addr())
	}
	if got, ok := snap.Value("live_questions_total", nil); !ok || got != 1 {
		t.Errorf("live_questions_total = %d (found=%v), want 1", got, ok)
	}
	hs, ok := snap.Hist("live_ask_seconds", nil)
	if !ok || hs.Count != 1 {
		t.Errorf("live_ask_seconds snapshot = %+v, want 1 observation", hs)
	}
	// Runtime gauges are refreshed at pull time.
	if got, ok := snap.Value("go_goroutines", nil); !ok || got <= 0 {
		t.Errorf("go_goroutines = %d (found=%v), want > 0", got, ok)
	}
}

// TestFleetMetricsPullMergesCluster checks the fleet pull: one request to any
// node gathers a snapshot per cluster member, and MergeSnapshots folds them
// into correct cluster totals.
func TestFleetMetricsPullMergesCluster(t *testing.T) {
	nodes := startCluster(t, 2)
	waitForPeers(t, nodes[0], 1)
	waitForPeers(t, nodes[1], 1)
	// One distinct question per node so per-node counters are attributable.
	// Forwarding is load-driven and both nodes idle, so each ask is served
	// somewhere in the cluster; the cluster total is what we assert on.
	if _, err := Ask(nodes[0].Addr(), "What is the capital of France?", 0); err != nil {
		t.Fatalf("ask node 0: %v", err)
	}
	if _, err := Ask(nodes[1].Addr(), "Who wrote Hamlet?", 0); err != nil {
		t.Fatalf("ask node 1: %v", err)
	}
	snaps, err := QueryClusterMetrics(nodes[0].Addr(), 0)
	if err != nil {
		t.Fatalf("cluster pull: %v", err)
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	seen := map[string]bool{}
	for _, s := range snaps {
		seen[s.Node] = true
	}
	if !seen[nodes[0].Addr()] || !seen[nodes[1].Addr()] {
		t.Errorf("snapshot nodes = %v, want both cluster members", seen)
	}
	merged := obs.MergeSnapshots(snaps)
	if got, ok := merged.Value("live_questions_total", nil); !ok || got != 2 {
		t.Errorf("merged live_questions_total = %d (found=%v), want 2", got, ok)
	}
	if hs, ok := merged.Hist("live_ask_seconds", nil); !ok || hs.Count != 2 {
		t.Errorf("merged live_ask_seconds = %+v, want 2 observations", hs)
	}
}

// TestStatusCarriesSLOAndRuntime checks the status payload additions: SLO
// rows evaluated from real traffic and the runtime gauges.
func TestStatusCarriesSLOAndRuntime(t *testing.T) {
	nodes := startCluster(t, 1)
	if _, err := Ask(nodes[0].Addr(), "What is the capital of France?", 0); err != nil {
		t.Fatalf("ask: %v", err)
	}
	st, err := QueryStatus(nodes[0].Addr(), 0)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if len(st.SLO) == 0 {
		t.Fatal("status carries no SLO rows")
	}
	var ask *obs.SLOStatus
	for i := range st.SLO {
		if st.SLO[i].Op == "ask" {
			ask = &st.SLO[i]
		}
	}
	if ask == nil {
		t.Fatal("no ask SLO row")
	}
	if ask.Total < 1 {
		t.Errorf("ask SLO total = %d, want >= 1", ask.Total)
	}
	if st.Metrics.Goroutines <= 0 || st.Metrics.HeapAllocBytes <= 0 {
		t.Errorf("runtime gauges missing from status metrics: %+v", st.Metrics)
	}
	if st.Metrics.FlightRecords < 1 {
		t.Errorf("flight records = %d, want >= 1", st.Metrics.FlightRecords)
	}
}

// TestSlowDumpAndExemplarAcrossCluster is the PR-6 acceptance path: on a
// sharded cluster, a served question must surface in the entry node's flight
// recorder with a complete cross-node span tree, and the ask SLO row's
// exemplar must resolve to that same question ID.
func TestSlowDumpAndExemplarAcrossCluster(t *testing.T) {
	// Full scatter: the question's keywords are not in the corpus, so once
	// gossiped summaries are fresh a routed coordinator skips every shard
	// and no PR leg runs on the other node — whether they were fresh by the
	// time of the ask was a race this test used to lose under load.
	nodes := startShardedCluster(t, 2, 2, 1, func(_ int, cfg *NodeConfig) {
		cfg.Shard.Routing.Disabled = true
	})
	for _, n := range nodes {
		waitForCompleteShardMap(t, n)
	}
	resp, err := Ask(nodes[0].Addr(), "What is the capital of France?", 0)
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	if len(resp.Spans) == 0 {
		t.Fatal("response carries no spans")
	}
	qid := resp.Spans[0].QID

	// The node that actually ran the pipeline holds the flight record (a
	// forward moves the question); ask whichever node served it.
	servedBy := resp.ServedBy
	slow, err := QuerySlow(servedBy, 10, 0)
	if err != nil {
		t.Fatalf("slow dump: %v", err)
	}
	var rec *obs.QuestionRecord
	for i := range slow {
		if slow[i].QID == qid {
			rec = &slow[i]
		}
	}
	if rec == nil {
		t.Fatalf("question %d not in the flight recorder (%d records)", qid, len(slow))
	}
	// Complete cross-node tree: with K=2 R=1 on two nodes, one PR leg must
	// have executed on the *other* node and its span must have traveled back.
	other := nodes[1].Addr()
	if servedBy == nodes[1].Addr() {
		other = nodes[0].Addr()
	}
	crossNode := false
	for _, s := range rec.Spans {
		if s.Node == other {
			crossNode = true
		}
	}
	if !crossNode {
		t.Errorf("flight record has no span from %s; spans: %+v", other, rec.Spans)
	}

	// The exemplar in the ask SLO row resolves to the same question.
	st, err := QueryStatus(servedBy, 0)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	for _, row := range st.SLO {
		if row.Op == "ask" {
			if row.ExemplarQID != qid {
				t.Errorf("ask exemplar QID = %d, want %d", row.ExemplarQID, qid)
			}
			return
		}
	}
	t.Fatal("no ask SLO row in status")
}

// TestSlowDumpDefaultLimit checks the server-side default of 5 records.
func TestSlowDumpDefaultLimit(t *testing.T) {
	nodes := startCluster(t, 1)
	questions := []string{
		"What is the capital of France?",
		"Who wrote Hamlet?",
		"When did the war end?",
		"Where is the river?",
		"Why is the sky blue?",
		"How many planets are there?",
		"What is the largest city?",
	}
	for _, q := range questions {
		if _, err := Ask(nodes[0].Addr(), q, 0); err != nil {
			t.Fatalf("ask %q: %v", q, err)
		}
	}
	slow, err := QuerySlow(nodes[0].Addr(), 0, 0)
	if err != nil {
		t.Fatalf("slow dump: %v", err)
	}
	if len(slow) != 5 {
		t.Errorf("default slow dump returned %d records, want 5", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration > slow[i-1].Duration {
			t.Errorf("slow dump not sorted slowest-first at %d", i)
		}
	}
	for _, r := range slow {
		if len(r.Spans) == 0 {
			t.Errorf("record %d has no span tree", r.QID)
		}
		if r.Node != nodes[0].Addr() {
			t.Errorf("record %d node = %q, want %q", r.QID, r.Node, nodes[0].Addr())
		}
	}
}

// TestScrapeCarriesRuntimeGauges checks the Prometheus text exposition
// includes the Go runtime gauges (the satellite for qanode -metrics-addr).
func TestScrapeCarriesRuntimeGauges(t *testing.T) {
	nodes := startCluster(t, 1)
	text, err := QueryMetrics(nodes[0].Addr(), 0)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_p99_ns", "go_gc_cycles"} {
		if !containsMetric(text, want) {
			t.Errorf("scrape missing %s:\n%s", want, text)
		}
	}
}

func containsMetric(text, name string) bool {
	for _, line := range splitLines(text) {
		if len(line) >= len(name) && line[:len(name)] == name {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestFlightRecorderDisabled checks FlightCap < 0 turns the recorder off
// without breaking the serving path or the slow endpoint.
func TestFlightRecorderDisabled(t *testing.T) {
	node, err := StartNode(NodeConfig{
		Addr:           "127.0.0.1:0",
		Engine:         liveEngine,
		HeartbeatEvery: 50 * time.Millisecond,
		FlightCap:      -1,
	})
	if err != nil {
		t.Fatalf("start node: %v", err)
	}
	t.Cleanup(node.Close)
	if _, err := Ask(node.Addr(), "What is the capital of France?", 0); err != nil {
		t.Fatalf("ask: %v", err)
	}
	slow, err := QuerySlow(node.Addr(), 5, 0)
	if err != nil {
		t.Fatalf("slow dump: %v", err)
	}
	if len(slow) != 0 {
		t.Errorf("disabled recorder returned %d records", len(slow))
	}
}
