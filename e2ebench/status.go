package main

import (
	"fmt"
	"time"

	"distqa/internal/gate"
	"distqa/internal/live"
)

// nodeCounters are the live.StatusMetrics counters the benchmark reads,
// summed over the cluster's nodes.
var nodeCounters = map[string]func(*live.StatusMetrics) int64{
	"forwards":         func(m *live.StatusMetrics) int64 { return m.ForwardsOut },
	"ap_sent":          func(m *live.StatusMetrics) int64 { return m.APSubtasksSent },
	"shard_pr":         func(m *live.StatusMetrics) int64 { return m.ShardPRSent },
	"mux_calls":        func(m *live.StatusMetrics) int64 { return m.MuxCalls },
	"mux_fallbacks":    func(m *live.StatusMetrics) int64 { return m.MuxFallbacks },
	"request_failures": func(m *live.StatusMetrics) int64 { return m.RequestFailures },
	"retries":          func(m *live.StatusMetrics) int64 { return m.Retries },
	"ans_hits":         func(m *live.StatusMetrics) int64 { return m.AnswerCacheHits },
	"ans_misses":       func(m *live.StatusMetrics) int64 { return m.AnswerCacheMisses },
	"pr_hits":          func(m *live.StatusMetrics) int64 { return m.PRCacheHits },
	"pr_misses":        func(m *live.StatusMetrics) int64 { return m.PRCacheMisses },
	"route_skips":      func(m *live.StatusMetrics) int64 { return m.RouteSkips },
	"route_scatters":   func(m *live.StatusMetrics) int64 { return m.RouteScatters },
}

// clusterState is what the cluster exports at one instant.
type clusterState struct {
	node counters // nodeCounters summed over the nodes
	gate counters // gateway admission counters
	// Process-wide runtime figures of the host (every node reports the same
	// process), and the index bytes the nodes hold between them.
	goroutines   int64
	heapBytes    int64
	gcPauseP99MS float64
	indexBytes   int64
}

// snapshot reads every node's status and the gateway's.
func snapshot(h *hostProc) (clusterState, error) {
	s := clusterState{node: counters{}}
	// The gateway first: its status client keeps its connection open, so the
	// gateway goroutine serving it already exists when the host's goroutines
	// are counted below, on every snapshot alike.
	gs, err := gate.FetchStatus(h.Gate, 5*time.Second)
	if err != nil {
		return s, fmt.Errorf("status of the gateway: %w", err)
	}
	s.gate = counters{
		"queued":     gs.Queued,
		"shed_queue": gs.ShedQueue,
		"shed_rate":  gs.ShedRate,
	}
	for i, addr := range h.Nodes {
		st, err := live.QueryStatus(addr, 5*time.Second)
		if err != nil {
			return s, fmt.Errorf("status of node %s: %w", addr, err)
		}
		for name, get := range nodeCounters {
			s.node[name] += get(&st.Metrics)
		}
		s.indexBytes += int64(st.IndexBytes)
		if i == 0 {
			s.goroutines = st.Metrics.Goroutines
			s.heapBytes = st.Metrics.HeapAllocBytes
			s.gcPauseP99MS = st.Metrics.GCPauseP99Ms
		}
	}
	return s, nil
}

// settleGoroutines waits up to 5s for the host's goroutine count to come
// back to baseline and returns the last count minus baseline. A count still
// above baseline is an error: the timed phases leaked goroutines.
func settleGoroutines(h *hostProc, baseline int64) (int64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The runtime figures in a status are resampled at most once a
		// second.
		time.Sleep(1100 * time.Millisecond)
		st, err := live.QueryStatus(h.Nodes[0], 5*time.Second)
		if err != nil {
			return 0, err
		}
		d := st.Metrics.Goroutines - baseline
		if d <= 0 {
			return d, nil
		}
		if time.Now().After(deadline) {
			return d, fmt.Errorf("guard: host goroutines %d, %d above the pre-phase baseline", st.Metrics.Goroutines, d)
		}
	}
}
