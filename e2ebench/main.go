// Command e2ebench is the repository's end-to-end benchmark. It runs a
// TREC-8-like K=4/R=1 cluster of four live nodes behind a qagate gateway in
// a separate host process (./host), drives it from this process with an
// open-loop phase at a fixed rate followed by a closed-loop phase, checks
// every answer against the sequential engine, and prints one JSON result
// line. See README.md for the workloads and metrics.
//
//	e2ebench --workload cold|hot|skew --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"distqa/internal/corpus"
	"distqa/internal/index"
	"distqa/internal/live"
	"distqa/internal/qa"
	"distqa/internal/shard"
)

// workload is one traffic mix. Rates are fixed absolute numbers, never
// derived from a run's own capacity: a faster build gets the same load.
type workload struct {
	// gateway sends the timed phases through qagate over HTTP; otherwise
	// they enter node 0 over one binary mux connection.
	gateway bool
	// caches leaves the nodes' answer and PR caches on.
	caches bool
	// rate is the open-loop Poisson arrival rate, asks per second.
	rate float64
}

var workloads = map[string]workload{
	"cold": {gateway: true, caches: false, rate: 100},
	"hot":  {gateway: true, caches: true, rate: 400},
	"skew": {gateway: false, caches: false, rate: 150},
}

const (
	// clusterSize is the host's node count, and so the most AP workers an
	// ask can use.
	clusterSize = 4
	// setupRuns is how many times a run launches the host to time set-up;
	// the last launch serves the measured phases.
	setupRuns = 3
	// openShare is the part of --seconds given to the open-loop phase; the
	// closed-loop phase, whose throughput is gated, gets the rest. The
	// machine's speed wanders on a scale of tens of seconds, so the longer
	// the closed loop, the more of that it averages over.
	openShare = 0.25
	// leadIn is an open-loop spell at the workload's rate that ends the
	// warm-up, untimed. The host's first garbage collections after a busy
	// spell (start-up, the warm-up pass) mark for far longer than the ones
	// that follow at the open-loop rate, and at skew's rate one of them
	// backs node 0's queue up for seconds; the lead-in lets them pass.
	leadIn = 4 * time.Second
	// watchdog bounds a whole run.
	watchdog = 170 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "cold", "workload: cold, hot or skew")
	seed := flag.Int64("seed", 1, "seed for the question order and arrival times")
	seconds := flag.Int("seconds", 20, "measured seconds (open-loop then closed-loop phase)")
	trace := flag.Int("trace", 0, "1: add the traced run and report per-layer metrics")
	build := flag.String("build-dir", ".bench_build", "directory holding bin/host; spans are written under it")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: want --workload cold|hot|skew, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded", watchdog)
		os.Exit(3)
	})
	b := &bench{
		name: *name, w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, build: *build, clients: runtime.NumCPU(), start: time.Now(),
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run.
type bench struct {
	name    string
	w       workload
	seed    int64
	dur     time.Duration
	traced  bool
	build   string
	clients int // client connections and closed-loop clients: the CPU count

	start  time.Time
	oracle oracle
	qs     []string // the workload's questions in seeded order
}

func (b *bench) run() (*result, error) {
	b.makeOracle()
	b.logf("oracle ready for %d questions", len(b.qs))
	host, setups, err := b.setUp()
	if err != nil {
		return nil, err
	}
	defer host.stop()
	b.logf("host set up %d times: %.3v s", len(setups), setups)

	pool := live.NewPool(live.PoolConfig{})
	defer pool.Close()
	// One mux connection per node; no in-flight cap of our own, so the skew
	// workload's open loop can pile asks onto node 0 without client waiting.
	mux := live.NewMuxTransport(live.MuxConfig{InFlight: 1 << 20}, pool)
	defer mux.Close()
	httpClient := newHTTPClient(b.clients)
	defer httpClient.CloseIdleConnections()
	gw := &httpAsker{client: httpClient, url: host.Gate, oracle: b.oracle}
	var timed asker = gw
	if !b.w.gateway {
		timed = &muxAsker{mux: mux, addr: host.Nodes[0], oracle: b.oracle}
	}

	if err := b.warmUp(host, mux, timed); err != nil {
		return nil, err
	}
	b.logf("warmed up")

	// Counters before the timed phases. The runtime sample in a node status
	// is refreshed at most once a second, so settle first.
	time.Sleep(1100 * time.Millisecond)
	before, err := snapshot(host)
	if err != nil {
		return nil, err
	}
	hostCPU0, err := cpuTicks(host.pid())
	if err != nil {
		return nil, err
	}
	selfCPU0 := selfCPU()
	steal0, ticks0, err := machineTicks()
	if err != nil {
		return nil, err
	}

	open, closed := b.timedPhases(timed)
	b.logf("timed phases done: %d open-loop and %d closed-loop asks", open.tally.attempted, closed.tally.attempted)

	hostCPU1, err := cpuTicks(host.pid())
	if err != nil {
		return nil, err
	}
	selfCPU1 := selfCPU()
	steal1, ticks1, err := machineTicks()
	if err != nil {
		return nil, err
	}
	stealRatio := ratio(steal1-steal0, ticks1-ticks0)
	b.logf("machine steal during the timed phases: %.3f of CPU time", stealRatio)
	after, err := snapshot(host)
	if err != nil {
		return nil, err
	}
	goroutinesDelta, err := settleGoroutines(host, before.goroutines)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(host.pid())
	if err != nil {
		return nil, err
	}

	var t tally
	t.merge(open.tally)
	t.merge(closed.tally)
	d := delta(before.node, after.node)
	if err := b.guard(d, t, mux); err != nil {
		return nil, err
	}

	res := &result{Correct: t.mismatches == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if t.failed > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d asks failed; first: %s\n", t.failed, t.attempted, t.firstErr)
	}
	if !b.traced {
		res.Metrics = map[string]metric{
			"setup_s":  {median(setups), "s"},
			"peak_qps": {closed.qps(), "1/s"},
			"rss_mb":   {rss, "MiB"},
		}
		return res, nil
	}

	asks := t.attempted
	gd := delta(before.gate, after.gate)
	gateAsks := 0
	if b.w.gateway {
		gateAsks = asks
	}
	m := map[string]metric{
		"open_p50_ms":                 {percentile(open.latMS, 50), "ms"},
		"open_p90_ms":                 {percentile(open.latMS, 90), "ms"},
		"peak_p50_ms":                 {percentile(closed.latMS, 50), "ms"},
		"peak_p99_ms":                 {percentile(closed.latMS, 99), "ms"},
		"fail_ratio":                  {ratio(int64(t.failed), int64(t.attempted)), "ratio"},
		"qa.seq_diff_ratio":           {ratio(int64(t.seqDiffs), int64(t.attempted-t.failed)), "ratio"},
		"index.bytes":                 {float64(after.indexBytes), "B"},
		"shard.route_skip_ratio":      {ratio(d["route_skips"], d["route_skips"]+d["route_scatters"]), "ratio"},
		"live.ap_subtasks_per_ask":    {perAsk(d["ap_sent"], asks), "count"},
		"live.shard_pr_per_ask":       {perAsk(d["shard_pr"], asks), "count"},
		"live.forwards_per_ask":       {perAsk(d["forwards"], asks), "count"},
		"live.answer_cache_hit_ratio": {ratio(d["ans_hits"], d["ans_hits"]+d["ans_misses"]), "ratio"},
		"live.pr_cache_hit_ratio":     {ratio(d["pr_hits"], d["pr_hits"]+d["pr_misses"]), "ratio"},
		"live.mux_calls_per_ask":      {perAsk(d["mux_calls"], asks), "count"},
		"live.mux_fallbacks":          {float64(d["mux_fallbacks"] + mux.Stats().Fallbacks), "count"},
		"live.request_failures":       {float64(d["request_failures"]), "count"},
		"live.retries":                {float64(d["retries"]), "count"},
		"gate.queued_per_ask":         {perAsk(gd["queued"], gateAsks), "count"},
		"gate.shed_ratio":             {perAsk(gd["shed_queue"]+gd["shed_rate"], gateAsks), "ratio"},
		"host.cpu_ms_per_ask":         {perAsk((hostCPU1-hostCPU0)*1000/clockTicksPerSecond, asks), "ms"},
		"host.gc_pause_p99_ms":        {after.gcPauseP99MS, "ms"},
		"host.heap_mb":                {float64(after.heapBytes) / (1 << 20), "MiB"},
		"host.goroutines_delta":       {float64(goroutinesDelta), "count"},
		"loadgen.late_p50_ms":         {percentile(open.lateMS, 50), "ms"},
		"loadgen.late_p90_ms":         {percentile(open.lateMS, 90), "ms"},
		"loadgen.cpu_ms_per_ask":      {ms(selfCPU1-selfCPU0) / float64(asks), "ms"},
		"loadgen.steal_ratio":         {stealRatio, "ratio"},
	}
	traced, err := b.traceLayers(host, gw, mux, m)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && traced.mismatches == 0
	if traced.failed > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: traced run: %d asks failed; first: %s\n", traced.failed, traced.firstErr)
		res.Correct = false
	}
	res.Metrics = m
	return res, nil
}

// logf reports progress on standard error, stamped with the run's age.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: [%5.1fs] %s\n", time.Since(b.start).Seconds(), fmt.Sprintf(format, args...))
}

// timedPhases runs the open-loop phase and then the closed-loop phase. The
// open loop comes first: the closed loop keeps every CPU busy, and the host's
// garbage collections after a busy spell run long, which would otherwise land
// on the open loop. Every end-to-end figure is taken over a whole phase's
// samples: a shorter window's median would flip between a window with and a
// window without one of the host's periodic collections.
func (b *bench) timedPhases(timed asker) (open, closed phase) {
	stream := &questionStream{rng: rand.New(rand.NewSource(b.seed + 1)), qs: b.qs}
	openDur := time.Duration(float64(b.dur) * openShare)
	open = openLoop(timed, stream, poissonSchedule(rand.New(rand.NewSource(b.seed)), b.w.rate, openDur))
	b.logf("open loop: %d asks, p50 %.3f p90 %.3f ms", open.tally.attempted, percentile(open.latMS, 50), percentile(open.latMS, 90))
	closed = closedLoop(timed, stream, b.clients, b.dur-openDur)
	b.logf("closed loop: %d asks, %.1f/s, p50 %.3f p99 %.3f ms", closed.tally.attempted, closed.qps(), percentile(closed.latMS, 50), percentile(closed.latMS, 99))
	return open, closed
}

// makeOracle computes the oracle for every planted question and fixes the
// seeded question order. The engine is dropped afterwards: a large heap in
// this process would make its garbage collector compete with the host for
// the CPU during the timed phases and delay the generator.
func (b *bench) makeOracle() {
	eng := newEngine()
	b.oracle = buildOracle(eng, clusterSize)
	for _, f := range eng.Coll.Facts {
		b.qs = append(b.qs, f.Question)
	}
	rand.New(rand.NewSource(b.seed)).Shuffle(len(b.qs), func(i, j int) { b.qs[i], b.qs[j] = b.qs[j], b.qs[i] })
	debug.FreeOSMemory()
}

// newEngine builds a sequential engine over a full TREC-8-like replica.
func newEngine() *qa.Engine {
	coll := corpus.Generate(corpus.TREC8Like())
	return qa.NewEngine(coll, index.BuildAll(coll))
}

// setUp launches the host setupRuns times, one after another, and keeps the
// last one running. It returns each launch's set-up time in seconds.
func (b *bench) setUp() (*hostProc, []float64, error) {
	bin := filepath.Join(b.build, "bin", "host")
	var setups []float64
	for i := 0; ; i++ {
		h, err := launchHost(bin, b.w.caches)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, h.setup.Seconds())
		if i == setupRuns-1 {
			return h, setups, nil
		}
		if err := h.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop host: %w", err)
		}
	}
}

// warmUp opens every connection the timed phases use, answers each question
// once on the timed path and then runs the open-loop lead-in. With caches
// on, it first answers every question on every node, so the measured phases
// are all answer-cache hits.
func (b *bench) warmUp(host *hostProc, mux *live.MuxTransport, timed asker) error {
	var t tally
	if b.w.caches {
		for _, addr := range host.Nodes {
			t.merge(closedPass(&muxAsker{mux: mux, addr: addr, oracle: b.oracle}, b.qs, b.clients))
		}
	}
	t.merge(closedPass(timed, b.qs, b.clients))
	stream := &questionStream{rng: rand.New(rand.NewSource(b.seed + 2)), qs: b.qs}
	t.merge(openLoop(timed, stream, poissonSchedule(rand.New(rand.NewSource(b.seed+3)), b.w.rate, leadIn)).tally)
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d asks failed; first: %s", t.failed, t.attempted, t.firstErr)
	}
	return nil
}

// guard fails the run when the workload did not exercise what it claims to.
func (b *bench) guard(d counters, t tally, mux *live.MuxTransport) error {
	asks := d["ans_hits"] + d["ans_misses"]
	switch {
	case b.w.caches && (asks == 0 || d["ans_hits"] != asks):
		return fmt.Errorf("guard: answer-cache hit ratio %d/%d below 1.0 in the measured phases", d["ans_hits"], asks)
	case !b.w.caches && (d["ans_hits"]+d["pr_hits"] > 0 || t.cacheHits > 0):
		return fmt.Errorf("guard: %d cache hits with caches off", d["ans_hits"]+d["pr_hits"]+int64(t.cacheHits))
	case d["mux_fallbacks"]+mux.Stats().Fallbacks > 0:
		return fmt.Errorf("guard: %d mux calls fell back to the gob pool", d["mux_fallbacks"]+mux.Stats().Fallbacks)
	case b.name == "skew" && d["forwards"] == 0:
		return errors.New("guard: no question was forwarded on skew; node 0 never queued")
	}
	return nil
}

// traceLayers runs the traced run and fills the per-layer metrics it gives.
func (b *bench) traceLayers(host *hostProc, gw asker, mux *live.MuxTransport, m map[string]metric) (tally, error) {
	eng := newEngine()
	sc, err := shard.NewCluster(eng.Coll, len(host.Nodes), 1, len(host.Nodes))
	if err != nil {
		return tally{}, err
	}
	tr := &tracer{t0: time.Now()}
	l, t, err := tracedRun(tr, b.qs, gw, mux, host.Nodes[0], sc, eng, b.oracle)
	if err != nil {
		return t, err
	}
	path := filepath.Join(b.build, "trace", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err := tr.write(path); err != nil {
		return t, fmt.Errorf("write spans: %w", err)
	}
	b.logf("traced run done; %d spans written to %s", len(tr.spans), path)
	for _, s := range stageNames {
		m["qa."+s+"_ms"] = metric{mean(l.stageMS[s]), "ms"}
		m["qa."+s+"_p50_ms"] = metric{median(l.stageMS[s]), "ms"}
	}
	var edge, hop []float64
	for i := range l.gateRTT {
		edge = append(edge, l.gateRTT[i]-l.gateElapsed[i])
		hop = append(hop, l.gateElapsed[i]-l.gateNode[i])
	}
	speedup := 0.0
	if n := mean(l.muxNode); n > 0 {
		speedup = mean(l.engineMS) / n
	}
	for k, v := range map[string]metric{
		"qa.allocs_per_ask":           {mean(l.allocs), "count"},
		"qa.alloc_bytes_per_ask":      {mean(l.allocBytes), "B"},
		"qa.retrieved_per_ask":        {mean(l.retrieved), "count"},
		"qa.accepted_per_ask":         {mean(l.accepted), "count"},
		"index.retrieve_us":           {mean(l.retrieveUS), "us"},
		"index.bytes_touched_per_ask": {mean(l.bytesTouched), "B"},
		"shard.answer_ms":             {mean(l.shardMS), "ms"},
		"live.node_ms":                {mean(l.muxNode), "ms"},
		"live.ask_rtt_ms":             {mean(l.muxRTT), "ms"},
		"live.intra_speedup":          {speedup, "x"},
		"gate.edge_ms":                {mean(edge), "ms"},
		"gate.hop_ms":                 {mean(hop), "ms"},
	} {
		m[k] = v
	}
	return t, nil
}

// printTable writes every metric by name with its unit to standard error.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
