package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"distqa/internal/live"
	"distqa/internal/qa"
	"distqa/internal/shard"
)

// span is one timed call the traced run made into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a top-level call
	Name   string  `json:"name"`
	Req    string  `json:"req"` // the question's request ID
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory, timed from its creation.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
	})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceLayers are the per-question samples the traced run collects.
type traceLayers struct {
	gateRTT, gateElapsed, gateNode []float64 // entry 1: HTTP through qagate
	muxRTT, muxNode                []float64 // entry 2: mux call to the coordinator
	shardMS                        []float64 // entry 3: in-process shard.Cluster.Answer
	stageMS                        map[string][]float64
	engineMS                       []float64 // entry 4: the six stages summed
	allocs, allocBytes             []float64
	retrieved, accepted            []float64
	retrieveUS, bytesTouched       []float64 // entry 5: per-sub index retrieval, summed per ask
}

// stageNames are the qa.Engine stages in pipeline order.
var stageNames = []string{"qp", "pr", "ps", "po", "ap", "merge"}

// tracedRun asks every question once, one at a time, through each entry
// point in turn: the gateway, a mux call to the coordinator that served the
// gateway ask, the in-process sharded cluster, the engine stage by stage
// and the per-sub index retrieval. Every answer is checked against the
// oracle; the returned tally counts the failures.
func tracedRun(tr *tracer, qs []string, gw asker, mux *live.MuxTransport, defaultNode string,
	sc *shard.Cluster, eng *qa.Engine, o oracle) (traceLayers, tally, error) {
	l := traceLayers{stageMS: map[string][]float64{}}
	var t tally
	for i, q := range qs {
		req := fmt.Sprintf("q%03d", i)

		s := time.Now()
		g := gw.ask(q)
		tr.add(0, "gate.ask", req, s, time.Now())
		t.add(g)
		l.gateRTT = append(l.gateRTT, g.rttMS)
		l.gateElapsed = append(l.gateElapsed, g.elapsedMS)
		l.gateNode = append(l.gateNode, g.nodeMS)

		coord := g.servedBy
		if coord == "" {
			coord = defaultNode
		}
		s = time.Now()
		m := muxAsk(mux, coord, q, o)
		tr.add(0, "live.ask", req, s, time.Now())
		t.add(m)
		l.muxRTT = append(l.muxRTT, m.rttMS)
		l.muxNode = append(l.muxNode, m.nodeMS)

		s = time.Now()
		res, err := sc.Answer(q, i, nil)
		e := time.Now()
		tr.add(0, "shard.answer", req, s, e)
		if err != nil {
			return l, t, fmt.Errorf("shard.Cluster.Answer: %w", err)
		}
		var so outcome
		o.checkAnswers(q, res.Answers, 1, &so)
		t.add(so)
		l.shardMS = append(l.shardMS, ms(e.Sub(s)))

		t.add(l.engineStages(tr, req, eng, q, o))
		l.indexRetrieval(tr, req, eng, q)
	}
	return l, t, nil
}

// engineStages runs the qa.Engine pipeline one stage at a time, timing each
// and counting the allocations the whole question made.
func (l *traceLayers) engineStages(tr *tracer, req string, eng *qa.Engine, q string, o oracle) outcome {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	a, _ := eng.QuestionProcessing(q)
	t1 := time.Now()
	rs, _ := eng.RetrieveAll(a)
	t2 := time.Now()
	scored, _ := eng.ScoreParagraphs(a, rs)
	t3 := time.Now()
	accepted, _ := eng.OrderParagraphs(scored)
	t4 := time.Now()
	answers, _ := eng.ExtractAnswers(a, accepted)
	t5 := time.Now()
	final, _ := eng.MergeAnswerSets([][]qa.Answer{answers})
	t6 := time.Now()
	runtime.ReadMemStats(&m1)

	parent := tr.add(0, "qa.answer", req, t0, t6)
	ts := []time.Time{t0, t1, t2, t3, t4, t5, t6}
	for i, name := range stageNames {
		tr.add(parent, "qa."+name, req, ts[i], ts[i+1])
		l.stageMS[name] = append(l.stageMS[name], ms(ts[i+1].Sub(ts[i])))
	}
	l.engineMS = append(l.engineMS, ms(t6.Sub(t0)))
	l.allocs = append(l.allocs, float64(m1.Mallocs-m0.Mallocs))
	l.allocBytes = append(l.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	l.retrieved = append(l.retrieved, float64(len(rs)))
	l.accepted = append(l.accepted, float64(len(accepted)))
	var out outcome
	o.checkAnswers(q, final, 1, &out)
	return out
}

// indexRetrieval calls index.Index.RetrieveParagraphs on every sub in turn.
func (l *traceLayers) indexRetrieval(tr *tracer, req string, eng *qa.Engine, q string) {
	a, _ := eng.QuestionProcessing(q)
	var us float64
	touched := 0
	first := time.Now()
	var spans [][2]time.Time
	for _, sub := range eng.Set.Globals() {
		s := time.Now()
		_, st := eng.Set.Sub(sub).RetrieveParagraphs(a.Keywords)
		e := time.Now()
		spans = append(spans, [2]time.Time{s, e})
		us += float64(e.Sub(s).Nanoseconds()) / 1e3
		touched += st.RealBytesTouched
	}
	parent := tr.add(0, "index.retrieve_all", req, first, time.Now())
	for _, s := range spans {
		tr.add(parent, "index.retrieve", req, s[0], s[1])
	}
	l.retrieveUS = append(l.retrieveUS, us)
	l.bytesTouched = append(l.bytesTouched, float64(touched))
}
