package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"

	"distqa/internal/live"
)

// askTimeout is every ask's deadline: the edge timeout_ms over HTTP and the
// call timeout over the mux. A reply later than this is a failure.
const askTimeout = 10 * time.Second

// outcome is one ask's result as the client saw it.
type outcome struct {
	ok        bool // a reply whose answers are byte-identical to the oracle
	mismatch  bool // a reply whose answers differ from the oracle
	seqDiff   bool // a correct reply that differs from the sequential answers
	cacheHit  bool
	rttMS     float64 // client send to reply
	elapsedMS float64 // the gateway's own time (HTTP only)
	nodeMS    float64 // the serving node's pipeline time
	servedBy  string
	err       string
}

// asker sends one question and checks its answers against the oracle.
type asker interface {
	ask(q string) outcome
}

// httpAsker asks through the gateway's POST /v1/ask.
type httpAsker struct {
	client *http.Client
	url    string
	oracle oracle
}

// newHTTPClient returns a client that holds at most conns connections to the
// gateway; a request finding them all busy waits for one, and that wait is
// part of its measured latency.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func (h *httpAsker) ask(q string) outcome {
	body, err := json.Marshal(struct {
		Question  string `json:"question"`
		TimeoutMS int64  `json:"timeout_ms"`
	}{q, askTimeout.Milliseconds()})
	if err != nil {
		return outcome{err: err.Error()}
	}
	start := time.Now()
	resp, err := h.client.Post(h.url+"/v1/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := outcome{rttMS: ms(time.Since(start))}
	if err != nil {
		out.err = err.Error()
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	var r struct {
		Answers   json.RawMessage `json:"answers"`
		ServedBy  string          `json:"served_by"`
		NodeMS    float64         `json:"node_ms"`
		ElapsedMS float64         `json:"elapsed_ms"`
		CacheHit  bool            `json:"cache_hit"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		out.err = "bad reply: " + err.Error()
		return out
	}
	out.servedBy, out.nodeMS, out.elapsedMS = r.ServedBy, r.NodeMS, r.ElapsedMS
	out.cacheHit = r.CacheHit
	if out.rttMS > ms(askTimeout) {
		out.err = "deadline missed"
		return out
	}
	h.oracle.check(q, r.Answers, 0, &out)
	return out
}

// muxAsker asks one node directly over a binary mux connection.
type muxAsker struct {
	mux    *live.MuxTransport
	addr   string
	oracle oracle
}

func (m *muxAsker) ask(q string) outcome { return muxAsk(m.mux, m.addr, q, m.oracle) }

// muxAsk sends one ask to addr over the mux and checks it.
func muxAsk(mux *live.MuxTransport, addr, q string, o oracle) outcome {
	start := time.Now()
	resp, err := mux.Call(addr, live.AskRequest(q), askTimeout)
	out := outcome{rttMS: ms(time.Since(start))}
	if err != nil {
		out.err = err.Error()
		return out
	}
	if resp.Err != "" {
		out.err = resp.Err
		return out
	}
	out.servedBy, out.nodeMS = resp.ServedBy, resp.ElapsedMS
	out.cacheHit = resp.CacheHit
	if out.rttMS > ms(askTimeout) {
		out.err = "deadline missed"
		return out
	}
	o.checkAnswers(q, resp.Answers, resp.APPeers, &out)
	return out
}

// questionStream hands out the planted questions in seeded cycles: each
// cycle is a fresh shuffle of all of them. Every question is asked equally
// often, so a run's mix of cheap and heavy questions does not vary with the
// seed, while reshuffling each cycle keeps a seed from fixing which heavy
// questions arrive back to back for the whole run.
type questionStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	qs    []string
	cycle []string // the current cycle, consumed from the front
}

func (s *questionStream) next() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cycle) == 0 {
		s.cycle = append([]string(nil), s.qs...)
		s.rng.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
	}
	q := s.cycle[0]
	s.cycle = s.cycle[1:]
	return q
}

// phase is what one timed phase observed.
type phase struct {
	latMS  []float64 // per request; +Inf for a failure
	lateMS []float64 // open loop: how late each request was sent
	tally  tally
	wall   time.Duration
}

// qps is the phase's successful asks per second.
func (p *phase) qps() float64 {
	return float64(p.tally.attempted-p.tally.failed) / p.wall.Seconds()
}

// tally counts outcomes.
type tally struct {
	attempted, failed, mismatches, cacheHits, seqDiffs int
	firstErr                                           string
}

func (t *tally) add(o outcome) {
	t.attempted++
	if o.cacheHit {
		t.cacheHits++
	}
	if o.mismatch {
		t.mismatches++
	}
	if o.seqDiff {
		t.seqDiffs++
	}
	if !o.ok {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = o.err
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.cacheHits += o.cacheHits
	t.seqDiffs += o.seqDiffs
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// poissonSchedule returns the send offsets of a Poisson process at rate
// requests per second over dur, from the given seeded source.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
		at += rng.ExpFloat64() / rate
	}
}

// openLoop sends one request at each scheduled offset, whether or not
// earlier ones have finished, and waits for all of them. Every request's
// latency is timed from its due time.
func openLoop(a asker, qs *questionStream, schedule []time.Duration) phase {
	type rec struct {
		due, sent, done time.Time
		out             outcome
	}
	recs := make([]rec, len(schedule))
	var wg sync.WaitGroup
	begin := time.Now().Add(20 * time.Millisecond)
	for i, off := range schedule {
		due := begin.Add(off)
		waitUntil(due)
		q := qs.next()
		recs[i].due, recs[i].sent = due, time.Now()
		wg.Add(1)
		go func(r *rec) {
			defer wg.Done()
			r.out = a.ask(q)
			r.done = time.Now()
		}(&recs[i])
	}
	wg.Wait()
	var p phase
	p.wall = time.Since(begin)
	for _, r := range recs {
		p.tally.add(r.out)
		p.latMS = append(p.latMS, dueLatencyMS(r.due, r.done, r.out.ok))
		p.lateMS = append(p.lateMS, lateMS(r.due, r.sent))
	}
	return p
}

// waitUntil returns at t. It blocks the thread in nanosleep rather than
// sleeping on a Go timer: the runtime wakes timer sleepers up to about a
// millisecond late, and that lateness would be charged to every request.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) loops
	}
}

// closedLoop runs clients that each send their next request as soon as the
// previous reply arrives, until dur has passed.
func closedLoop(a asker, qs *questionStream, clients int, dur time.Duration) phase {
	per := make([]phase, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	stop := begin.Add(dur)
	for c := range per {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for time.Now().Before(stop) {
				out := a.ask(qs.next())
				p.tally.add(out)
				if out.ok {
					p.latMS = append(p.latMS, out.rttMS)
				} else {
					p.latMS = append(p.latMS, failedMS)
				}
			}
		}(&per[c])
	}
	wg.Wait()
	var p phase
	p.wall = time.Since(begin)
	for _, c := range per {
		p.tally.merge(c.tally)
		p.latMS = append(p.latMS, c.latMS...)
	}
	return p
}

// closedPass asks every question once with the given number of clients
// (warm-up): it returns the tally.
func closedPass(a asker, qs []string, clients int) tally {
	var (
		mu  sync.Mutex
		t   tally
		wg  sync.WaitGroup
		idx = make(chan string)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range idx {
				out := a.ask(q)
				mu.Lock()
				t.add(out)
				mu.Unlock()
			}
		}()
	}
	for _, q := range qs {
		idx <- q
	}
	close(idx)
	wg.Wait()
	return t
}
