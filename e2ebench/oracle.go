package main

import (
	"bytes"
	"encoding/json"

	"distqa/internal/gate"
	"distqa/internal/qa"
)

// oracle maps each question to the JSON of its answers as the gateway
// projects them (gate.ProjectAnswers), one entry per AP worker count w:
// entry 0 is qa.Engine.AnswerSequential on a full-replica engine, entry w-1
// the answers when answer processing is split over w workers.
//
// The split matters because the live merge is not partition-insensitive:
// every AP worker keeps its own top answers and the merge's redundancy bonus
// counts repeats across workers, so an ask whose AP was split over idle
// peers can return other answers, in another order, than the sequential
// pipeline. A reply is correct when it matches the entry for the worker
// count it reports (any entry when it reports none, as over HTTP).
type oracle map[string][][]byte

// buildOracle answers every planted question with qa.Engine.AnswerSequential
// and with AP split over 2..maxWorkers workers, the way the live node splits
// it: accepted paragraphs dealt round-robin, each share extracted on its own,
// the per-worker answer sets merged in worker order.
func buildOracle(eng *qa.Engine, maxWorkers int) oracle {
	o := make(oracle, len(eng.Coll.Facts))
	for _, f := range eng.Coll.Facts {
		o[f.Question] = append(o[f.Question], projected(eng.AnswerSequential(f.Question).Answers))
		a, _ := eng.QuestionProcessing(f.Question)
		rs, _ := eng.RetrieveAll(a)
		scored, _ := eng.ScoreParagraphs(a, rs)
		accepted, _ := eng.OrderParagraphs(scored)
		for w := 2; w <= maxWorkers; w++ {
			parts := make([][]qa.ScoredParagraph, w)
			for i, sp := range accepted {
				parts[i%w] = append(parts[i%w], sp)
			}
			groups := make([][]qa.Answer, w)
			for i, part := range parts {
				groups[i], _ = eng.ExtractAnswers(a, part)
			}
			final, _ := eng.MergeAnswerSets(groups)
			o[f.Question] = append(o[f.Question], projected(final))
		}
	}
	return o
}

// projected is the JSON of answers as the gateway projects them.
func projected(answers []qa.Answer) []byte {
	js, err := json.Marshal(gate.ProjectAnswers(answers))
	if err != nil {
		panic(err) // a []gate.AnswerJSON always marshals
	}
	return js
}

// check compares projected answers with the oracle's bytes for apWorkers AP
// workers, or for any worker count when apWorkers is 0.
func (o oracle) check(q string, answersJSON []byte, apWorkers int, out *outcome) {
	want := o[q]
	for w, js := range want {
		if (apWorkers == 0 || apWorkers == w+1) && bytes.Equal(answersJSON, js) {
			out.ok = true
			out.seqDiff = !bytes.Equal(js, want[0])
			return
		}
	}
	out.mismatch = true
	out.err = "answers differ from the oracle: " + string(answersJSON)
}

// checkAnswers projects pipeline answers as the gateway does and checks them.
func (o oracle) checkAnswers(q string, answers []qa.Answer, apWorkers int, out *outcome) {
	o.check(q, projected(answers), apWorkers, out)
}
