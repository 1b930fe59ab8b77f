package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of one join, stamped by the driver around a
// call into the program. Spans of one join share Join and form a tree
// through Parent; the root is the join itself and has Parent -1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Join   int32  `json:"join"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run's epoch.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// tracer records the spans of one client goroutine in memory. A nil tracer
// records nothing, which is how an untraced join runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(parent, join int32, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Join: join, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// mergeSpans concatenates the clients' spans, renumbering IDs so they stay
// unique across clients.
func mergeSpans(tracers []*tracer) []span {
	var all []span
	for _, t := range tracers {
		base := int32(len(all))
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// checkSpans verifies that the spans form one tree per join: one root each,
// every child inside its parent and belonging to the same join.
func checkSpans(spans []span) error {
	roots := make(map[int32]int)
	for i, s := range spans {
		if s.ID != int32(i) {
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			roots[s.Join]++
			continue
		}
		if int(s.Parent) >= len(spans) {
			return fmt.Errorf("span %d (%s) names parent %d, which does not exist", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Join != s.Join {
			return fmt.Errorf("span %d (%s) of join %d has parent %d of join %d", s.ID, s.Name, s.Join, p.ID, p.Join)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for join, n := range roots {
		if n != 1 {
			return fmt.Errorf("join %d has %d root spans", join, n)
		}
	}
	return nil
}

// stageTimes groups the leaf spans' durations by name, and returns for each
// join the share of its root span that no leaf covers.
func stageTimes(spans []span) (byName map[string][]float64, unattributed []float64) {
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	byName = make(map[string][]float64)
	covered := make(map[int32]int64)
	for i, s := range spans {
		if s.Parent >= 0 && !hasChild[i] {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start))
			covered[s.Join] += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Parent < 0 && s.End > s.Start {
			unattributed = append(unattributed, 1-float64(covered[s.Join])/float64(s.End-s.Start))
		}
	}
	return byName, unattributed
}

func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
