package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around its calls into the program under test. Spans of one
// job share Job; Parent is the ID of the span that caused this one
// (0 for a root). Times are milliseconds from the job's start.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	Job     string         `json:"job"`
	StartMS float64        `json:"start_ms"`
	EndMS   float64        `json:"end_ms"`
	SelfMS  float64        `json:"self_ms"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// traceLog keeps spans in memory until the run ends.
type traceLog struct {
	spans []span
}

// add appends one job's spans, renumbering them so IDs stay unique in
// the file.
func (t *traceLog) add(spans []span) {
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// write computes self times — a span minus the part of its interval its
// children cover, counting overlapping children (two tile workers) once
// — and writes the file.
func (t *traceLog) write(path string) error {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartMS, s.EndMS})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, s.StartMS
		for _, c := range iv {
			lo, hi := max(c[0], end), min(c[1], s.EndMS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		s.SelfMS = s.EndMS - s.StartMS - covered
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
