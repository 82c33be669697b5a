package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// chromeEvent is one Chrome trace_event record ("X" complete events plus
// "M" thread-name metadata). Load the file in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every span of the run as one Chrome trace: one
// track per layer (modeled gpusim phases on their own track), with the
// op and parent span in each event's args.
func (r *run) writeChromeTrace(path string) error {
	tracks := map[string]int{}
	var names []string
	for _, s := range r.spans {
		t := trackName(s)
		if _, ok := tracks[t]; !ok {
			tracks[t] = 0
			names = append(names, t)
		}
	}
	sort.Strings(names)
	events := make([]chromeEvent, 0, len(r.spans)+len(names))
	for i, t := range names {
		tracks[t] = i + 1
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": t}})
	}
	for _, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: tracks[trackName(s)],
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op, "modeled": s.modeled},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func trackName(s span) string {
	if s.modeled {
		return "gpusim (modeled seconds)"
	}
	return s.layer
}
