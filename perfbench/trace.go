package main

// Benchmark-side tracing: spans recorded around the benchmark's own
// calls into the program, kept in memory and written out when the run
// ends. Spans of one campaign share its id.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call. Parent is the id of the enclosing span (0 for
// none); times are ns since the log's first span.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Campaign string `json:"campaign"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// begin opens a span and returns its id.
func (l *spanLog) begin(campaign, name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.epoch.IsZero() {
		l.epoch = time.Now()
	}
	l.spans = append(l.spans, Span{ID: len(l.spans) + 1, Parent: parent, Campaign: campaign,
		Name: name, StartNs: time.Since(l.epoch).Nanoseconds()})
	return len(l.spans)
}

// end closes span id and returns its duration in ns.
func (l *spanLog) end(id int) int64 { return l.endAs(id, "") }

// endAs closes span id, naming it if name is not empty, and returns its
// duration in ns.
func (l *spanLog) endAs(id int, name string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := &l.spans[id-1]
	sp.EndNs = time.Since(l.epoch).Nanoseconds()
	if name != "" {
		sp.Name = name
	}
	return sp.EndNs - sp.StartNs
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	raw, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
