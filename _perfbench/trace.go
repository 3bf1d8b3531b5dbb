package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Parent values of an OSS span that no single client call owns.
const (
	parentBackground = 0  // no client call in flight: background work
	parentAmbiguous  = -1 // several client calls in flight
)

// span is one traced interval: a System call made by a client, or one
// OSS request issued while the system served calls.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Kind    string `json:"kind"` // "call" or "oss"
	Op      string `json:"op"`
	NS      string `json:"ns,omitempty"`
	Client  int    `json:"client"`
	File    string `json:"file,omitempty"`
	Version int    `json:"version"`
	Bytes   int64  `json:"bytes"`
	StartNS int64  `json:"start_ns"` // since the tracer started
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; write dumps them at the end of a run.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	next     int64
	inflight []int64 // IDs of client calls in flight
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), next: 1} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// beginCall returns a client call's ID and, if the call owns the OSS
// requests issued while it runs, registers it as in flight.
func (t *tracer) beginCall(owns bool) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	if owns {
		t.inflight = append(t.inflight, id)
	}
	return id
}

// endCall records a finished client call.
func (t *tracer) endCall(s span, start, end time.Time) {
	s.Kind = "call"
	s.StartNS, s.EndNS = t.at(start), t.at(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, id := range t.inflight {
		if id == s.ID {
			t.inflight = append(t.inflight[:i], t.inflight[i+1:]...)
			break
		}
	}
	t.spans = append(t.spans, s)
}

// parent names the client call an OSS request starting now belongs to.
func (t *tracer) parent() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch len(t.inflight) {
	case 0:
		return parentBackground
	case 1:
		return t.inflight[0]
	}
	return parentAmbiguous
}

func (t *tracer) ossSpan(parent int64, op, ns string, n int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Kind: "oss", Op: op, NS: ns, Bytes: n,
		Client: -1, Version: -1, StartNS: t.at(start), EndNS: t.at(end),
	})
	t.next++
}

// traceSummary is what the per-layer metrics need from the spans.
type traceSummary struct {
	callSelf   map[string]time.Duration // call time not covered by its OSS spans
	background time.Duration            // OSS time outside every client call
	ambiguous  time.Duration            // OSS time while several calls were in flight
	spans      int
}

func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := traceSummary{callSelf: map[string]time.Duration{}, spans: len(t.spans)}
	children := map[int64][]span{}
	for _, sp := range t.spans {
		if sp.Kind != "oss" {
			continue
		}
		switch sp.Parent {
		case parentBackground:
			s.background += sp.dur()
		case parentAmbiguous:
			s.ambiguous += sp.dur()
		default:
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for _, sp := range t.spans {
		if sp.Kind != "call" {
			continue
		}
		s.callSelf[sp.Op] += sp.dur() - covered(sp, children[sp.ID])
	}
	return s
}

// covered is the part of parent's interval that the union of its
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)})
	}
	return unionLen(iv)
}

// unionLen is the total length of the union of [start, end) intervals;
// empty and inverted ones count for nothing.
func unionLen(iv [][2]int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := x[0], x[1]
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
