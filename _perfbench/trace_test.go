package main

import (
	"testing"
	"time"
)

func TestTracerAttributesOSSSpans(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	oss := func(parent int64, from, to int) { tr.ossSpan(parent, "get", "containers", 1, at(from), at(to)) }

	backup := tr.beginCall(true)
	if p := tr.parent(); p != backup {
		t.Fatalf("parent with one call in flight = %d, want %d", p, backup)
	}
	oss(backup, 1, 3)
	oss(backup, 2, 4) // overlaps the first: the union covers 3 ms
	drain := tr.beginCall(false)
	if p := tr.parent(); p != backup {
		t.Errorf("parent with a backup and a drain in flight = %d, want the backup %d", p, backup)
	}
	tr.endCall(span{ID: backup, Op: opBackup}, at(0), at(10))
	if p := tr.parent(); p != parentBackground {
		t.Errorf("parent with only a drain in flight = %d, want background", p)
	}
	oss(parentBackground, 11, 13)
	tr.endCall(span{ID: drain, Op: opDrain}, at(10), at(14))

	tr.beginCall(true)
	tr.beginCall(true)
	if p := tr.parent(); p != parentAmbiguous {
		t.Errorf("parent with two calls in flight = %d, want ambiguous", p)
	}
	oss(parentAmbiguous, 20, 21)

	s := tr.summarize()
	for _, c := range []struct {
		what      string
		got, want time.Duration
	}{
		{"backup self time", s.callSelf[opBackup], 7 * time.Millisecond},
		{"drain self time", s.callSelf[opDrain], 4 * time.Millisecond},
		{"background", s.background, 2 * time.Millisecond},
		{"ambiguous", s.ambiguous, time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if s.spans != 6 {
		t.Errorf("%d spans, want 6", s.spans)
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want time.Duration
	}{
		{nil, 0},
		{[][2]int64{{5, 3}}, 0},
		{[][2]int64{{0, 10}, {20, 25}}, 15},
		{[][2]int64{{20, 25}, {0, 10}, {5, 12}, {12, 13}}, 18},
		{[][2]int64{{0, 100}, {10, 20}}, 100},
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}
