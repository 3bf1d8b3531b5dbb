package main

import (
	"errors"
	"testing"
	"time"

	"slimstore"
)

func TestMeterStoreCountsScriptedRequests(t *testing.T) {
	m := newMeterStore(slimstore.NewMemoryStore(), delayModel{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Put("containers/C1", make([]byte, 100)))
	must(m.Put("containers/C2", make([]byte, 50)))
	must(m.Put("recipes/f/1", make([]byte, 7)))
	_, err := m.Get("containers/C1")
	must(err)
	_, err = m.GetRange("containers/C2", 10, 20)
	must(err)
	_, err = m.Head("recipes/f/1")
	must(err)
	_, err = m.List("catalog/")
	must(err)
	must(m.Delete("journal/j1"))
	must(m.Put("snapshots/s", make([]byte, 3)))

	c := m.snapshot()
	want := map[[2]string]int64{
		{"containers", "put"}: 2, {"containers", "get"}: 1, {"containers", "range"}: 1,
		{"recipes", "put"}: 1, {"recipes", "head"}: 1,
		{"catalog", "list"}: 1, {"journal", "delete"}: 1, {"other", "put"}: 1,
	}
	for i, ns := range namespaces {
		for j, op := range ops {
			if got := c.Req[i][j]; got != want[[2]string{ns, op}] {
				t.Errorf("requests %s.%s = %d, want %d", ns, op, got, want[[2]string{ns, op}])
			}
		}
	}
	if got := c.requests(); got != 9 {
		t.Errorf("requests() = %d, want 9", got)
	}
	ci, ri, oi := nsIndex("containers/"), nsIndex("recipes/"), nsIndex("snapshots/")
	if c.BytesIn[ci] != 150 || c.BytesOut[ci] != 120 {
		t.Errorf("containers bytes in/out = %d/%d, want 150/120", c.BytesIn[ci], c.BytesOut[ci])
	}
	if c.BytesIn[ri] != 7 || c.BytesOut[ri] != 0 || c.BytesIn[oi] != 3 {
		t.Errorf("recipes in/out = %d/%d, other in = %d; want 7/0, 3", c.BytesIn[ri], c.BytesOut[ri], c.BytesIn[oi])
	}
	if c.Failures != 0 || c.MaxInfl != 1 {
		t.Errorf("failures %d, max in flight %d; want 0, 1", c.Failures, c.MaxInfl)
	}

	// A later snapshot minus an earlier one is the interval's traffic.
	_, err = m.Get("containers/C2")
	must(err)
	d := m.snapshot().sub(c)
	if d.requests() != 1 || d.BytesOut[ci] != 50 {
		t.Errorf("interval: %d requests, %d bytes out; want 1, 50", d.requests(), d.BytesOut[ci])
	}
}

func TestMeterStoreDelaysOnlyWhileArmed(t *testing.T) {
	model := delayModel{PerRequest: 20 * time.Millisecond, BytesPerSec: 1e6}
	if got, want := model.cost(10_000), 30*time.Millisecond; got != want {
		t.Fatalf("cost(10000) = %v, want %v", got, want)
	}
	m := newMeterStore(slimstore.NewMemoryStore(), model)
	timed := func(f func() error) time.Duration {
		t.Helper()
		start := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	put := func() error { return m.Put("containers/C", make([]byte, 10_000)) }
	head := func() error { _, err := m.Head("containers/C"); return err }
	if d := timed(put); d >= 20*time.Millisecond {
		t.Errorf("unarmed put took %v", d)
	}
	m.armed.Store(true)
	if d := timed(put); d < 30*time.Millisecond {
		t.Errorf("armed 10 kB put took %v, want at least 30ms", d)
	}
	if d := timed(head); d < 20*time.Millisecond {
		t.Errorf("armed head took %v, want at least 20ms", d)
	}
	m.armed.Store(false)
	if d := timed(head); d >= 20*time.Millisecond {
		t.Errorf("disarmed head took %v", d)
	}
	if busy := m.snapshot().Busy; busy < 50*time.Millisecond {
		t.Errorf("busy time %v, want at least the 50ms of armed delay", busy)
	}
}

// failing is an inner store whose every request fails with err.
type failing struct{ err error }

func (f failing) Put(string, []byte) error                      { return f.err }
func (f failing) Get(string) ([]byte, error)                    { return nil, f.err }
func (f failing) GetRange(string, int64, int64) ([]byte, error) { return nil, f.err }
func (f failing) Head(string) (int64, error)                    { return 0, f.err }
func (f failing) Delete(string) error                           { return f.err }
func (f failing) List(string) ([]string, error)                 { return nil, f.err }

func TestMeterStorePassesErrorsThrough(t *testing.T) {
	sentinel := errors.New("inner store down")
	m := newMeterStore(failing{sentinel}, delayModel{})
	errs := []error{
		m.Put("containers/C", []byte("x")),
		func() error { _, err := m.Get("recipes/r"); return err }(),
		func() error { _, err := m.GetRange("containers/C", 0, 1); return err }(),
		func() error { _, err := m.Head("catalog/c"); return err }(),
		m.Delete("gidx/k"),
		func() error { _, err := m.List("journal/"); return err }(),
	}
	for i, err := range errs {
		if err != sentinel {
			t.Errorf("request %d returned %v, want the inner error unchanged", i, err)
		}
	}
	c := m.snapshot()
	if c.Failures != 6 || c.requests() != 6 {
		t.Errorf("failures %d of %d requests, want 6 of 6", c.Failures, c.requests())
	}
	if c.BytesIn[nsIndex("containers/")] != 1 {
		t.Errorf("a failed put still offered its payload: bytes in %d, want 1", c.BytesIn[nsIndex("containers/")])
	}
}
