package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slimstore"
)

// delayModel is the cost of one request to the modelled remote object
// store: a fixed round trip plus the transfer time of its payload.
type delayModel struct {
	PerRequest  time.Duration
	BytesPerSec float64 // 0 means no transfer delay
}

func (d delayModel) cost(n int64) time.Duration {
	t := d.PerRequest
	if d.BytesPerSec > 0 {
		t += time.Duration(float64(n) / d.BytesPerSec * float64(time.Second))
	}
	return t
}

// The OSS key namespaces of a repository (the first path element of a
// key); anything else is counted under "other".
var namespaces = []string{"containers", "recipes", "catalog", "simindex", "gidx", "journal", "other"}

var ops = []string{"put", "get", "range", "head", "list", "delete"}

const (
	ossPut = iota
	ossGet
	ossRange
	ossHead
	ossList
	ossDelete
)

func nsIndex(key string) int {
	head, _, _ := strings.Cut(key, "/")
	for i, ns := range namespaces[:len(namespaces)-1] {
		if head == ns {
			return i
		}
	}
	return len(namespaces) - 1
}

// ossCounts is a snapshot of what a meterStore has seen; subtracting two
// snapshots gives the traffic of the interval between them.
type ossCounts struct {
	Req      [7][6]int64
	BytesIn  [7]int64 // Put payload bytes
	BytesOut [7]int64 // Get and GetRange payload bytes
	Failures int64
	Busy     time.Duration // summed request durations, delay included
	MaxInfl  int64
}

func (c ossCounts) sub(o ossCounts) ossCounts {
	for i := range c.Req {
		for j := range c.Req[i] {
			c.Req[i][j] -= o.Req[i][j]
		}
		c.BytesIn[i] -= o.BytesIn[i]
		c.BytesOut[i] -= o.BytesOut[i]
	}
	c.Failures -= o.Failures
	c.Busy -= o.Busy
	return c
}

func (c ossCounts) requests() int64 {
	var n int64
	for i := range c.Req {
		for _, v := range c.Req[i] {
			n += v
		}
	}
	return n
}

// meterStore wraps the object store the system under test writes to. It
// counts requests and payload bytes per namespace and operation, counts
// inner-store errors as failures (returning them unchanged), and, while
// armed, sleeps each request for the modelled remote-store delay. With a
// tracer attached it also records one span per request.
type meterStore struct {
	inner slimstore.ObjectStore
	model delayModel
	armed atomic.Bool
	tr    atomic.Pointer[tracer]

	mu       sync.Mutex
	c        ossCounts
	inflight int64
}

func newMeterStore(inner slimstore.ObjectStore, model delayModel) *meterStore {
	return &meterStore{inner: inner, model: model}
}

func (m *meterStore) snapshot() ossCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}

// resetMaxInflight starts a new interval for the in-flight maximum.
func (m *meterStore) resetMaxInflight() {
	m.mu.Lock()
	m.c.MaxInfl = m.inflight
	m.mu.Unlock()
}

type request struct {
	start  time.Time
	parent int64
}

func (m *meterStore) begin() request {
	m.mu.Lock()
	m.inflight++
	if m.inflight > m.c.MaxInfl {
		m.c.MaxInfl = m.inflight
	}
	m.mu.Unlock()
	r := request{start: time.Now()}
	if tr := m.tr.Load(); tr != nil {
		r.parent = tr.parent()
	}
	return r
}

// end sleeps out the modelled delay of a request that moved n payload
// bytes, then records it.
func (m *meterStore) end(r request, key string, op int, n int64, err error) {
	if m.armed.Load() {
		time.Sleep(m.model.cost(n))
	}
	now := time.Now()
	ns := nsIndex(key)
	m.mu.Lock()
	m.inflight--
	m.c.Req[ns][op]++
	if op == ossPut {
		m.c.BytesIn[ns] += n
	} else {
		m.c.BytesOut[ns] += n
	}
	if err != nil {
		m.c.Failures++
	}
	m.c.Busy += now.Sub(r.start)
	m.mu.Unlock()
	if tr := m.tr.Load(); tr != nil {
		tr.ossSpan(r.parent, ops[op], namespaces[ns], n, r.start, now)
	}
}

// Put implements slimstore.ObjectStore.
func (m *meterStore) Put(key string, data []byte) error {
	r := m.begin()
	err := m.inner.Put(key, data)
	m.end(r, key, ossPut, int64(len(data)), err)
	return err
}

// Get implements slimstore.ObjectStore.
func (m *meterStore) Get(key string) ([]byte, error) {
	r := m.begin()
	b, err := m.inner.Get(key)
	m.end(r, key, ossGet, int64(len(b)), err)
	return b, err
}

// GetRange implements slimstore.ObjectStore.
func (m *meterStore) GetRange(key string, off, n int64) ([]byte, error) {
	r := m.begin()
	b, err := m.inner.GetRange(key, off, n)
	m.end(r, key, ossRange, int64(len(b)), err)
	return b, err
}

// Head implements slimstore.ObjectStore.
func (m *meterStore) Head(key string) (int64, error) {
	r := m.begin()
	n, err := m.inner.Head(key)
	m.end(r, key, ossHead, 0, err)
	return n, err
}

// Delete implements slimstore.ObjectStore.
func (m *meterStore) Delete(key string) error {
	r := m.begin()
	err := m.inner.Delete(key)
	m.end(r, key, ossDelete, 0, err)
	return err
}

// List implements slimstore.ObjectStore.
func (m *meterStore) List(prefix string) ([]string, error) {
	r := m.begin()
	keys, err := m.inner.List(prefix)
	m.end(r, prefix, ossList, 0, err)
	return keys, err
}
