package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"slimstore"
)

// Operation names, as they appear in span files and latency records.
const (
	opBackup   = "backup"
	opRestore  = "restore"
	opRange    = "range"
	opDelete   = "delete"
	opQueue    = "queue-optimize"
	opDrain    = "drain-optimize"
	opOptimize = "optimize"
)

type digest = [sha256.Size]byte

// opRecord is one timed System call.
type opRecord struct {
	op         string
	start, end time.Time
	bytes      int64
}

// layerTotals accumulates what the system's own stats report for the
// calls of one timed phase.
type layerTotals struct {
	logical, duplicate            int64
	skipHits, skipMisses          int64
	superHits, superMisses        int64
	segments, baseBySimilarity    int64
	restoredBytes, redirects      int64
	cacheRequests, memHits        int64
	diskHits, containersRead      int64
	rereads, pfDispatch, pfConsum int64
}

// gnodeTotals accumulates G-node work over the system's whole life: on
// sdb-restore the layout the timed restores read is made in setup.
type gnodeTotals struct {
	rdRemoved, rewritten, sccMoved int64
	gcCollected, gcReclaimed       int64
}

// bench is one system under test with its metered store.
type bench struct {
	store *meterStore
	sys   *slimstore.System

	mu        sync.Mutex
	tr        *tracer
	records   []opRecord
	layers    layerTotals
	gnode     gnodeTotals
	attempted int
	failed    int
	errs      []string
	live      map[fileVersion]int64 // logical bytes of each live version
	phases    int                   // timed phases started
}

type fileVersion struct {
	file    string
	version int
}

func newBench(def *workloadDef) (*bench, error) {
	store := newMeterStore(slimstore.NewMemoryStore(), def.delay)
	sys, err := slimstore.Open(store, def.config())
	if err != nil {
		return nil, fmt.Errorf("open system: %w", err)
	}
	return &bench{store: store, sys: sys, live: map[fileVersion]int64{}}, nil
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) liveBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, v := range b.live {
		n += v
	}
	return n
}

// client issues System calls in a closed loop. Calls made while timed
// is set are recorded for the end-to-end metrics.
type client struct {
	id    int
	b     *bench
	rng   *rand.Rand
	timed bool
	buf   bytes.Buffer // restore sink, reused
}

func newClient(b *bench, id int, seed int64) *client {
	return &client{id: id, b: b, rng: rand.New(rand.NewSource(seed*7919 + int64(id) + 1))}
}

// call runs fn as one System call: it counts the attempt, records the
// call's latency while timed, and emits a call span while traced.
func (c *client) call(op, file string, version int, fn func() (int64, error)) (int64, error) {
	b := c.b
	b.mu.Lock()
	b.attempted++
	tr := b.tr
	b.mu.Unlock()
	var id int64
	if tr != nil && c.timed {
		// A drain only waits for the background G-node: the requests
		// issued under it are the G-node's, not the drain's.
		id = tr.beginCall(op != opDrain)
	}
	start := time.Now()
	n, err := fn()
	end := time.Now()
	if tr != nil && c.timed {
		tr.endCall(span{ID: id, Op: op, Client: c.id, File: file, Version: version, Bytes: n}, start, end)
	}
	if err != nil {
		b.fail("%s %s v%d: %v", op, file, version, err)
	}
	if c.timed {
		b.mu.Lock()
		b.records = append(b.records, opRecord{op: op, start: start, end: end, bytes: n})
		b.mu.Unlock()
	}
	return n, err
}

// backup stores data as the next version of file and returns its stats.
func (c *client) backup(file string, data []byte) (*slimstore.BackupStats, error) {
	var st *slimstore.BackupStats
	_, err := c.call(opBackup, file, -1, func() (int64, error) {
		var err error
		st, err = c.b.sys.Backup(file, data)
		if err != nil {
			return 0, err
		}
		return st.LogicalBytes, nil
	})
	if err != nil {
		return nil, err
	}
	b := c.b
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live[fileVersion{file, st.Version}] = int64(len(data))
	if c.timed {
		l := &b.layers
		l.logical += st.LogicalBytes
		l.duplicate += st.DuplicateBytes
		l.skipHits += int64(st.SkipHits)
		l.skipMisses += int64(st.SkipMisses)
		l.superHits += int64(st.SuperHits)
		l.superMisses += int64(st.SuperMisses)
		l.segments += int64(st.SegmentsFetched)
		if st.BaseBy == "similarity" {
			l.baseBySimilarity++
		}
	}
	return st, nil
}

// queueOptimize hands a finished backup to the background G-node.
func (c *client) queueOptimize(st *slimstore.BackupStats) {
	_, _ = c.call(opQueue, st.FileID, st.Version, func() (int64, error) {
		return 0, c.b.sys.QueueOptimize(st)
	})
}

// drainOptimize waits until the background G-node finished every
// queued optimisation.
func (c *client) drainOptimize() {
	_, _ = c.call(opDrain, "", -1, func() (int64, error) {
		c.b.sys.DrainOptimize()
		return 0, nil
	})
}

// optimize runs the G-node pass for a backup synchronously (setup only).
func (c *client) optimize(st *slimstore.BackupStats) {
	_, _ = c.call(opOptimize, st.FileID, st.Version, func() (int64, error) {
		rd, scc, err := c.b.sys.Optimize(st)
		if err != nil {
			return 0, err
		}
		c.b.mu.Lock()
		defer c.b.mu.Unlock()
		c.b.gnode.rdRemoved += int64(rd.DuplicatesRemoved)
		c.b.gnode.rewritten += int64(rd.ContainersRewritten)
		c.b.gnode.sccMoved += int64(scc.ChunksMoved)
		return 0, nil
	})
}

// restore restores a whole version and checks it against want.
func (c *client) restore(file string, version int, want digest) {
	c.read(opRestore, file, version, want, func(w io.Writer) (*slimstore.RestoreStats, error) {
		return c.b.sys.Restore(file, version, w)
	})
}

// restoreRange restores [off, off+n) of a version and checks it.
func (c *client) restoreRange(file string, version int, off, n int64, want digest) {
	c.read(opRange, file, version, want, func(w io.Writer) (*slimstore.RestoreStats, error) {
		return c.b.sys.RestoreRange(file, version, off, n, w)
	})
}

// read runs one restore call into the client's buffer, then checks the
// restored bytes against want outside the timed call.
func (c *client) read(op, file string, version int, want digest, fn func(io.Writer) (*slimstore.RestoreStats, error)) {
	c.buf.Reset()
	var st *slimstore.RestoreStats
	_, err := c.call(op, file, version, func() (int64, error) {
		var err error
		if st, err = fn(&c.buf); err != nil {
			return 0, err
		}
		return st.Bytes, nil
	})
	if err != nil {
		return
	}
	if got := sha256.Sum256(c.buf.Bytes()); got != want {
		c.b.fail("%s %s v%d: restored bytes differ from the generator's (sha256 %x, want %x)", op, file, version, got[:8], want[:8])
		return
	}
	if !c.timed {
		return
	}
	b := c.b
	b.mu.Lock()
	defer b.mu.Unlock()
	l := &b.layers
	l.restoredBytes += st.Bytes
	l.redirects += int64(st.Redirects)
	l.cacheRequests += int64(st.Cache.Requests)
	l.memHits += int64(st.Cache.MemHits)
	l.diskHits += int64(st.Cache.DiskHits)
	l.containersRead += int64(st.Cache.ContainersRead)
	l.rereads += int64(st.Cache.Rereads)
	l.pfDispatch += int64(st.Prefetch.Dispatched)
	l.pfConsum += int64(st.Prefetch.Consumed)
}

// deleteVersion removes a version (version collection).
func (c *client) deleteVersion(file string, version int) error {
	_, err := c.call(opDelete, file, version, func() (int64, error) {
		st, err := c.b.sys.DeleteVersion(file, version)
		if err != nil {
			return 0, err
		}
		c.b.mu.Lock()
		defer c.b.mu.Unlock()
		delete(c.b.live, fileVersion{file, version})
		c.b.gnode.gcCollected += int64(st.ContainersCollected)
		c.b.gnode.gcReclaimed += st.BytesReclaimed
		return 0, nil
	})
	return err
}
