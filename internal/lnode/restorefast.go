package lnode

import (
	"fmt"
	"io"
	"sync"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/fingerprint"
	"slimstore/internal/simclock"
)

// This file is the restore fast path (DESIGN.md §14): the read-side twin
// of the pooled ingest pipeline. Charging, verifying and writing every
// chunk inside one sequential emit callback would serialise the OSS
// fetch, the per-chunk SHA and the sink write; the fast path splits them
// into a bounded pipeline:
//
//	policy emit ──ring──▶ verifier ──out──▶ writer
//
//   - The emit stage (the policy's goroutine) charges the chunk's virtual
//     CPU, copies the payload into a pooled slot, hands the slot to the
//     persistent fingerprint pool when verifying, and pushes it onto the
//     reassembly ring. Copying before returning honours the policies'
//     buffer ownership: a policy may evict or reuse the emitted bytes the
//     moment emit returns.
//   - The verifier drains the ring in order (the ring is FIFO and the
//     verifier is single, so reassembly is free), waits for each slot's
//     fingerprint, and compares it against the recipe's.
//   - The writer runs w.Write behind a depth-2 hand-off channel, so the
//     sink overlaps the next window's verification (double-buffered
//     write-behind).
//
// The ring depth (Config.RestoreWindow) bounds slots in flight, so a
// restore streams at O(window × chunk size) resident pipeline memory.
//
// Ownership discipline: a slot belongs to the emit stage until it enters
// the ring, then to the verifier, then to the writer, which recycles it.
// On abort the stage holding a slot recycles it after the fingerprint
// pool is done with it. The ring and out channels are never closed — the
// nil sentinel terminates both loops, so pooled runs reuse the channels.
//
// Virtual-time determinism: every charge is a per-chunk
// time.Duration(float64(n)·costPerByte) conversion issued on the emit
// stage in sequence order — exactly the truncation and order of a serial
// per-chunk emit — so accounts are bit-identical to that serial emit's,
// recorded in testdata/restore_golden.json, regardless of worker count or
// interleaving (TestRestoreTwinSerial).

// restoreOutDepth is the writer hand-off depth: one buffer being written
// while the next verified one waits — the double-buffered write-behind.
const restoreOutDepth = 2

// restoreSlot is one in-flight chunk: a pooled payload copy, the
// recipe's expected fingerprint, and the computed one (filled
// asynchronously by the fingerprint pool; wait on done).
type restoreSlot struct {
	buf  []byte
	idx  int            // position in the restore sequence (error reports)
	want fingerprint.FP // recipe fingerprint (verify runs only)
	need bool           // fingerprint not yet computed: verifier hashes inline

	// chunk/got are the slot's single-chunk view for hashJob, so a pool
	// submission allocates nothing.
	chunk [1]chunker.Chunk
	got   [1]fingerprint.FP
	done  sync.WaitGroup
}

var restoreSlotPool = sync.Pool{New: func() any { return new(restoreSlot) }}

func getRestoreSlot() *restoreSlot { return restoreSlotPool.Get().(*restoreSlot) }

func putRestoreSlot(s *restoreSlot) {
	s.buf = s.buf[:0]
	s.need = false
	s.chunk[0] = chunker.Chunk{}
	restoreSlotPool.Put(s)
}

// restoreRun is the per-restore pipeline state, pooled on the L-node so a
// steady stream of restore/verify jobs reuses the ring and channels.
type restoreRun struct {
	node   *LNode
	acct   *simclock.Account
	w      io.Writer
	verify bool
	alg    fingerprint.Algorithm
	pool   *hashPool // nil = hash on the verifier (VerifyWorkers < 0)

	emitCost float64 // Costs.RestorePerByte
	hashCost float64 // per-byte fingerprint cost, as repo.Fingerprint charges it

	fileID  string
	version int
	seq     []cache.Request
	pos     int
	written int64 // writer-accumulated sink bytes (range restores)

	// ring carries slots emit → verifier; out carries verified slots to
	// the writer. A nil slot is the end-of-stream sentinel on both (the
	// channels are never closed, so pooled runs reuse them).
	ring chan *restoreSlot
	out  chan *restoreSlot
	// stop aborts the emit stage when verification or the sink fails.
	stop    chan struct{}
	stopped bool

	mu  sync.Mutex
	err error // first pipeline error
	wg  sync.WaitGroup
}

// newRestoreRun takes a run from the node's pool and starts its verifier
// and writer; the channels survive reuse unless the configured window
// changed. Callers must finish() the run on every path.
func (n *LNode) newRestoreRun(acct *simclock.Account, w io.Writer, verify bool, seq []cache.Request, fileID string, version int) *restoreRun {
	cfg := &n.repo.Config
	window := cfg.RestoreWindow
	if window < 2 {
		window = 2
	}
	r, _ := n.rruns.Get().(*restoreRun)
	if r == nil || cap(r.ring) != window {
		r = &restoreRun{
			ring: make(chan *restoreSlot, window),
			out:  make(chan *restoreSlot, restoreOutDepth),
		}
	}
	if r.stop == nil || r.stopped {
		r.stop = make(chan struct{})
		r.stopped = false
	}
	r.node = n
	r.acct = acct
	r.w = w
	r.verify = verify
	r.alg = cfg.FingerprintAlg
	r.pool = nil
	if verify {
		r.pool = n.verifiers()
	}
	r.emitCost = cfg.Costs.RestorePerByte
	r.hashCost = cfg.Costs.SHA1PerByte
	if cfg.FingerprintAlg == fingerprint.SHA256 {
		r.hashCost = cfg.Costs.SHA256PerByte
	}
	r.fileID, r.version = fileID, version
	r.seq = seq
	r.pos = 0
	r.written = 0
	r.err = nil
	r.wg.Add(2)
	go r.verifyLoop()
	go r.writeLoop()
	return r
}

// fail records the pipeline's first error and aborts the emit stage.
func (r *restoreRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	r.mu.Unlock()
}

func (r *restoreRun) failed() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// emit is the cache.Emit of the fast path. It runs on the policy's
// goroutine, so charges land in sequence order.
func (r *restoreRun) emit(data []byte) error {
	if err := r.failed(); err != nil {
		return err
	}
	r.acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(data)), r.emitCost)
	if r.verify {
		// The per-chunk conversion repo.Fingerprint's charge performs,
		// issued here in sequence order so totals stay bit-identical.
		r.acct.ChargeCPUBytes(simclock.PhaseFingerprint, int64(len(data)), r.hashCost)
	}
	return r.push(data)
}

// push copies data into a pooled slot and queues it on the reassembly
// ring. The caller has already issued the chunk's virtual charges (the
// range-restore emit charges the full chunk but pushes only the trimmed
// payload).
func (r *restoreRun) push(data []byte) error {
	s := getRestoreSlot()
	if cap(s.buf) < len(data) {
		// Grow straight to the largest plain chunk, so a recycled slot
		// reallocates at most once rather than each time it meets a chunk
		// bigger than any it has held; only superchunks exceed this.
		s.buf = make([]byte, 0, max(len(data), r.node.repo.Config.ChunkParams.Max))
	}
	s.buf = append(s.buf[:0], data...)
	s.idx = r.pos
	r.pos++
	if r.verify {
		s.want = r.seq[s.idx].FP
		if r.pool != nil {
			s.chunk[0] = chunker.Chunk{Data: s.buf}
			s.done.Add(1)
			r.pool.submit(hashJob{alg: r.alg, chunks: s.chunk[:], fps: s.got[:], done: &s.done})
		} else {
			s.need = true // verifier hashes inline
		}
	}
	select {
	case r.ring <- s:
		return nil
	case <-r.stop:
		s.done.Wait()
		putRestoreSlot(s)
		return r.failed()
	}
}

// verifyLoop drains the ring in order, resolves each slot's fingerprint,
// and forwards verified slots to the writer. On mismatch it aborts the
// emit stage and keeps draining so the run stays reusable.
func (r *restoreRun) verifyLoop() {
	defer r.wg.Done()
	for {
		s := <-r.ring
		if s == nil {
			r.out <- nil
			return
		}
		if r.verify {
			if s.need {
				s.got[0] = fingerprint.Of(r.alg, s.buf)
			} else {
				s.done.Wait()
			}
			if r.failed() == nil && s.got[0] != s.want {
				r.fail(fmt.Errorf("lnode: verify %s v%d: chunk %d corrupt (got %s, want %s)",
					r.fileID, r.version, s.idx, s.got[0].Short(), s.want.Short()))
			}
		}
		if r.failed() != nil {
			putRestoreSlot(s) // drain mode: recycle without forwarding
		} else {
			r.out <- s
		}
	}
}

// writeLoop is the write-behind sink: it writes verified slots in order
// and recycles them. The writer always drains to the sentinel — on error
// it stops writing but keeps recycling, so the verifier never blocks.
func (r *restoreRun) writeLoop() {
	defer r.wg.Done()
	for {
		s := <-r.out
		if s == nil {
			return
		}
		if r.failed() == nil {
			nw, werr := r.w.Write(s.buf)
			r.written += int64(nw)
			if werr != nil {
				r.fail(werr)
			}
		}
		putRestoreSlot(s)
	}
}

// finish terminates the pipeline, joins its goroutines, recycles the
// run, and folds the pipeline's error into the policy's: the pipeline
// error wins (it is the first failure in sequence order; the policy
// error is either the same one propagated through emit, or a fetch error
// that a serial execution would have hit later). Returns the sink bytes
// the writer delivered. The run must not be used after finish.
func (r *restoreRun) finish(policyErr error) (int64, error) {
	r.ring <- nil
	r.wg.Wait()
	err := r.err
	if err == nil {
		err = policyErr
	}
	written := r.written
	r.acct, r.w, r.seq = nil, nil, nil
	r.node.rruns.Put(r)
	return written, err
}

// verifiers returns the fingerprint pool verification fans out over:
// the node's ingest hash pool when the configured sizes agree (one pool,
// shared backpressure), a dedicated pool otherwise. Nil when
// VerifyWorkers < 0 (hash on the verifier stage) or the node is closed.
func (n *LNode) verifiers() *hashPool {
	w := n.repo.Config.VerifyWorkers
	if w <= 0 {
		return nil
	}
	if w == n.repo.Config.HashWorkers {
		return n.hashers()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if n.vpool == nil {
		n.vpool = newHashPool(w)
	}
	return n.vpool
}

// RestoreHandoff drives payloads through the pooled emit→verify→write
// pipeline into a discarding sink — the steady-state allocation and
// throughput probe used by the restorefast benchmark and the
// allocation-regression tests. Returns the number of chunks written.
func (n *LNode) RestoreHandoff(chunks [][]byte, seq []cache.Request, verify bool) int {
	r := n.newRestoreRun(simclock.NewAccount(), io.Discard, verify, seq, "handoff", 0)
	for _, c := range chunks {
		if err := r.emit(c); err != nil {
			break
		}
	}
	if _, err := r.finish(nil); err != nil {
		return -1
	}
	return len(chunks)
}
