package lnode

import (
	"sync"

	"slimstore/internal/chunker"
	"slimstore/internal/fingerprint"
)

// This file is the persistent fingerprint worker pool of the ingest fast
// path (DESIGN.md §13). An L-node owns one long-lived pool fed over a
// channel, so the hot path schedules work without spawning goroutines
// per call. The pool is lazily created on first use and torn down by
// Close (the jobs engine closes its L-nodes when a host retires).
//
// No simclock charges happen here: callers account for the hashing
// themselves (the probe pass bills OtherPerByte, the ring consumer
// charges per chunk).

// smallHashBatch is the per-worker chunk count at or below which handing
// work to the pool costs more than hashing inline — measured by
// BenchmarkHashChunksCrossover.
const smallHashBatch = 2

// hashJob is one unit of pool work: fingerprint chunks[i] into fps[i]
// for every i, then signal done. chunks and fps are owned by the
// submitter until done fires; the worker never retains them.
type hashJob struct {
	alg    fingerprint.Algorithm
	chunks []chunker.Chunk
	fps    []fingerprint.FP
	done   *sync.WaitGroup
}

// hashPool is a fixed set of long-lived fingerprint workers.
type hashPool struct {
	jobs chan hashJob
	wg   sync.WaitGroup
}

func newHashPool(workers int) *hashPool {
	p := &hashPool{jobs: make(chan hashJob, 4*workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				for k := range j.chunks {
					j.fps[k] = fingerprint.Of(j.alg, j.chunks[k].Data)
				}
				j.done.Done()
			}
		}()
	}
	return p
}

// submit enqueues one job; j.done must have been Add(1)'d by the caller.
func (p *hashPool) submit(j hashJob) { p.jobs <- j }

func (p *hashPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// hashers returns the node's persistent pool, creating it on first use.
// Nil when the configuration hashes inline (HashWorkers <= 0) or the
// node is closed — callers fall back to inline hashing.
func (n *LNode) hashers() *hashPool {
	if n.repo.Config.HashWorkers <= 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if n.hpool == nil {
		n.hpool = newHashPool(n.repo.Config.HashWorkers)
	}
	return n.hpool
}

// Close tears down the node's worker pool. Safe to call multiple times;
// jobs running on the node must have completed. After Close the node
// still works, hashing inline.
func (n *LNode) Close() {
	n.mu.Lock()
	pool := n.hpool
	vpool := n.vpool
	n.hpool = nil
	n.vpool = nil
	n.closed = true
	n.mu.Unlock()
	if pool != nil {
		pool.close()
	}
	if vpool != nil {
		vpool.close()
	}
}

// hashAll fingerprints chunks in input order: through the persistent
// pool when the input is large enough to amortise the hand-off (more than
// smallHashBatch chunks per worker), inline otherwise.
func (n *LNode) hashAll(alg fingerprint.Algorithm, chunks []chunker.Chunk) []fingerprint.FP {
	fps := make([]fingerprint.FP, len(chunks))
	w := n.repo.Config.HashWorkers
	if pool := n.hashers(); pool != nil && len(chunks) > smallHashBatch*w {
		pool.hashStrided(alg, chunks, fps, w)
		return fps
	}
	for i := range chunks {
		fps[i] = fingerprint.Of(alg, chunks[i].Data)
	}
	return fps
}

// hashStrided fingerprints chunks into fps over the pool, one contiguous
// range per worker (ways ranges in all), and waits for every range.
func (p *hashPool) hashStrided(alg fingerprint.Algorithm, chunks []chunker.Chunk, fps []fingerprint.FP, ways int) {
	stride := (len(chunks) + ways - 1) / ways
	var wg sync.WaitGroup
	for s := 0; s < len(chunks); s += stride {
		e := min(s+stride, len(chunks))
		wg.Add(1)
		p.submit(hashJob{alg: alg, chunks: chunks[s:e], fps: fps[s:e], done: &wg})
	}
	wg.Wait()
}
