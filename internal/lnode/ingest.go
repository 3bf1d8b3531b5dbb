package lnode

import (
	"fmt"
	"io"
	"sync"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// This file is the allocation-lean ingest fast path (DESIGN.md §13):
// chunk → fingerprint → dedupe → pack as a bounded pipeline of pooled
// batches. Chunks flow through a ring of recycled batches rather than
// being materialised for the whole version before the first dedup
// lookup, so a multi-GiB stream ingests in O(window) resident memory and
// the steady-state hot loop allocates (almost) nothing.
//
// Ownership discipline:
//   - The producer cuts chunks into batches and hands each batch to the
//     persistent hash pool, then to the ring. From that point the batch
//     (chunks, fps, attached slab) belongs to the consumer.
//   - The consumer waits for the batch's fingerprints, charges its
//     virtual CPU, runs the dedup sink (which copies unique payloads into
//     container buffers), and recycles the batch and its slab.
//   - In streaming mode each input buffer is attached to the last batch
//     cut from it; the ring is FIFO, so by the time that batch is
//     recycled every earlier batch referencing the buffer has been
//     consumed.
//
// Virtual-time determinism: chunking and fingerprint costs accumulate as
// per-chunk time.Duration conversions (exactly the truncation the serial
// path performs per ChargeCPUBytes call) summed into the batch, so the
// account total is bit-identical to the serial path regardless of worker
// count or interleaving.
const (
	// ingestBatchChunks is the hand-off granularity: one hash-pool job and
	// one ring slot per this many chunks (~1 MiB at the default 4 KiB avg).
	ingestBatchChunks = 256
	// ingestRingDepth bounds batches in flight between producer and
	// consumer — the pipeline's window, and its backpressure on the cutter.
	ingestRingDepth = 4
	// ingestSlabBytes is the streaming read-buffer size (grown to 4×Max
	// for oversized chunk configurations).
	ingestSlabBytes = 1 << 20
	// headBytes is how much of the input base detection samples (§IV-A);
	// also the streaming head-probe size.
	headBytes = 8 << 20
)

// chunkBatch is one pipeline unit: a run of consecutive chunks, their
// fingerprints (filled asynchronously by the hash pool; wait on done),
// the virtual CPU its production cost, and optionally the input buffer
// this batch is the last user of.
type chunkBatch struct {
	chunks   []chunker.Chunk
	fps      []fingerprint.FP
	done     sync.WaitGroup
	chunkCPU time.Duration
	hashCPU  time.Duration
	slab     []byte
}

// Fresh batches come sized for a full hand-off, so a pool miss costs two
// allocations rather than a run of append regrowths.
var batchPool = sync.Pool{New: func() any {
	return &chunkBatch{
		chunks: make([]chunker.Chunk, 0, ingestBatchChunks),
		fps:    make([]fingerprint.FP, 0, ingestBatchChunks),
	}
}}

func getBatch() *chunkBatch { return batchPool.Get().(*chunkBatch) }

func putBatch(b *chunkBatch) {
	if b.slab != nil {
		putSlab(b.slab)
		b.slab = nil
	}
	b.chunks = b.chunks[:0]
	b.fps = b.fps[:0]
	b.chunkCPU, b.hashCPU = 0, 0
	batchPool.Put(b)
}

// slabPool recycles streaming read buffers. Entries may differ in size
// across configurations; getSlab drops undersized ones.
var slabPool = sync.Pool{New: func() any { return (*[]byte)(nil) }}

func getSlab(n int) []byte {
	if p, _ := slabPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putSlab(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	slabPool.Put(&b)
}

// ingestRun is the per-backup pipeline state, pooled on the L-node so a
// steady stream of backups reuses the ring, cutter, and channels.
type ingestRun struct {
	node      *LNode
	alg       fingerprint.Algorithm
	cutter    chunker.Cutter
	cutCost   float64
	hashCost  float64
	maxChunk  int
	slabBytes int

	// ring carries batches producer → consumer; a nil batch is the
	// end-of-stream sentinel (the channel is never closed, so pooled runs
	// can reuse it).
	ring chan *chunkBatch
	// stop aborts the producer when the consumer fails mid-stream.
	stop    chan struct{}
	stopped bool

	prodErr  error
	produced int64
}

// newIngestRun takes a run from the node's pool; the cutter and ring
// survive reuse, only the per-run state resets.
func (n *LNode) newIngestRun() *ingestRun {
	cfg := &n.repo.Config
	r, _ := n.runs.Get().(*ingestRun)
	if r == nil {
		r = &ingestRun{ring: make(chan *chunkBatch, ingestRingDepth)}
	}
	if r.cutter == nil {
		r.cutter = n.repo.Cutter()
		r.maxChunk = r.cutter.Params().Max
		r.slabBytes = ingestSlabBytes
		if m := 4 * r.maxChunk; m > r.slabBytes {
			r.slabBytes = m
		}
	}
	r.node = n
	r.alg = cfg.FingerprintAlg
	r.cutCost = r.cutter.PerByteCost(cfg.Costs)
	r.hashCost = cfg.Costs.SHA1PerByte
	if cfg.FingerprintAlg == fingerprint.SHA256 {
		r.hashCost = cfg.Costs.SHA256PerByte
	}
	if r.stop == nil || r.stopped {
		r.stop = make(chan struct{})
		r.stopped = false
	}
	r.prodErr = nil
	r.produced = 0
	return r
}

func (n *LNode) putIngestRun(r *ingestRun) { n.runs.Put(r) }

// emit hands a finished batch to the hash pool and the ring. owned, if
// non-nil, is an input buffer whose last chunks live in this batch; it is
// recycled when the batch is. Returns false when the consumer aborted.
func (r *ingestRun) emit(b *chunkBatch, owned []byte) bool {
	b.slab = owned
	if cap(b.fps) < len(b.chunks) {
		b.fps = make([]fingerprint.FP, len(b.chunks))
	}
	b.fps = b.fps[:len(b.chunks)]
	b.done.Add(1)
	if pool := r.node.hashers(); pool != nil && len(b.chunks) > 0 {
		pool.submit(hashJob{alg: r.alg, chunks: b.chunks, fps: b.fps, done: &b.done})
	} else {
		for i := range b.chunks {
			b.fps[i] = fingerprint.Of(r.alg, b.chunks[i].Data)
		}
		b.done.Done()
	}
	select {
	case r.ring <- b:
		return true
	case <-r.stop:
		b.done.Wait()
		putBatch(b)
		return false
	}
}

// cut appends the next chunk starting at buf[pos] to b, charging its
// production cost into the batch. Returns the chunk length.
func (r *ingestRun) cut(b *chunkBatch, buf []byte, pos int, base int64) int {
	n := r.cutter.Cut(buf[pos:])
	if n <= 0 { // defensive, mirrors chunker.Stream.Next
		n = 1
	}
	b.chunks = append(b.chunks, chunker.Chunk{Offset: base + int64(pos), Data: buf[pos : pos+n]})
	b.chunkCPU += time.Duration(float64(n) * r.cutCost)
	b.hashCPU += time.Duration(float64(n) * r.hashCost)
	return n
}

// produceBuffer cuts an in-memory version into batches. Runs as a
// goroutine; always terminates the ring with the nil sentinel.
func (r *ingestRun) produceBuffer(data []byte) {
	defer func() { r.ring <- nil }()
	b := getBatch()
	pos := 0
	for pos < len(data) {
		pos += r.cut(b, data, pos, 0)
		if len(b.chunks) >= ingestBatchChunks {
			if !r.emit(b, nil) {
				return
			}
			b = getBatch()
		}
	}
	if len(b.chunks) > 0 {
		if !r.emit(b, nil) {
			return
		}
	} else {
		putBatch(b)
	}
	r.produced = int64(len(data))
}

// produceStream cuts head followed by rd into batches, reading through
// recycled slabs. A chunk is cut only when the lookahead covers the
// cutter's maximum chunk size (or the stream hit EOF), which makes the
// boundaries identical to cutting the whole input as one buffer. Runs as
// a goroutine; always terminates the ring with the nil sentinel.
func (r *ingestRun) produceStream(head []byte, rd io.Reader) {
	defer func() { r.ring <- nil }()
	b := getBatch()
	buf := head
	pos := 0
	var base int64
	eof := false
	for {
		for pos < len(buf) && (eof || len(buf)-pos >= r.maxChunk) {
			n := r.cut(b, buf, pos, base)
			pos += n
			r.produced += int64(n)
			if len(b.chunks) >= ingestBatchChunks {
				if !r.emit(b, nil) {
					return
				}
				b = getBatch()
			}
		}
		if eof {
			break
		}
		// Refill: copy the (< maxChunk) tail into a fresh slab and hand the
		// current buffer to the outgoing batch — the FIFO ring guarantees
		// every earlier batch referencing it is consumed first.
		slab := getSlab(r.slabBytes)
		rem := copy(slab, buf[pos:])
		if !r.emit(b, buf) {
			return
		}
		b = getBatch()
		base += int64(pos)
		n, err := io.ReadFull(rd, slab[rem:])
		buf, pos = slab[:rem+n], 0
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			eof = true
		default:
			r.prodErr = fmt.Errorf("lnode: read stream: %w", err)
			putBatch(b)
			putSlab(slab)
			return
		}
	}
	// The final buffer travels with the final batch (possibly empty).
	if len(b.chunks) > 0 || len(buf) > 0 {
		if !r.emit(b, buf) {
			return
		}
	} else {
		putBatch(b)
	}
}

// consume drains the ring in order, charging each batch's virtual CPU and
// feeding it to sink. On sink error the producer is aborted and the ring
// drained so the run stays reusable. acct may be nil (measurement runs).
func (r *ingestRun) consume(acct *simclock.Account, sink func(*chunkBatch) error) error {
	var firstErr error
	for {
		b := <-r.ring
		if b == nil {
			break
		}
		b.done.Wait()
		if firstErr == nil {
			if acct != nil {
				acct.ChargeCPU(simclock.PhaseChunking, b.chunkCPU)
				acct.ChargeCPU(simclock.PhaseFingerprint, b.hashCPU)
			}
			if err := sink(b); err != nil {
				firstErr = err
				r.stopped = true
				close(r.stop)
			}
		}
		putBatch(b)
	}
	if firstErr != nil {
		return firstErr
	}
	return r.prodErr
}

// probeVerdict is the dedup decision for one chunk, captured before any
// emission so the emit pass is pure output.
type probeVerdict struct {
	e    dedupEntry
	hit  bool
	gid  container.ID
	ghit bool
}

// consumeBatch is STEP 2 over one batch: probe every chunk in input order
// (local dedup cache, then recipe-index sample fetch, then — optionally —
// one batched global-index lookup for the misses), then emit the verdicts
// in input order. Probing never depends on emission state, so the split
// produces bit-identical recipes to the interleaved serial loop.
func (j *backupJob) consumeBatch(b *chunkBatch) error {
	if cap(j.verdicts) < len(b.chunks) {
		j.verdicts = make([]probeVerdict, len(b.chunks))
	}
	v := j.verdicts[:len(b.chunks)]
	for i := range b.chunks {
		fp := b.fps[i]
		j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexLookup)
		e, hit := j.dedupCache[fp]
		if !hit && j.baseIndex != nil {
			if segNo, found := j.baseIndex.Samples[fp]; found {
				if err := j.fetchSegment(int(segNo)); err != nil {
					return err
				}
				e, hit = j.dedupCache[fp]
			}
		}
		v[i] = probeVerdict{e: e, hit: hit}
	}
	if j.cfg.InlineGlobalProbe && j.node.repo.Global != nil {
		if err := j.probeGlobal(b, v); err != nil {
			return err
		}
	}
	for i := range b.chunks {
		switch {
		case v[i].hit:
			j.emitDuplicate(v[i].e, b.chunks[i])
		case v[i].ghit:
			j.emitGlobalDuplicate(b.fps[i], v[i].gid, b.chunks[i])
		default:
			if err := j.emitUnique(b.fps[i], b.chunks[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeGlobal resolves local misses against the global fingerprint index
// in one batched lookup. The paper dedups globally offline (G-node
// reverse deduplication, §V-A); this optional inline probe only ever hits
// fingerprints the G-node has already indexed, trading one batched index
// round-trip per ~ingestBatchChunks chunks for cross-file dedup at
// backup time.
func (j *backupJob) probeGlobal(b *chunkBatch, v []probeVerdict) error {
	j.gfps = j.gfps[:0]
	j.gidx = j.gidx[:0]
	for i := range v {
		if !v[i].hit {
			j.gfps = append(j.gfps, b.fps[i])
			j.gidx = append(j.gidx, i)
		}
	}
	if len(j.gfps) == 0 {
		return nil
	}
	ids, found, _, err := j.node.repo.Global.GetBatch(j.gfps)
	if err != nil {
		return fmt.Errorf("lnode: global probe: %w", err)
	}
	for k := range j.gfps {
		j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexLookup)
		j.stats.GlobalProbes++
		if found[k] {
			v[j.gidx[k]].ghit = true
			v[j.gidx[k]].gid = ids[k]
		}
	}
	return nil
}

// emitGlobalDuplicate records a chunk deduplicated against the global
// index: no new payload is stored, the recipe references the container
// the G-node indexed.
func (j *backupJob) emitGlobalDuplicate(fp fingerprint.FP, id container.ID, ch chunker.Chunk) {
	j.stats.NumDuplicates++
	j.stats.GlobalHits++
	j.stats.DuplicateBytes += int64(ch.Size())
	j.lastMatch = nil
	j.appendRecord(recipe.ChunkRecord{
		FP:             fp,
		Container:      id,
		Size:           uint32(ch.Size()),
		DuplicateTimes: 1,
	}, ch.Offset)
}

// dedupeFast is STEP 2 on the pooled pipeline for in-memory input.
func (j *backupJob) dedupeFast() error {
	r := j.node.newIngestRun()
	go r.produceBuffer(j.data)
	err := r.consume(j.acct, j.consumeBatch)
	j.node.putIngestRun(r)
	if err != nil {
		return err
	}
	return j.flushPending()
}

// dedupeStream is STEP 2 on the pooled pipeline for streaming input; it
// also learns the version's logical size as a side effect of cutting.
func (j *backupJob) dedupeStream(head []byte, rd io.Reader) error {
	r := j.node.newIngestRun()
	go r.produceStream(head, rd)
	err := r.consume(j.acct, j.consumeBatch)
	j.stats.LogicalBytes = r.produced
	j.node.putIngestRun(r)
	if err != nil {
		return err
	}
	return j.flushPending()
}

// IngestHandoff drives data through the pooled chunk→hash→ring hand-off
// with a counting sink — the steady-state allocation and throughput probe
// used by the ingest benchmark and the allocation-regression tests.
// Returns the number of chunks produced.
func (n *LNode) IngestHandoff(data []byte) int {
	r := n.newIngestRun()
	go r.produceBuffer(data)
	total := 0
	for {
		b := <-r.ring
		if b == nil {
			break
		}
		b.done.Wait()
		total += len(b.chunks)
		putBatch(b)
	}
	n.putIngestRun(r)
	return total
}
