// Package lnode implements SLIMSTORE's stateless online processing node
// (paper §III-B, §IV, §V-A): fast online deduplication exploiting
// similarity and logical locality, the two history-aware accelerations
// (skip chunking and chunk merging / SuperChunking), and online restore
// with the full-vision cache and LAW-based prefetching.
//
// An L-node holds no durable state: everything a job needs — the recipe
// index of the detected base file, similar segment recipes, container
// metadata — is fetched from the storage layer during the job, so L-nodes
// scale out freely.
package lnode

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
	"slimstore/internal/simindex"
)

// LNode executes backup and restore jobs against a shared Repo.
type LNode struct {
	repo *core.Repo
	name string

	// Ingest fast-path resources (hashpool.go, ingest.go): a persistent
	// fingerprint worker pool and recycled pipeline runs.
	mu     sync.Mutex
	hpool  *hashPool
	closed bool
	runs   sync.Pool // *ingestRun

	// Restore fast-path resources (restorefast.go): an optional dedicated
	// verify pool (nil when verification shares hpool) and recycled
	// reassembly-ring runs.
	vpool *hashPool
	rruns sync.Pool // *restoreRun
}

// New returns an L-node. name is informational (logs, stats).
func New(repo *core.Repo, name string) *LNode {
	return &LNode{repo: repo, name: name}
}

// Name returns the node name.
func (n *LNode) Name() string { return n.name }

// BackupStats reports one backup job.
type BackupStats struct {
	FileID  string
	Version int

	LogicalBytes   int64 // input size
	DuplicateBytes int64 // bytes eliminated as duplicates
	StoredBytes    int64 // chunk payload bytes written to containers

	NumChunks     int // chunk records in the new recipe
	NumDuplicates int

	// History-aware skip chunking (§IV-B).
	SkipHits, SkipMisses int
	// SuperChunking (§IV-C): matches of existing superchunks and newly
	// merged ones.
	SuperHits, SuperMisses, NewSuperchunks int

	SegmentsFetched int
	// Inline global-index probing (Config.InlineGlobalProbe): fingerprints
	// probed against the global index and duplicates found there.
	GlobalProbes, GlobalHits int
	// Base file detection (STEP 1): "name", "similarity", or "none".
	BaseBy      string
	BaseFile    string
	BaseVersion int

	NewContainers    []container.ID
	SparseContainers []container.ID // detected for G-node's SCC (§V-B)

	Account *simclock.Account
	Elapsed time.Duration // virtual time, upload overlapped with compute
}

// DedupRatio is eliminated bytes over input bytes.
func (s *BackupStats) DedupRatio() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.DuplicateBytes) / float64(s.LogicalBytes)
}

// ThroughputMBps is the deduplication throughput in MB/s of virtual time.
func (s *BackupStats) ThroughputMBps() float64 {
	return simclock.ThroughputMBps(s.LogicalBytes, s.Elapsed)
}

// dedupEntry is one historical chunk record in the dedup cache, with
// enough context to find its successor for skip chunking.
type dedupEntry struct {
	rec   recipe.ChunkRecord
	segNo int
	idx   int
}

// backupJob is the per-job state of the online dedup pipeline.
type backupJob struct {
	node *LNode
	cfg  *core.Config
	acct *simclock.Account

	recipes    *recipe.Store
	containers *container.Store
	builder    *container.Builder
	pool       *container.PackPool // nil when packing synchronously
	sampler    fingerprint.Sampler

	// Base file (STEP 1 result).
	baseReader *recipe.SegmentReader
	baseIndex  *recipe.Index

	// Dedup cache (STEP 2): prefetched segment recipes, bounded by
	// Config.DedupCacheSegments with FIFO eviction.
	dedupCache   map[fingerprint.FP]dedupEntry
	superByFirst map[fingerprint.FP]dedupEntry
	fetchedSegs  map[int]*recipe.Segment
	fetchOrder   []int

	stats BackupStats

	// Output assembly.
	segments   []recipe.Segment
	curSegment []recipe.ChunkRecord
	// Pending run of merge-eligible records (history-aware chunk merging).
	pending   []pendingRec
	data      []byte
	sampled   []fingerprint.FP // sampled fingerprints for the sketch
	lastMatch *dedupEntry

	// Fast-path scratch, reused across batches (ingest.go).
	verdicts []probeVerdict
	gfps     []fingerprint.FP
	gidx     []int
}

type pendingRec struct {
	rec recipe.ChunkRecord
	off int64
}

// newBackupJob builds the per-job pipeline state shared by Backup and
// BackupStream. The caller must `defer j.drainPool()`.
func (n *LNode) newBackupJob(data []byte) *backupJob {
	acct := simclock.NewAccount()
	cfg := &n.repo.Config
	j := &backupJob{
		node:         n,
		cfg:          cfg,
		acct:         acct,
		recipes:      n.repo.RecipesFor(acct),
		containers:   n.repo.ContainersFor(acct),
		sampler:      fingerprint.NewSampler(cfg.SampleRatio),
		dedupCache:   make(map[fingerprint.FP]dedupEntry),
		superByFirst: make(map[fingerprint.FP]dedupEntry),
		fetchedSegs:  make(map[int]*recipe.Segment),
		data:         data,
	}
	if cfg.PackWorkers > 0 {
		// Pack stage: filled containers seal and upload on background
		// workers while the dedup loop continues (§IV-A's overlap of
		// computation and multipart upload, realised with real threads).
		// The byte budget bounds payload bytes buffered ahead of the
		// uploads, so ingest speed cannot outrun the write path unboundedly.
		budget := cfg.PackBudgetBytes
		if budget < 0 {
			budget = 0
		}
		j.pool = container.NewPackPoolBudget(j.containers, cfg.PackWorkers, budget)
		j.builder = container.NewBuilderAsync(j.containers, j.pool)
	} else {
		j.builder = container.NewBuilder(j.containers)
	}
	j.stats.Account = acct
	return j
}

// drainPool waits out the pack workers on error paths so no goroutine
// outlives the job. persist() owns the success-path Close and nils j.pool.
func (j *backupJob) drainPool() {
	if j.pool != nil {
		//slimlint:ignore errdiscipline this drain only runs when the job is already returning the original error; persist() owns the success-path Close and checks it
		j.pool.Close()
		j.pool = nil
	}
}

// finish computes virtual elapsed time from the account.
func (j *backupJob) finish() *BackupStats {
	io := j.acct.IO()
	cpu := j.acct.CPUTime()
	// The backup pipeline overlaps three resources (paper §IV-A/Fig 2):
	// segment-recipe prefetching (OSS reads), computation, and multipart
	// container upload (OSS writes). Elapsed time is the longest of the
	// three timelines; Fig 2's bottleneck flips from network (version 0
	// uploads everything) to CPU (later versions upload little).
	elapsed := cpu
	if io.ReadTime > elapsed {
		elapsed = io.ReadTime
	}
	if io.WriteTime > elapsed {
		elapsed = io.WriteTime
	}
	j.stats.Elapsed = elapsed
	return &j.stats
}

// Backup deduplicates one input file version and persists containers,
// recipe, recipe index, similarity sketch, and catalog entry.
func (n *LNode) Backup(fileID string, data []byte) (*BackupStats, error) {
	if fileID == "" {
		return nil, fmt.Errorf("lnode: empty file ID")
	}
	// Exclusive file lock: concurrent backups of the same file would race on
	// version allocation, and restores must see a complete version chain.
	// Different files proceed in parallel (striped by file ID).
	n.repo.Files.Lock(fileID)
	defer n.repo.Files.Unlock(fileID)

	j := n.newBackupJob(data)
	defer j.drainPool()
	j.stats.FileID = fileID
	j.stats.LogicalBytes = int64(len(data))

	// STEP 1: detect the latest historical version by name, falling back
	// to the similar file index.
	if err := j.detectBase(fileID, data); err != nil {
		return nil, err
	}

	// STEP 2: chunk, fingerprint, and deduplicate against prefetched
	// similar segment recipes.
	if err := j.dedupe(); err != nil {
		return nil, err
	}

	// STEP 3: persist containers, recipe, recipe index, sketch, catalog.
	if err := j.persist(fileID); err != nil {
		return nil, err
	}
	return j.finish(), nil
}

// BackupStream deduplicates one input version read from r without ever
// materialising it: resident memory stays O(pipeline window) — head
// probe + ring slabs + pack budget — regardless of input size. Requires
// the fast-path configuration (history-aware cuts need random access to
// the whole version); other configurations fall back to buffering the
// stream and calling Backup.
func (n *LNode) BackupStream(fileID string, rd io.Reader) (*BackupStats, error) {
	cfg := &n.repo.Config
	if cfg.SkipChunking || cfg.ChunkMerging || cfg.HashWorkers <= 0 {
		data, err := io.ReadAll(rd)
		if err != nil {
			return nil, fmt.Errorf("lnode: read stream: %w", err)
		}
		return n.Backup(fileID, data)
	}
	if fileID == "" {
		return nil, fmt.Errorf("lnode: empty file ID")
	}
	n.repo.Files.Lock(fileID)
	defer n.repo.Files.Unlock(fileID)

	// Base detection samples only the head (§IV-A) — the one part of the
	// stream that must be buffered, and later re-cut as the stream prefix.
	head := make([]byte, headBytes)
	hn, err := io.ReadFull(rd, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("lnode: read stream head: %w", err)
	}
	head = head[:hn]

	j := n.newBackupJob(nil)
	defer j.drainPool()
	j.stats.FileID = fileID

	if err := j.detectBase(fileID, head); err != nil {
		return nil, err
	}
	if err := j.dedupeStream(head, rd); err != nil {
		return nil, err
	}
	if err := j.persist(fileID); err != nil {
		return nil, err
	}
	return j.finish(), nil
}

// detectBase implements STEP 1 of §IV-A.
func (j *backupJob) detectBase(fileID string, data []byte) error {
	latest, ok, err := j.recipes.LatestVersion(fileID)
	if err != nil {
		return fmt.Errorf("lnode: detect base: %w", err)
	}
	if ok {
		j.stats.Version = latest + 1
		j.stats.BaseBy = "name"
		j.stats.BaseFile = fileID
		j.stats.BaseVersion = latest
		return j.openBase(fileID, latest)
	}
	j.stats.Version = 0
	j.stats.BaseBy = "none"

	// Name miss: sample the header chunks and query the similar file
	// index (large files cannot be fully chunked in memory first, so only
	// the head is sampled — §IV-A).
	head := data
	if len(head) > headBytes {
		head = head[:headBytes]
	}
	cutter := j.node.repo.Cutter()
	stream := chunker.NewStream(head, cutter, nil, j.cfg.Costs) // probe pass: not charged as chunking
	var chunks []chunker.Chunk
	for {
		ch, ok := stream.Next()
		if !ok {
			break
		}
		chunks = append(chunks, ch)
	}
	var fps []fingerprint.FP
	for _, fp := range j.node.hashAll(j.cfg.FingerprintAlg, chunks) {
		if j.sampler.Sample(fp) {
			fps = append(fps, fp)
		}
	}
	j.acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(head)), j.cfg.Costs.OtherPerByte)
	if len(fps) == 0 {
		return nil
	}
	m, found := j.node.repo.SimIndex.Query(simindex.SketchOf(fps, simindex.DefaultSketchSize), j.cfg.SimilarityMinScore)
	j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexLookup)
	if !found {
		return nil
	}
	j.stats.BaseBy = "similarity"
	j.stats.BaseFile = m.FileID
	j.stats.BaseVersion = m.Version
	return j.openBase(m.FileID, m.Version)
}

func (j *backupJob) openBase(fileID string, version int) error {
	idx, err := j.recipes.GetIndex(fileID, version)
	if err != nil {
		return fmt.Errorf("lnode: fetch recipe index: %w", err)
	}
	rd, err := j.recipes.OpenSegments(fileID, version)
	if err != nil {
		return fmt.Errorf("lnode: open base segments: %w", err)
	}
	j.baseIndex = idx
	j.baseReader = rd
	return nil
}

// fetchSegment prefetches one similar segment recipe into the dedup
// cache, evicting the oldest segment when the cache is full.
func (j *backupJob) fetchSegment(segNo int) error {
	if _, done := j.fetchedSegs[segNo]; done {
		return nil
	}
	seg, err := j.baseReader.Fetch(segNo)
	if err != nil {
		return fmt.Errorf("lnode: prefetch segment %d: %w", segNo, err)
	}
	for len(j.fetchedSegs) >= j.cfg.DedupCacheSegments && len(j.fetchOrder) > 0 {
		j.evictSegment(j.fetchOrder[0])
		j.fetchOrder = j.fetchOrder[1:]
	}
	j.fetchedSegs[segNo] = seg
	j.fetchOrder = append(j.fetchOrder, segNo)
	j.stats.SegmentsFetched++
	for i := range seg.Records {
		rec := &seg.Records[i]
		e := dedupEntry{rec: *rec, segNo: segNo, idx: i}
		if _, dup := j.dedupCache[rec.FP]; !dup {
			j.dedupCache[rec.FP] = e
		}
		if rec.Super {
			if _, dup := j.superByFirst[rec.FirstChunk]; !dup {
				j.superByFirst[rec.FirstChunk] = e
			}
		}
		j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexInsert)
	}
	return nil
}

// evictSegment drops one prefetched segment and its cache entries.
func (j *backupJob) evictSegment(segNo int) {
	seg := j.fetchedSegs[segNo]
	if seg == nil {
		return
	}
	delete(j.fetchedSegs, segNo)
	for i := range seg.Records {
		rec := &seg.Records[i]
		if e, ok := j.dedupCache[rec.FP]; ok && e.segNo == segNo {
			delete(j.dedupCache, rec.FP)
		}
		if rec.Super {
			if e, ok := j.superByFirst[rec.FirstChunk]; ok && e.segNo == segNo {
				delete(j.superByFirst, rec.FirstChunk)
			}
		}
	}
	if j.lastMatch != nil && j.lastMatch.segNo == segNo {
		j.lastMatch = nil
	}
}

// successor returns the historical record following e (crossing into the
// next segment only if it is already in the dedup cache).
func (j *backupJob) successor(e *dedupEntry) (dedupEntry, bool) {
	seg := j.fetchedSegs[e.segNo]
	if seg == nil {
		return dedupEntry{}, false
	}
	if e.idx+1 < len(seg.Records) {
		return dedupEntry{rec: seg.Records[e.idx+1], segNo: e.segNo, idx: e.idx + 1}, true
	}
	next := j.fetchedSegs[e.segNo+1]
	if next == nil || len(next.Records) == 0 {
		return dedupEntry{}, false
	}
	return dedupEntry{rec: next.Records[0], segNo: e.segNo + 1, idx: 0}, true
}

// dedupe implements STEP 2: the main chunk loop with history-aware skip
// chunking and SuperChunking.
func (j *backupJob) dedupe() error {
	// With both history-aware accelerations off, chunk boundaries no longer
	// depend on dedup decisions (skip cuts and merges make the next cut
	// depend on the previous verdict), so chunking and fingerprinting run
	// as a parallel front stage: the pooled batch pipeline (ingest.go).
	if !j.cfg.SkipChunking && !j.cfg.ChunkMerging && j.cfg.HashWorkers > 0 {
		return j.dedupeFast()
	}
	cutter := j.node.repo.Cutter()
	stream := chunker.NewStream(j.data, cutter, j.acct, j.cfg.Costs)

	for !stream.Done() {
		// History-aware skip chunking (§IV-B): after a confirmed
		// duplicate, try cutting the historical successor's size directly
		// and verifying by fingerprint comparison alone.
		if j.cfg.SkipChunking && j.lastMatch != nil {
			next, ok := j.successor(j.lastMatch)
			if ok && (!next.rec.Super || j.cfg.ChunkMerging) {
				if ch, cut := stream.SkipCut(int(next.rec.Size)); cut {
					fp := j.node.repo.Fingerprint(j.acct, ch.Data)
					if fp == next.rec.FP {
						if next.rec.Super {
							j.stats.SuperHits++
						} else {
							j.stats.SkipHits++
						}
						j.emitDuplicate(next, ch)
						continue
					}
					stream.Rewind(ch.Offset)
					j.stats.SkipMisses++
				}
			}
			j.lastMatch = nil
		}

		// Regular CDC path.
		ch, ok := stream.Next()
		if !ok {
			break
		}
		fp := j.node.repo.Fingerprint(j.acct, ch.Data)
		j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexLookup)
		e, hit := j.dedupCache[fp]
		if !hit && j.baseIndex != nil {
			// Probe the recipe index; a sample match prefetches the whole
			// similar segment recipe (logical locality). Sampling bounds
			// the index size, not the probe cost — the index is already in
			// L-node memory for the duration of the job, so every miss
			// probes it.
			if segNo, found := j.baseIndex.Samples[fp]; found {
				if err := j.fetchSegment(int(segNo)); err != nil {
					return err
				}
				e, hit = j.dedupCache[fp]
			}
		}
		if hit {
			j.emitDuplicate(e, ch)
			continue
		}

		// SuperChunking (Algorithm 1): the chunk may be the first chunk
		// of a historical superchunk.
		if j.cfg.ChunkMerging {
			if super, ok := j.superByFirst[fp]; ok && int(super.rec.Size) > ch.Size() {
				ext, cut := stream.SkipCut(int(super.rec.Size) - ch.Size())
				if cut {
					scData := j.data[ch.Offset : ch.Offset+int64(super.rec.Size)]
					scFP := j.node.repo.Fingerprint(j.acct, scData)
					if scFP == super.rec.FP {
						j.stats.SuperHits++
						j.emitDuplicate(super, chunker.Chunk{Offset: ch.Offset, Data: scData})
						continue
					}
					stream.Rewind(ext.Offset)
					j.stats.SuperMisses++
					// The paper marks the small chunk duplicate here
					// (Algorithm 1 line 10); our containers address whole
					// chunks only, so the chunk is stored unique instead —
					// a slightly larger ratio loss on superchunk changes.
				}
			}
		}

		if err := j.emitUnique(fp, ch); err != nil {
			return err
		}
	}
	return j.flushPending()
}

// emitDuplicate records a confirmed duplicate chunk.
func (j *backupJob) emitDuplicate(e dedupEntry, ch chunker.Chunk) {
	rec := e.rec
	rec.DuplicateTimes++
	j.stats.NumDuplicates++
	j.stats.DuplicateBytes += int64(ch.Size())
	j.lastMatch = &e
	j.appendRecord(rec, ch.Offset)
}

// emitUnique stores a new chunk and records it.
func (j *backupJob) emitUnique(fp fingerprint.FP, ch chunker.Chunk) error {
	id, err := j.builder.Add(fp, ch.Data)
	if err != nil {
		return fmt.Errorf("lnode: store chunk: %w", err)
	}
	j.stats.StoredBytes += int64(ch.Size())
	j.lastMatch = nil
	j.appendRecord(recipe.ChunkRecord{
		FP:        fp,
		Container: id,
		Size:      uint32(ch.Size()),
	}, ch.Offset)
	return nil
}

// appendRecord feeds the history-aware chunk-merging stage (§IV-C):
// consecutive duplicate records whose duplicateTimes reached the merge
// threshold accumulate into a pending run that becomes a superchunk.
func (j *backupJob) appendRecord(rec recipe.ChunkRecord, off int64) {
	mergeable := j.cfg.ChunkMerging &&
		!rec.Super &&
		rec.DuplicateTimes >= uint32(j.cfg.MergeThreshold) &&
		rec.DuplicateTimes > 0
	if mergeable {
		// Cap the run so superchunks stay within MaxSuperChunkBytes.
		if len(j.pending) > 0 {
			runBytes := int64(0)
			for i := range j.pending {
				runBytes += int64(j.pending[i].rec.Size)
			}
			if runBytes+int64(rec.Size) > int64(j.cfg.MaxSuperChunkBytes) {
				j.mergePendingRun()
			}
		}
		j.pending = append(j.pending, pendingRec{rec: rec, off: off})
		return
	}
	j.mergePendingRun()
	j.commitRecord(rec)
}

// mergePendingRun converts the pending run into a superchunk (if it has at
// least two chunks) or commits its records unchanged.
func (j *backupJob) mergePendingRun() {
	defer func() { j.pending = j.pending[:0] }()
	if len(j.pending) == 0 {
		return
	}
	if len(j.pending) < 2 {
		for i := range j.pending {
			j.commitRecord(j.pending[i].rec)
		}
		return
	}
	start := j.pending[0].off
	var total int64
	minDup := j.pending[0].rec.DuplicateTimes
	for i := range j.pending {
		total += int64(j.pending[i].rec.Size)
		if d := j.pending[i].rec.DuplicateTimes; d < minDup {
			minDup = d
		}
	}
	scData := j.data[start : start+total]
	scFP := j.node.repo.Fingerprint(j.acct, scData)
	// The merged blob must be stored: no existing container holds it
	// contiguously. This one-time write is the Fig 7 version-6 dip and
	// the source of the small deduplication-ratio loss.
	id, err := j.builder.Add(scFP, scData)
	if err != nil {
		// Fall back to the unmerged records; merging is an optimisation.
		for i := range j.pending {
			j.commitRecord(j.pending[i].rec)
		}
		return
	}
	j.stats.StoredBytes += total
	j.stats.NewSuperchunks++
	j.commitRecord(recipe.ChunkRecord{
		FP:             scFP,
		Container:      id,
		Size:           uint32(total),
		DuplicateTimes: minDup,
		Super:          true,
		FirstChunk:     j.pending[0].rec.FP,
	})
}

// commitRecord adds a finalized record to the current segment.
func (j *backupJob) commitRecord(rec recipe.ChunkRecord) {
	j.stats.NumChunks++
	j.acct.ChargeCPU(simclock.PhaseOther, j.cfg.Costs.RecipeAppend)
	if len(j.curSegment) == 0 || j.sampler.Sample(rec.FP) {
		j.sampled = append(j.sampled, rec.FP)
	}
	j.curSegment = append(j.curSegment, rec)
	if len(j.curSegment) >= j.cfg.SegmentChunks {
		j.segments = append(j.segments, recipe.Segment{Records: j.curSegment})
		j.curSegment = nil
	}
}

func (j *backupJob) flushPending() error {
	j.mergePendingRun()
	if len(j.curSegment) > 0 {
		j.segments = append(j.segments, recipe.Segment{Records: j.curSegment})
		j.curSegment = nil
	}
	return nil
}

// persist implements STEP 3 plus the bookkeeping G-node depends on:
// sparse-container detection and the version-collection mark phase.
func (j *backupJob) persist(fileID string) error {
	if err := j.builder.Flush(); err != nil {
		return fmt.Errorf("lnode: flush containers: %w", err)
	}
	if j.pool != nil {
		// Barrier: every container must be durable before the recipe that
		// references it lands (and before sparse detection reads metas back).
		pool := j.pool
		j.pool = nil
		if err := pool.Close(); err != nil {
			return fmt.Errorf("lnode: pack containers: %w", err)
		}
	}

	r := &recipe.Recipe{FileID: fileID, Version: j.stats.Version, Segments: j.segments}
	if _, err := j.recipes.PutRecipe(r); err != nil {
		return err
	}
	idx := recipe.BuildIndex(r, j.sampler)
	if err := j.recipes.PutIndex(idx); err != nil {
		return err
	}
	if err := j.node.repo.SimIndex.Put(fileID, j.stats.Version,
		simindex.SketchOf(j.sampled, simindex.DefaultSketchSize)); err != nil {
		return err
	}

	// Containers referenced by this version, and the new ones it created.
	refs := make(map[container.ID]int)
	r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
		refs[rec.Container]++
		return true
	})
	var refList []container.ID
	for id := range refs {
		refList = append(refList, id)
	}
	sort.Slice(refList, func(a, b int) bool { return refList[a] < refList[b] })

	prevSet := make(map[container.ID]bool)
	if j.stats.BaseBy == "name" {
		prevInfo, err := j.recipes.GetInfo(fileID, j.stats.Version-1)
		if err == nil {
			for _, id := range prevInfo.Containers {
				prevSet[id] = true
			}
			// Version-collection mark phase (§VI-B): containers referenced
			// by the previous version but not this one become garbage
			// candidates associated with the previous version.
			var garbage []container.ID
			for _, id := range prevInfo.Containers {
				if _, still := refs[id]; !still {
					garbage = append(garbage, id)
				}
			}
			if len(garbage) > 0 {
				prevInfo.Garbage = appendUnique(prevInfo.Garbage, garbage)
				if err := j.recipes.PutInfo(prevInfo); err != nil {
					return err
				}
			}
		}
	}
	for _, id := range refList {
		if !prevSet[id] {
			// Either brand new or newly referenced via similarity.
			if int64(id) > 0 && refs[id] > 0 {
				j.stats.NewContainers = append(j.stats.NewContainers, id)
			}
		}
	}

	// Sparse-container detection (§V-B): utilization of each referenced
	// container from this version's point of view.
	for _, id := range refList {
		m, err := j.containers.ReadMeta(id)
		if err != nil {
			return fmt.Errorf("lnode: sparse detection: %w", err)
		}
		if len(m.Chunks) == 0 {
			continue
		}
		util := float64(refs[id]) / float64(len(m.Chunks))
		if util < j.cfg.SparseUtilization {
			j.stats.SparseContainers = append(j.stats.SparseContainers, id)
		}
	}

	info := &recipe.VersionInfo{
		FileID:      fileID,
		Version:     j.stats.Version,
		LogicalSize: j.stats.LogicalBytes,
		StoredSize:  j.stats.StoredBytes,
		NumChunks:   j.stats.NumChunks,
		Containers:  refList,
	}
	return j.recipes.PutInfo(info)
}

func appendUnique(dst []container.ID, add []container.ID) []container.ID {
	seen := make(map[container.ID]bool, len(dst))
	for _, id := range dst {
		seen[id] = true
	}
	for _, id := range add {
		if !seen[id] {
			seen[id] = true
			dst = append(dst, id)
		}
	}
	return dst
}
