package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
	"slimstore/internal/workload"
)

func init() {
	register("restorefast", "Restore fast path: serial vs pooled parallel-verify pipeline (DESIGN.md §14)", runRestoreFast)
}

// This experiment is the read-side twin of the ingest benchmark: it
// measures what the pooled restore pipeline (internal/lnode/restorefast.go)
// buys over a serial per-chunk emit. Each point runs one verify-restore
// through the emit→verify→write pipeline and reads both models off the
// same account: the serial composition (every fetch blocks the SHA blocks
// the write) and the stage-max of the overlapped pipeline. That the
// pipeline's charges equal the serial emit's, bit for bit, is pinned by
// the lnode fixture tests (testdata/restore_golden.json).

// restoreFastPolicies is the full policy matrix: the pipeline is
// policy-agnostic (the prefetcher dispatches from the pinned sequence,
// not from the policy), so every policy must show the speedup.
var restoreFastPolicies = []string{"fv", "opt", "alacc", "lru"}

// RestoreFastPoint is one (policy, verify-worker) cell: the serial
// composition vs the pipelined stage-max model over one account.
type RestoreFastPoint struct {
	Policy        string `json:"policy"`
	VerifyWorkers int    `json:"verify_workers"`
	Bytes         int64  `json:"bytes"`
	// BytesMatch: the restore delivered exactly the version's logical
	// size.
	BytesMatch bool `json:"bytes_match"`

	// Virtual columns are deterministic.
	SerialVirtualMBps float64 `json:"serial_virtual_mbps"`
	FastVirtualMBps   float64 `json:"fast_virtual_mbps"`
	VirtualSpeedup    float64 `json:"virtual_speedup"`

	// Wall column is informational (host-dependent).
	FastWallMS float64 `json:"fast_wall_ms"`
}

// RestoreFastResidency reports peak live heap while the pipeline streams
// a verify-restore: the window bounds slots in flight, so residency is
// the base repo footprint plus O(window × chunk size), not O(file).
type RestoreFastResidency struct {
	RestoredBytes int64   `json:"restored_bytes"`
	BaseHeapMiB   float64 `json:"base_heap_mib"`
	PeakHeapMiB   float64 `json:"peak_heap_mib"`
	PipelineMiB   float64 `json:"pipeline_mib"`
}

// RestoreFastReport is the BENCH_restorefast.json schema: the regression
// artifact TestRestoreFastRegression gates on.
type RestoreFastReport struct {
	Experiment      string   `json:"experiment"`
	FileBytes       int      `json:"file_bytes"`
	Versions        int      `json:"versions"`
	PrefetchThreads int      `json:"prefetch_threads"`
	HostCPUs        int      `json:"host_cpus"`
	Policies        []string `json:"policies"`

	Points []RestoreFastPoint `json:"points"`

	// Steady-state emit→verify→write hand-off allocations per pass.
	HandoffFastAllocs float64 `json:"handoff_fast_allocs_per_pass"`

	Residency RestoreFastResidency `json:"residency"`
}

// restoreVirtual composes the pipelined restore's virtual elapsed time
// from the account's phase totals: OSS reads overlap across the LAW
// prefetch channels, fingerprint verification fans out over the verify
// pool (W-way), the emit stage (restore memcpy + disk-cache traffic +
// redirect index queries) stays serial in sequence order, and the sink
// runs write-behind. The slowest stage is the pipeline's period.
func restoreVirtual(acct *simclock.Account, verifyW, threads int) time.Duration {
	if verifyW < 1 {
		verifyW = 1
	}
	if threads < 1 {
		threads = 1
	}
	io := acct.IO()
	stages := []time.Duration{
		io.ReadTime / time.Duration(threads),
		acct.CPUPhase(simclock.PhaseFingerprint) / time.Duration(verifyW),
		acct.CPUPhase(simclock.PhaseOther) + acct.CPUPhase(simclock.PhaseIndexQuery),
		io.WriteTime,
	}
	var max time.Duration
	for _, s := range stages {
		if s > max {
			max = s
		}
	}
	return max
}

// restoreFastChain is slimChain with the node-wide shared restore cache
// disabled, so every point reads cold and charges its own fetches (a
// shared cache warmed by the previous point would hand the next one free
// containers and skew its account).
func restoreFastChain(gen *workload.Generator, fileIdx, versions int) (*core.Repo, error) {
	cfg := benchConfig()
	cfg.SharedCacheBytes = -1
	repo, err := core.OpenRepo(oss.NewMem(), cfg)
	if err != nil {
		return nil, err
	}
	ln := lnode.New(repo, "L-chain")
	defer ln.Close()
	gn := gnode.New(repo)
	fileID := gen.FileIDs()[fileIdx]
	err = gen.VersionSeq(fileIdx, func(v int, data []byte) error {
		if v >= versions {
			return errDone
		}
		st, err := ln.Backup(fileID, data)
		if err != nil {
			return err
		}
		if _, err := gn.ReverseDedup(st.NewContainers); err != nil {
			return err
		}
		_, err = gn.CompactSparse(fileID, v, st.SparseContainers)
		return err
	})
	if err != nil && err != errDone {
		return nil, err
	}
	return repo, nil
}

// heapPeakWriter samples live heap every 2 MiB of restored output.
type heapPeakWriter struct {
	since int64
	peak  uint64
}

func (h *heapPeakWriter) Write(p []byte) (int, error) {
	h.since += int64(len(p))
	if h.since >= 2<<20 {
		h.since = 0
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > h.peak {
			h.peak = ms.HeapAlloc
		}
	}
	return len(p), nil
}

// RunRestoreFast measures the pipelined verify-restore over
// workerCounts × the full policy matrix on one optimised version chain,
// plus the steady-state hand-off allocations and a residency row.
func RunRestoreFast(ctx context.Context, workerCounts []int, s Scale) (*RestoreFastReport, error) {
	versions := clampVersions(s, 8)
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	fileIdx := 0
	fileID := gen.FileIDs()[fileIdx]
	repo, err := restoreFastChain(gen, fileIdx, versions)
	if err != nil {
		return nil, err
	}
	version := versions - 1
	rec, err := repo.RecipesFor(nil).GetRecipe(fileID, version)
	if err != nil {
		return nil, err
	}

	rep := &RestoreFastReport{
		Experiment:      "restorefast",
		FileBytes:       s.FileBytes,
		Versions:        versions,
		PrefetchThreads: repo.Config.PrefetchThreads,
		HostCPUs:        runtime.NumCPU(),
		Policies:        restoreFastPolicies,
	}
	threads := repo.Config.PrefetchThreads

	for _, w := range workerCounts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Fresh node per worker count: the dedicated verify pool is sized
		// once per node, so reusing a node across W would pin the first
		// width for every later wall measurement.
		repo.Config.VerifyWorkers = w
		node := lnode.New(repo, fmt.Sprintf("L-w%d", w))
		for _, policy := range restoreFastPolicies {
			repo.Config.RestorePolicy = policy
			//slimlint:ignore determinism the wall-clock column IS the measurement: this sweep reports host restore speed next to the virtual model
			start := time.Now()
			st, err := node.Verify(fileID, version)
			//slimlint:ignore determinism wall-clock is the measured quantity here
			wall := time.Since(start)
			if err != nil {
				node.Close()
				return nil, fmt.Errorf("restorefast: verify (%s, w=%d): %w", policy, w, err)
			}
			pt := RestoreFastPoint{
				Policy: policy, VerifyWorkers: w,
				Bytes:             st.Bytes,
				BytesMatch:        st.Bytes == rec.LogicalBytes(),
				SerialVirtualMBps: simclock.ThroughputMBps(st.Bytes, st.Account.ElapsedSequential()),
				FastVirtualMBps:   simclock.ThroughputMBps(st.Bytes, restoreVirtual(st.Account, w, threads)),
				FastWallMS:        float64(wall.Microseconds()) / 1e3,
			}
			if pt.SerialVirtualMBps > 0 {
				pt.VirtualSpeedup = pt.FastVirtualMBps / pt.SerialVirtualMBps
			}
			rep.Points = append(rep.Points, pt)
		}
		node.Close()
	}

	// Steady-state hand-off allocations: drive synthetic chunks through
	// the pooled pipeline.
	hcfg := benchConfig()
	hrepo, err := core.OpenRepo(oss.NewMem(), hcfg)
	if err != nil {
		return nil, err
	}
	hnode := lnode.New(hrepo, "L-handoff")
	defer hnode.Close()
	const handoffChunks, handoffChunkBytes = 2048, 4096
	buf := make([]byte, handoffChunks*handoffChunkBytes)
	if _, err := (&ingestRand{state: 7}).Read(buf); err != nil {
		return nil, err
	}
	chunks := make([][]byte, handoffChunks)
	seq := make([]cache.Request, handoffChunks)
	for i := range chunks {
		chunks[i] = buf[i*handoffChunkBytes : (i+1)*handoffChunkBytes]
		seq[i] = cache.Request{
			FP:   fingerprint.Of(hcfg.FingerprintAlg, chunks[i]),
			Size: uint32(len(chunks[i])),
		}
	}
	rep.HandoffFastAllocs = allocsPerRun(10, func() { hnode.RestoreHandoff(chunks, seq, true) })

	// Residency: peak live heap while the pipeline streams a full
	// verify-restore through the bounded window.
	repo.Config.RestorePolicy = "fv"
	node := lnode.New(repo, "L-residency")
	defer node.Close()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	repo.Config.VerifyRestore = true
	hw := &heapPeakWriter{}
	rst, err := node.Restore(fileID, version, hw)
	repo.Config.VerifyRestore = false
	if err != nil {
		return nil, fmt.Errorf("restorefast: residency restore: %w", err)
	}
	rep.Residency = RestoreFastResidency{
		RestoredBytes: rst.Bytes,
		BaseHeapMiB:   float64(base.HeapAlloc) / (1 << 20),
		PeakHeapMiB:   float64(hw.peak) / (1 << 20),
	}
	if hw.peak > base.HeapAlloc {
		rep.Residency.PipelineMiB = float64(hw.peak-base.HeapAlloc) / (1 << 20)
	}
	return rep, nil
}

// runRestoreFast is the registered experiment: it prints the sweep and
// writes the BENCH_restorefast.json regression artifact.
func runRestoreFast(ctx context.Context, w io.Writer, s Scale) error {
	rep, err := RunRestoreFast(ctx, []int{1, 2, 4, 8}, s)
	if err != nil {
		return err
	}

	t := newTable(w, "Restore fast path: serial composition vs pooled parallel-verify pipeline (virtual MB/s)")
	t.row("policy", "verifyW", "serial virtual", "fast virtual", "speedup", "fast wall ms", "bytes")
	for _, p := range rep.Points {
		bytes := "ok"
		if !p.BytesMatch {
			bytes = "MISMATCH"
		}
		t.row(p.Policy, fmt.Sprint(p.VerifyWorkers),
			f1(p.SerialVirtualMBps), f1(p.FastVirtualMBps), f2(p.VirtualSpeedup),
			f1(p.FastWallMS), bytes)
	}
	t.flush()
	fmt.Fprintf(w, "hand-off allocs/pass: %.1f\n", rep.HandoffFastAllocs)
	fmt.Fprintf(w, "pipelined verify-restore of %s: peak live heap %.1f MiB (base %.1f MiB, pipeline +%.1f MiB)\n",
		mib(rep.Residency.RestoredBytes), rep.Residency.PeakHeapMiB,
		rep.Residency.BaseHeapMiB, rep.Residency.PipelineMiB)
	return writeArtifact(w, "BENCH_restorefast.json", rep)
}
