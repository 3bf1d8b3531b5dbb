package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/jobs"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

func init() {
	register("restoreio", "Restore I/O layer: ranged-read planner vs full container reads, shared cache vs per-job fetching", runRestoreIO)
}

// Dataset shape: one file of unique (incompressible, dedup-free) data, so
// every container is densely referenced by the full restore and the
// sparse need-sets below come purely from the restore window, not from
// fragmentation. Virtual time and OSS byte counts are fully deterministic.
const (
	rioFileBytes = 4 << 20
	rioWindows   = 4 // scattered windows per sparse measurement
)

// RestoreIOSparsePoint compares one restore shape under the two fetch
// strategies: full container GETs versus the cost-model ranged-read plan.
// All columns are virtual time / modelled OSS traffic — deterministic.
type RestoreIOSparsePoint struct {
	// WindowBytes is the size of each restored window (0 = full restore,
	// the dense control row where the planner must choose full reads).
	WindowBytes  int     `json:"window_bytes"`
	NeedFraction float64 `json:"need_fraction"` // window bytes / container capacity

	FullMS         float64 `json:"full_ms"`
	FullOSSBytes   int64   `json:"full_oss_bytes"`
	RangedMS       float64 `json:"ranged_ms"`
	RangedOSSBytes int64   `json:"ranged_oss_bytes"`
	RangedReads    int     `json:"ranged_reads"`
	RangedSpans    int     `json:"ranged_spans"`

	Speedup       float64 `json:"speedup"`        // full virtual time / ranged virtual time
	ByteReduction float64 `json:"byte_reduction"` // full OSS bytes / ranged OSS bytes
}

// RestoreIOOverlapPoint compares N concurrent restores of the same
// version with and without the node-wide shared cache + singleflight
// layer, counting real GETs and bytes at the base object store.
type RestoreIOOverlapPoint struct {
	Jobs int `json:"jobs"`

	PerJobGets   int   `json:"per_job_gets"`
	PerJobBytes  int64 `json:"per_job_bytes"`
	SharedGets   int   `json:"shared_gets"`
	SharedBytes  int64 `json:"shared_bytes"`
	SharedHits   int64 `json:"shared_hits"`
	SharedJoins  int64 `json:"shared_joins"`
	SharedMisses int64 `json:"shared_misses"`

	GetReduction  float64 `json:"get_reduction"`  // per-job gets / shared gets
	ByteReduction float64 `json:"byte_reduction"` // per-job bytes / shared bytes
}

// RestoreIOReport is the BENCH_restoreio.json schema: the regression
// artifact pinning what the node-level restore I/O layer saves.
type RestoreIOReport struct {
	Experiment     string                  `json:"experiment"`
	FileBytes      int                     `json:"file_bytes"`
	ContainerBytes int                     `json:"container_bytes"`
	Windows        int                     `json:"windows_per_point"`
	Sparse         []RestoreIOSparsePoint  `json:"sparse"`
	Overlap        []RestoreIOOverlapPoint `json:"overlap"`
}

func rioData() []byte {
	data := make([]byte, rioFileBytes)
	rand.New(rand.NewSource(17)).Read(data)
	return data
}

// rioCountingStore counts container data-object traffic at the base
// store, underneath every metered view and cache layer.
type rioCountingStore struct {
	oss.Store
	mu    sync.Mutex
	gets  int
	bytes int64
}

func (s *rioCountingStore) count(key string, n int) {
	if !strings.HasSuffix(key, ".data") {
		return
	}
	s.mu.Lock()
	s.gets++
	s.bytes += int64(n)
	s.mu.Unlock()
}

func (s *rioCountingStore) Get(key string) ([]byte, error) {
	b, err := s.Store.Get(key)
	if err == nil {
		s.count(key, len(b))
	}
	return b, err
}

func (s *rioCountingStore) GetRange(key string, off, n int64) ([]byte, error) {
	b, err := s.Store.GetRange(key, off, n)
	if err == nil {
		s.count(key, len(b))
	}
	return b, err
}

func (s *rioCountingStore) snapshot() (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.bytes
}

// rioSparseRun restores the given windows of a fresh single-version repo
// and returns total virtual time (ms), OSS read bytes from the job
// accounts, and the ranged-read counters. window == 0 runs one full
// restore. ranged toggles the planner; the shared cache is disabled so
// the comparison isolates full-GET vs ranged-plan fetching.
func rioSparseRun(data []byte, window int, ranged bool) (ms float64, ossBytes int64, rreads, rspans int, err error) {
	cfg := benchConfig()
	cfg.SharedCacheBytes = -1
	cfg.DisableRangedReads = !ranged
	repo, err := core.OpenRepo(oss.NewMem(), cfg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n := lnode.New(repo, "L0")
	if _, err := n.Backup("f", data); err != nil {
		return 0, 0, 0, 0, err
	}

	restoreWindow := func(off, length int64) error {
		var buf bytes.Buffer
		var st *lnode.RestoreStats
		if length < 0 {
			st, err = n.Restore("f", 0, &buf)
		} else {
			st, err = n.RestoreRange("f", 0, off, length, &buf)
		}
		if err != nil {
			return err
		}
		end := int64(len(data))
		if length >= 0 {
			end = off + length
		} else {
			off = 0
		}
		if !bytes.Equal(buf.Bytes(), data[off:end]) {
			return fmt.Errorf("restoreio: window [%d,%d) bytes differ from backup input", off, end)
		}
		ms += float64(st.Elapsed.Microseconds()) / 1e3
		ossBytes += st.Account.IO().ReadBytes
		rreads += st.Cache.RangedReads
		rspans += st.Cache.RangedSpans
		return nil
	}

	if window == 0 {
		err = restoreWindow(0, -1)
		return ms, ossBytes, rreads, rspans, err
	}
	for i := 0; i < rioWindows; i++ {
		// Windows at 1/8, 3/8, 5/8, 7/8 of the file: scattered, far apart,
		// not container-aligned.
		off := int64(2*i+1) * int64(len(data)) / (2 * rioWindows)
		if err := restoreWindow(off, int64(window)); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	return ms, ossBytes, rreads, rspans, nil
}

// rioOverlap backs up one file and runs njobs concurrent restores of
// it, returning base-store container traffic for the batch plus the
// shared-cache counters. shared toggles the node-wide cache; every
// restored stream is verified byte-identical to the serial baseline (and
// the baseline to the backup input).
func rioOverlap(ctx context.Context, data []byte, njobs int, shared bool) (gets int, ossBytes int64, stats RestoreIOOverlapPoint, err error) {
	cfg := benchConfig()
	if shared {
		cfg.SharedCacheBytes = 64 << 20
	} else {
		cfg.SharedCacheBytes = -1
	}
	cs := &rioCountingStore{Store: oss.NewMem()}
	repo, err := core.OpenRepo(cs, cfg)
	if err != nil {
		return 0, 0, stats, err
	}
	eng := jobs.New(repo, gnode.New(repo), jobs.Options{LNodes: njobs, Queue: njobs})
	defer eng.Close()

	if res := eng.Run(ctx, []jobs.Job{{Kind: jobs.Backup, FileID: "f", Data: data}}); res[0].Err != nil {
		return 0, 0, stats, res[0].Err
	}

	// Serial twin baseline on a cache-free private repo over the same
	// store: the concurrent outputs below must match it bit for bit.
	baseCfg := cfg
	baseCfg.SharedCacheBytes = -1
	baseRepo, err := core.OpenRepo(cs.Store, baseCfg)
	if err != nil {
		return 0, 0, stats, err
	}
	var baseline bytes.Buffer
	if _, err := lnode.New(baseRepo, "twin").Restore("f", 0, &baseline); err != nil {
		return 0, 0, stats, err
	}
	if !bytes.Equal(baseline.Bytes(), data) {
		return 0, 0, stats, fmt.Errorf("restoreio: serial baseline differs from backup input")
	}

	preGets, preBytes := cs.snapshot()
	bufs := make([]bytes.Buffer, njobs)
	batch := make([]jobs.Job, njobs)
	for i := range batch {
		batch[i] = jobs.Job{Kind: jobs.Restore, FileID: "f", Version: 0, Out: &bufs[i]}
	}
	for i, r := range eng.Run(ctx, batch) {
		if r.Err != nil {
			return 0, 0, stats, fmt.Errorf("restoreio: concurrent restore %d: %w", i, r.Err)
		}
		if !bytes.Equal(bufs[i].Bytes(), baseline.Bytes()) {
			return 0, 0, stats, fmt.Errorf("restoreio: concurrent restore %d differs from serial baseline", i)
		}
	}
	postGets, postBytes := cs.snapshot()

	sc := eng.SharedCacheStats()
	stats.SharedHits = sc.Hits
	stats.SharedJoins = sc.InflightJoins
	stats.SharedMisses = sc.Misses
	return postGets - preGets, postBytes - preBytes, stats, nil
}

// RunRestoreIO runs the sparse (ranged vs full) sweep over windowSizes
// (0 = dense full-restore control) and the overlap (shared vs per-job)
// sweep over jobCounts.
func RunRestoreIO(ctx context.Context, windowSizes []int, jobCounts []int) (*RestoreIOReport, error) {
	cfg := benchConfig()
	rep := &RestoreIOReport{
		Experiment:     "restoreio",
		FileBytes:      rioFileBytes,
		ContainerBytes: cfg.ContainerCapacity,
		Windows:        rioWindows,
	}
	data := rioData()

	for _, w := range windowSizes {
		fullMS, fullBytes, _, _, err := rioSparseRun(data, w, false)
		if err != nil {
			return nil, fmt.Errorf("restoreio: full fetch, window %d: %w", w, err)
		}
		rangedMS, rangedBytes, rreads, rspans, err := rioSparseRun(data, w, true)
		if err != nil {
			return nil, fmt.Errorf("restoreio: ranged fetch, window %d: %w", w, err)
		}
		frac := float64(w) / float64(cfg.ContainerCapacity)
		if w == 0 {
			frac = 1 // full restore needs every chunk of every container
		}
		rep.Sparse = append(rep.Sparse, RestoreIOSparsePoint{
			WindowBytes:    w,
			NeedFraction:   frac,
			FullMS:         fullMS,
			FullOSSBytes:   fullBytes,
			RangedMS:       rangedMS,
			RangedOSSBytes: rangedBytes,
			RangedReads:    rreads,
			RangedSpans:    rspans,
			Speedup:        fullMS / rangedMS,
			ByteReduction:  float64(fullBytes) / float64(rangedBytes),
		})
	}

	for _, n := range jobCounts {
		pjGets, pjBytes, _, err := rioOverlap(ctx, data, n, false)
		if err != nil {
			return nil, fmt.Errorf("restoreio: per-job fetch, %d jobs: %w", n, err)
		}
		shGets, shBytes, pt, err := rioOverlap(ctx, data, n, true)
		if err != nil {
			return nil, fmt.Errorf("restoreio: shared fetch, %d jobs: %w", n, err)
		}
		pt.Jobs = n
		pt.PerJobGets, pt.PerJobBytes = pjGets, pjBytes
		pt.SharedGets, pt.SharedBytes = shGets, shBytes
		pt.GetReduction = float64(pjGets) / float64(shGets)
		pt.ByteReduction = float64(pjBytes) / float64(shBytes)
		rep.Overlap = append(rep.Overlap, pt)
	}
	return rep, nil
}

// runRestoreIO is the registered experiment: it prints both sweeps and
// writes the BENCH_restoreio.json regression artifact.
func runRestoreIO(ctx context.Context, w io.Writer, _ Scale) error {
	rep, err := RunRestoreIO(ctx, []int{16 << 10, 64 << 10, 256 << 10, 0}, []int{2, 4, 8})
	if err != nil {
		return err
	}

	t := newTable(w, "Ranged-read planner: sparse restore windows, full-GET vs planned spans (virtual time)")
	t.row("window", "need frac", "full ms", "ranged ms", "speedup", "full MiB", "ranged MiB", "byte redux", "spans")
	for _, p := range rep.Sparse {
		name := "full file"
		if p.WindowBytes > 0 {
			name = fmt.Sprintf("%d KiB", p.WindowBytes>>10)
		}
		t.row(name, f2(p.NeedFraction), f1(p.FullMS), f1(p.RangedMS), f2(p.Speedup),
			f2(float64(p.FullOSSBytes)/(1<<20)), f2(float64(p.RangedOSSBytes)/(1<<20)),
			f2(p.ByteReduction), fmt.Sprint(p.RangedSpans))
	}
	t.flush()

	t = newTable(w, "Shared cache + singleflight: N concurrent restores of one version (base-store traffic)")
	t.row("jobs", "per-job GETs", "shared GETs", "GET redux", "per-job MiB", "shared MiB", "byte redux", "hits", "joins")
	for _, p := range rep.Overlap {
		t.row(fmt.Sprint(p.Jobs),
			fmt.Sprint(p.PerJobGets), fmt.Sprint(p.SharedGets), f2(p.GetReduction),
			f2(float64(p.PerJobBytes)/(1<<20)), f2(float64(p.SharedBytes)/(1<<20)), f2(p.ByteReduction),
			fmt.Sprint(p.SharedHits), fmt.Sprint(p.SharedJoins))
	}
	t.flush()

	return writeArtifact(w, "BENCH_restoreio.json", rep)
}
