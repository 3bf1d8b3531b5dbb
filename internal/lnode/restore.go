package lnode

import (
	"fmt"
	"io"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// RestoreStats reports one restore job.
type RestoreStats struct {
	FileID  string
	Version int

	Bytes     int64
	Cache     cache.Stats
	Redirects int // chunks relocated by reverse dedup / SCC (old versions)

	PrefetchThreads int
	// Prefetch reports LAW prefetcher effectiveness (dispatched/consumed/
	// direct/cancelled slots). The consumed-vs-direct split depends on
	// goroutine scheduling; virtual-time accounting does not (DESIGN.md §14).
	Prefetch cache.PrefetchStats
	Account  *simclock.Account
	Elapsed  time.Duration
}

// ThroughputMBps is the restore throughput in MB/s of virtual time.
func (s *RestoreStats) ThroughputMBps() float64 {
	return simclock.ThroughputMBps(s.Bytes, s.Elapsed)
}

// Restore streams a backup version to w, using the configured cache
// policy and LAW-based prefetching (§V-A).
func (n *LNode) Restore(fileID string, version int, w io.Writer) (*RestoreStats, error) {
	return n.restore(fileID, version, w, n.repo.Config.VerifyRestore)
}

// Verify restores a version to a null sink with per-chunk fingerprint
// verification forced on, reporting integrity without materialising data.
func (n *LNode) Verify(fileID string, version int) (*RestoreStats, error) {
	return n.restore(fileID, version, io.Discard, true)
}

func (n *LNode) restore(fileID string, version int, w io.Writer, verify bool) (*RestoreStats, error) {
	// Shared file lock: the version chain and this version's recipe stay
	// stable for the duration (backup/delete/compaction of the file wait).
	n.repo.Files.RLock(fileID)
	defer n.repo.Files.RUnlock(fileID)

	acct := simclock.NewAccount()
	cfg := &n.repo.Config
	recipes := n.repo.RecipesFor(acct)
	containers := n.repo.ContainersFor(acct)

	r, err := recipes.GetRecipe(fileID, version)
	if err != nil {
		return nil, err
	}
	stats := &RestoreStats{
		FileID: fileID, Version: version,
		PrefetchThreads: cfg.PrefetchThreads,
		Account:         acct,
	}

	seq, redirects, rst, metas, release, err := n.pinSequence(containers, r, acct)
	if err != nil {
		return nil, err
	}
	defer release()
	stats.Redirects = redirects

	policy, err := cache.New(cfg.RestorePolicy, cache.Config{
		MemBytes:  cfg.CacheMemBytes,
		DiskBytes: cfg.CacheDiskBytes,
		DiskDir:   cfg.CacheDiskDir,
		LAW:       cfg.LAWChunks,
	})
	if err != nil {
		return nil, err
	}

	// All container reads go through the node-level restore I/O layer:
	// shared cache + singleflight across jobs, cost-model ranged reads for
	// sparse need-sets (DESIGN.md §10).
	rio := newRestoreIO(n, containers, seq, metas)
	defer rio.close()
	fetch := cache.Fetcher(rio.fetch)
	threads := cfg.PrefetchThreads
	var pf *cache.Prefetcher
	if threads > 0 {
		// LAW prefetching is policy-agnostic: the dispatch sequence derives
		// from the pinned request sequence, not from the policy, so OSS
		// reads overlap the restore pipeline for every policy (DESIGN.md
		// §14) — the policy's own fetches are served from prefetch slots.
		pf = cache.NewPrefetcher(fetch, seq, threads, threads*2)
		defer pf.Close()
		fetch = pf.Fetch
	}

	run := n.newRestoreRun(acct, w, verify, seq, fileID, version)
	cstats, err := policy.Restore(seq, fetch, run.emit)
	_, err = run.finish(err)
	if err != nil {
		return nil, fmt.Errorf("lnode: restore %s v%d: %w", fileID, version, err)
	}
	// Two-layer cache disk traffic costs local-disk time, not OSS time.
	acct.ChargeCPUBytes(simclock.PhaseOther,
		cstats.DiskHitBytes+cstats.DiskSwapBytes, cfg.Costs.DiskCachePerByte)

	stats.Bytes = cstats.LogicalBytes
	stats.Cache = cstats
	stats.Cache.ResolveMetaReads = rst.metaReads
	stats.Cache.ResolveMetaMemoHits = rst.memoHits
	rio.addTo(&stats.Cache)
	if pf != nil {
		stats.Prefetch = pf.Stats()
	}
	if threads > 0 {
		// LAW prefetching overlaps OSS reads with the restore pipeline
		// across `threads` parallel channels (§V-A, Table II).
		stats.Elapsed = acct.ElapsedOverlapped(threads)
	} else {
		stats.Elapsed = acct.ElapsedSequential()
	}
	return stats, nil
}

// pinSequence resolves the restore sequence and read-pins every container
// it references, so G-node maintenance cannot rewrite or drop a container
// between resolution and the reads. Pinning cannot happen before resolving
// (the container set is the *output* of resolution), so after taking the
// pins we re-resolve and check the set is unchanged; if maintenance slid in
// during the window we release, adopt the new set, and retry. Pins are
// shared read-locks taken in sorted stripe order (core.ContainerLocks.Pin),
// so concurrent restores never deadlock and rewrites wait, not fail.
// It also returns the metadata memo of the final (pinned) resolution
// pass: the exact container states the sequence was resolved against,
// which the restore I/O layer plans its ranged reads from without
// re-reading any metadata.
func (n *LNode) pinSequence(containers *container.Store, r *recipe.Recipe, acct *simclock.Account) ([]cache.Request, int, resolveStats, map[container.ID]*container.Meta, func(), error) {
	seq, _, total, _, err := n.resolveSequence(containers, r, acct)
	if err != nil {
		return nil, 0, resolveStats{}, nil, nil, err
	}
	const maxAttempts = 8
	for attempt := 0; ; attempt++ {
		release := n.repo.CLocks.Pin(requestContainers(seq))
		seq2, redirects2, rst, metas, err := n.resolveSequence(containers, r, acct)
		total.metaReads += rst.metaReads
		total.memoHits += rst.memoHits
		if err != nil {
			release()
			return nil, 0, resolveStats{}, nil, nil, err
		}
		if sameContainers(seq, seq2) {
			return seq2, redirects2, total, metas, release, nil
		}
		release()
		if attempt+1 >= maxAttempts {
			return nil, 0, resolveStats{}, nil, nil, fmt.Errorf("lnode: restore %s v%d: container set unstable after %d attempts",
				r.FileID, r.Version, maxAttempts)
		}
		seq = seq2
	}
}

func requestContainers(seq []cache.Request) []container.ID {
	ids := make([]container.ID, len(seq))
	for i, rq := range seq {
		ids[i] = rq.Container
	}
	return ids
}

func sameContainers(a, b []cache.Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Container != b[i].Container {
			return false
		}
	}
	return true
}

// resolveStats counts the metadata traffic of sequence resolution.
type resolveStats struct {
	metaReads int // container-metadata fetches actually issued
	memoHits  int // per-record lookups served by the pass's memo
}

// resolveSequence converts a recipe into the restore request sequence,
// redirecting chunks whose original copy was deleted by reverse
// deduplication or sparse-container compaction. The redirect pays one
// global-index query per moved chunk — the cost the paper accepts for old
// versions (§VI-A).
//
// Recipes reference the same container for long runs of consecutive
// chunks, so the metadata read is memoized. The memo lives for ONE pass
// only: pinSequence re-resolves after pinning precisely to observe any
// maintenance that slid in, and a memo surviving between the passes
// would blind that revalidation.
func (n *LNode) resolveSequence(containers *container.Store, r *recipe.Recipe, acct *simclock.Account) ([]cache.Request, int, resolveStats, map[container.ID]*container.Meta, error) {
	seq := make([]cache.Request, 0, r.NumChunks())
	redirects := 0
	var rst resolveStats
	memo := make(map[container.ID]*container.Meta) // nil value → unreadable
	readMeta := func(id container.ID) (*container.Meta, bool) {
		if m, ok := memo[id]; ok {
			rst.memoHits++
			return m, m != nil
		}
		rst.metaReads++
		m, err := containers.ReadMeta(id)
		if err != nil {
			m = nil
		}
		memo[id] = m
		return m, m != nil
	}
	var iterErr error
	r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
		req := cache.Request{FP: rec.FP, Container: rec.Container, Size: rec.Size}
		m, readable := readMeta(rec.Container)
		switch {
		case readable:
			if cm := m.Find(rec.FP); cm == nil || cm.Deleted {
				// Moved: consult the global index.
				acct.ChargeCPU(simclock.PhaseIndexQuery, n.repo.Config.Costs.IndexLookup)
				id, ok, gerr := n.repo.Global.Get(rec.FP)
				if gerr != nil {
					iterErr = gerr
					return false
				}
				if !ok {
					iterErr = fmt.Errorf("lnode: chunk %s of %s v%d lost (container %s)",
						rec.FP.Short(), r.FileID, r.Version, rec.Container)
					return false
				}
				req.Container = id
				redirects++
				readMeta(id) // memoize the redirect target for the read planner
			}
		default:
			// Container gone entirely (compacted away): redirect.
			acct.ChargeCPU(simclock.PhaseIndexQuery, n.repo.Config.Costs.IndexLookup)
			id, ok, gerr := n.repo.Global.Get(rec.FP)
			if gerr != nil {
				iterErr = gerr
				return false
			}
			if !ok {
				iterErr = fmt.Errorf("lnode: chunk %s of %s v%d lost with container %s",
					rec.FP.Short(), r.FileID, r.Version, rec.Container)
				return false
			}
			req.Container = id
			redirects++
			readMeta(id) // memoize the redirect target for the read planner
		}
		seq = append(seq, req)
		return true
	})
	if iterErr != nil {
		return nil, 0, resolveStats{}, nil, iterErr
	}
	return seq, redirects, rst, memo, nil
}
