// Package core wires SLIMSTORE's storage layer together (paper Fig 1): the
// container store, recipe store, similar file index, and global index, all
// residing on one OSS store, plus the system configuration shared by the
// L-node and G-node computing layers.
package core

import (
	"fmt"
	"sync/atomic"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/journal"
	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/repl"
	"slimstore/internal/simclock"
	"slimstore/internal/simindex"
)

// Config holds every tunable of the system. The defaults reproduce the
// paper's evaluation setup (§VII-A).
type Config struct {
	// ChunkAlgo selects the CDC algorithm: "rabin", "gear", "fastcdc",
	// "fixed". Default "fastcdc".
	ChunkAlgo string
	// ChunkParams bound chunk sizes; default 4 KiB average (§VII-B).
	ChunkParams chunker.Params
	// FingerprintAlg selects the chunk hash. Default SHA-1 (§II).
	FingerprintAlg fingerprint.Algorithm

	// SegmentChunks is the number of consecutive chunks per segment
	// recipe. Default 256.
	SegmentChunks int
	// SampleRatio is R in the mod-R representative sampling (§IV-A).
	// Default 32.
	SampleRatio int
	// SimilarityMinScore is the minimum sketch resemblance for the
	// similar-file fallback of STEP 1. Default 0.1.
	SimilarityMinScore float64
	// DedupCacheSegments bounds how many prefetched segment recipes a
	// backup job keeps in its dedup cache (oldest evicted first).
	// Default 256; L-nodes are stateless, so this is the job's entire
	// index memory footprint.
	DedupCacheSegments int

	// SkipChunking enables history-aware skip chunking (§IV-B).
	SkipChunking bool
	// ChunkMerging enables history-aware chunk merging (§IV-C).
	ChunkMerging bool
	// MergeThreshold is the duplicateTimes value at which consecutive
	// duplicate chunks merge into a superchunk. Default 5 (§VII-B).
	MergeThreshold int
	// MaxSuperChunkBytes caps superchunk size. Default 2 MiB (§VII-E).
	MaxSuperChunkBytes int

	// ContainerCapacity is the container payload size. Default 4 MiB.
	ContainerCapacity int

	// SparseUtilization is the utilization below which a container
	// referenced by the current backup is recorded as sparse (§V-B).
	// Default 0.3.
	SparseUtilization float64
	// RewriteStaleThreshold is the deleted-chunk proportion at which
	// reverse deduplication physically rewrites a container (§VI-A).
	// Default 0.2.
	RewriteStaleThreshold float64

	// Restore cache sizing (§V-A).
	CacheMemBytes  int64
	CacheDiskBytes int64
	// CacheDiskDir, when set, spills the FV cache's disk layer to real
	// files in this directory (the L-node local disk of the paper);
	// empty simulates the layer in memory.
	CacheDiskDir string
	LAWChunks    int
	// RestorePolicy selects the cache policy: "fv" (default), "opt",
	// "alacc", "lru".
	RestorePolicy string
	// PrefetchThreads is the LAW prefetcher worker count; 0 disables
	// prefetching (Table II).
	PrefetchThreads int
	// VerifyRestore re-fingerprints every restored chunk and fails the
	// restore on any mismatch (end-to-end integrity at fingerprinting
	// cost).
	VerifyRestore bool
	// SharedCacheBytes budgets the node-wide restore container cache
	// shared by all concurrent jobs (DESIGN.md §10). 0 selects the
	// default (256 MiB); negative disables the cache and singleflight
	// entirely, making every job fetch for itself.
	SharedCacheBytes int64
	// DisableRangedReads turns off the cost-model ranged-read planner, so
	// every container fetch reads the full object (the pre-planner
	// behaviour; the restoreio benchmark uses this as its baseline).
	DisableRangedReads bool

	// PackWorkers is the number of background workers sealing and
	// uploading filled containers while the dedup loop keeps running (the
	// pack stage of the backup pipeline). 0 selects the default (4);
	// negative packs synchronously.
	PackWorkers int
	// HashWorkers is the worker-pool size for parallelisable
	// fingerprinting: the base-detection probe pass always uses it, and
	// the main loop does too when both history-aware accelerations are
	// off (their skip cuts make boundaries depend on dedup decisions).
	// 0 selects the default (4); negative hashes inline.
	HashWorkers int
	// VerifyWorkers is the fan-out width of per-chunk fingerprint
	// verification on the restore fast path (DESIGN.md §14): verify jobs
	// are spread over a persistent hash worker pool instead of paying one
	// serial SHA per chunk. 0 selects the default (4, sharing the
	// HashWorkers pool when the sizes agree); negative verifies inline on
	// the pipeline's reassembly stage.
	VerifyWorkers int
	// RestoreWindow bounds the restore pipeline's in-flight chunk slots
	// (the reassembly ring depth): how far fetch/decode may run ahead of
	// the verified, in-order sink writes. It is the restore counterpart
	// of the ingest ring and caps resident pipeline memory at
	// O(window × chunk size). 0 selects the default (256); values below 2
	// are clamped to 2 (the minimum that still overlaps).
	RestoreWindow int
	// InlineGlobalProbe extends the fast ingest path with batched probes
	// of the global fingerprint index: chunks that miss the job's local
	// dedup cache are looked up in the global index (one GetBatch per
	// ring batch) and recorded as duplicates on a hit. Default false —
	// the paper's design performs global deduplication offline on the
	// G-node; enabling this trades index traffic on the backup path for
	// catching cross-file duplicates the similarity detector misses.
	// Only hits containers the G-node has already indexed.
	InlineGlobalProbe bool
	// PackBudgetBytes bounds the payload bytes of filled containers that
	// may sit sealed-or-sealing ahead of the pack workers (queued plus
	// in-flight), the explicit backpressure of the pack stage. 0 selects
	// the default 3 × PackWorkers × ContainerCapacity; negative disables
	// the byte budget (the queue's container-count bound still applies).
	PackBudgetBytes int64
	// MaintWorkers is the fan-out width of G-node offline maintenance
	// (reverse dedup scans, scrub verification, sweep marking, container
	// rewrites, and the version-collection scan: catalog listings, catalog
	// entry and recipe fetches). 0 selects the default (4); negative runs
	// serially. Any width produces bit-identical results — it only changes
	// wall-clock.
	MaintWorkers int

	// GlobalShards partitions the global fingerprint index by hash
	// prefix into this many G-shards (DESIGN.md §11); shard operations
	// proceed concurrently instead of serialising on one LSM mutex.
	// Default 1 — the original single-G-node layout, byte-compatible
	// with existing repositories. Maximum 256 (one shard per prefix
	// byte value).
	GlobalShards int
	// GlobalReplicas replicates each index shard across 2f+1 kvstore
	// instances behind a quorum-committed batch log with leader
	// failover (internal/repl). Default 1: unreplicated, no
	// replication log, identical to the pre-repl layout.
	GlobalReplicas int
	// GlobalKV tunes each index shard's LSM engine; the shard map
	// manages key prefixes. Zero values select kvstore defaults.
	GlobalKV kvstore.Options

	// ECDataShards (K) and ECParityShards (M) arm the erasure-coded
	// redundancy tier (DESIGN.md §12): every container object is striped
	// RS(K+M) across K+M fault-isolated OSS backends, surviving any M
	// backend losses. 0 data shards disables the tier (the default
	// single-copy layout). K=1 with M>0 is (1+M)-replication.
	ECDataShards   int
	ECParityShards int
	// ECBackends is the backend count; 0 derives K+M. Any other value
	// must equal K+M (one shard per fault domain).
	ECBackends int
	// ECBackendCosts optionally gives backend i its own OSS cost model
	// (mixing fast and slow fault domains); missing or zero entries use
	// Costs.
	ECBackendCosts []simclock.Costs

	// Costs is the virtual-time cost model.
	Costs simclock.Costs
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		ChunkAlgo:             "fastcdc",
		ChunkParams:           chunker.DefaultParams(),
		FingerprintAlg:        fingerprint.SHA1,
		SegmentChunks:         256,
		SampleRatio:           32,
		SimilarityMinScore:    0.1,
		DedupCacheSegments:    256,
		SkipChunking:          true,
		ChunkMerging:          true,
		MergeThreshold:        5,
		MaxSuperChunkBytes:    2 << 20,
		ContainerCapacity:     4 << 20,
		SparseUtilization:     0.3,
		RewriteStaleThreshold: 0.2,
		CacheMemBytes:         256 << 20,
		CacheDiskBytes:        1 << 30,
		LAWChunks:             4096,
		RestorePolicy:         "fv",
		PrefetchThreads:       6,
		PackWorkers:           4,
		HashWorkers:           4,
		VerifyWorkers:         4,
		RestoreWindow:         256,
		MaintWorkers:          4,
		Costs:                 simclock.DefaultCosts(),
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.ChunkAlgo == "" {
		c.ChunkAlgo = d.ChunkAlgo
	}
	if c.ChunkParams == (chunker.Params{}) {
		c.ChunkParams = d.ChunkParams
	}
	if c.SegmentChunks <= 0 {
		c.SegmentChunks = d.SegmentChunks
	}
	if c.SampleRatio <= 0 {
		c.SampleRatio = d.SampleRatio
	}
	if c.SimilarityMinScore <= 0 {
		c.SimilarityMinScore = d.SimilarityMinScore
	}
	if c.DedupCacheSegments <= 0 {
		c.DedupCacheSegments = d.DedupCacheSegments
	}
	if c.MergeThreshold <= 0 {
		c.MergeThreshold = d.MergeThreshold
	}
	if c.MaxSuperChunkBytes <= 0 {
		c.MaxSuperChunkBytes = d.MaxSuperChunkBytes
	}
	if c.ContainerCapacity <= 0 {
		c.ContainerCapacity = d.ContainerCapacity
	}
	if c.SparseUtilization <= 0 {
		c.SparseUtilization = d.SparseUtilization
	}
	if c.RewriteStaleThreshold <= 0 {
		c.RewriteStaleThreshold = d.RewriteStaleThreshold
	}
	if c.CacheMemBytes <= 0 {
		c.CacheMemBytes = d.CacheMemBytes
	}
	if c.LAWChunks <= 0 {
		c.LAWChunks = d.LAWChunks
	}
	if c.RestorePolicy == "" {
		c.RestorePolicy = d.RestorePolicy
	}
	if c.PackWorkers == 0 {
		c.PackWorkers = d.PackWorkers
	}
	if c.HashWorkers == 0 {
		c.HashWorkers = d.HashWorkers
	}
	if c.VerifyWorkers == 0 {
		c.VerifyWorkers = d.VerifyWorkers
	}
	if c.RestoreWindow == 0 {
		c.RestoreWindow = d.RestoreWindow
	}
	if c.RestoreWindow < 2 {
		c.RestoreWindow = 2
	}
	if c.MaintWorkers == 0 {
		c.MaintWorkers = d.MaintWorkers
	}
	if c.PackBudgetBytes == 0 && c.PackWorkers > 0 {
		c.PackBudgetBytes = 3 * int64(c.PackWorkers) * int64(c.ContainerCapacity)
	}
	if c.GlobalShards <= 0 {
		c.GlobalShards = 1
	}
	if c.GlobalReplicas <= 0 {
		c.GlobalReplicas = 1
	}
	if c.Costs == (simclock.Costs{}) {
		c.Costs = d.Costs
	}
	if c.ECDataShards > 0 && c.ECBackends <= 0 {
		c.ECBackends = c.ECDataShards + c.ECParityShards
	}
}

// Repo is the opened storage layer. One Repo is shared by every L-node and
// the G-node of a backup domain; all of its components are safe for
// concurrent use.
type Repo struct {
	Config Config

	// Base is the raw (unmetered) OSS store.
	Base oss.Store
	// Containers, Recipes operate unmetered; per-job metered views come
	// from ContainersFor / RecipesFor.
	Containers *container.Store
	Recipes    *recipe.Store
	SimIndex   *simindex.Index
	// Global is the (possibly sharded, possibly replicated) global
	// fingerprint index. With GlobalShards=GlobalReplicas=1 it is one
	// plain Index behind a pass-through view — the original layout.
	Global *globalindex.Sharded
	// ReplGroups holds shard k's replica group when GlobalReplicas > 1
	// (nil otherwise) — the chaos harness's kill/restart surface.
	ReplGroups []*repl.Group
	// ReplDowntime accumulates the virtual failover cost charged by
	// every shard group (PhaseFailover).
	ReplDowntime *simclock.Account
	// Journal is the intent journal for multi-object reorganisations;
	// OpenRepo replays surviving records before returning.
	Journal *journal.Store

	// EC is the erasure-coded redundancy tier (nil when ECDataShards is
	// 0): container objects are striped across EC.Backends(), whose
	// Faulty wrappers are the chaos injection surface for whole-backend
	// outages and shard rot.
	EC *ec.Store

	// Files serialises per-file mutations across concurrent jobs
	// (backup/delete/compaction exclusive, restore shared).
	Files FileLocks
	// CLocks is the container reader/writer lock table: restores pin the
	// containers they read, physical rewrites take the write side.
	CLocks ContainerLocks

	// RestoreIO is the node-wide shared restore container cache
	// (singleflight fetches + bounded reference-counted caching across
	// jobs); nil when Config.SharedCacheBytes is negative. Container
	// mutations invalidate it via the store's OnInvalidate hook.
	RestoreIO *cache.Shared

	// maintEpoch counts committed maintenance mutations (rewrites, drops,
	// compactions, GC, reverse-dedup/scrub commits). Backups never bump
	// it. G-node's parallel passes scan and probe OUTSIDE maintMu at a
	// sampled epoch, then validate it under the lock: unchanged means no
	// maintenance invalidated the scan, so the pass commits; changed means
	// retry. See DESIGN.md §8.
	maintEpoch atomic.Uint64
}

// MaintEpoch samples the maintenance epoch (see the field comment).
func (r *Repo) MaintEpoch() uint64 { return r.maintEpoch.Load() }

// BumpMaintEpoch marks a committed maintenance mutation, invalidating any
// optimistic scan concurrently in flight.
func (r *Repo) BumpMaintEpoch() { r.maintEpoch.Add(1) }

// OpenRepo opens (or initialises) the storage layer on an OSS store.
func OpenRepo(store oss.Store, cfg Config) (*Repo, error) {
	cfg.fillDefaults()
	if err := cfg.ChunkParams.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := chunker.New(cfg.ChunkAlgo, cfg.ChunkParams); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var tier *ec.Store
	containerOSS := store
	if cfg.ECDataShards > 0 {
		k, m := cfg.ECDataShards, cfg.ECParityShards
		if cfg.ECBackends != k+m {
			return nil, fmt.Errorf("core: ECBackends %d must equal ECDataShards+ECParityShards %d",
				cfg.ECBackends, k+m)
		}
		set := oss.NewBackendSet(store, k+m, cfg.Costs, cfg.ECBackendCosts)
		var err error
		if tier, err = ec.NewStore(set, k, m, cfg.Costs); err != nil {
			return nil, fmt.Errorf("core: open redundancy tier: %w", err)
		}
		containerOSS = ecRouter(tier, store)
	}
	cs, err := container.NewStore(containerOSS, cfg.ContainerCapacity)
	if err != nil {
		return nil, fmt.Errorf("core: open containers: %w", err)
	}
	si, err := simindex.Open(store)
	if err != nil {
		return nil, fmt.Errorf("core: open similar file index: %w", err)
	}
	gi, groups, downtime, err := openGlobal(store, &cfg)
	if err != nil {
		return nil, fmt.Errorf("core: open global index: %w", err)
	}
	js, err := journal.Open(store)
	if err != nil {
		return nil, fmt.Errorf("core: open journal: %w", err)
	}
	r := &Repo{
		Config:       cfg,
		Base:         store,
		EC:           tier,
		Containers:   cs,
		Recipes:      recipe.NewStore(store),
		SimIndex:     si,
		Global:       gi,
		ReplGroups:   groups,
		ReplDowntime: downtime,
		Journal:      js,
	}
	if cfg.SharedCacheBytes >= 0 {
		r.RestoreIO = cache.NewShared(cfg.SharedCacheBytes)
		cs.OnInvalidate(r.RestoreIO.Invalidate)
	}
	// Roll forward any reorganisation a previous process crashed in the
	// middle of, before this process does new work against the repo.
	if _, err := r.ReplayJournal(); err != nil {
		return nil, fmt.Errorf("core: replay journal: %w", err)
	}
	return r, nil
}

// openGlobal builds the global index for the configured layout. The
// 1-shard/1-replica default opens the index at the historic "gidx/"
// prefix — byte-compatible with repositories written before sharding
// existed. Sharded layouts place shard k at "gidx/s<k>/" (replicas
// under "gidx/s<k>/n<i>/" with the log at "gidx/s<k>/log/").
func openGlobal(store oss.Store, cfg *Config) (*globalindex.Sharded, []*repl.Group, *simclock.Account, error) {
	shards := cfg.GlobalShards
	if shards > 256 {
		return nil, nil, nil, fmt.Errorf("GlobalShards %d exceeds the 256 prefix ranges", shards)
	}
	bloomPerShard := (1 << 22) / shards
	if bloomPerShard < 1<<16 {
		bloomPerShard = 1 << 16
	}
	workers := cfg.MaintWorkers
	if workers < 1 {
		workers = 1
	}

	if shards == 1 && cfg.GlobalReplicas == 1 {
		idx, err := globalindex.Open(store, globalindex.Options{KV: cfg.GlobalKV})
		if err != nil {
			return nil, nil, nil, err
		}
		s, err := globalindex.NewSharded([]*globalindex.Index{idx}, workers)
		return s, nil, nil, err
	}

	var (
		idxs     []*globalindex.Index
		groups   []*repl.Group
		downtime *simclock.Account
	)
	if cfg.GlobalReplicas > 1 {
		downtime = simclock.NewAccount()
	}
	for k := 0; k < shards; k++ {
		prefix := fmt.Sprintf("gidx/s%d/", k)
		opts := globalindex.Options{BloomCapacity: bloomPerShard}
		var idx *globalindex.Index
		if cfg.GlobalReplicas > 1 {
			grp, err := repl.Open(store, repl.Options{
				Replicas: cfg.GlobalReplicas,
				Prefix:   prefix,
				KV:       cfg.GlobalKV,
				Downtime: downtime,
			})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("shard %d: %w", k, err)
			}
			groups = append(groups, grp)
			if idx, err = globalindex.OpenBackend(grp, opts); err != nil {
				return nil, nil, nil, fmt.Errorf("shard %d: %w", k, err)
			}
		} else {
			kv := cfg.GlobalKV
			kv.Prefix = prefix
			opts.KV = kv
			var err error
			if idx, err = globalindex.Open(store, opts); err != nil {
				return nil, nil, nil, fmt.Errorf("shard %d: %w", k, err)
			}
		}
		idxs = append(idxs, idx)
	}
	s, err := globalindex.NewSharded(idxs, workers)
	return s, groups, downtime, err
}

// Metered returns an OSS view charging acct under the repo's cost model.
func (r *Repo) Metered(acct *simclock.Account) *oss.Metered {
	return oss.NewMetered(r.Base, r.Config.Costs, acct)
}

// ecRouter routes the container namespaces through the redundancy tier
// and everything else to plain.
func ecRouter(tier *ec.Store, plain oss.Store) *ec.Router {
	return ec.NewRouter(tier, plain, container.Prefix, container.QuarantinePrefix)
}

// ContainersFor returns a container-store view charging acct. With the
// redundancy tier armed, container I/O stripes through a per-account EC
// view (charging per-shard, per-backend costs) while recipes, indexes and
// the journal keep using the plain metered store.
func (r *Repo) ContainersFor(acct *simclock.Account) *container.Store {
	if r.EC == nil {
		return r.Containers.View(r.Metered(acct))
	}
	return r.Containers.View(ecRouter(r.EC.WithAccount(acct), r.Metered(acct)))
}

// ECFor returns an EC-tier view charging acct (nil when the tier is off).
func (r *Repo) ECFor(acct *simclock.Account) *ec.Store {
	if r.EC == nil {
		return nil
	}
	return r.EC.WithAccount(acct)
}

// RecipesFor returns a recipe-store view charging acct.
func (r *Repo) RecipesFor(acct *simclock.Account) *recipe.Store {
	return recipe.NewStore(r.Metered(acct))
}

// Cutter constructs the configured chunker.
func (r *Repo) Cutter() chunker.Cutter {
	c, err := chunker.New(r.Config.ChunkAlgo, r.Config.ChunkParams)
	if err != nil {
		// Config was validated at OpenRepo; this cannot fail afterwards.
		panic(err)
	}
	return c
}

// Fingerprint hashes a chunk with the configured algorithm, charging the
// fingerprinting CPU phase.
func (r *Repo) Fingerprint(acct *simclock.Account, data []byte) fingerprint.FP {
	per := r.Config.Costs.SHA1PerByte
	if r.Config.FingerprintAlg == fingerprint.SHA256 {
		per = r.Config.Costs.SHA256PerByte
	}
	if acct != nil {
		acct.ChargeCPUBytes(simclock.PhaseFingerprint, int64(len(data)), per)
	}
	return fingerprint.Of(r.Config.FingerprintAlg, data)
}
