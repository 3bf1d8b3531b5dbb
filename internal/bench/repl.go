package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/kvstore"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/repl"
)

func init() {
	register("repl", "Replicated global index: replication overhead, virtual failover downtime, sweep speedup vs shard count", runReplBench)
}

// Workload shapes. The overhead workload mirrors index traffic:
// fingerprint-sized keys, container-id-sized values, batched like the
// L-node's segment commits. The sweep dataset is dedup-heavy (every file
// shares one big block) so the mark phase resolves many redirects through
// the global index — the component sharding parallelises.
const (
	replOverheadBatches = 64
	replOverheadEntries = 64
	replOverheadKeyLen  = 20 // fingerprint.Size
	replOverheadValLen  = 8  // container ID

	replSweepFiles       = 12
	replSweepSharedBytes = 1 << 20
	replSweepUniqueBytes = 64 << 10
	replSweepReps        = 2 // best-of reps per point, identical datasets
)

// ReplOverhead compares the OSS traffic of one durable batched index
// workload on a plain kvstore versus a 2f+1 replica group. All columns
// are operation/byte counts at the base object store — deterministic.
type ReplOverhead struct {
	Replicas        int   `json:"replicas"`
	Batches         int   `json:"batches"`
	EntriesPerBatch int   `json:"entries_per_batch"`
	SinglePutOps    int64 `json:"single_put_ops"`
	SinglePutBytes  int64 `json:"single_put_bytes"`
	SingleGetOps    int64 `json:"single_get_ops"`
	GroupPutOps     int64 `json:"group_put_ops"`
	GroupPutBytes   int64 `json:"group_put_bytes"`
	GroupGetOps     int64 `json:"group_get_ops"`

	PutOpsOverhead  float64 `json:"put_ops_overhead"`  // group / single
	PutByteOverhead float64 `json:"put_byte_overhead"` // group / single
	GetOpsOverhead  float64 `json:"get_ops_overhead"`  // group / single
}

// ReplFailover reports the virtual cost of leader failover: kills are
// injected, elections run on the next operation, and the detection
// timeout plus election round trips are charged as virtual time.
type ReplFailover struct {
	Kills             int     `json:"kills"`
	Failovers         int64   `json:"failovers"`
	DowntimeVirtualMS float64 `json:"downtime_virtual_ms"`
	PerFailoverMS     float64 `json:"per_failover_ms"`
}

// ReplSweepPoint is one row of the FullSweep shard-scaling sweep: same
// dataset, same logical work, wall clock under injected OSS latency.
type ReplSweepPoint struct {
	Shards           int     `json:"shards"`
	WallMS           float64 `json:"wall_ms"`
	Speedup          float64 `json:"speedup"` // vs the 1-shard row
	ContainersMarked int     `json:"containers_marked"`
	ContainersSwept  int     `json:"containers_swept"`
	IndexOps         int64   `json:"index_ops"`
}

// ReplReport is the BENCH_repl.json schema: the regression artifact
// pinning what index replication costs and what sharding buys back.
type ReplReport struct {
	Experiment     string           `json:"experiment"`
	HostCPUs       int              `json:"host_cpus"`
	PerOpLatencyUS int64            `json:"per_op_latency_us"`
	Overhead       ReplOverhead     `json:"overhead"`
	Failover       ReplFailover     `json:"failover"`
	Sweep          []ReplSweepPoint `json:"sweep"`
}

// replCountingStore counts every put/get at the base store, underneath
// the kvstore and the replication log alike.
type replCountingStore struct {
	oss.Store
	mu       sync.Mutex
	putOps   int64
	putBytes int64
	getOps   int64
}

func (s *replCountingStore) Put(key string, data []byte) error {
	s.mu.Lock()
	s.putOps++
	s.putBytes += int64(len(data))
	s.mu.Unlock()
	return s.Store.Put(key, data)
}

func (s *replCountingStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	s.getOps++
	s.mu.Unlock()
	return s.Store.Get(key)
}

func (s *replCountingStore) GetRange(key string, off, n int64) ([]byte, error) {
	s.mu.Lock()
	s.getOps++
	s.mu.Unlock()
	return s.Store.GetRange(key, off, n)
}

func (s *replCountingStore) snapshot() (putOps, putBytes, getOps int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putOps, s.putBytes, s.getOps
}

// replWorkload builds the deterministic batched index workload: every
// run produces identical batches, so single-node and replicated traffic
// are directly comparable.
func replWorkload() ([]*kvstore.Batch, [][][]byte) {
	rng := rand.New(rand.NewSource(23))
	batches := make([]*kvstore.Batch, replOverheadBatches)
	keys := make([][][]byte, replOverheadBatches)
	for i := range batches {
		var b kvstore.Batch
		for j := 0; j < replOverheadEntries; j++ {
			k := make([]byte, replOverheadKeyLen)
			v := make([]byte, replOverheadValLen)
			rng.Read(k)
			rng.Read(v)
			b.Put(k, v)
			keys[i] = append(keys[i], k)
		}
		batches[i] = &b
	}
	return batches, keys
}

// replOverheadRun measures the workload's base-store traffic through
// one durable writer: apply returns after each batch is durable, read
// runs the batched lookups after a flush (so reads hit tables, not the
// memtable). Both sides must return every written value.
func replOverheadRun(apply func(*kvstore.Batch) error, flush func() error,
	read func([][]byte) ([][]byte, []bool, error)) error {
	batches, keys := replWorkload()
	for _, b := range batches {
		if err := apply(b); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for i, kb := range keys {
		values, found, err := read(kb)
		if err != nil {
			return err
		}
		for j := range kb {
			if !found[j] || len(values[j]) != replOverheadValLen {
				return fmt.Errorf("batch %d key %d: lost after durable apply (found=%v)", i, j, found[j])
			}
		}
	}
	return nil
}

// RunReplOverhead measures single-node vs replicated OSS traffic for the
// identical durable workload. replicas is the group size (2f+1).
func RunReplOverhead(replicas int) (*ReplOverhead, error) {
	o := &ReplOverhead{
		Replicas:        replicas,
		Batches:         replOverheadBatches,
		EntriesPerBatch: replOverheadEntries,
	}

	// Baseline: one kvstore, synced after every batch — the same
	// per-batch durability point the group's log put provides.
	scs := &replCountingStore{Store: oss.NewMem()}
	db, err := kvstore.Open(scs, kvstore.Options{Prefix: "idx/"})
	if err != nil {
		return nil, err
	}
	err = replOverheadRun(
		func(b *kvstore.Batch) error {
			if err := db.Apply(b); err != nil {
				return err
			}
			return db.Sync()
		},
		db.Flush,
		db.GetMulti,
	)
	if err != nil {
		return nil, fmt.Errorf("repl bench: single-node workload: %w", err)
	}
	o.SinglePutOps, o.SinglePutBytes, o.SingleGetOps = scs.snapshot()

	gcs := &replCountingStore{Store: oss.NewMem()}
	g, err := repl.Open(gcs, repl.Options{Prefix: "grp/", Replicas: replicas})
	if err != nil {
		return nil, err
	}
	err = replOverheadRun(g.Apply, g.Flush, g.GetMulti)
	if err != nil {
		return nil, fmt.Errorf("repl bench: replicated workload: %w", err)
	}
	o.GroupPutOps, o.GroupPutBytes, o.GroupGetOps = gcs.snapshot()

	o.PutOpsOverhead = float64(o.GroupPutOps) / float64(o.SinglePutOps)
	o.PutByteOverhead = float64(o.GroupPutBytes) / float64(o.SinglePutBytes)
	o.GetOpsOverhead = float64(o.GroupGetOps) / float64(o.SingleGetOps)
	return o, nil
}

// RunReplFailover kills the leader `kills` times with commits in
// between; every kill forces an election on the next apply, and the
// group's stats record the virtual downtime each election charged.
func RunReplFailover(replicas, kills int) (*ReplFailover, error) {
	g, err := repl.Open(oss.NewMem(), repl.Options{Prefix: "grp/", Replicas: replicas})
	if err != nil {
		return nil, err
	}
	batches, _ := replWorkload()
	bi := 0
	apply := func() error {
		b := batches[bi%len(batches)].Clone()
		bi++
		return g.Apply(b)
	}
	if err := apply(); err != nil {
		return nil, err
	}
	for i := 0; i < kills; i++ {
		dead := g.KillLeader()
		if err := apply(); err != nil {
			return nil, fmt.Errorf("repl bench: apply after kill %d: %w", i, err)
		}
		if err := g.Restart(dead); err != nil {
			return nil, fmt.Errorf("repl bench: restart %d: %w", dead, err)
		}
	}
	st := g.ReplStats()
	f := &ReplFailover{
		Kills:             kills,
		Failovers:         st.Failovers,
		DowntimeVirtualMS: float64(st.DowntimeVirtual.Microseconds()) / 1e3,
	}
	if st.Failovers > 0 {
		f.PerFailoverMS = f.DowntimeVirtualMS / float64(st.Failovers)
	}
	return f, nil
}

// replSweepRun measures FullSweep wall clock at one shard count,
// best-of-replSweepReps over identically-built datasets (the sweep
// mutates its repo, so each rep rebuilds from the same seeds). Work
// columns must agree across reps; only the minimum wall is reported.
func replSweepRun(shards int, perOp time.Duration) (ReplSweepPoint, error) {
	pt, err := replSweepOnce(shards, perOp)
	if err != nil {
		return pt, err
	}
	for r := 1; r < replSweepReps; r++ {
		again, err := replSweepOnce(shards, perOp)
		if err != nil {
			return pt, err
		}
		if again.ContainersMarked != pt.ContainersMarked || again.ContainersSwept != pt.ContainersSwept || again.IndexOps != pt.IndexOps {
			return pt, fmt.Errorf("repl bench: sweep reps disagree on work at %d shards: %+v vs %+v", shards, pt, again)
		}
		if again.WallMS < pt.WallMS {
			pt.WallMS = again.WallMS
		}
	}
	return pt, nil
}

// replSweepOnce builds the dedup-heavy dataset on an N-shard index
// (latency-free), runs reverse dedup so most recipe chunks resolve
// through index redirects, then reopens the repo behind perOp of OSS
// latency and wall-clocks FullSweep. MaintWorkers is fixed at 4 so the
// only variable across points is the shard count.
func replSweepOnce(shards int, perOp time.Duration) (ReplSweepPoint, error) {
	pt := ReplSweepPoint{Shards: shards}
	cfg := benchConfig()
	cfg.SimilarityMinScore = 1.1 // force per-file copies; reverse dedup makes the redirects
	cfg.MaintWorkers = 4
	cfg.GlobalShards = shards
	cfg.GlobalKV.BlockCacheBytes = -1 // every index block read is an OSS read

	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		return pt, err
	}
	ln := lnode.New(repo, "L0")
	shared := make([]byte, replSweepSharedBytes)
	rand.New(rand.NewSource(31)).Read(shared)
	var ids []container.ID
	for i := 0; i < replSweepFiles; i++ {
		unique := make([]byte, replSweepUniqueBytes)
		rand.New(rand.NewSource(int64(100 + i))).Read(unique)
		st, err := ln.Backup(fmt.Sprintf("f%02d", i), append(append([]byte(nil), shared...), unique...))
		if err != nil {
			return pt, err
		}
		ids = append(ids, st.NewContainers...)
	}
	gn := gnode.New(repo)
	rd, err := gn.ReverseDedup(ids)
	if err != nil {
		return pt, err
	}
	if rd.DuplicatesRemoved == 0 {
		return pt, fmt.Errorf("repl bench: degenerate sweep dataset, nothing deduplicated: %+v", rd)
	}
	if err := repo.Global.Flush(); err != nil {
		return pt, err
	}

	repo2, err := core.OpenRepo(&oss.Latency{S: mem, PerOp: perOp}, cfg)
	if err != nil {
		return pt, err
	}
	gn2 := gnode.New(repo2)
	//slimlint:ignore determinism the wall-clock columns ARE the measurement: this sweep pins shard-parallel sweep speedup on real cores
	start := time.Now()
	st, err := gn2.FullSweep()
	//slimlint:ignore determinism wall-clock is the measured quantity here
	wall := time.Since(start)
	if err != nil {
		return pt, fmt.Errorf("repl bench: full sweep (%d shards): %w", shards, err)
	}
	pt.WallMS = float64(wall.Microseconds()) / 1e3
	pt.ContainersMarked = st.ContainersMarked
	pt.ContainersSwept = st.ContainersSwept
	pt.IndexOps = repo2.Global.Ops()
	return pt, nil
}

// RunReplBench runs all three measurements: deterministic replication
// overhead, deterministic virtual failover downtime, and the wall-clock
// sweep scaling over shardCounts.
func RunReplBench(shardCounts []int, perOp time.Duration) (*ReplReport, error) {
	rep := &ReplReport{
		Experiment:     "repl",
		HostCPUs:       runtime.NumCPU(),
		PerOpLatencyUS: perOp.Microseconds(),
	}
	o, err := RunReplOverhead(3)
	if err != nil {
		return nil, err
	}
	rep.Overhead = *o
	f, err := RunReplFailover(3, 3)
	if err != nil {
		return nil, err
	}
	rep.Failover = *f
	for _, s := range shardCounts {
		pt, err := replSweepRun(s, perOp)
		if err != nil {
			return nil, err
		}
		base := pt
		if len(rep.Sweep) > 0 {
			base = rep.Sweep[0]
		}
		pt.Speedup = base.WallMS / pt.WallMS
		rep.Sweep = append(rep.Sweep, pt)
	}
	return rep, nil
}

// runReplBench is the registered experiment: it prints the three
// measurements and writes the BENCH_repl.json regression artifact.
func runReplBench(ctx context.Context, w io.Writer, _ Scale) error {
	rep, err := RunReplBench([]int{1, 2, 4}, 250*time.Microsecond)
	if err != nil {
		return err
	}

	o := rep.Overhead
	t := newTable(w, fmt.Sprintf("Replication overhead: %d batches × %d entries, durable per batch (base-store traffic)", o.Batches, o.EntriesPerBatch))
	t.row("layout", "put ops", "put KiB", "get ops")
	t.row("single kvstore", fmt.Sprint(o.SinglePutOps), f1(float64(o.SinglePutBytes)/1024), fmt.Sprint(o.SingleGetOps))
	t.row(fmt.Sprintf("%d-replica group", o.Replicas), fmt.Sprint(o.GroupPutOps), f1(float64(o.GroupPutBytes)/1024), fmt.Sprint(o.GroupGetOps))
	t.row("overhead", f2(o.PutOpsOverhead)+"x", f2(o.PutByteOverhead)+"x", f2(o.GetOpsOverhead)+"x")
	t.flush()

	fmt.Fprintf(w, "failover: %d leader kills → %d elections, %.1fms virtual downtime (%.1fms each)\n",
		rep.Failover.Kills, rep.Failover.Failovers, rep.Failover.DowntimeVirtualMS, rep.Failover.PerFailoverMS)

	t = newTable(w, "FullSweep wall clock by shard count (4 maintenance workers, 250µs/op OSS latency)")
	t.row("shards", "wall ms", "speedup", "marked", "swept", "index ops")
	for _, p := range rep.Sweep {
		t.row(fmt.Sprint(p.Shards), f1(p.WallMS), f2(p.Speedup)+"x",
			fmt.Sprint(p.ContainersMarked), fmt.Sprint(p.ContainersSwept), fmt.Sprint(p.IndexOps))
	}
	t.flush()

	return writeArtifact(w, "BENCH_repl.json", rep)
}
