package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
)

func init() {
	register("gmaint", "G-node maintenance: wall-clock reverse-dedup and scrub scaling by worker count", runGMaint)
}

// Dataset shape: two generations of containers. The old generation is
// registered in the global index (a previous maintenance pass); the new
// generation duplicates half of its chunks, so reverse dedup marks old
// copies, repoints the index, and rewrites the old containers it pushed
// past the stale threshold. Small chunks keep the dataset CPU-light: the
// experiment measures request-level concurrency, not checksum throughput.
const (
	gmOldContainers = 48
	gmNewContainers = 48
	gmChunksPer     = 24
	gmChunkBytes    = 2048
)

// GMaintPoint is one row of the maintenance-scaling sweep.
type GMaintPoint struct {
	Workers int `json:"workers"`

	ReverseWallMS   float64 `json:"reverse_wall_ms"`
	ReverseContSec  float64 `json:"reverse_containers_per_sec"`
	ReverseSpeedup  float64 `json:"reverse_speedup"` // vs the 1-worker row
	ScrubWallMS     float64 `json:"scrub_wall_ms"`
	ScrubContSec    float64 `json:"scrub_containers_per_sec"`
	ScrubSpeedup    float64 `json:"scrub_speedup"` // vs the 1-worker row
	ChunksScanned   int     `json:"chunks_scanned"`
	DupsRemoved     int     `json:"duplicates_removed"`
	IndexInserts    int     `json:"index_inserts"`
	Rewritten       int     `json:"containers_rewritten"`
	ChunksVerified  int     `json:"chunks_verified"`
	ScrubContainers int     `json:"scrub_containers_scanned"`
}

// GMaintReport is the BENCH_gmaint.json schema: the regression artifact
// pinning how G-node maintenance wall-clock scales with MaintWorkers.
type GMaintReport struct {
	Experiment string `json:"experiment"`
	// HostCPUs contextualises the wall columns. The per-op latency below
	// makes the sweep meaningful even on one core: workers overlap
	// *request latency* (timer sleeps), not CPU, exactly like concurrent
	// OSS channels.
	HostCPUs       int           `json:"host_cpus"`
	PerOpLatencyUS int64         `json:"per_op_latency_us"`
	OldContainers  int           `json:"old_containers"`
	NewContainers  int           `json:"new_containers"`
	ChunksPer      int           `json:"chunks_per_container"`
	Points         []GMaintPoint `json:"points"`
}

// buildGMaintRepo populates mem (latency-free: setup is not measured)
// with the two container generations and returns the new-generation IDs
// in backup order. Identically seeded for every worker count, so each
// sweep point does exactly the same logical work.
func buildGMaintRepo(mem *oss.Mem, cfg core.Config) ([]container.ID, error) {
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		return nil, err
	}
	cs := repo.Containers
	rng := rand.New(rand.NewSource(42))

	type chunk struct {
		fp   fingerprint.FP
		data []byte
	}
	mkChunk := func() chunk {
		data := make([]byte, gmChunkBytes)
		rng.Read(data)
		return chunk{fingerprint.Of(cfg.FingerprintAlg, data), data}
	}

	// Old generation, every chunk registered in the global index.
	b := container.NewBuilder(cs)
	oldChunks := make([]chunk, 0, gmOldContainers*gmChunksPer)
	entries := make([]globalindex.Entry, 0, gmOldContainers*gmChunksPer)
	for i := 0; i < gmOldContainers*gmChunksPer; i++ {
		c := mkChunk()
		id, err := b.Add(c.fp, c.data)
		if err != nil {
			return nil, err
		}
		oldChunks = append(oldChunks, c)
		entries = append(entries, globalindex.Entry{FP: c.fp, ID: id})
	}
	if err := b.Flush(); err != nil {
		return nil, err
	}
	if err := repo.Global.PutBatch(entries); err != nil {
		return nil, err
	}
	if err := repo.Global.Flush(); err != nil {
		return nil, err
	}

	// New generation: every second chunk repeats an old chunk (sampled
	// without replacement — each duplicate marks a distinct old copy),
	// leaving every old container ~50% stale, past the rewrite threshold.
	perm := rng.Perm(len(oldChunks))
	di := 0
	nb := container.NewBuilder(cs)
	var newIDs []container.ID
	seen := make(map[container.ID]bool)
	for i := 0; i < gmNewContainers*gmChunksPer; i++ {
		var c chunk
		if i%2 == 0 {
			c = oldChunks[perm[di]]
			di++
		} else {
			c = mkChunk()
		}
		id, err := nb.Add(c.fp, c.data)
		if err != nil {
			return nil, err
		}
		if !seen[id] {
			seen[id] = true
			newIDs = append(newIDs, id)
		}
	}
	if err := nb.Flush(); err != nil {
		return nil, err
	}
	return newIDs, nil
}

// RunGMaint measures wall-clock reverse dedup and scrub over identical
// datasets at each worker count, with perOp of real latency injected
// under every OSS request (oss.Latency). Stats columns must be identical
// across rows — parallelism changes only the wall clock.
func RunGMaint(workerCounts []int, perOp time.Duration) (*GMaintReport, error) {
	rep := &GMaintReport{
		Experiment:     "gmaint",
		HostCPUs:       runtime.NumCPU(),
		PerOpLatencyUS: perOp.Microseconds(),
		OldContainers:  gmOldContainers,
		NewContainers:  gmNewContainers,
		ChunksPer:      gmChunksPer,
	}
	for _, w := range workerCounts {
		cfg := core.DefaultConfig()
		cfg.ContainerCapacity = gmChunksPer * gmChunkBytes
		mem := oss.NewMem()
		newIDs, err := buildGMaintRepo(mem, cfg)
		if err != nil {
			return nil, fmt.Errorf("gmaint: build dataset: %w", err)
		}

		cfg.MaintWorkers = w
		repo, err := core.OpenRepo(&oss.Latency{S: mem, PerOp: perOp}, cfg)
		if err != nil {
			return nil, fmt.Errorf("gmaint: reopen with latency: %w", err)
		}
		g := gnode.New(repo)

		//slimlint:ignore determinism the wall-clock columns ARE the measurement: this sweep pins maintenance speedup on real cores
		start := time.Now()
		rd, err := g.ReverseDedup(newIDs)
		//slimlint:ignore determinism wall-clock is the measured quantity here
		rdWall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("gmaint: reverse dedup (%d workers): %w", w, err)
		}
		//slimlint:ignore determinism the wall-clock columns ARE the measurement: this sweep pins maintenance speedup on real cores
		start = time.Now()
		sc, err := g.Scrub()
		//slimlint:ignore determinism wall-clock is the measured quantity here
		scWall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("gmaint: scrub (%d workers): %w", w, err)
		}
		if !sc.Clean() {
			return nil, fmt.Errorf("gmaint: scrub found damage on a clean dataset: %+v", sc)
		}

		pt := GMaintPoint{
			Workers:         w,
			ReverseWallMS:   float64(rdWall.Microseconds()) / 1e3,
			ReverseContSec:  float64(rd.ContainersScanned) / rdWall.Seconds(),
			ScrubWallMS:     float64(scWall.Microseconds()) / 1e3,
			ScrubContSec:    float64(sc.ContainersScanned) / scWall.Seconds(),
			ChunksScanned:   rd.ChunksScanned,
			DupsRemoved:     rd.DuplicatesRemoved,
			IndexInserts:    rd.IndexInserts,
			Rewritten:       rd.ContainersRewritten,
			ChunksVerified:  sc.ChunksVerified,
			ScrubContainers: sc.ContainersScanned,
		}
		base := pt
		if len(rep.Points) > 0 {
			base = rep.Points[0]
		}
		pt.ReverseSpeedup = base.ReverseWallMS / pt.ReverseWallMS
		pt.ScrubSpeedup = base.ScrubWallMS / pt.ScrubWallMS
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// runGMaint is the registered experiment: it prints the sweep and writes
// the BENCH_gmaint.json regression artifact.
func runGMaint(ctx context.Context, w io.Writer, _ Scale) error {
	rep, err := RunGMaint([]int{1, 2, 4, 8}, 250*time.Microsecond)
	if err != nil {
		return err
	}

	t := newTable(w, "G-node maintenance: wall-clock scaling by MaintWorkers (250µs/op OSS latency)")
	t.row("workers", "reverse ms", "reverse ctr/s", "speedup", "scrub ms", "scrub ctr/s", "speedup")
	for _, p := range rep.Points {
		t.row(fmt.Sprint(p.Workers),
			f1(p.ReverseWallMS), f1(p.ReverseContSec), f2(p.ReverseSpeedup),
			f1(p.ScrubWallMS), f1(p.ScrubContSec), f2(p.ScrubSpeedup))
	}
	t.flush()
	last := rep.Points[len(rep.Points)-1]
	fmt.Fprintf(w, "reverse-dedup work per pass: %d chunks scanned, %d duplicates removed, %d containers rewritten\n",
		last.ChunksScanned, last.DupsRemoved, last.Rewritten)

	return writeArtifact(w, "BENCH_gmaint.json", rep)
}
