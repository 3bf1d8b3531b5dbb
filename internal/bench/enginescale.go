package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/jobs"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
	"slimstore/internal/workload"
)

func init() {
	register("scale", "Engine scaling: real wall-clock vs virtual-time throughput by L-node count", runEngineScale)
}

// ScalePoint is one row of the engine-scaling sweep: aggregate backup and
// restore throughput for a given L-node count, in both real wall-clock
// MB/s (the goroutine engine on this host) and virtual MB/s (the
// simclock cost model, composed as per-node serial / cross-node parallel;
// see DESIGN.md §7).
type ScalePoint struct {
	LNodes int `json:"lnodes"`
	Jobs   int `json:"jobs"`

	BackupBytes       int64   `json:"backup_bytes"`
	BackupWallMS      float64 `json:"backup_wall_ms"`
	BackupWallMBps    float64 `json:"backup_wall_mbps"`
	BackupVirtualMBps float64 `json:"backup_virtual_mbps"`

	RestoreBytes       int64   `json:"restore_bytes"`
	RestoreWallMS      float64 `json:"restore_wall_ms"`
	RestoreWallMBps    float64 `json:"restore_wall_mbps"`
	RestoreVirtualMBps float64 `json:"restore_virtual_mbps"`
}

// ScaleReport is the BENCH_scale.json schema: the bench-regression
// artifact pinning how engine throughput scales with L-node count.
type ScaleReport struct {
	Experiment  string `json:"experiment"`
	JobsPerNode int    `json:"jobs_per_node"`
	FileBytes   int    `json:"file_bytes"`
	// HostCPUs contextualises the wall-clock columns: on a single-core
	// host the wall curve is flat (goroutines interleave, they don't
	// parallelise) while the virtual-time curve still shows the model's
	// scaling.
	HostCPUs int          `json:"host_cpus"`
	Points   []ScalePoint `json:"points"`
}

// RunEngineScale sweeps the concurrent job engine over lnodeCounts,
// backing up (then restoring) jobsPerNode fresh files per L-node through
// jobs.Engine, and reports aggregate throughput per round. Each round
// uses a fresh repo so rounds are independent: all data is unique, which
// makes backup cost hash-dominated and the sweep a clean measure of how
// the engine scales on real cores. ctx cancels job submission between
// rounds (a started job runs to completion, per the engine's job model).
func RunEngineScale(ctx context.Context, lnodeCounts []int, jobsPerNode, fileBytes int) (*ScaleReport, error) {
	rep := &ScaleReport{
		Experiment:  "scale",
		JobsPerNode: jobsPerNode,
		FileBytes:   fileBytes,
		HostCPUs:    runtime.NumCPU(),
	}
	for _, n := range lnodeCounts {
		nJobs := n * jobsPerNode
		gen := workload.New(workload.RData(nJobs, fileBytes))
		cfg := benchConfig()
		// Keep each job single-threaded so the sweep isolates cross-node
		// scaling: with the intra-job worker pools on, a single L-node
		// already saturates the host's cores and flattens the curve.
		cfg.HashWorkers = 1
		cfg.PackWorkers = 1
		repo, err := core.OpenRepo(oss.NewMem(), cfg)
		if err != nil {
			return nil, err
		}
		eng := jobs.New(repo, gnode.New(repo), jobs.Options{LNodes: n, Queue: nJobs})

		backups := make([]jobs.Job, nJobs)
		for j := range backups {
			backups[j] = jobs.Job{Kind: jobs.Backup, FileID: gen.FileIDs()[j], Data: gen.Base(j)}
		}
		pt := ScalePoint{LNodes: n, Jobs: nJobs}
		//slimlint:ignore determinism the wall-clock columns ARE the measurement: this sweep reports host throughput next to the virtual model
		start := time.Now()
		results := eng.Run(ctx, backups)
		//slimlint:ignore determinism wall-clock is the measured quantity here
		wall := time.Since(start)
		var virtual time.Duration
		for _, r := range results {
			if r.Err != nil {
				eng.Close()
				return nil, fmt.Errorf("scale: backup on %d L-nodes: %w", n, r.Err)
			}
			pt.BackupBytes += r.Backup.LogicalBytes
			virtual += r.Backup.Elapsed
		}
		pt.BackupWallMS = float64(wall.Microseconds()) / 1e3
		pt.BackupWallMBps = simclock.ThroughputMBps(pt.BackupBytes, wall)
		// Virtual composition: jobs on one L-node serialise, L-nodes run
		// in parallel — aggregate virtual elapsed is the per-node share of
		// the summed per-job virtual times (balanced assignment).
		pt.BackupVirtualMBps = simclock.ThroughputMBps(pt.BackupBytes, virtual/time.Duration(n))

		restores := make([]jobs.Job, nJobs)
		for j := range restores {
			restores[j] = jobs.Job{Kind: jobs.Restore, FileID: gen.FileIDs()[j], Version: 0}
		}
		//slimlint:ignore determinism the wall-clock columns ARE the measurement: this sweep reports host throughput next to the virtual model
		start = time.Now()
		results = eng.Run(ctx, restores)
		//slimlint:ignore determinism wall-clock is the measured quantity here
		wall = time.Since(start)
		virtual = 0
		for _, r := range results {
			if r.Err != nil {
				eng.Close()
				return nil, fmt.Errorf("scale: restore on %d L-nodes: %w", n, r.Err)
			}
			pt.RestoreBytes += r.Restore.Bytes
			virtual += r.Restore.Elapsed
		}
		pt.RestoreWallMS = float64(wall.Microseconds()) / 1e3
		pt.RestoreWallMBps = simclock.ThroughputMBps(pt.RestoreBytes, wall)
		pt.RestoreVirtualMBps = simclock.ThroughputMBps(pt.RestoreBytes, virtual/time.Duration(n))

		eng.Close()
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// runEngineScale is the registered experiment: it prints the sweep and
// writes the BENCH_scale.json regression artifact.
func runEngineScale(ctx context.Context, w io.Writer, s Scale) error {
	rep, err := RunEngineScale(ctx, []int{1, 2, 4, 6, 8}, 2, s.FileBytes/4)
	if err != nil {
		return err
	}

	t := newTable(w, "Engine scaling: aggregate throughput (MB/s) vs L-node count")
	t.row("l-nodes", "jobs", "backup wall", "backup virtual", "restore wall", "restore virtual")
	base := rep.Points[0]
	for _, p := range rep.Points {
		t.row(fmt.Sprint(p.LNodes), fmt.Sprint(p.Jobs),
			f1(p.BackupWallMBps), f1(p.BackupVirtualMBps),
			f1(p.RestoreWallMBps), f1(p.RestoreVirtualMBps))
	}
	t.flush()
	last := rep.Points[len(rep.Points)-1]
	fmt.Fprintf(w, "wall-clock backup speedup %d→%d L-nodes: %.2fx (virtual model: %.2fx)\n",
		base.LNodes, last.LNodes,
		last.BackupWallMBps/base.BackupWallMBps,
		last.BackupVirtualMBps/base.BackupVirtualMBps)

	return writeArtifact(w, "BENCH_scale.json", rep)
}
