// Package bench regenerates every table and figure of the paper's
// evaluation (§VII). Each experiment is a named driver that builds its
// workload with internal/workload, runs SLIMSTORE and/or the baselines
// over the simulated OSS, and prints the same rows/series the paper
// reports. Absolute numbers depend on the calibrated cost model
// (internal/simclock); the shapes — who wins, by what factor, where the
// crossovers fall — are the reproduction targets (see EXPERIMENTS.md).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/oss"
)

// Scale sizes an experiment's workload. Larger scales sharpen the curves
// at the cost of runtime.
type Scale struct {
	Files     int // files per dataset
	FileBytes int // initial bytes per file
	Versions  int // backup versions (capped by the dataset profile)
}

// SmallScale is fast enough for go test; MediumScale sharpens curves for
// the slimbench CLI.
var (
	SmallScale  = Scale{Files: 2, FileBytes: 8 << 20, Versions: 8}
	MediumScale = Scale{Files: 4, FileBytes: 16 << 20, Versions: 25}
	LargeScale  = Scale{Files: 8, FileBytes: 32 << 20, Versions: 25}
)

// Experiment is one reproducible table or figure. Run receives the
// caller's context — the entry point (slimbench's main, a test) owns the
// root, and experiments that drive the job engine forward it, so a
// cancelled bench run cancels its queued jobs instead of minting fresh
// context.Background() roots mid-harness.
type Experiment struct {
	ID    string // e.g. "fig5a", "table2"
	Title string // the paper's caption
	Run   func(ctx context.Context, w io.Writer, s Scale) error
}

// registry of all experiments, in paper order.
var registry []Experiment

func register(id, title string, run func(context.Context, io.Writer, Scale) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in paper order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the registered experiment IDs.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Output helpers.

// table renders aligned experiment output.
type table struct {
	w   *tabwriter.Writer
	out io.Writer
}

func newTable(w io.Writer, title string) *table {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	return &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0), out: w}
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.w, strings.Join(cells, "\t"))
}

func (t *table) rowf(format string, args ...any) {
	fmt.Fprintf(t.w, format+"\n", args...)
}

func (t *table) flush() { t.w.Flush() }

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// ArtifactDir is where the artifact-writing experiments put their
// BENCH_<exp>.json regression artifacts: the working directory unless
// the caller (slimbench -out, a test) points it elsewhere.
var ArtifactDir = "."

// writeArtifact writes rep as indented JSON to ArtifactDir/name and
// reports the path on w.
func writeArtifact(w io.Writer, name string, rep any) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(ArtifactDir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

func gib(v int64) string { return fmt.Sprintf("%.2f GiB", float64(v)/(1<<30)) }
func mib(v int64) string { return fmt.Sprintf("%.1f MiB", float64(v)/(1<<20)) }

// ---------------------------------------------------------------------------
// Shared setup helpers.

// benchConfig returns the paper's configuration scaled to experiment
// sizes (small containers/segments so fragmentation happens at MBs, not
// TBs).
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 512 << 10
	cfg.SegmentChunks = 512
	cfg.MaxSuperChunkBytes = 128 << 10
	cfg.CacheMemBytes = 64 << 20
	cfg.CacheDiskBytes = 256 << 20
	cfg.LAWChunks = 1024
	cfg.PrefetchThreads = 6
	return cfg
}

func newSystemStore() (*core.Repo, *oss.Mem, error) {
	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, benchConfig())
	if err != nil {
		return nil, nil, err
	}
	return repo, mem, nil
}

func clampVersions(s Scale, max int) int {
	v := s.Versions
	if v > max {
		v = max
	}
	if v < 2 {
		v = 2
	}
	return v
}
