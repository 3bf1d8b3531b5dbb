package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

func init() {
	register("ec", "Erasure-coded redundancy tier: storage overhead and degraded-read latency vs plain and (1+M)-replication", runECBench)
}

// ecFileBytes sizes the backed-up file: unique incompressible data so the
// container set (and thus the stored-byte comparison) is deterministic.
const ecFileBytes = 2 << 20

// ECSchemePoint is one redundancy scheme's position on the
// durability / cost / restore-latency frontier.
type ECSchemePoint struct {
	Scheme   string `json:"scheme"`
	K        int    `json:"k"`
	M        int    `json:"m"`
	Backends int    `json:"backends"`
	// ToleratesDomains is how many whole fault domains may fail with every
	// byte still restorable.
	ToleratesDomains int `json:"tolerates_domains"`

	StoredBytes int64   `json:"stored_bytes"` // physical container-namespace bytes
	OverheadX   float64 `json:"overhead_x"`   // stored bytes / plain scheme's stored bytes

	HealthyMS  float64 `json:"healthy_ms"`  // virtual full-restore time, all backends up
	DegradedMS float64 `json:"degraded_ms"` // virtual full-restore time, M backends dark
	DegradedX  float64 `json:"degraded_x"`  // degraded / healthy

	// SurvivesAllM is the exhaustive durability check: a byte-identical
	// restore succeeded under every outage pattern of ≤ M backends.
	SurvivesAllM bool `json:"survives_all_m"`
}

// ECReport is the BENCH_ec.json schema.
type ECReport struct {
	Experiment string          `json:"experiment"`
	FileBytes  int             `json:"file_bytes"`
	Schemes    []ECSchemePoint `json:"schemes"`
}

func ecData() []byte {
	data := make([]byte, ecFileBytes)
	rand.New(rand.NewSource(23)).Read(data)
	return data
}

func ecBenchConfig(k, m int) core.Config {
	cfg := benchConfig()
	cfg.PrefetchThreads = 0 // serial restores: virtual times are comparable across schemes
	cfg.SharedCacheBytes = -1
	cfg.ECDataShards = k
	cfg.ECParityShards = m
	return cfg
}

// ecStoredBytes sums the physical bytes backing the container namespace:
// shard objects for striped schemes, the container objects themselves for
// the plain one.
func ecStoredBytes(mem *oss.Mem, striped bool) (int64, error) {
	prefix := container.Prefix
	if striped {
		prefix = "ec/"
	}
	keys, err := mem.List(prefix)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, k := range keys {
		n, err := mem.Head(k)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// ecRestoreOnce reopens the repo cold (empty caches), optionally blacks
// out the given backends, and runs one full restore: byte-verified, with
// its virtual elapsed time returned.
func ecRestoreOnce(mem *oss.Mem, cfg core.Config, data []byte, down []int) (float64, error) {
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		return 0, err
	}
	for _, i := range down {
		repo.EC.Backends()[i].Faulty.SetOutage(true)
	}
	var buf bytes.Buffer
	st, err := lnode.New(repo, "ec-bench").Restore("f", 0, &buf)
	if err != nil {
		return 0, fmt.Errorf("restore with backends %v down: %w", down, err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		return 0, fmt.Errorf("restore with backends %v down returned wrong bytes", down)
	}
	return float64(st.Elapsed.Microseconds()) / 1e3, nil
}

// ecRunScheme measures one redundancy scheme. k == 0 is the plain
// single-copy baseline; k == 1 with m parity shards is naive
// (1+M)-replication; k > 1 is the RS stripe.
func ecRunScheme(name string, k, m int, data []byte) (ECSchemePoint, error) {
	pt := ECSchemePoint{Scheme: name, K: k, M: m, ToleratesDomains: m}
	cfg := ecBenchConfig(k, m)
	if k > 0 {
		pt.Backends = k + m
	}
	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		return pt, err
	}
	if _, err := lnode.New(repo, "ec-bench").Backup("f", data); err != nil {
		return pt, err
	}
	if pt.StoredBytes, err = ecStoredBytes(mem, k > 0); err != nil {
		return pt, err
	}
	if pt.HealthyMS, err = ecRestoreOnce(mem, cfg, data, nil); err != nil {
		return pt, err
	}
	if k == 0 {
		pt.SurvivesAllM = true // vacuously: zero domains may fail
		return pt, nil
	}

	// Worst-case degraded latency: the full M backends dark at once.
	var worst []int
	for i := 0; i < m; i++ {
		worst = append(worst, i)
	}
	if pt.DegradedMS, err = ecRestoreOnce(mem, cfg, data, worst); err != nil {
		return pt, err
	}
	pt.DegradedX = pt.DegradedMS / pt.HealthyMS

	// Exhaustive durability: every outage pattern of ≤ M of the K+M
	// backends must restore byte-identical.
	n := k + m
	for mask := 1; mask < 1<<n; mask++ {
		var down []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				down = append(down, i)
			}
		}
		if len(down) > m {
			continue
		}
		if _, err := ecRestoreOnce(mem, cfg, data, down); err != nil {
			return pt, err
		}
	}
	pt.SurvivesAllM = true
	return pt, nil
}

// RunECBench measures the durability/cost/latency frontier: plain single
// copy, naive (1+M)-replication, and the RS(K+M) stripe at matched
// fault tolerance.
func RunECBench() (*ECReport, error) {
	rep := &ECReport{Experiment: "ec", FileBytes: ecFileBytes}
	data := ecData()
	schemes := []struct {
		name string
		k, m int
	}{
		{"plain", 0, 0},
		{"rep2 (1+1)", 1, 1},
		{"rep3 (1+2)", 1, 2},
		{"rs4+2", 4, 2},
	}
	for _, s := range schemes {
		pt, err := ecRunScheme(s.name, s.k, s.m, data)
		if err != nil {
			return nil, fmt.Errorf("ec bench: scheme %s: %w", s.name, err)
		}
		rep.Schemes = append(rep.Schemes, pt)
	}
	plain := rep.Schemes[0].StoredBytes
	for i := range rep.Schemes {
		rep.Schemes[i].OverheadX = float64(rep.Schemes[i].StoredBytes) / float64(plain)
	}
	return rep, nil
}

// runECBench is the registered experiment: it prints the frontier table
// and writes the BENCH_ec.json regression artifact.
func runECBench(_ context.Context, w io.Writer, _ Scale) error {
	rep, err := RunECBench()
	if err != nil {
		return err
	}
	t := newTable(w, "Redundancy schemes: storage overhead vs fault tolerance vs restore latency (virtual time)")
	t.row("scheme", "backends", "tolerates", "stored MiB", "overhead", "healthy ms", "degraded ms", "degraded x", "survives ≤M")
	for _, p := range rep.Schemes {
		deg, degx := "-", "-"
		if p.DegradedMS > 0 {
			deg, degx = f1(p.DegradedMS), f2(p.DegradedX)
		}
		t.row(p.Scheme, fmt.Sprint(p.Backends), fmt.Sprint(p.ToleratesDomains),
			f2(float64(p.StoredBytes)/(1<<20)), f2(p.OverheadX),
			f1(p.HealthyMS), deg, degx, fmt.Sprint(p.SurvivesAllM))
	}
	t.flush()

	return writeArtifact(w, "BENCH_ec.json", rep)
}
