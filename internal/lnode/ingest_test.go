package lnode

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// fastConfig is testConfig with the history-aware accelerations off, which
// routes STEP 2 through the pooled ingest fast path (ingest.go).
func fastConfig() core.Config {
	cfg := testConfig()
	cfg.SkipChunking = false
	cfg.ChunkMerging = false
	return cfg
}

// comparable strips the per-job account pointer so twin stats can be
// compared field-for-field (including virtual Elapsed).
func comparableStats(s *BackupStats) BackupStats {
	c := *s
	c.Account = nil
	return c
}

// backupVersions runs two versions of a file through a fresh repo and
// returns stats and full recipes.
func backupVersions(t *testing.T, cfg core.Config, versions [][]byte) ([]BackupStats, []*recipe.Recipe) {
	t.Helper()
	n, repo := newNode(t, cfg)
	defer n.Close()
	var stats []BackupStats
	var recs []*recipe.Recipe
	for i, data := range versions {
		st, err := n.Backup("twin", data)
		if err != nil {
			t.Fatalf("backup v%d: %v", i, err)
		}
		stats = append(stats, comparableStats(st))
		r, err := repo.RecipesFor(nil).GetRecipe("twin", st.Version)
		if err != nil {
			t.Fatalf("get recipe v%d: %v", i, err)
		}
		recs = append(recs, r)
	}
	return stats, recs
}

// TestIngestTwinSerial pins the fast path to the serial reference: same
// chunk boundaries, fingerprints, recipes, dedup stats, and bit-identical
// virtual time, for every cutter. Run under -race by scripts/check.sh,
// which also exercises the pipeline's concurrency.
func TestIngestTwinSerial(t *testing.T) {
	for _, algo := range []string{"fastcdc", "gear", "rabin", "buzhash", "fixed"} {
		t.Run(algo, func(t *testing.T) {
			v0 := genData(42, 3<<20)
			versions := [][]byte{v0, mutate(v0, 43, 150)}

			fastCfg := fastConfig()
			fastCfg.ChunkAlgo = algo
			fastStats, fastRecs := backupVersions(t, fastCfg, versions)

			serialCfg := fastConfig()
			serialCfg.ChunkAlgo = algo
			serialCfg.HashWorkers = -1 // serial STEP 2 reference
			serialStats, serialRecs := backupVersions(t, serialCfg, versions)

			for i := range versions {
				if !reflect.DeepEqual(fastStats[i], serialStats[i]) {
					t.Errorf("v%d stats diverge:\nfast:   %+v\nserial: %+v", i, fastStats[i], serialStats[i])
				}
				if !reflect.DeepEqual(fastRecs[i], serialRecs[i]) {
					t.Errorf("v%d recipes diverge", i)
				}
			}
		})
	}
}

// TestBackupStreamTwin pins streaming ingest to buffered ingest: cutting
// through recycled slabs with bounded lookahead must reproduce the exact
// whole-buffer chunk boundaries, for every cutter. The input exceeds the
// head-probe size so the slab refill path (tail carry between buffers) is
// exercised.
func TestBackupStreamTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MiB stream per cutter")
	}
	for _, algo := range []string{"fastcdc", "gear", "rabin", "buzhash", "fixed"} {
		t.Run(algo, func(t *testing.T) {
			cfg := fastConfig()
			cfg.ChunkAlgo = algo
			v0 := genData(71, headBytes+2<<20)
			versions := [][]byte{v0, mutate(v0, 72, 100)}

			bufStats, bufRecs := backupVersions(t, cfg, versions)

			n, repo := newNode(t, cfg)
			defer n.Close()
			for i, data := range versions {
				st, err := n.BackupStream("twin", bytes.NewReader(data))
				if err != nil {
					t.Fatalf("stream backup v%d: %v", i, err)
				}
				if got := comparableStats(st); !reflect.DeepEqual(got, bufStats[i]) {
					t.Errorf("v%d stats diverge:\nstream: %+v\nbuffer: %+v", i, got, bufStats[i])
				}
				r, err := repo.RecipesFor(nil).GetRecipe("twin", st.Version)
				if err != nil {
					t.Fatalf("get recipe v%d: %v", i, err)
				}
				if !reflect.DeepEqual(r, bufRecs[i]) {
					t.Errorf("v%d recipes diverge", i)
				}
			}
			if got := restoreBytes(t, n, "twin", 1); !bytes.Equal(got, versions[1]) {
				t.Error("restore of streamed version diverges from input")
			}
		})
	}
}

// TestBackupStreamFallback covers the buffering fallback for
// configurations the streaming cutter cannot serve.
func TestBackupStreamFallback(t *testing.T) {
	cfg := testConfig() // history-aware accelerations on
	n, _ := newNode(t, cfg)
	defer n.Close()
	data := genData(5, 1<<20)
	st, err := n.BackupStream("f", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalBytes != int64(len(data)) {
		t.Fatalf("logical bytes = %d, want %d", st.LogicalBytes, len(data))
	}
	if got := restoreBytes(t, n, "f", 0); !bytes.Equal(got, data) {
		t.Error("restore diverges from input")
	}
}

// TestInlineGlobalProbe: chunks the local dedup window misses but the
// G-node has already indexed deduplicate inline via one batched
// global-index probe per chunk batch.
func TestInlineGlobalProbe(t *testing.T) {
	cfg := fastConfig()
	cfg.InlineGlobalProbe = true
	cfg.SimilarityMinScore = 2 // force a cold base so only the global index can hit
	n, repo := newNode(t, cfg)
	defer n.Close()

	data := genData(29, 2<<20)
	st1, err := n.Backup("origin", data)
	if err != nil {
		t.Fatal(err)
	}
	if st1.GlobalHits != 0 {
		t.Fatalf("first backup hit the empty global index: %d", st1.GlobalHits)
	}
	// Offline reverse dedup indexes the new containers' fingerprints.
	g := gnode.New(repo)
	if _, err := g.ReverseDedup(st1.NewContainers); err != nil {
		t.Fatal(err)
	}

	st2, err := n.Backup("copy", data)
	if err != nil {
		t.Fatal(err)
	}
	if st2.GlobalProbes == 0 || st2.GlobalHits == 0 {
		t.Fatalf("want global probes and hits, got probes=%d hits=%d", st2.GlobalProbes, st2.GlobalHits)
	}
	if st2.StoredBytes >= st1.StoredBytes/2 {
		t.Errorf("global dedup stored %d bytes of a fully duplicate file (first version stored %d)",
			st2.StoredBytes, st1.StoredBytes)
	}
	if got := restoreBytes(t, n, "copy", 0); !bytes.Equal(got, data) {
		t.Error("restore through globally deduped recipe diverges")
	}
}

// recordedMaterializedHandoffAllocs is the allocations per pass of the
// materialize-everything hand-off the pooled ingest pipeline replaced
// (cut every chunk of the version, then fingerprint over per-call
// goroutines), measured on this test's input before that hand-off was
// deleted.
const recordedMaterializedHandoffAllocs = 18.0

// TestIngestHandoffAllocs is the steady-state allocation gate of the fast
// path: the pooled chunk→hash→ring hand-off must allocate at most 4 per
// pass, and at least 10x less than the recorded materialize-everything
// hand-off.
func TestIngestHandoffAllocs(t *testing.T) {
	cfg := fastConfig()
	n, repo := newNode(t, cfg)
	defer n.Close()
	data := genData(3, 4<<20)
	want := len(chunker.SplitAll(data, repo.Cutter()))

	// Pin the GC so sync.Pool contents survive the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ { // warm the batch/run pools and goroutine cache
		if got := n.IngestHandoff(data); got != want {
			t.Fatalf("handoff produced %d chunks, want %d", got, want)
		}
	}
	fast := testing.AllocsPerRun(10, func() { n.IngestHandoff(data) })

	t.Logf("allocs/pass over %d chunks: fast=%.1f (recorded materialize-everything: %.1f)", want, fast, recordedMaterializedHandoffAllocs)
	if raceEnabled {
		// Race instrumentation allocates shadow state per goroutine and
		// channel op; the counts only mean anything uninstrumented.
		t.Skip("allocation gate skipped under -race")
	}
	if fast > 4 {
		t.Errorf("fast hand-off allocates %.1f/pass, want <= 4", fast)
	}
	if fast*10 > recordedMaterializedHandoffAllocs {
		t.Errorf("fast hand-off %.1f allocs/pass is not 10x below the recorded %.1f", fast, recordedMaterializedHandoffAllocs)
	}
}

// discardStore drops container payloads on write and delegates everything
// else, so a stream test can push far more data than it wants resident.
type discardStore struct{ oss.Store }

func (s discardStore) Put(key string, data []byte) error {
	if strings.HasPrefix(key, container.Prefix) && strings.HasSuffix(key, ".data") {
		return nil
	}
	return s.Store.Put(key, data)
}

// rndReader yields a deterministic pseudo-random byte stream (splitmix64).
type rndReader struct{ state uint64 }

func (r *rndReader) Read(p []byte) (int, error) {
	for i := 0; i < len(p); i += 8 {
		r.state += 0x9e3779b97f4a7c15
		z := r.state
		z ^= z >> 30
		z *= 0xbf58476d1ce4e9b5
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(z >> (8 * uint(j)))
		}
	}
	return len(p), nil
}

// heapSampler wraps the input stream and samples live heap every
// sampleEvery bytes read.
type heapSampler struct {
	inner io.Reader
	since int64
	peak  uint64
}

const heapSampleEvery = 16 << 20

func (h *heapSampler) Read(p []byte) (int, error) {
	n, err := h.inner.Read(p)
	h.since += int64(n)
	if h.since >= heapSampleEvery {
		h.since = 0
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > h.peak {
			h.peak = ms.HeapAlloc
		}
	}
	return n, err
}

// TestBackupStreamResidentMemory is the O(window) gate: streaming a
// synthetic unique stream many times larger than the pipeline window must
// keep live heap bounded by the window (head probe + ring slabs + pack
// budget + recipe), not the input size. Input and bound are build-tag
// sized (ingest_norace_test.go / ingest_race_test.go).
func TestBackupStreamResidentMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams hundreds of MiB")
	}
	cfg := fastConfig()
	repo, err := core.OpenRepo(discardStore{oss.NewMem()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	defer n.Close()

	src := &heapSampler{inner: io.LimitReader(&rndReader{state: 1}, streamTestBytes)}
	st, err := n.BackupStream("big", src)
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalBytes != streamTestBytes {
		t.Fatalf("logical bytes = %d, want %d", st.LogicalBytes, int64(streamTestBytes))
	}
	t.Logf("peak live heap %.1f MiB over a %d MiB stream (bound %d MiB)",
		float64(src.peak)/(1<<20), streamTestBytes>>20, int64(streamHeapBound)>>20)
	if src.peak > streamHeapBound {
		t.Errorf("peak live heap %d bytes exceeds O(window) bound %d", src.peak, int64(streamHeapBound))
	}
}

// TestBackupStreamReadError: a mid-stream read failure must surface and
// leave no goroutines wedged (the -race run doubles as the leak check).
func TestBackupStreamReadError(t *testing.T) {
	cfg := fastConfig()
	n, _ := newNode(t, cfg)
	defer n.Close()
	src := io.MultiReader(
		io.LimitReader(&rndReader{state: 2}, headBytes+4<<20),
		iotest{},
	)
	if _, err := n.BackupStream("bad", src); err == nil {
		t.Fatal("want read error to surface")
	}
}

type iotest struct{}

func (iotest) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }

func BenchmarkIngestHandoff(b *testing.B) {
	n, _ := newNode(b, fastConfig())
	defer n.Close()
	data := genData(3, 8<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.IngestHandoff(data)
	}
}

// BenchmarkHashChunksCrossover locates the input size below which
// handing chunks to the persistent pool costs more than hashing them
// inline — the basis for the smallHashBatch threshold hashAll applies.
func BenchmarkHashChunksCrossover(b *testing.B) {
	cfg := fastConfig()
	n, repo := newNode(b, cfg)
	defer n.Close()
	pool := n.hashers()
	for _, nchunks := range []int{1, 2, 8, 64, 512} {
		data := genData(9, nchunks*cfg.ChunkParams.Avg)
		chunks := chunker.SplitAll(data, repo.Cutter())
		fps := make([]fingerprint.FP, len(chunks))
		b.Run(fmt.Sprintf("chunks=%d/inline", len(chunks)), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				for k := range chunks {
					fps[k] = fingerprint.Of(cfg.FingerprintAlg, chunks[k].Data)
				}
			}
		})
		b.Run(fmt.Sprintf("chunks=%d/pool=%d", len(chunks), cfg.HashWorkers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				pool.hashStrided(cfg.FingerprintAlg, chunks, fps, cfg.HashWorkers)
			}
		})
	}
}
