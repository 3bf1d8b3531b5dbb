package lnode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/gnode"
	"slimstore/internal/simclock"
)

// restorePolicies are the four cache policies the restore pipeline must
// be twin-identical under.
var restorePolicies = []string{"fv", "opt", "alacc", "lru"}

// comparableRestore strips the account pointer and the prefetcher
// effectiveness counters (the consumed-vs-direct split depends on
// goroutine scheduling; prefetchConserved checks it separately) so twin
// stats compare field-for-field, including virtual Elapsed.
func comparableRestore(s *RestoreStats) RestoreStats {
	c := *s
	c.Account = nil
	c.Prefetch = cache.PrefetchStats{}
	return c
}

// prefetchConserved asserts the scheduling-dependent counters are at
// least self-consistent on a successful restore: every dispatched slot
// was consumed (no worker fetched for nothing).
func prefetchConserved(t *testing.T, st *RestoreStats) {
	t.Helper()
	if st.Prefetch.Cancelled != 0 {
		t.Errorf("prefetch cancelled %d slots on a clean restore: %+v", st.Prefetch.Cancelled, st.Prefetch)
	}
	if st.Prefetch.Dispatched != st.Prefetch.Consumed {
		t.Errorf("prefetch dispatched %d != consumed %d", st.Prefetch.Dispatched, st.Prefetch.Consumed)
	}
}

// restoreGoldenPath holds the virtual accounts of every restore shape
// the pipeline serves, recorded from the serial per-chunk emit (charge,
// verify and write inside one callback) that the pipeline replaced. The
// pipeline must reproduce each entry bit-for-bit: it issues its charges
// in sequence order with the serial emit's per-chunk truncation
// (DESIGN.md §14), whatever the worker count or interleaving. The file
// is a recorded baseline, not an output: no test rewrites it.
const restoreGoldenPath = "testdata/restore_golden.json"

// goldenEntry is one fixture record: the comparable stats (virtual
// Elapsed included) plus the account's I/O and CPU totals.
type goldenEntry struct {
	Stats RestoreStats
	IO    simclock.IOStats
	CPU   time.Duration
}

// goldenCase is one restore-shaped job the fixture pins. want is the
// expected sink output; nil for Verify, which writes to a null sink.
type goldenCase struct {
	name string
	want []byte
	run  func(w io.Writer) (*RestoreStats, error)
}

// checkGolden runs every case under each cache policy (set on repos)
// and compares it with the fixture entry "kind/policy/name". Entries
// under "kind/policy/" that no case ran are reported too, so the
// fixture cannot silently outgrow the tests.
func checkGolden(t *testing.T, kind string, repos []*core.Repo, cases []goldenCase) {
	raw, err := os.ReadFile(restoreGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", restoreGoldenPath, err)
	}
	for _, policy := range restorePolicies {
		t.Run(policy, func(t *testing.T) {
			for _, r := range repos {
				r.Config.RestorePolicy = policy
			}
			prefix := kind + "/" + policy + "/"
			seen := map[string]bool{}
			for _, c := range cases {
				name := prefix + c.name
				seen[name] = true
				var buf bytes.Buffer
				st, err := c.run(&buf)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if c.want != nil && !bytes.Equal(buf.Bytes(), c.want) {
					t.Fatalf("%s: restored %d bytes that differ from the %d backed up", name, buf.Len(), len(c.want))
				}
				prefetchConserved(t, st)
				got := goldenEntry{Stats: comparableRestore(st), IO: st.Account.IO(), CPU: st.Account.CPUTime()}
				if want, ok := golden[name]; !ok {
					t.Errorf("%s: no fixture entry", name)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverges from the serial-emit fixture:\ngot:  %+v\nwant: %+v", name, got, want)
				}
			}
			for name := range golden {
				if strings.HasPrefix(name, prefix) && !seen[name] {
					t.Errorf("fixture entry %s was not exercised", name)
				}
			}
		})
	}
}

// goldenNode is a fresh node for fixture runs. The node-wide shared
// cache is off, so every job reads cold, independent of the jobs before
// it (and of the order the cases run in).
func goldenNode(t *testing.T) (*LNode, *core.Repo) {
	cfg := testConfig()
	cfg.SharedCacheBytes = -1
	return newNode(t, cfg)
}

// goldenChain backs up four versions of one file, each followed by
// reverse dedup and sparse-container compaction. The oldest version's
// chunks then resolve through redirects, the restore shape a plain
// backup never produces.
func goldenChain(t *testing.T) (*LNode, *core.Repo, []byte) {
	t.Helper()
	n, repo := goldenNode(t)
	g := gnode.New(repo)
	v0 := genData(69, 3<<20)
	data := v0
	for v := 0; v < 4; v++ {
		if v > 0 {
			data = mutate(data, int64(69+v), 150)
		}
		st, err := n.Backup("chain", data)
		if err != nil {
			t.Fatalf("backup chain v%d: %v", v, err)
		}
		if _, err := g.ReverseDedup(st.NewContainers); err != nil {
			t.Fatalf("reverse dedup v%d: %v", v, err)
		}
		if _, err := g.CompactSparse("chain", v, st.SparseContainers); err != nil {
			t.Fatalf("compact v%d: %v", v, err)
		}
	}
	return n, repo, v0
}

// TestRestoreTwinSerial pins the pipelined restore to the serial emit's
// recorded accounts: identical restored bytes and field-for-field
// identical stats (virtual Elapsed included) for every cache policy,
// with LAW prefetching engaged for all of them, over two versions of a
// file and the oldest version of an optimised chain (with redirects).
// Run under -race by scripts/check.sh, which also exercises the
// pipeline's concurrency.
func TestRestoreTwinSerial(t *testing.T) {
	n, repo := goldenNode(t)
	defer n.Close()
	v0 := genData(61, 3<<20)
	versions := [][]byte{v0, mutate(v0, 62, 150)}
	for i, d := range versions {
		if _, err := n.Backup("twin", d); err != nil {
			t.Fatalf("backup v%d: %v", i, err)
		}
	}
	cn, crepo, chain0 := goldenChain(t)
	defer cn.Close()

	var cases []goldenCase
	for v := range versions {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("v%d", v),
			want: versions[v],
			run:  func(w io.Writer) (*RestoreStats, error) { return n.Restore("twin", v, w) },
		})
	}
	cases = append(cases, goldenCase{
		name: "chain-v0",
		want: chain0,
		run: func(w io.Writer) (*RestoreStats, error) {
			st, err := cn.Restore("chain", 0, w)
			if err == nil && st.Redirects == 0 {
				t.Error("optimised chain restored without redirects")
			}
			return st, err
		},
	})
	checkGolden(t, "restore", []*core.Repo{repo, crepo}, cases)
}

// TestVerifyTwinSerial is the same pin for Verify jobs, which add the
// per-chunk fingerprint stage the pipeline fans out over the hash pool.
// The verify worker count sweeps the three pool shapes: shared with the
// ingest pool, dedicated, and inline on the verifier stage.
func TestVerifyTwinSerial(t *testing.T) {
	n, repo := goldenNode(t)
	defer n.Close()
	if _, err := n.Backup("twin", genData(63, 3<<20)); err != nil {
		t.Fatal(err)
	}
	cn, crepo, _ := goldenChain(t)
	defer cn.Close()

	var cases []goldenCase
	for _, workers := range []int{repo.Config.HashWorkers, 3, -1} {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("w%d", workers),
			run: func(io.Writer) (*RestoreStats, error) {
				repo.Config.VerifyWorkers = workers
				return n.Verify("twin", 0)
			},
		})
	}
	cases = append(cases, goldenCase{
		name: "chain-v0",
		run:  func(io.Writer) (*RestoreStats, error) { return cn.Verify("chain", 0) },
	})
	checkGolden(t, "verify", []*core.Repo{repo, crepo}, cases)
}

// TestRestoreRangeTwinSerial is the same pin for range restores (trimmed
// pushes, no verification, strictly sequential virtual time) over a
// chunk-unaligned head, a mid-chunk tail, a single byte, a to-end-of-file
// range, and the whole file. The whole-file range is the dense control:
// the pipeline must not move a range restore's virtual time, which the
// ranged-read planner's cost model is calibrated against.
func TestRestoreRangeTwinSerial(t *testing.T) {
	n, repo := goldenNode(t)
	defer n.Close()
	data := genData(64, 3<<20)
	if _, err := n.Backup("twin", data); err != nil {
		t.Fatal(err)
	}
	total := int64(len(data))
	var cases []goldenCase
	for _, rg := range []struct{ off, length int64 }{
		{0, 64 << 10},
		{1234567, 300<<10 + 17},
		{total / 2, 1},
		{total - 5000, -1},
		{0, -1},
	} {
		end := total
		if rg.length >= 0 && rg.length < end-rg.off {
			end = rg.off + rg.length
		}
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("%d+%d", rg.off, rg.length),
			want: data[rg.off:end],
			run: func(w io.Writer) (*RestoreStats, error) {
				return n.RestoreRange("twin", 0, rg.off, rg.length, w)
			},
		})
	}
	checkGolden(t, "range", []*core.Repo{repo}, cases)
}

// TestRestorePrefetchAllPolicies: the prefetcher must engage (dispatch
// slots) for every policy, not just fv, and a prefetched restore's stats
// must stay bit-identical to the unprefetched one apart from Elapsed
// overlap — the prefetcher changes WHEN containers are read, never what
// is charged.
func TestRestorePrefetchAllPolicies(t *testing.T) {
	data := genData(65, 3<<20)
	for _, policy := range restorePolicies {
		t.Run(policy, func(t *testing.T) {
			cfg := testConfig()
			cfg.RestorePolicy = policy
			cfg.SharedCacheBytes = -1 // keep the two runs independent
			n, repo := newNode(t, cfg)
			defer n.Close()
			if _, err := n.Backup("f", data); err != nil {
				t.Fatal(err)
			}

			st, err := n.Restore("f", 0, bytes.NewBuffer(nil))
			if err != nil {
				t.Fatal(err)
			}
			if st.Prefetch.Dispatched+st.Prefetch.Direct == 0 {
				t.Fatalf("policy %s saw no prefetch activity: %+v", policy, st.Prefetch)
			}
			prefetchConserved(t, st)

			repo.Config.PrefetchThreads = 0
			plain, err := n.Restore("f", 0, bytes.NewBuffer(nil))
			if err != nil {
				t.Fatal(err)
			}
			a, b := comparableRestore(st), comparableRestore(plain)
			a.Elapsed, b.Elapsed = 0, 0
			a.PrefetchThreads, b.PrefetchThreads = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("prefetching changed restore stats:\nwith:    %+v\nwithout: %+v", a, b)
			}
			if st.Elapsed > plain.Elapsed {
				t.Errorf("prefetched Elapsed %v exceeds unprefetched %v", st.Elapsed, plain.Elapsed)
			}
		})
	}
}

// TestRestoreRunVerifyFailure exercises the pipeline's abort path
// directly: a fingerprint mismatch must surface as a verify error, leave
// no goroutines behind (the -race run doubles as the leak check), and
// leave the pooled run reusable for the next restore.
func TestRestoreRunVerifyFailure(t *testing.T) {
	cfg := fastConfig()
	n, repo := newNode(t, cfg)
	defer n.Close()
	bufs, seq := handoffFixture(cfg, repo, genData(66, 1<<20))
	if got := n.RestoreHandoff(bufs, seq, true); got != len(bufs) {
		t.Fatalf("clean handoff = %d, want %d", got, len(bufs))
	}
	seq[len(seq)/2].FP = fingerprint.FP{} // poison one chunk
	if got := n.RestoreHandoff(bufs, seq, true); got != -1 {
		t.Fatalf("poisoned handoff = %d, want failure", got)
	}
	// The run (and its channels) must have been recycled cleanly.
	seq[len(seq)/2].FP = fingerprint.Of(cfg.FingerprintAlg, bufs[len(seq)/2])
	if got := n.RestoreHandoff(bufs, seq, true); got != len(bufs) {
		t.Fatalf("post-failure handoff = %d, want %d", got, len(bufs))
	}
}

// TestRestoreHandoffAllocs is the steady-state allocation gate of the
// restore fast path: the pooled slot hand-off (emit→verify→write over
// recycled slots) must allocate at most 8 per pass. A hand-off that
// copies each chunk into a fresh buffer allocates once per chunk (907
// per pass on this input).
func TestRestoreHandoffAllocs(t *testing.T) {
	cfg := fastConfig()
	n, repo := newNode(t, cfg)
	defer n.Close()
	bufs, seq := handoffFixture(cfg, repo, genData(67, 4<<20))

	// Pin the GC so sync.Pool contents survive the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ { // warm the slot/run pools and goroutine cache
		if got := n.RestoreHandoff(bufs, seq, true); got != len(bufs) {
			t.Fatalf("handoff produced %d chunks, want %d", got, len(bufs))
		}
	}
	fast := testing.AllocsPerRun(10, func() { n.RestoreHandoff(bufs, seq, true) })

	t.Logf("allocs/pass over %d chunks: fast=%.1f", len(bufs), fast)
	if raceEnabled {
		// Race instrumentation allocates shadow state per goroutine and
		// channel op; the counts only mean anything uninstrumented.
		t.Skip("allocation gate skipped under -race")
	}
	if fast > 8 {
		t.Errorf("fast hand-off allocates %.1f/pass, want <= 8", fast)
	}
}

// handoffFixture splits data into the chunk payloads and expected-FP
// sequence the hand-off probes consume.
func handoffFixture(cfg core.Config, repo *core.Repo, data []byte) ([][]byte, []cache.Request) {
	chunks := chunker.SplitAll(data, repo.Cutter())
	bufs := make([][]byte, len(chunks))
	seq := make([]cache.Request, len(chunks))
	for i, c := range chunks {
		bufs[i] = c.Data
		seq[i] = cache.Request{FP: fingerprint.Of(cfg.FingerprintAlg, c.Data), Size: uint32(len(c.Data))}
	}
	return bufs, seq
}

func BenchmarkRestoreHandoff(b *testing.B) {
	cfg := fastConfig()
	n, repo := newNode(b, cfg)
	defer n.Close()
	data := genData(68, 8<<20)
	bufs, seq := handoffFixture(cfg, repo, data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RestoreHandoff(bufs, seq, true)
	}
}
