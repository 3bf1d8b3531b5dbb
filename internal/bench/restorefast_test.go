package bench

import (
	"context"
	"runtime"
	"testing"
)

// TestRestoreFastRegression is the BENCH_restorefast.json gate:
//   - the virtual pipeline model at 4 verify workers must be >= 2x the
//     serial composition of the same account for EVERY policy (the
//     deterministic stage-max claim; measured ~7x — the serial
//     composition is read-bound and the pipeline overlaps reads across
//     the prefetch channels);
//   - every point must restore exactly the version's logical size;
//   - the pipelined restore's residency must stay bounded;
//   - the pooled hand-off must allocate at most 8 per pass (skipped
//     under -race: instrumented allocation counts).
//
// That the pipeline's charges equal the serial emit's bit for bit, for
// full, verify and range restores (the dense whole-file range included),
// is pinned by the lnode fixture tests against
// internal/lnode/testdata/restore_golden.json.
func TestRestoreFastRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration restore sweep")
	}
	rep, err := RunRestoreFast(context.Background(), []int{1, 4}, SmallScale)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range rep.Points {
		if !p.BytesMatch {
			t.Errorf("%s w=%d: restored %d bytes, not the version's logical size", p.Policy, p.VerifyWorkers, p.Bytes)
		}
	}

	w4 := map[string]RestoreFastPoint{}
	for _, p := range rep.Points {
		if p.VerifyWorkers == 4 {
			w4[p.Policy] = p
		}
	}
	for _, policy := range restoreFastPolicies {
		p, ok := w4[policy]
		if !ok {
			t.Fatalf("no 4-worker point for policy %s", policy)
		}
		if p.FastVirtualMBps < 2*p.SerialVirtualMBps {
			t.Errorf("virtual restore (%s, w=4): fast %.1f MB/s < 2x serial %.1f MB/s",
				policy, p.FastVirtualMBps, p.SerialVirtualMBps)
		}
	}

	// Heap growth during the pipelined restore is dominated by the job's
	// chunk cache (64 MiB configured); the pipeline window itself adds
	// O(window × chunk size). Gate that the total stays bounded by the
	// cache budget — an unbounded pipeline would retain the restored
	// stream on top of it.
	if rep.Residency.PeakHeapMiB > 0 && rep.Residency.PipelineMiB > 64 {
		t.Errorf("pipelined restore residency grew by %.1f MiB — exceeds the 64 MiB cache budget, pipeline window is not bounded",
			rep.Residency.PipelineMiB)
	}

	if benchRace {
		t.Log("allocation gate skipped under -race (instrumented counts)")
		return
	}
	if rep.HandoffFastAllocs > 8 {
		t.Errorf("hand-off allocs: %.1f/pass, want <= 8 (host %d CPUs)", rep.HandoffFastAllocs, runtime.NumCPU())
	}
}
