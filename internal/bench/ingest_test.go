package bench

import (
	"context"
	"runtime"
	"testing"
)

// Recorded on the materialize-everything ingest pipeline the pooled fast
// path replaced (cut every chunk of the version, then fingerprint over
// per-call goroutines), before it was deleted; the gates below keep
// their old bounds against these numbers.
const (
	// recordedMaterializedHandoffAllocs is its hand-off allocations per pass
	// on RunIngest's input, measured the way allocsPerRun measures.
	recordedMaterializedHandoffAllocs = 20.0
	// recordedMaterializedWallRatio is its wall-clock ingest throughput
	// over the serial reference loop's at 4 workers (medians of four
	// 9-run batches on a 2-CPU host: 1.25-1.36).
	recordedMaterializedWallRatio = 1.3
)

// TestIngestRegression is the BENCH_ingest.json gate:
//   - virtual-time ingest on unique data at 4 workers must be >= 2x the
//     serial composition the same run's stats report (the deterministic
//     pipeline-model claim);
//   - the fast path must store identical bytes and chunk counts to the
//     serial reference loop;
//   - the pooled hand-off must allocate >= 10x less per pass than the
//     recorded materialize-everything hand-off;
//   - streaming residency must stay far below the input size;
//   - wall-clock speedup is asserted only on hosts with enough cores
//     (goroutines interleave rather than parallelise on 1-2 cores).
func TestIngestRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration ingest sweep")
	}
	rep, err := RunIngest(context.Background(), []int{1, 4}, 8<<20, 64<<20)
	if err != nil {
		t.Fatal(err)
	}

	var w4 *IngestPoint
	for i := range rep.Points {
		if rep.Points[i].Workers == 4 {
			w4 = &rep.Points[i]
		}
		if !rep.Points[i].StoredBytesMatch {
			t.Errorf("w=%d: fast path and serial reference stored different bytes/chunks", rep.Points[i].Workers)
		}
	}
	if w4 == nil {
		t.Fatal("no 4-worker point")
	}

	// Deterministic: the virtual pipeline model must show >= 2x at 4
	// workers (measured ~4x: the serial composition is write-bound, the
	// fast pipeline overlaps writes across the pack workers).
	if w4.FastVirtualMBps < 2*w4.SerialVirtualMBps {
		t.Errorf("virtual ingest at 4 workers: fast %.1f MB/s < 2x serial composition %.1f MB/s",
			w4.FastVirtualMBps, w4.SerialVirtualMBps)
	}

	// Streaming residency: input must dwarf peak live heap.
	if rep.Stream.InputOverRes < 1.5 {
		t.Errorf("streaming ingest resident %.1f MiB is not O(window) for a %d MiB stream",
			rep.Stream.PeakHeapMiB, rep.Stream.Bytes>>20)
	}

	if benchRace {
		t.Log("allocation and wall-clock gates skipped under -race (instrumented counts)")
		return
	}
	if rep.HandoffFastAllocs*10 > recordedMaterializedHandoffAllocs {
		t.Errorf("hand-off allocs: fast %.1f/pass is not 10x below the recorded %.1f/pass",
			rep.HandoffFastAllocs, recordedMaterializedHandoffAllocs)
	}
	want := 2 * recordedMaterializedWallRatio * w4.SerialWallMBps
	if runtime.NumCPU() >= 4 {
		if w4.FastWallMBps < want {
			t.Errorf("wall ingest at 4 workers: fast %.1f MB/s < %.1fx serial reference %.1f MB/s",
				w4.FastWallMBps, 2*recordedMaterializedWallRatio, w4.SerialWallMBps)
		}
	} else {
		t.Logf("wall-clock gate skipped on %d-CPU host: fast %.1f MB/s vs serial reference %.1f MB/s (gate %.1f)",
			runtime.NumCPU(), w4.FastWallMBps, w4.SerialWallMBps, want)
	}
}
