package bench

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestMain points the artifact-writing experiments at a temporary
// directory, so `go test` — which runs every registered experiment —
// never drops BENCH_*.json into the source tree.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "slimbench")
	if err != nil {
		panic(err)
	}
	ArtifactDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestEngineScaleRegression is the bench-regression gate for the
// concurrent engine: a small sweep must complete, produce a well-formed
// ScaleReport (the BENCH_scale.json schema), and show aggregate backup
// throughput scaling with L-node count — exactly in the virtual-time
// model everywhere, and in real wall-clock on hosts with cores to scale
// onto.
func TestEngineScaleRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow bench sweep")
	}
	rep, err := RunEngineScale(context.Background(), []int{1, 4}, 2, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(rep.Points))
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	one, four := rep.Points[0], rep.Points[1]
	for _, p := range rep.Points {
		if p.Jobs != p.LNodes*2 {
			t.Errorf("%d L-nodes ran %d jobs, want %d", p.LNodes, p.Jobs, p.LNodes*2)
		}
		if p.BackupWallMBps <= 0 || p.BackupVirtualMBps <= 0 ||
			p.RestoreWallMBps <= 0 || p.RestoreVirtualMBps <= 0 {
			t.Errorf("%d L-nodes: non-positive throughput: %+v", p.LNodes, p)
		}
		if p.BackupBytes != int64(p.Jobs)*int64(rep.FileBytes) {
			t.Errorf("%d L-nodes: backed up %d bytes, want %d", p.LNodes, p.BackupBytes, int64(p.Jobs)*int64(rep.FileBytes))
		}
	}

	// The virtual model composes per-node serial / cross-node parallel,
	// so 4 L-nodes must deliver well over 2x the single-node aggregate
	// regardless of host hardware.
	if ratio := four.BackupVirtualMBps / one.BackupVirtualMBps; ratio < 2 {
		t.Errorf("virtual backup throughput scaled only %.2fx from 1 to 4 L-nodes", ratio)
	}

	// Real wall-clock scaling needs real cores; with them, a flat curve
	// means the engine serialised somewhere it must not (a regression
	// this test exists to catch). Modest threshold: the shared substrate
	// legitimately costs some contention.
	if runtime.NumCPU() >= 4 {
		if ratio := four.BackupWallMBps / one.BackupWallMBps; ratio < 1.2 {
			t.Errorf("wall-clock backup throughput scaled only %.2fx from 1 to 4 L-nodes on %d CPUs",
				ratio, runtime.NumCPU())
		}
	} else {
		t.Logf("host has %d CPUs; wall-clock scaling not asserted (backup 1→4 L-nodes: %.2fx)",
			runtime.NumCPU(), four.BackupWallMBps/one.BackupWallMBps)
	}
}
