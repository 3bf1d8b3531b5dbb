package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"slimstore/internal/workload"
)

// tinyScale keeps the full experiment suite runnable in CI time.
var tinyScale = Scale{Files: 2, FileBytes: 1 << 20, Versions: 4}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure from the paper's evaluation must be present.
	want := []string{
		"table1", "table2",
		"fig2", "fig5a", "fig5b", "fig5c", "fig5d",
		"fig6a", "fig6b", "fig7a", "fig7b",
		"fig8ab", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig10a", "fig10b", "fig10c",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, ok := ByID("fig5a"); !ok {
		t.Error("ByID(fig5a) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs and All disagree")
	}
}

// TestAllExperimentsRun executes every experiment at tiny scale: they must
// complete without error and produce non-trivial output.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(context.Background(), &buf, tinyScale); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 40 || !strings.Contains(out, "==") {
				t.Fatalf("%s: suspicious output:\n%s", e.ID, out)
			}
		})
	}
}

// TestFig5aShape asserts the headline property of Fig 5(a): skip chunking
// accelerates both CDC algorithms, with the bigger gain for Rabin.
func TestFig5aShape(t *testing.T) {
	gen := workload.New(workload.SDB(2, 16<<20))
	// File 1 of 2 has the band's high duplication ratio (0.95), the
	// regime where Fig 5's gains are clearest.
	rabin, err := fig5Run(gen, 1, "rabin", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	rabinSkip, err := fig5Run(gen, 1, "rabin", 4, true)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := fig5Run(gen, 1, "fastcdc", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	fastSkip, err := fig5Run(gen, 1, "fastcdc", 4, true)
	if err != nil {
		t.Fatal(err)
	}
	rGain := rabinSkip.ThroughputMBps() / rabin.ThroughputMBps()
	fGain := fastSkip.ThroughputMBps() / fast.ThroughputMBps()
	if rGain < 1.3 {
		t.Errorf("rabin skip gain %.2f, want >= 1.3 (paper: ~2x)", rGain)
	}
	if fGain < 1.15 {
		t.Errorf("fastcdc skip gain %.2f, want >= 1.15 (paper: ~1.5x)", fGain)
	}
	if rGain < fGain {
		t.Errorf("rabin gain %.2f should exceed fastcdc gain %.2f", rGain, fGain)
	}
	// Fig 5(b): ratio unchanged by skip chunking.
	if d := rabinSkip.DedupRatio() - rabin.DedupRatio(); d < -0.005 || d > 0.005 {
		t.Errorf("skip chunking changed rabin dedup ratio by %.4f", d)
	}
}
