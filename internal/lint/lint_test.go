package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from current analyzer output:
//
//	go test ./internal/lint -run TestFixtureGoldens -update
var update = flag.Bool("update", false, "rewrite golden files")

// newTestLoader builds one loader rooted at the repository; fixtures
// share it so the module dependencies (oss, core, …) type-check once.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func loadFixture(t *testing.T, l *Loader, name string) []*Package {
	t.Helper()
	pkgs, err := l.Load([]string{filepath.Join("testdata", "src", name)})
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs
}

func lintFixture(t *testing.T, l *Loader, name string) []Finding {
	t.Helper()
	return Run(loadFixture(t, l, name))
}

// TestFixtureGoldens pins the exact findings (positions and messages) for
// every positive fixture package, one golden file per analyzer's fixture.
func TestFixtureGoldens(t *testing.T) {
	l := newTestLoader(t)
	for _, name := range []string{
		"lockorder_bad", "lnode", "errdisc_bad", "ctxflow_bad",
		"poolsafe_bad", "goroutineleak_bad", "xlock_bad", "oss_retry",
	} {
		t.Run(name, func(t *testing.T) {
			findings := lintFixture(t, l, name)
			if len(findings) == 0 {
				t.Fatalf("%s: fixture produced no findings — the gate would pass bad code", name)
			}
			var buf bytes.Buffer
			WriteHuman(&buf, findings)
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("findings diverge from golden %s:\n--- got\n%s--- want\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}

// TestNegativeFixtures: the all-correct package and the fully-suppressed
// package must both be clean — the suppression syntax in both its forms
// (line above, same line) actually suppresses.
func TestNegativeFixtures(t *testing.T) {
	l := newTestLoader(t)
	for _, name := range []string{"clean", "suppress_ok"} {
		if findings := lintFixture(t, l, name); len(findings) != 0 {
			var buf bytes.Buffer
			WriteHuman(&buf, findings)
			t.Errorf("%s: want 0 findings, got:\n%s", name, buf.String())
		}
	}
}

// TestSpecificInvariants pins the two acceptance-critical detections
// independently of golden formatting: lockorder must flag the synthetic
// ContainerLocks-before-FileLocks acquisition, and determinism must flag
// the synthetic time.Now in the lnode fixture.
func TestSpecificInvariants(t *testing.T) {
	l := newTestLoader(t)

	lockFindings := lintFixture(t, l, "lockorder_bad")
	if !hasFinding(lockFindings, "lockorder", "acquires FileLocks") {
		t.Error("lockorder did not flag the ContainerLocks-before-FileLocks inversion")
	}
	if !hasFinding(lockFindings, "lockorder", "calls lockFile") {
		t.Error("lockorder did not see through the one-level call graph")
	}
	if !hasFinding(lockFindings, "lockorder", "no reachable Unlock") {
		t.Error("lockorder did not flag the leaked Lock")
	}

	detFindings := lintFixture(t, l, "lnode")
	if !hasFinding(detFindings, "determinism", "time.Now") {
		t.Error("determinism did not flag time.Now in the lnode fixture")
	}
	if !hasFinding(detFindings, "determinism", "map iteration") {
		t.Error("determinism did not flag map iteration flowing into output")
	}

	// The PR 4 retry-jitter bug, replayed in a package named oss, must
	// still be caught: wall-clock seeding inside a charged package.
	retryFindings := lintFixture(t, l, "oss_retry")
	if !hasFinding(retryFindings, "determinism", "time.Now in simclock-charged package oss") {
		t.Error("determinism did not flag the historical oss retry-jitter wall-clock seed")
	}

	poolFindings := lintFixture(t, l, "poolsafe_bad")
	for _, substr := range []string{
		"after it was returned to its pool",
		"twice on this path",
		"while an alias escaped",
		"while a deferred Put of it is pending",
		"declared //slimlint:contract noretain data but retains it",
	} {
		if !hasFinding(poolFindings, "poolsafe", substr) {
			t.Errorf("poolsafe did not produce a finding containing %q", substr)
		}
	}

	// The pre-PR-5 prefetcher feeder — unconditional sends, no stop
	// select, never joined — must be flagged; the Done/close/stop-chan
	// goroutines around it must not be.
	leakFindings := lintFixture(t, l, "goroutineleak_bad")
	var leaks int
	for _, f := range leakFindings {
		if f.Analyzer == "goroutineleak" {
			leaks++
		}
	}
	if leaks != 2 {
		t.Errorf("goroutineleak found %d leaks in goroutineleak_bad, want exactly 2 (feeder and tick)", leaks)
	}
}

// TestCrossPackageInversion: the seeded FileLocks-under-ContainerLocks
// inversion in xlock_bad routes through the xlock_dep package, one and
// two frames deep; the whole-program engine must report both call
// chains.
func TestCrossPackageInversion(t *testing.T) {
	l := newTestLoader(t)
	pkgs := loadFixture(t, l, "xlock_bad")

	findings := Run(pkgs)
	if !hasFinding(findings, "lockorder", "calls xlock_dep.TouchFile, which acquires FileLocks") {
		t.Error("call-graph engine missed the one-frame cross-package inversion")
	}
	if !hasFinding(findings, "lockorder", "calls xlock_dep.TouchViaHelper → xlock_dep.TouchFile") {
		t.Error("call-graph engine missed the two-frame cross-package inversion chain")
	}
}

// TestRunSelected pins -only semantics: deselected analyzers neither
// run nor have their suppressions judged stale, and the stats always
// carry the shared callgraph row.
func TestRunSelected(t *testing.T) {
	l := newTestLoader(t)
	pkgs := loadFixture(t, l, "suppress_ok")

	// suppress_ok carries errdiscipline and ctxflow directives. With only
	// goroutineleak active, those directives must be ignored — neither
	// suppressing anything nor reported as unused.
	findings, stats := RunSelected(pkgs, []string{"goroutineleak"})
	if len(findings) != 0 {
		t.Errorf("-only goroutineleak on suppress_ok: want 0 findings, got %v", findings)
	}
	var sawCallgraph, sawGoroutineleak, sawErrdiscipline bool
	for _, s := range stats {
		switch s.Analyzer {
		case "callgraph":
			sawCallgraph = true
		case "goroutineleak":
			sawGoroutineleak = true
		case "errdiscipline":
			sawErrdiscipline = true
		}
	}
	if !sawCallgraph || !sawGoroutineleak {
		t.Errorf("stats missing expected rows (callgraph=%v goroutineleak=%v): %v", sawCallgraph, sawGoroutineleak, stats)
	}
	if sawErrdiscipline {
		t.Errorf("stats carry a row for the deselected errdiscipline analyzer: %v", stats)
	}

	// With errdiscipline active again the same directives must suppress.
	findings, _ = RunSelected(pkgs, []string{"errdiscipline", "ctxflow"})
	if len(findings) != 0 {
		t.Errorf("-only errdiscipline,ctxflow on suppress_ok: want 0 findings, got %v", findings)
	}
}

func hasFinding(fs []Finding, analyzer, substr string) bool {
	for _, f := range fs {
		if f.Analyzer == analyzer && strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}

// TestInsertSuppressions checks -fix=suppress mechanics: one stub per
// (line, analyzer), inserted above the finding with matching indentation,
// carrying a TODO reason that satisfies the directive grammar.
func TestInsertSuppressions(t *testing.T) {
	l := newTestLoader(t)
	findings := lintFixture(t, l, "ctxflow_bad")
	edited, err := InsertSuppressions(l.ModuleDir, findings)
	if err != nil {
		t.Fatal(err)
	}
	rel := "internal/lint/testdata/src/ctxflow_bad/ctxflow_bad.go"
	content, ok := edited[rel]
	if !ok {
		t.Fatalf("no edit for %s (have %v)", rel, keys(edited))
	}
	got := strings.Count(string(content), "//slimlint:ignore ctxflow TODO(triage):")
	if got != len(findings) {
		t.Fatalf("inserted %d stubs, want %d", got, len(findings))
	}
	// Indentation must match the flagged line: the `return context…` sites
	// are tab-indented, so their stubs must be too.
	if !strings.Contains(string(content), "\t//slimlint:ignore ctxflow TODO(triage):") {
		t.Error("stub not indented to match the flagged line")
	}
	// The original file on disk must be untouched (the CLI decides when
	// to write).
	onDisk, err := os.ReadFile(filepath.Join(l.ModuleDir, rel))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(onDisk), "TODO(triage)") {
		t.Error("InsertSuppressions wrote to disk; it must only return content")
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSuppressionHygiene: unused and unknown-analyzer directives are
// findings too — a stale excuse must not silently linger.
func TestSuppressionHygiene(t *testing.T) {
	dir := t.TempDir()
	src := `package clean

// an unused excuse:
//slimlint:ignore determinism this line has no finding to excuse

// an unknown analyzer:
//slimlint:ignore nosuchthing reason text
var X = 1
`
	writeTempModulePkg(t, dir, "hygiene", src)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{filepath.Join(dir, "hygiene")})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs)
	if !hasFinding(findings, "suppression", "unused determinism suppression") {
		t.Errorf("unused directive not reported; got %v", findings)
	}
	if !hasFinding(findings, "suppression", `unknown analyzer "nosuchthing"`) {
		t.Errorf("unknown analyzer not reported; got %v", findings)
	}
}

// writeTempModulePkg lays out a throwaway module with one package so
// loader tests don't depend on the repository tree.
func writeTempModulePkg(t *testing.T, moduleDir, pkg, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(moduleDir, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(moduleDir, pkg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(moduleDir, pkg, pkg+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTreeIsClean dogfoods the gate from go test: the repository itself
// must carry zero findings. scripts/check.sh also runs the CLI form, but
// failing here keeps `go test ./...` sufficient to catch a regression.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is a few seconds; skipped in -short")
	}
	l := newTestLoader(t)
	pkgs, err := l.Load([]string{l.ModuleDir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from the module — the walker lost most of the tree", len(pkgs))
	}
	findings := Run(pkgs)
	if len(findings) != 0 {
		var buf bytes.Buffer
		WriteHuman(&buf, findings)
		t.Errorf("the tree has slimlint findings:\n%s", buf.String())
	}
}

// TestJSONShape pins the artifact schema CI uploads.
func TestJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty findings must encode as [], got %q", buf.String())
	}
	buf.Reset()
	fs := []Finding{{Analyzer: "ctxflow", File: "a/b.go", Line: 3, Col: 9, Message: "m"}}
	if err := WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"analyzer": "ctxflow"`, `"file": "a/b.go"`, `"line": 3`, `"col": 9`, `"message": "m"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, buf.String())
		}
	}
	_ = fmt.Sprint // keep fmt linked for future debugging helpers
}
