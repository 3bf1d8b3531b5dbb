package gnode

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/journal"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// gcHistory is a multi-file backup history over one store, every
// container already reverse-deduplicated, ready for version collection.
type gcHistory struct {
	cfg  core.Config
	ln   *lnode.LNode
	gn   *GNode
	repo *core.Repo
	data map[string]map[int][]byte // file → version → backed-up bytes
}

// gcBackups is the backup order of a gcHistory. File b's first version
// duplicates a's shared region (the L-node is forced to miss it), so
// reverse dedup drains a's copies and repoints the index at b0's
// containers; b1 is unrelated data, which leaves b0's containers as
// garbage that only a's recipes still reach — through the index. Deleting
// b0 must therefore pin them (a cross-file redirect pin).
var gcBackups = []struct {
	file string
	data func() []byte
}{
	{"a", func() []byte { return gcA(0) }},
	{"b", func() []byte { return genData(11, 512<<10) }},
	{"c", func() []byte { return gcC(0) }},
	{"b", func() []byte { return genData(13, 384<<10) }},
	{"a", func() []byte { return gcA(1) }},
	{"c", func() []byte { return gcC(1) }},
	{"a", func() []byte { return gcA(2) }},
	{"c", func() []byte { return gcC(2) }},
}

// gcA is version v of file a: b0's bytes followed by a private tail
// whose leading 64 KiB drifts per version.
func gcA(v int) []byte {
	tail := genData(12, 256<<10)
	copy(tail[:64<<10], genData(int64(300+v), 64<<10))
	return append(genData(11, 512<<10), tail...)
}

// gcC is version v of file c: its first half is replaced every version,
// so each version leaves garbage for the one before it.
func gcC(v int) []byte {
	d := genData(14, 512<<10)
	copy(d[:256<<10], genData(int64(400+v), 256<<10))
	return d
}

// buildGCHistory runs the first steps backups of gcBackups against store
// with the given maintenance width, reverse-deduplicating each backup's
// new containers. Deterministic: equal arguments give byte-identical
// repositories.
func buildGCHistory(t *testing.T, store oss.Store, workers, steps int) *gcHistory {
	t.Helper()
	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1 // force the L-node to miss cross-file dups
	cfg.MaintWorkers = workers
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &gcHistory{
		cfg:  cfg,
		ln:   lnode.New(repo, "l0"),
		gn:   New(repo),
		repo: repo,
		data: map[string]map[int][]byte{},
	}
	for _, b := range gcBackups[:steps] {
		d := b.data()
		st, err := h.ln.Backup(b.file, d)
		if err != nil {
			t.Fatalf("backup %s: %v", b.file, err)
		}
		if _, err := h.gn.ReverseDedup(st.NewContainers); err != nil {
			t.Fatal(err)
		}
		if h.data[b.file] == nil {
			h.data[b.file] = map[int][]byte{}
		}
		h.data[b.file][st.Version] = d
	}
	return h
}

// survivors lists the repository's containers in ID order.
func survivors(t *testing.T, repo *core.Repo) []container.ID {
	t.Helper()
	ids, err := repo.Containers.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// restoreAll restores every version still in the catalog, checking each
// against the bytes it was backed up from.
func restoreAll(t *testing.T, h *gcHistory, ln *lnode.LNode, repo *core.Repo) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for f, versions := range h.data {
		vs, err := repo.Recipes.Versions(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			got := restoreBytes(t, ln, f, v)
			if !bytes.Equal(got, versions[v]) {
				t.Errorf("%s v%d restores different bytes than were backed up", f, v)
			}
			out[fmt.Sprintf("%s/%d", f, v)] = got
		}
	}
	return out
}

func catalogKey(file string, v int) string {
	return fmt.Sprintf("catalog/%s/%08d.info", hex.EncodeToString([]byte(file)), v)
}

func recipeKey(file string, v int) string {
	return fmt.Sprintf("recipes/%s/%08d.recipe", hex.EncodeToString([]byte(file)), v)
}

// TestDeleteVersionParallelMatchesSerial is the determinism contract of
// the fanned-out version-collection scan: out-of-order deletion and a
// cross-file redirect pin must collect exactly the same containers, leave
// the same index, and restore the same bytes at any MaintWorkers width.
func TestDeleteVersionParallelMatchesSerial(t *testing.T) {
	serial := buildGCHistory(t, oss.NewMem(), -1, len(gcBackups))
	parallel := buildGCHistory(t, oss.NewMem(), 8, len(gcBackups))

	deletes := []struct {
		file    string
		version int
	}{
		{"c", 1}, // out of order: c0 and c2 still share its containers
		{"b", 0}, // cross-file redirect pin: a's recipes reach b0's containers
		{"a", 0},
		{"c", 0},
	}
	run := func(h *gcHistory) []*GCStats {
		var out []*GCStats
		for _, d := range deletes {
			st, err := h.gn.DeleteVersion(d.file, d.version)
			if err != nil {
				t.Fatalf("delete %s v%d: %v", d.file, d.version, err)
			}
			out = append(out, st)
		}
		return out
	}
	ss, ps := run(serial), run(parallel)
	if !reflect.DeepEqual(ss, ps) {
		t.Errorf("stats diverge:\nserial:   %+v\nparallel: %+v", ss, ps)
	}
	if pin := ss[1]; pin.GarbageCandidates == 0 || pin.ContainersCollected == pin.GarbageCandidates {
		t.Fatalf("degenerate history, b0's garbage was not pinned: %+v", pin)
	}
	collected := 0
	for _, st := range ss {
		collected += st.ContainersCollected
	}
	if collected == 0 {
		t.Fatalf("degenerate history, nothing collected: %+v", ss)
	}
	if s, p := survivors(t, serial.repo), survivors(t, parallel.repo); !reflect.DeepEqual(s, p) {
		t.Errorf("surviving containers diverge:\nserial:   %v\nparallel: %v", s, p)
	}
	if si, pi := indexDump(t, serial.repo), indexDump(t, parallel.repo); !reflect.DeepEqual(si, pi) {
		t.Errorf("global index diverges: serial %d entries, parallel %d", len(si), len(pi))
	}
	sb := restoreAll(t, serial, serial.ln, serial.repo)
	pb := restoreAll(t, parallel, parallel.ln, parallel.repo)
	if !reflect.DeepEqual(sb, pb) {
		t.Error("surviving versions restore differently")
	}
}

// countingStore counts catalog listings and per-key reads.
type countingStore struct {
	oss.Store
	mu    sync.Mutex
	lists map[string]int
	gets  map[string]int
}

func newCountingStore(inner oss.Store) *countingStore {
	return &countingStore{Store: inner, lists: map[string]int{}, gets: map[string]int{}}
}

// take returns the counts since the last take and starts new ones.
func (c *countingStore) take() (lists, gets map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lists, gets = c.lists, c.gets
	c.lists, c.gets = map[string]int{}, map[string]int{}
	return lists, gets
}

func (c *countingStore) Get(key string) ([]byte, error) {
	c.mu.Lock()
	c.gets[key]++
	c.mu.Unlock()
	return c.Store.Get(key)
}

func (c *countingStore) GetRange(key string, off, n int64) ([]byte, error) {
	c.mu.Lock()
	c.gets[key]++
	c.mu.Unlock()
	return c.Store.GetRange(key, off, n)
}

func (c *countingStore) List(prefix string) ([]string, error) {
	c.mu.Lock()
	c.lists[prefix]++
	c.mu.Unlock()
	return c.Store.List(prefix)
}

// TestDeleteVersionRequestCounts pins the version-collection scan's OSS
// request budget: the catalog is listed once (one LIST for the files plus
// one per file), and every live version's catalog entry and recipe are
// read at most once, even when the redirect-pin pass runs.
func TestDeleteVersionRequestCounts(t *testing.T) {
	cs := newCountingStore(oss.NewMem())
	h := buildGCHistory(t, cs, 4, len(gcBackups))

	cs.take()
	st, err := h.gn.DeleteVersion("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	lists, gets := cs.take()
	if st.ContainersCollected == st.GarbageCandidates {
		t.Fatalf("pin pass had nothing to pin, request budget unexercised: %+v", st)
	}

	files, err := h.repo.Recipes.Files()
	if err != nil {
		t.Fatal(err)
	}
	catalogLists := 0
	for prefix, n := range lists {
		if strings.HasPrefix(prefix, "catalog/") {
			catalogLists += n
		}
	}
	if want := 1 + len(files); catalogLists != want {
		t.Errorf("catalog LISTs = %d, want 1 + %d files = %d (%v)", catalogLists, len(files), want, lists)
	}

	live := map[string]bool{}
	recipeGets := 0
	for _, f := range files {
		vs, err := h.repo.Recipes.Versions(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			live[catalogKey(f, v)] = true
			live[recipeKey(f, v)] = true
			recipeGets += gets[recipeKey(f, v)]
		}
	}
	if recipeGets == 0 {
		t.Fatal("no live recipe was read: the pin pass did not run")
	}
	for key, n := range gets {
		isCatalog := strings.HasPrefix(key, "catalog/")
		isRecipe := strings.HasPrefix(key, "recipes/") && strings.HasSuffix(key, ".recipe")
		switch {
		case key == catalogKey("b", 0):
			// The deleted version's own entry, read once for its garbage list.
			if n != 1 {
				t.Errorf("deleted version's catalog entry read %d times, want 1", n)
			}
		case (isCatalog || isRecipe) && !live[key]:
			t.Errorf("read %s, which is not a live version", key)
		case (isCatalog || isRecipe) && n > 1:
			t.Errorf("live %s read %d times, want at most 1", key, n)
		}
	}
}

// TestDeleteVersionScanFaults fails one live version's catalog entry, then
// its recipe, under the fanned-out scan: the error must surface, nothing
// may be dropped, the journal record must survive and replay to the same
// state a clean deletion reaches, and no scan worker may outlive the call.
func TestDeleteVersionScanFaults(t *testing.T) {
	// Four backups: a has only v0, so a0's recipe is the one live recipe
	// that pins b0's containers, and the pin pass cannot finish without it.
	const steps = 4
	clean := buildGCHistory(t, oss.NewMem(), 8, steps)
	if _, err := clean.gn.DeleteVersion("b", 0); err != nil {
		t.Fatal(err)
	}
	wantIDs, wantIdx := survivors(t, clean.repo), indexDump(t, clean.repo)

	for _, key := range []string{catalogKey("a", 0), recipeKey("a", 0)} {
		t.Run(strings.SplitN(key, "/", 2)[0], func(t *testing.T) {
			mem := oss.NewMem()
			faulty := oss.NewFaulty(mem)
			h := buildGCHistory(t, faulty, 8, steps)
			before := survivors(t, h.repo)

			faulty.FailGet(key)
			goroutines := runtime.NumGoroutine()
			_, err := h.gn.DeleteVersion("b", 0)
			if !errors.Is(err, oss.ErrInjected) {
				t.Fatalf("DeleteVersion with %s unreadable: err = %v, want the injected fault", key, err)
			}
			if after := survivors(t, h.repo); !reflect.DeepEqual(after, before) {
				t.Errorf("failed deletion dropped containers: %d before, %d after", len(before), len(after))
			}
			keys, err := h.repo.Journal.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 1 {
				t.Fatalf("journal holds %d records after the failed deletion, want 1", len(keys))
			}
			if rec, err := h.repo.Journal.Get(keys[0]); err != nil || rec.Kind != journal.KindGC ||
				rec.FileID != "b" || rec.Version != 0 {
				t.Fatalf("surviving journal record = %+v (%v), want the gc record of b v0", rec, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the failed deletion, %d before", n, goroutines)
			}

			// Reboot on the healed store: replay finishes the deletion.
			faulty.Clear()
			repo, err := core.OpenRepo(mem, h.cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if keys, err := repo.Journal.List(); err != nil || len(keys) != 0 {
				t.Fatalf("journal after replay = %v (%v), want empty", keys, err)
			}
			if vs, err := repo.Recipes.Versions("b"); err != nil || !reflect.DeepEqual(vs, []int{1}) {
				t.Fatalf("b's versions after replay = %v (%v), want [1]", vs, err)
			}
			if got := survivors(t, repo); !reflect.DeepEqual(got, wantIDs) {
				t.Errorf("replay kept containers %v, a clean deletion keeps %v", got, wantIDs)
			}
			if got := indexDump(t, repo); !reflect.DeepEqual(got, wantIdx) {
				t.Errorf("replayed index has %d entries, a clean deletion leaves %d", len(got), len(wantIdx))
			}
			restoreAll(t, h, lnode.New(repo, "l1"), repo)
		})
	}
}
