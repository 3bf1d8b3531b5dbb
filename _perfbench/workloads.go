package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"slimstore"
	"slimstore/internal/workload"
)

// workloadDef fixes one workload: its inputs, its clients, the delay the
// modelled remote object store adds, and the System call whose latency
// is its headline.
type workloadDef struct {
	name     string
	clients  int
	delay    delayModel
	headline string
	config   func() slimstore.Config
	newRun   func(seed int64) runner
}

// runner is one set-up instance of a workload.
type runner interface {
	// setup generates the inputs and populates and warms b.sys, untimed
	// and with the store's delay off.
	setup(b *bench) error
	// loop is client c's closed loop; it returns once deadline passed.
	loop(c *client, deadline time.Time)
	// finish checks outputs after the timed phase, untimed.
	finish(b *bench)
}

const (
	// The modelled object store: a fixed round trip per request plus
	// transfer time. Sleeps shorter than ~1 ms overshoot to ~1 ms on
	// Linux, so round trips are whole milliseconds.
	ossRoundTrip = time.Millisecond
	ossBandwidth = 200e6
)

// cloudLink is the delay of the data-path workloads. The timer wake-up
// jitter of a loaded host is a fixed slice of every sleep, so a longer
// round trip and a slower transfer keep their figures steady; rdata-churn
// keeps the faster link because its G-node work bounds how many calls a
// run can sample.
var cloudLink = delayModel{PerRequest: 2 * ossRoundTrip, BytesPerSec: ossBandwidth / 2}

var workloads = []*workloadDef{
	{
		name:     "sdb-ingest",
		clients:  1,
		delay:    cloudLink,
		headline: opBackup,
		config:   slimstore.DefaultConfig,
		newRun:   func(seed int64) runner { return newIngest(seed) },
	},
	{
		name:     "sdb-restore",
		clients:  2,
		delay:    cloudLink,
		headline: opRestore,
		config: func() slimstore.Config {
			c := slimstore.DefaultConfig()
			c.SharedCacheBytes = restoreCacheBytes
			return c
		},
		newRun: func(seed int64) runner { return newRestore(seed) },
	},
	{
		name:     "rdata-churn",
		clients:  churnClients,
		delay:    delayModel{PerRequest: ossRoundTrip, BytesPerSec: ossBandwidth},
		headline: opDelete,
		config:   slimstore.DefaultConfig,
		newRun:   func(seed int64) runner { return newChurn(seed) },
	},
}

func lookup(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func pastDeadline(deadline time.Time) bool { return !time.Now().Before(deadline) }

// --- sdb-ingest -----------------------------------------------------------

const (
	ingestFiles     = 16
	ingestFileBytes = 2 << 20
	ingestWarmup    = 2 // versions of every file backed up in setup
)

// ingest backs up S-DB tables version by version, every file's
// next version in turn. Nothing restores or optimizes while timed.
type ingest struct {
	gen     *workload.Generator
	ids     []string
	cur     [][]byte
	next    int // next version to generate
	lastVer []int
	lastSum []digest
}

func newIngest(seed int64) *ingest {
	spec := workload.SDB(ingestFiles, ingestFileBytes)
	spec.Seed = seed
	g := workload.New(spec)
	return &ingest{gen: g, ids: g.FileIDs(), cur: make([][]byte, ingestFiles),
		lastVer: make([]int, ingestFiles), lastSum: make([]digest, ingestFiles)}
}

func (w *ingest) setup(b *bench) error {
	c := newClient(b, 0, 0)
	for v := 0; v < ingestWarmup; v++ {
		if err := w.backupNext(c); err != nil {
			return err
		}
	}
	return nil
}

// backupNext generates and backs up version w.next of every file.
func (w *ingest) backupNext(c *client) error {
	for i := range w.ids {
		if w.next == 0 {
			w.cur[i] = w.gen.Base(i)
		} else {
			w.cur[i] = w.gen.Next(i, w.next, w.cur[i])
		}
		st, err := c.backup(w.ids[i], w.cur[i])
		if err != nil {
			return err
		}
		w.lastVer[i], w.lastSum[i] = st.Version, sha256.Sum256(w.cur[i])
	}
	w.next++
	return nil
}

func (w *ingest) loop(c *client, deadline time.Time) {
	for !pastDeadline(deadline) {
		if w.backupNext(c) != nil {
			return
		}
	}
}

// finish restores every file's latest version and compares it.
func (w *ingest) finish(b *bench) {
	c := newClient(b, 0, 0)
	for i, id := range w.ids {
		c.restore(id, w.lastVer[i], w.lastSum[i])
	}
}

// --- sdb-restore ----------------------------------------------------------

const (
	restoreFiles     = 16
	restoreFileBytes = 2 << 20
	restoreVersions  = 12
	restoreRanges    = 4         // checked ranges per version
	restoreRangeLen  = 512 << 10 // bytes per range restore
	restoreRangeOdds = 4         // one call in this many is a range restore
	// restoreCacheBytes scales the node-wide restore cache down with the
	// data set: the default 256 MiB would need over 512 MiB of containers
	// held in this process's memory to keep the working set at least
	// twice the cache.
	restoreCacheBytes = 24 << 20
)

type checkedRange struct {
	off int64
	sum digest
}

type restoreVersion struct {
	version int
	sum     digest
	ranges  []checkedRange
}

// restoreRun reads an S-DB history whose old versions reverse dedup and
// compaction have fragmented: full restores of any version, interleaved
// with range restores, on a working set larger than the restore cache.
type restoreRun struct {
	seed     int64
	ids      []string
	versions [][]restoreVersion // [file][version]
}

func newRestore(seed int64) *restoreRun { return &restoreRun{seed: seed} }

func (w *restoreRun) setup(b *bench) error {
	spec := workload.SDB(restoreFiles, restoreFileBytes)
	spec.Seed = w.seed
	g := workload.New(spec)
	w.ids = g.FileIDs()
	w.versions = make([][]restoreVersion, restoreFiles)
	c := newClient(b, 0, w.seed)
	cur := make([][]byte, restoreFiles)
	for v := 0; v < restoreVersions; v++ {
		for i, id := range w.ids {
			if v == 0 {
				cur[i] = g.Base(i)
			} else {
				cur[i] = g.Next(i, v, cur[i])
			}
			st, err := c.backup(id, cur[i])
			if err != nil {
				return err
			}
			c.optimize(st)
			rv := restoreVersion{version: st.Version, sum: sha256.Sum256(cur[i])}
			for k := 0; k < restoreRanges; k++ {
				off := c.rng.Int63n(int64(len(cur[i]) - restoreRangeLen))
				rv.ranges = append(rv.ranges, checkedRange{off, sha256.Sum256(cur[i][off : off+restoreRangeLen])})
			}
			w.versions[i] = append(w.versions[i], rv)
		}
	}
	u, err := b.sys.SpaceUsage()
	if err != nil {
		return fmt.Errorf("space usage: %w", err)
	}
	if u.ContainerBytes < 2*restoreCacheBytes {
		return fmt.Errorf("sdb-restore: %d container bytes, want at least twice the %d-byte restore cache", u.ContainerBytes, restoreCacheBytes)
	}
	// Warm-up: one full and one range restore start the restore
	// pipeline's worker pools and fill part of the shared cache.
	rv := w.versions[0][0]
	c.restoreRange(w.ids[0], rv.version, rv.ranges[0].off, restoreRangeLen, rv.ranges[0].sum)
	c.restore(w.ids[0], rv.version, rv.sum)
	return nil
}

// call issues one seeded restore: a range restore one time in
// restoreRangeOdds, a full restore otherwise.
func (w *restoreRun) call(c *client) {
	i := c.rng.Intn(len(w.ids))
	rv := w.versions[i][c.rng.Intn(len(w.versions[i]))]
	if c.rng.Intn(restoreRangeOdds) == 0 {
		r := rv.ranges[c.rng.Intn(len(rv.ranges))]
		c.restoreRange(w.ids[i], rv.version, r.off, restoreRangeLen, r.sum)
		return
	}
	c.restore(w.ids[i], rv.version, rv.sum)
}

func (w *restoreRun) loop(c *client, deadline time.Time) {
	for !pastDeadline(deadline) {
		w.call(c)
	}
}

func (w *restoreRun) finish(*bench) {}

// --- rdata-churn ----------------------------------------------------------

const (
	churnFiles     = 6
	churnFileBytes = 2 << 20
	churnRetention = 4 // live versions kept per file
	churnClients   = 2
	// churnWarmRounds is how many rounds setup runs, with the store's
	// delay off.
	churnWarmRounds = churnRetention + 2
)

// churnFile is one R-Data file; a client owns it exclusively.
type churnFile struct {
	id   string
	idx  int
	cur  []byte
	next int            // next generator version
	live []int          // live system versions, oldest first
	sums map[int]digest // by system version
}

// churn runs retention rounds over many small, highly duplicated files.
// Client k owns the files whose index is k modulo churnClients.
type churn struct {
	seed  int64
	gen   *workload.Generator
	files []*churnFile
}

func newChurn(seed int64) *churn { return &churn{seed: seed} }

func (w *churn) setup(b *bench) error {
	spec := workload.RData(churnFiles, churnFileBytes)
	spec.Seed = w.seed
	w.gen = workload.New(spec)
	for i, id := range w.gen.FileIDs() {
		w.files = append(w.files, &churnFile{id: id, idx: i, sums: map[int]digest{}})
	}
	c := newClient(b, 0, w.seed)
	// Warm-up: rounds until the retention window has turned over, so
	// the timed rounds delete, and sweep, from their first step.
	for r := 0; r < churnWarmRounds; r++ {
		for _, f := range w.files {
			if err := w.step(c, f); err != nil {
				return err
			}
		}
		b.sys.DrainOptimize()
	}
	f := w.files[0]
	c.restore(f.id, f.live[0], f.sums[f.live[0]])
	return nil
}

// step backs up f's next version, queues its optimisation and deletes
// the versions that fall out of the retention window.
func (w *churn) step(c *client, f *churnFile) error {
	if f.next == 0 {
		f.cur = w.gen.Base(f.idx)
	} else {
		f.cur = w.gen.Next(f.idx, f.next, f.cur)
	}
	f.next++
	st, err := c.backup(f.id, f.cur)
	if err != nil {
		return err
	}
	f.live = append(f.live, st.Version)
	f.sums[st.Version] = sha256.Sum256(f.cur)
	c.queueOptimize(st)
	for len(f.live) > churnRetention {
		if err := c.deleteVersion(f.id, f.live[0]); err != nil {
			return err
		}
		delete(f.sums, f.live[0])
		f.live = f.live[1:]
	}
	return nil
}

func (w *churn) loop(c *client, deadline time.Time) {
	var mine []*churnFile
	for _, f := range w.files {
		if f.idx%churnClients == c.id {
			mine = append(mine, f)
		}
	}
	for {
		for _, f := range mine {
			if pastDeadline(deadline) {
				return
			}
			if w.step(c, f) != nil {
				return
			}
		}
		if pastDeadline(deadline) {
			return
		}
		f := mine[c.rng.Intn(len(mine))]
		v := f.live[c.rng.Intn(len(f.live))]
		c.restore(f.id, v, f.sums[v])
		// The round ends once the G-node caught up, so its backlog stays
		// bounded and every round sees the same contention.
		c.drainOptimize()
	}
}

// finish restores every file's latest version once G-node work drained.
func (w *churn) finish(b *bench) {
	c := newClient(b, 0, w.seed)
	for _, f := range w.files {
		v := f.live[len(f.live)-1]
		c.restore(f.id, v, f.sums[v])
	}
}
