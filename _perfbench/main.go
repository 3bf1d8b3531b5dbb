// Command perfbench is the repository's end-to-end benchmark. It drives
// seeded S-DB and R-Data inputs through the public slimstore.System API
// over an in-memory object store that, while timed, sleeps every request
// for a modelled remote round trip and transfer time, and checks every
// restored byte against the generator.
//
//	go run . -workload sdb-ingest -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with -trace 1 it carries the per-layer metrics, read
// at the object-store boundary and from the system's own stats during a
// traced half of the timed phase, and the spans go to .bench_out/. The
// exit code is non-zero when any operation failed or returned wrong bytes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sdb-ingest, sdb-restore or rdata-churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and of the clients' choices")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	flag.Parse()
	def, err := lookup(*name)
	if err == nil && (*seconds <= 0 || (*traced != 0 && *traced != 1)) {
		err = errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(def, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// phase is what one timed phase measured.
type phase struct {
	wall    time.Duration
	records []opRecord
	oss     ossCounts
	layers  layerTotals
}

func run(def *workloadDef, seed int64, seconds time.Duration, traced bool) (*result, error) {
	var (
		b      *bench
		r      runner
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			// The discarded instance's garbage is not the measured one's.
			b.sys.Close()
			b, r = nil, nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if b, err = newBench(def); err != nil {
			return nil, err
		}
		r = def.newRun(seed)
		if err := r.setup(b); err != nil {
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.sys.Close()

	var p phase
	var tr *tracer
	var untraced float64
	if traced {
		untraced = b.timed(def, r, seed, seconds/2, nil).throughput()
		tr = newTracer()
		p = b.timed(def, r, seed, seconds/2, tr)
	} else {
		p = b.timed(def, r, seed, seconds, nil)
	}
	b.sys.DrainOptimize()
	r.finish(b)

	ms := b.sys.MaintenanceStats()
	b.attempted += ms.Enqueued
	b.failed += ms.Errors
	if ms.Errors > 0 {
		b.errs = append(b.errs, fmt.Sprintf("background G-node: %d errors, last: %v", ms.Errors, ms.LastErr))
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}

	e2e, table, err := endToEnd(def, b, p, median(setups))
	if err != nil && !traced {
		return nil, err
	}
	fmt.Printf("%s seed %d: %d timed calls in %.2fs, %d attempted, %d failed\n",
		def.name, seed, len(p.records), p.wall.Seconds(), b.attempted, b.failed)
	for _, row := range table {
		fmt.Println(row)
	}
	if !traced {
		for _, k := range e2eMetrics {
			res.Metrics[k] = e2e[k]
		}
		return res, nil
	}
	layers, err := perLayer(b, p, tr, untraced, seed)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", def.name, seed))
	if err := tr.write(out); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(layers))
	for k, v := range layers {
		if v.Value != 0 || (v.Unit != "count" && v.Unit != "bytes") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.4f %s\n", k, layers[k].Value, layers[k].Unit)
	}
	fmt.Printf("spans written to %s\n", out)
	for _, k := range layerMetrics() {
		v, ok := layers[k]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", k)
		}
		res.Metrics[k] = v
	}
	return res, nil
}

// timed runs the workload's clients against b for d with the store's
// delay armed, and tr (if not nil) recording spans.
func (b *bench) timed(def *workloadDef, r runner, seed int64, d time.Duration, tr *tracer) phase {
	b.mu.Lock()
	b.records, b.layers, b.tr = nil, layerTotals{}, tr
	b.mu.Unlock()
	b.store.tr.Store(tr)
	b.store.resetMaxInflight()
	before := b.store.snapshot()
	b.store.armed.Store(true)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	b.phases++
	for id := 0; id < def.clients; id++ {
		// Each phase draws fresh choices, so a traced half does not
		// replay the untraced half's requests.
		c := newClient(b, id, seed+int64(b.phases)<<32)
		c.timed = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.loop(c, deadline)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	b.store.armed.Store(false)
	b.store.tr.Store(nil)
	after := b.store.snapshot()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tr = nil
	return phase{wall: wall, records: b.records, oss: after.sub(before), layers: b.layers}
}

// busyUnion is the wall time during which at least one of recs was in
// flight.
func busyUnion(recs []opRecord) time.Duration {
	iv := make([][2]int64, len(recs))
	for i, r := range recs {
		iv[i] = [2]int64{r.start.UnixNano(), r.end.UnixNano()}
	}
	return unionLen(iv)
}

func pick(recs []opRecord, names ...string) []opRecord {
	var out []opRecord
	for _, r := range recs {
		for _, n := range names {
			if r.op == n {
				out = append(out, r)
			}
		}
	}
	return out
}

// mbps is the logical bytes of data per wall second during which any of
// busy was in flight.
func mbps(data, busy []opRecord) float64 {
	var n int64
	for _, r := range data {
		n += r.bytes
	}
	w := busyUnion(busy)
	if w <= 0 {
		return 0
	}
	return float64(n) / 1e6 / w.Seconds()
}

var dataOps = []string{opBackup, opRestore, opRange}

// throughput is the logical bytes backed up or restored per wall second
// during which the clients had any call in flight: deletes and G-node
// drains count against it, the clients' own input generation does not.
func (p phase) throughput() float64 { return mbps(pick(p.records, dataOps...), p.records) }

// percentile is the nearest-rank q-quantile of recs' latencies in ms,
// and whether at least ten samples lie above it.
func percentile(recs []opRecord, q float64) (float64, bool) {
	if len(recs) == 0 {
		return 0, false
	}
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = float64(r.end.Sub(r.start)) / 1e6
	}
	sort.Float64s(ms)
	k := int(q*float64(len(ms)) + 0.5)
	if k >= len(ms) {
		k = len(ms) - 1
	}
	return ms[k], len(ms)-1-k >= 10
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rusage reports the process's own resource use; getrusage cannot fail
// for RUSAGE_SELF with a valid pointer.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// e2eMetrics names the end-to-end metrics an untraced run reports, in
// BENCHMARK.json's order.
var e2eMetrics = []string{"setup_s", "throughput_mbps", "op_p50_ms", "op_p90_ms", "space_amp", "oss_req_per_gb", "peak_rss_mb"}

// endToEnd computes the gated metrics BENCHMARK.json lists and a table
// of every end-to-end figure that applies to the workload.
func endToEnd(def *workloadDef, b *bench, p phase, setup float64) (map[string]metric, []string, error) {
	u, err := b.sys.SpaceUsage()
	if err != nil {
		return nil, nil, fmt.Errorf("space usage: %w", err)
	}
	live := b.liveBytes()
	ru := rusage()
	var moved int64
	for _, r := range pick(p.records, dataOps...) {
		moved += r.bytes
	}
	head := pick(p.records, def.headline)
	p50, _ := percentile(head, 0.5)
	p90, ok := percentile(head, 0.9)
	if !ok {
		err = fmt.Errorf("%s: %d %s calls are too few for a p90 with ten samples above it", def.name, len(head), def.headline)
	}
	m := map[string]metric{
		"setup_s":         {setup, "s"},
		"throughput_mbps": {p.throughput(), "MB/s"},
		"op_p50_ms":       {p50, "ms"},
		"op_p90_ms":       {p90, "ms"},
		"space_amp":       {float64(u.TotalBytes) / float64(live), "ratio"},
		"oss_req_per_gb":  {float64(p.oss.requests()) / (float64(moved) / 1e9), "1/GB"},
		"peak_rss_mb":     {float64(ru.Maxrss) / 1024, "MB"}, // Linux reports KiB
	}
	table := []string{
		row("setup_s", setup, "s", setupRepeats),
		row("space_amp", m["space_amp"].Value, "ratio", 0),
		row("oss_req_per_gb", m["oss_req_per_gb"].Value, "1/GB", int(p.oss.requests())),
		row("peak_rss_mb", m["peak_rss_mb"].Value, "MB", 0),
		row("process_cpu_s", time.Duration(ru.Utime.Nano()+ru.Stime.Nano()).Seconds(), "s", 0),
		row("fail_ratio", float64(b.failed)/float64(max(b.attempted, 1)), "ratio", b.attempted),
	}
	for _, k := range []struct{ name, op string }{
		{"backup", opBackup}, {"restore", opRestore}, {"range", opRange}, {"gc", opDelete},
	} {
		recs := pick(p.records, k.op)
		if len(recs) == 0 {
			continue
		}
		if k.op == opBackup || k.op == opRestore {
			table = append(table, row(k.name+"_mbps", mbps(recs, recs), "MB/s", len(recs)))
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}} {
			if v, ok := percentile(recs, q.q); ok {
				table = append(table, row(k.name+"_"+q.name+"_ms", v, "ms", len(recs)))
			}
		}
	}
	return m, table, err
}

func row(name string, v float64, unit string, n int) string {
	s := fmt.Sprintf("  %-18s %12.4f %-6s", name, v, unit)
	if n > 0 {
		s += fmt.Sprintf(" n=%d", n)
	}
	return s
}
