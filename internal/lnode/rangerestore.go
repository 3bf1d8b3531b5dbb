package lnode

import (
	"fmt"
	"io"

	"slimstore/internal/cache"
	"slimstore/internal/simclock"
)

// RestoreRange streams bytes [off, off+length) of a version to w — partial
// recovery (a corrupted database page, a log tail) without paying for the
// full restore. Only the containers holding the overlapping chunks are
// read; length < 0 means to the end of the file.
func (n *LNode) RestoreRange(fileID string, version int, off, length int64, w io.Writer) (*RestoreStats, error) {
	if off < 0 {
		return nil, fmt.Errorf("lnode: restore range: negative offset %d", off)
	}
	n.repo.Files.RLock(fileID)
	defer n.repo.Files.RUnlock(fileID)

	acct := simclock.NewAccount()
	cfg := &n.repo.Config
	recipes := n.repo.RecipesFor(acct)
	containers := n.repo.ContainersFor(acct)

	r, err := recipes.GetRecipe(fileID, version)
	if err != nil {
		return nil, err
	}
	total := r.LogicalBytes()
	if off > total {
		return nil, fmt.Errorf("lnode: restore range: offset %d beyond file size %d", off, total)
	}
	end := total
	if length >= 0 && length < end-off {
		end = off + length
	}

	full, redirects, _, metas, release, err := n.pinSequence(containers, r, acct)
	if err != nil {
		return nil, err
	}
	defer release()

	// Select the chunk window overlapping [off, end) and remember how much
	// to trim from the first and last chunks.
	var seq []cache.Request
	var pos int64
	var headTrim int64
	for _, req := range full {
		next := pos + int64(req.Size)
		if next > off && pos < end {
			if len(seq) == 0 {
				headTrim = off - pos
			}
			seq = append(seq, req)
		}
		pos = next
		if pos >= end {
			break
		}
	}

	stats := &RestoreStats{
		FileID: fileID, Version: version,
		PrefetchThreads: cfg.PrefetchThreads,
		Account:         acct,
		Redirects:       redirects,
	}
	if len(seq) == 0 {
		stats.Elapsed = acct.ElapsedSequential()
		return stats, nil
	}

	policy, err := cache.New(cfg.RestorePolicy, cache.Config{
		MemBytes:  cfg.CacheMemBytes,
		DiskBytes: cfg.CacheDiskBytes,
		DiskDir:   cfg.CacheDiskDir,
		LAW:       cfg.LAWChunks,
	})
	if err != nil {
		return nil, err
	}
	// The need-set comes from the windowed sequence, so the planner reads
	// only the spans covering the requested byte range — partial recovery
	// is the sparsest restore shape there is.
	rio := newRestoreIO(n, containers, seq, metas)
	defer rio.close()
	fetch := cache.Fetcher(rio.fetch)

	// The trim arithmetic runs on the emit side: it charges the full
	// chunk, then hands the trimmed payload to the pipeline, so the
	// write-behind sink overlaps the next chunk's fetch. No verification
	// and no prefetcher here: RestoreRange keeps strictly sequential
	// virtual time (the ranged-read planner's cost model is calibrated
	// against it).
	want := end - off
	var queued int64
	run := n.newRestoreRun(acct, w, false, seq, fileID, version)
	cstats, err := policy.Restore(seq, fetch, func(data []byte) error {
		acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(data)), cfg.Costs.RestorePerByte)
		d := data
		if headTrim > 0 {
			if headTrim >= int64(len(d)) {
				headTrim -= int64(len(d))
				return nil
			}
			d = d[headTrim:]
			headTrim = 0
		}
		if rem := want - queued; int64(len(d)) > rem {
			d = d[:rem]
		}
		if len(d) == 0 {
			return nil
		}
		queued += int64(len(d))
		return run.push(d)
	})
	written, err := run.finish(err)
	if err != nil {
		return nil, fmt.Errorf("lnode: restore range %s v%d [%d,%d): %w", fileID, version, off, end, err)
	}
	stats.Bytes = written
	stats.Cache = cstats
	rio.addTo(&stats.Cache)
	stats.Elapsed = acct.ElapsedSequential()
	return stats, nil
}
