package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/journal"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// This file holds the apply half of the intent-journal protocol (see
// package journal). The G-node commits a record and calls the matching
// Apply*; OpenRepo replays surviving records through the same functions,
// so every step here must be idempotent. Apply functions end by flushing
// the global index: its LSM buffers writes, and removing a journal record
// before the index mutations are durable would lose them to a crash.

// ReplayJournal rolls forward (or, for rewrites whose payload never
// landed, rolls back) every surviving journal record, in commit order. It
// returns the number of records replayed. OpenRepo calls it before the
// repo does any new work; FullSweep calls it to reclaim half-committed
// operations from a crashed peer.
func (r *Repo) ReplayJournal() (int, error) {
	keys, err := r.Journal.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, k := range keys {
		rec, err := r.Journal.Get(k)
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				continue // a concurrent replayer got there first
			}
			return n, err
		}
		switch rec.Kind {
		case journal.KindSCC:
			err = r.ApplySCC(rec, nil, nil)
		case journal.KindGC:
			_, err = r.ApplyGC(rec, nil, nil)
		case journal.KindRewrite:
			err = r.replayRewrite(rec)
		default:
			return n, fmt.Errorf("core: journal record %d has unknown kind %q", rec.Seq, rec.Kind)
		}
		if err != nil {
			return n, fmt.Errorf("core: replay journal record %d (%s): %w", rec.Seq, rec.Kind, err)
		}
		if err := r.Journal.Remove(k); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ApplySCC performs the committed half of a sparse-container compaction:
// the moved chunks already live in their new containers; this repoints
// the global index, rewrites the version's recipe and catalog entry, and
// marks the moved chunks deleted in the drained sources. Safe to re-run.
// cs and rs direct the I/O (metered views); nil selects the repo's
// unmetered stores (the replay path).
func (r *Repo) ApplySCC(rec *journal.Record, cs *container.Store, rs *recipe.Store) error {
	if cs == nil {
		cs = r.Containers
	}
	if rs == nil {
		rs = r.Recipes
	}
	moved, err := rec.MovedFPs()
	if err != nil {
		return err
	}

	// Index first: restores redirect relocated chunks through it, so no
	// window may exist where a redirect would miss.
	for fp, nid := range moved {
		if err := r.Global.Put(fp, nid); err != nil {
			return err
		}
	}

	// Recipe: this version's restores stop touching the sparse sources.
	// A missing recipe means the version was deleted after the commit;
	// the remaining steps still apply.
	rcp, err := rs.GetRecipe(rec.FileID, rec.Version)
	switch {
	case errors.Is(err, oss.ErrNotFound):
	case err != nil:
		return err
	default:
		rcp.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
			if nid, ok := moved[cr.FP]; ok {
				cr.Container = nid
			}
			return true
		})
		if _, err := rs.PutRecipe(rcp); err != nil {
			return err
		}

		// Catalog: refresh the container list and associate the drained
		// sources with this version as garbage (§VI-B).
		info, err := rs.GetInfo(rec.FileID, rec.Version)
		if err != nil && !errors.Is(err, oss.ErrNotFound) {
			return err
		}
		if err == nil {
			refs := make(map[container.ID]bool)
			rcp.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
				refs[cr.Container] = true
				return true
			})
			info.Containers = info.Containers[:0]
			for id := range refs {
				info.Containers = append(info.Containers, id)
			}
			sort.Slice(info.Containers, func(a, b int) bool { return info.Containers[a] < info.Containers[b] })
			garbage := make(map[container.ID]bool, len(info.Garbage))
			for _, id := range info.Garbage {
				garbage[id] = true
			}
			for _, id := range journal.IDs(rec.Sparse) {
				if !garbage[id] {
					info.Garbage = append(info.Garbage, id)
				}
			}
			if err := rs.PutInfo(info); err != nil {
				return err
			}
		}
	}

	// Mark the moved chunks deleted in the sources, now that nothing
	// routes reads to them (the index and recipe point at the copies).
	for _, id := range journal.IDs(rec.Sparse) {
		m, err := cs.ReadMeta(id)
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				continue // already swept
			}
			return err
		}
		cp := *m
		cp.Chunks = append([]container.ChunkMeta(nil), m.Chunks...)
		dirty := false
		for fp := range moved {
			if cm := cp.Find(fp); cm != nil && !cm.Deleted {
				cm.Deleted = true
				dirty = true
			}
		}
		if dirty {
			if err := cs.WriteMeta(&cp); err != nil {
				return err
			}
		}
	}
	r.BumpMaintEpoch()
	return r.Global.Flush()
}

// GCApply reports what a version-deletion apply actually swept.
type GCApply struct {
	ContainersCollected int
	BytesReclaimed      int64
	IndexEntriesRemoved int
}

// ApplyGC performs the committed half of a version deletion: removes the
// version's recipe, catalog entry and similarity sketch, then sweeps the
// journaled garbage containers that no surviving version references.
// Safe to re-run — deletes tolerate already-deleted state. cs and rs
// direct the I/O (metered views); nil selects the repo's unmetered
// stores (the replay path).
//
// The liveness check is scan ∥ → decide → commit (DESIGN.md §8): the
// catalog is listed once, and the catalog entries, candidate metadata,
// index probe and live recipes are read across the maintenance worker
// pool. The live and pinned sets are unions, so they do not depend on
// fetch order. Only then do the drops run, serially and in journal
// order, exactly as a serial sweep would issue them.
func (r *Repo) ApplyGC(rec *journal.Record, cs *container.Store, rs *recipe.Store) (*GCApply, error) {
	if cs == nil {
		cs = r.Containers
	}
	if rs == nil {
		rs = r.Recipes
	}
	out := &GCApply{}
	if err := rs.DeleteRecipe(rec.FileID, rec.Version); err != nil {
		return nil, err
	}
	if err := rs.DeleteInfo(rec.FileID, rec.Version); err != nil {
		return nil, err
	}
	if err := r.SimIndex.Remove(rec.FileID, rec.Version); err != nil {
		return nil, err
	}
	if len(rec.Garbage) > 0 {
		versions, err := r.ListVersions(rs)
		if err != nil {
			return nil, err
		}
		live, err := r.LiveContainerRefs(rs, versions)
		if err != nil {
			return nil, err
		}
		cands := make(map[container.ID]bool)
		for _, id := range journal.IDs(rec.Garbage) {
			if !live[id] {
				cands[id] = true
			}
		}
		pinned, err := r.redirectPins(cs, rs, cands, versions)
		if err != nil {
			return nil, err
		}
		for _, id := range journal.IDs(rec.Garbage) {
			if live[id] || pinned[id] {
				continue // still referenced (e.g. out-of-order deletion)
			}
			reclaimed, removed, err := r.DropContainer(cs, id)
			if err != nil {
				return nil, err
			}
			out.ContainersCollected++
			out.BytesReclaimed += reclaimed
			out.IndexEntriesRemoved += removed
		}
	}
	return out, r.Global.Flush()
}

// redirectPins reports which garbage candidates must survive because a
// live recipe redirects into them. Reverse dedup deletes an old copy of a
// chunk and repoints the global index at a *newer* container, so an old
// version's recipe — which still names the drained container — resolves
// the chunk through the index at restore time. The redirect target never
// appears in that version's catalog entry, so the info-based liveness
// check alone would let an out-of-order deletion (or a cross-file
// dependency) drop the only physical copy of a still-referenced chunk.
// This pass catches exactly those: a candidate is pinned when it is the
// index-canonical home of a fingerprint that some live recipe references
// via a different container.
//
// The candidates' metadata and the live recipes are fetched across the
// maintenance worker pool, and every candidate chunk is resolved in one
// batched index probe. The recipe walk stops early once every candidate
// that can be pinned is.
func (r *Repo) redirectPins(cs *container.Store, rs *recipe.Store, cands map[container.ID]bool,
	versions []VersionRef) (map[container.ID]bool, error) {

	ids := make([]container.ID, 0, len(cands))
	for id := range cands {
		ids = append(ids, id)
	}
	metas := make([]*container.Meta, len(ids))
	if err := r.MaintForEach(len(ids), func(i int) error {
		if m, err := cs.ReadMeta(ids[i]); err == nil {
			metas[i] = m
		} // unreadable meta: DropContainer will no-op it anyway
		return nil
	}); err != nil {
		return nil, err
	}

	// Probe the candidates' live chunks in one batch: a candidate owns the
	// fingerprints whose canonical copy it holds.
	var (
		fps   []fingerprint.FP
		homes []container.ID
	)
	for i, m := range metas {
		if m == nil {
			continue
		}
		for j := range m.Chunks {
			if cm := &m.Chunks[j]; !cm.Deleted {
				fps = append(fps, cm.FP)
				homes = append(homes, ids[i])
			}
		}
	}
	if len(fps) == 0 {
		return nil, nil
	}
	cur, found, _, err := r.Global.GetBatch(fps)
	if err != nil {
		return nil, err
	}
	own := make(map[fingerprint.FP]container.ID)
	pinnable := make(map[container.ID]bool)
	for i, fp := range fps {
		if found[i] && cur[i] == homes[i] {
			own[fp] = homes[i]
			pinnable[homes[i]] = true
		}
	}
	if len(own) == 0 {
		return nil, nil
	}

	var (
		mu     sync.Mutex
		pinned = make(map[container.ID]bool)
		done   atomic.Bool // every pinnable candidate is pinned
	)
	err = r.MaintForEach(len(versions), func(i int) error {
		if done.Load() {
			return nil
		}
		v := versions[i]
		rcp, err := rs.GetRecipe(v.File, v.Version)
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				return nil // catalog entry without a recipe: nothing to pin
			}
			return err
		}
		local := make(map[container.ID]bool)
		rcp.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
			if cand, ok := own[cr.FP]; ok && cr.Container != cand {
				local[cand] = true
			}
			return len(local) < len(pinnable) && !done.Load()
		})
		mu.Lock()
		defer mu.Unlock()
		for id := range local {
			pinned[id] = true
		}
		if len(pinned) == len(pinnable) {
			done.Store(true)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pinned, nil
}

// replayRewrite resolves an interrupted in-place container rewrite. The
// record committed before the new data object was put, so two states are
// possible: the data landed (checksum matches) — roll forward by writing
// the journaled metadata — or it never landed — the old objects are
// untouched, so dropping the record rolls back.
func (r *Repo) replayRewrite(rec *journal.Record) error {
	id := container.ID(rec.Target)
	raw, err := r.Containers.GetRawData(id)
	if err != nil {
		if errors.Is(err, oss.ErrNotFound) {
			return nil // container gone entirely: nothing to finish
		}
		return err
	}
	if int64(len(raw)) != rec.DataLen || container.ChecksumOf(raw) != rec.DataCRC {
		return nil // new payload never landed: old state intact, roll back
	}
	r.CLocks.Lock(id)
	defer r.CLocks.Unlock(id)
	r.BumpMaintEpoch()
	return r.Containers.PutRaw(id, nil, rec.Meta)
}

// RewriteContainer physically removes deleted chunks from a container,
// keeping its ID (recipes referencing surviving chunks stay valid). The
// rewrite replaces both objects of an existing container, so it runs
// under a journal record: commit {new meta, new data checksum} → put data
// → put meta → remove record. m supplies the freshest deletion marks; cs
// directs the I/O (typically a metered view). Returns bytes freed.
func (r *Repo) RewriteContainer(cs *container.Store, m *container.Meta) (int64, error) {
	c, err := cs.Read(m.ID)
	if err != nil {
		return 0, fmt.Errorf("core: rewrite %s: %w", m.ID, err)
	}
	nc := &container.Container{Meta: container.Meta{ID: m.ID}}
	for i := range m.Chunks {
		cm := &m.Chunks[i]
		if cm.Deleted {
			continue
		}
		data := c.Data[cm.Offset : int64(cm.Offset)+int64(cm.Size)]
		nc.Meta.Chunks = append(nc.Meta.Chunks, container.ChunkMeta{
			FP:     cm.FP,
			Offset: uint32(len(nc.Data)),
			Size:   cm.Size,
		})
		nc.Data = append(nc.Data, data...)
	}
	if err := r.WriteRebuilt(cs, nc); err != nil {
		return 0, err
	}
	return int64(len(c.Data)) - int64(len(nc.Data)), nil
}

// WriteRebuilt journals and writes a rebuilt container over its existing
// ID (the commit → data → meta → remove protocol of KindRewrite). The
// scrub pass uses it directly when it has reassembled a container from
// intact local chunks plus donor copies.
func (r *Repo) WriteRebuilt(cs *container.Store, nc *container.Container) error {
	if err := nc.Seal(); err != nil {
		return err
	}
	encData := container.EncodeData(nc.Data)
	encMeta := container.EncodeMeta(&nc.Meta)

	key, err := r.Journal.Commit(&journal.Record{
		Kind:    journal.KindRewrite,
		Target:  uint64(nc.Meta.ID),
		Meta:    encMeta,
		DataCRC: container.ChecksumOf(encData),
		DataLen: int64(len(encData)),
	})
	if err != nil {
		return err
	}
	// Replacing the data object races in-flight restores that resolved
	// this container before the rewrite: wait for their read pins.
	r.CLocks.Lock(nc.Meta.ID)
	err = cs.PutRaw(nc.Meta.ID, encData, encMeta)
	r.CLocks.Unlock(nc.Meta.ID)
	if err != nil {
		return err
	}
	r.BumpMaintEpoch()
	return r.Journal.Remove(key)
}

// VersionRef names one catalog entry: a version of a file.
type VersionRef struct {
	File    string
	Version int
}

// ListVersions lists every catalog entry, files in order and each file's
// versions ascending: one Files listing, then the per-file Versions
// listings across the maintenance worker pool.
func (r *Repo) ListVersions(rs *recipe.Store) ([]VersionRef, error) {
	files, err := rs.Files()
	if err != nil {
		return nil, err
	}
	perFile := make([][]int, len(files))
	if err := r.MaintForEach(len(files), func(i int) error {
		vs, err := rs.Versions(files[i])
		perFile[i] = vs
		return err
	}); err != nil {
		return nil, err
	}
	var out []VersionRef
	for i, vs := range perFile {
		for _, v := range vs {
			out = append(out, VersionRef{File: files[i], Version: v})
		}
	}
	return out, nil
}

// LiveContainerRefs reads the catalog entries of versions (a ListVersions
// result) across the maintenance worker pool and returns every container
// they reference.
func (r *Repo) LiveContainerRefs(rs *recipe.Store, versions []VersionRef) (map[container.ID]bool, error) {
	infos := make([]*recipe.VersionInfo, len(versions))
	if err := r.MaintForEach(len(versions), func(i int) error {
		info, err := rs.GetInfo(versions[i].File, versions[i].Version)
		infos[i] = info
		return err
	}); err != nil {
		return nil, err
	}
	live := make(map[container.ID]bool)
	for _, info := range infos {
		for _, id := range info.Containers {
			live[id] = true
		}
	}
	return live, nil
}

// DropContainer deletes a container and its global-index entries,
// returning the bytes reclaimed and index entries removed. Dropping an
// already-dropped container is a no-op.
func (r *Repo) DropContainer(cs *container.Store, id container.ID) (int64, int, error) {
	m, err := cs.ReadMeta(id)
	if err != nil {
		// Already gone (e.g. swept via another version's garbage list).
		return 0, 0, nil
	}
	removed := 0
	for i := range m.Chunks {
		cm := &m.Chunks[i]
		cur, found, err := r.Global.Get(cm.FP)
		if err != nil {
			return 0, 0, err
		}
		if found && cur == id {
			if err := r.Global.Delete(cm.FP); err != nil {
				return 0, 0, err
			}
			removed++
		}
	}
	reclaimed := int64(m.DataSize) + int64(len(container.EncodeMeta(m)))
	r.CLocks.Lock(id)
	err = cs.Delete(id)
	r.CLocks.Unlock(id)
	if err != nil {
		return 0, 0, err
	}
	r.BumpMaintEpoch()
	return reclaimed, removed, nil
}
