// Command slimstore is the backup/restore CLI over a SLIMSTORE repository.
//
// The repository lives on an object store selected with -repo:
//
//	-repo dir:/path/to/dir     local directory (default)
//	-repo http://host:port     remote object-store server (cmd/ossserver)
//
// Subcommands:
//
//	slimstore backup  -repo dir:/backups -file <local path> [-as <name>]
//	slimstore restore -repo dir:/backups -name <name> [-version N] -out <path>
//	slimstore snapshot -repo dir:/backups -dir <directory> -id <name>
//	slimstore restore-snapshot -repo dir:/backups -id <name> -out <directory>
//	slimstore snapshots -repo dir:/backups
//	slimstore verify  -repo dir:/backups -name <name> [-version N]
//	slimstore list    -repo dir:/backups
//	slimstore delete  -repo dir:/backups -name <name> -version N
//	slimstore gc      -repo dir:/backups
//	slimstore scrub   -repo dir:/backups
//	slimstore stats   -repo dir:/backups
//
// Any subcommand additionally accepts -pprof <path>: a CPU profile of
// the whole run is written there, for profiling maintenance commands
// (scrub, gc) against real repositories. -shards N and -replicas M
// select the global-index topology (DESIGN §11), and -ec-data K with
// -ec-parity M arm the erasure-coded container tier (DESIGN §12); every
// command against a repository must use the same values it was created
// with. -hash-workers, -pack-workers and -pack-budget tune the ingest
// fast path (DESIGN §13), and -verify-workers and -restore-window tune
// the restore fast path (DESIGN §14). These affect performance only,
// not the repository layout.
package main

import (
	"context"
	"flag"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"slimstore"
)

// Repository topology shared by every subcommand; set from the -shards
// and -replicas flags before openSystem runs. The values must match the
// repository's existing layout (they pick the on-store key prefixes).
var (
	globalShards   = 1
	globalReplicas = 1
	ecData         = 0
	ecParity       = 0
	hashWorkers    = 0
	packWorkers    = 0
	packBudget     = int64(0)
	verifyWorkers  = 0
	restoreWindow  = 0
)

func openSystem(repo string) (*slimstore.System, error) {
	cfg := slimstore.DefaultConfig()
	cfg.GlobalShards = globalShards
	cfg.GlobalReplicas = globalReplicas
	cfg.ECDataShards = ecData
	cfg.ECParityShards = ecParity
	if hashWorkers != 0 {
		cfg.HashWorkers = hashWorkers
	}
	if packWorkers != 0 {
		cfg.PackWorkers = packWorkers
	}
	if packBudget != 0 {
		cfg.PackBudgetBytes = packBudget
	}
	if verifyWorkers != 0 {
		cfg.VerifyWorkers = verifyWorkers
	}
	if restoreWindow != 0 {
		cfg.RestoreWindow = restoreWindow
	}
	switch {
	case strings.HasPrefix(repo, "dir:"):
		return slimstore.OpenDirectory(strings.TrimPrefix(repo, "dir:"), cfg)
	case strings.HasPrefix(repo, "http://"), strings.HasPrefix(repo, "https://"):
		return slimstore.OpenHTTP(repo, nil, cfg)
	case repo == "mem:":
		return slimstore.OpenMemory(cfg)
	default:
		return nil, fmt.Errorf("repo %q: want dir:<path>, http(s)://..., or mem:", repo)
	}
}

func fatalf(format string, args ...any) {
	stopProfile()
	fmt.Fprintf(os.Stderr, "slimstore: "+format+"\n", args...)
	os.Exit(1)
}

// stopProfile finalises the CPU profile started by -pprof. Both fatalf
// and the end of main run it, so the profile file is valid on every
// exit path that got as far as parsing flags.
var stopProfile = func() {}

// startPProf strips a leading-anywhere -pprof <path> (or -pprof=<path>)
// from args and starts a CPU profile there. It runs before the
// per-subcommand flag.Parse so the profile covers repository open and
// the whole command, not just the tail after parsing.
func startPProf(args []string) []string {
	path := ""
	rest := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := strings.TrimPrefix(strings.TrimPrefix(args[i], "-"), "-")
		if a == "pprof" && i+1 < len(args) {
			path = args[i+1]
			i++
			continue
		}
		if strings.HasPrefix(a, "pprof=") {
			path = strings.TrimPrefix(a, "pprof=")
			continue
		}
		rest = append(rest, args[i])
	}
	if path == "" {
		return rest
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("pprof: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fatalf("pprof: %v", err)
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		f.Close()
		stopProfile = func() {}
	}
	return rest
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: slimstore <backup|restore|verify|snapshot|restore-snapshot|snapshots|list|delete|gc|scrub|stats> [flags]")
		os.Exit(2)
	}
	cmd, args := os.Args[1], startPProf(os.Args[2:])
	defer stopProfile()
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	repo := fs.String("repo", "dir:./slimstore-repo", "repository location")
	fs.IntVar(&globalShards, "shards", 1, "global index shards (must match the repository layout)")
	fs.IntVar(&globalReplicas, "replicas", 1, "replicas per index shard (2f+1; must match the repository layout)")
	fs.IntVar(&ecData, "ec-data", 0, "erasure-coding data shards K (0 disables striping; must match the repository layout)")
	fs.IntVar(&ecParity, "ec-parity", 0, "erasure-coding parity shards M (with -ec-data; must match the repository layout)")
	fs.IntVar(&hashWorkers, "hash-workers", 0, "fingerprint worker-pool size (0 = default 4, negative = inline hashing)")
	fs.IntVar(&packWorkers, "pack-workers", 0, "background container-sealing workers (0 = default 4, negative = synchronous writes)")
	fs.Int64Var(&packBudget, "pack-budget", 0, "ingest buffer budget: max bytes of sealed containers in flight (0 = 3x pack-workers x container capacity)")
	fs.IntVar(&verifyWorkers, "verify-workers", 0, "restore verification worker-pool size (0 = default 4, negative = verify on the pipeline)")
	fs.IntVar(&restoreWindow, "restore-window", 0, "restore pipeline window: max in-flight chunk slots (0 = default 256)")

	switch cmd {
	case "backup":
		file := fs.String("file", "", "local file to back up")
		as := fs.String("as", "", "backup name (defaults to the file path)")
		fs.Parse(args)
		if *file == "" {
			fatalf("backup: -file is required")
		}
		name := *as
		if name == "" {
			name = *file
		}
		f, err := os.Open(*file)
		if err != nil {
			fatalf("%v", err)
		}
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		st, err := sys.BackupStream(name, f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		if _, _, err := sys.Optimize(st); err != nil {
			fatalf("optimize: %v", err)
		}
		fmt.Printf("backed up %q version %d: %d bytes, %.1f%% duplicates eliminated, %d chunks\n",
			name, st.Version, st.LogicalBytes, st.DedupRatio()*100, st.NumChunks)

	case "restore":
		name := fs.String("name", "", "backup name")
		version := fs.Int("version", -1, "version to restore (-1 = latest)")
		out := fs.String("out", "", "output path")
		fs.Parse(args)
		if *name == "" || *out == "" {
			fatalf("restore: -name and -out are required")
		}
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		v := *version
		if v < 0 {
			vs, err := sys.Versions(*name)
			if err != nil || len(vs) == 0 {
				fatalf("no versions of %q", *name)
			}
			v = vs[len(vs)-1]
		}
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		st, err := sys.Restore(*name, v, f)
		if err != nil {
			f.Close()
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("restored %q version %d: %d bytes (%d container reads, %d shared-cache hits, %d singleflight joins, %d ranged reads/%d spans)\n",
			*name, v, st.Bytes, st.Cache.ContainersRead,
			st.Cache.SharedHits, st.Cache.SharedJoins, st.Cache.RangedReads, st.Cache.RangedSpans)
		fmt.Printf("prefetch: %d slots dispatched, %d consumed, %d direct fetches, %d cancelled\n",
			st.Prefetch.Dispatched, st.Prefetch.Consumed, st.Prefetch.Direct, st.Prefetch.Cancelled)

	case "list":
		fs.Parse(args)
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		files, err := sys.Files()
		if err != nil {
			fatalf("%v", err)
		}
		for _, f := range files {
			vs, err := sys.Versions(f)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%s: versions %v\n", f, vs)
		}

	case "delete":
		name := fs.String("name", "", "backup name")
		version := fs.Int("version", -1, "version to delete")
		fs.Parse(args)
		if *name == "" || *version < 0 {
			fatalf("delete: -name and -version are required")
		}
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		gc, err := sys.DeleteVersion(*name, *version)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("deleted %q version %d: %d containers collected, %d bytes reclaimed\n",
			*name, *version, gc.ContainersCollected, gc.BytesReclaimed)

	case "snapshot":
		dir := fs.String("dir", "", "directory to back up")
		id := fs.String("id", "", "snapshot ID (e.g. a timestamp)")
		lnodes := fs.Int("lnodes", 4, "L-node pool size")
		jobsN := fs.Int("jobs", 0, "concurrent backup jobs (0 = L-node count)")
		fs.Parse(args)
		if *dir == "" || *id == "" {
			fatalf("snapshot: -dir and -id are required")
		}
		files := map[string][]byte{}
		err := filepath.WalkDir(*dir, func(p string, d iofs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(*dir, p)
			if err != nil {
				return err
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(rel)] = b
			return nil
		})
		if err != nil {
			fatalf("%v", err)
		}
		if len(files) == 0 {
			fatalf("snapshot: %s contains no files", *dir)
		}
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		sys.ScaleLNodes(*lnodes)
		snap, err := sys.BackupSnapshot(*id, files, *jobsN)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("snapshot %q: %d files, %d bytes\n", snap.ID, len(snap.Members), snap.TotalBytes)

	case "restore-snapshot":
		id := fs.String("id", "", "snapshot ID")
		outDir := fs.String("out", "", "output directory")
		lnodes := fs.Int("lnodes", 4, "L-node pool size (restore jobs run across them)")
		fs.Parse(args)
		if *id == "" || *outDir == "" {
			fatalf("restore-snapshot: -id and -out are required")
		}
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		snap, err := sys.SnapshotInfo(*id)
		if err != nil {
			fatalf("%v", err)
		}
		// One restore job per member, concurrent across the L-node pool.
		eng := sys.NewEngine(slimstore.EngineOptions{LNodes: *lnodes})
		var files []*os.File
		var restores []slimstore.Job
		for _, m := range snap.Members {
			p := filepath.Join(*outDir, filepath.FromSlash(m.FileID))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				fatalf("%v", err)
			}
			f, err := os.Create(p)
			if err != nil {
				fatalf("%v", err)
			}
			files = append(files, f)
			restores = append(restores, slimstore.Job{
				Kind: slimstore.JobRestore, FileID: m.FileID, Version: m.Version, Out: f,
			})
		}
		results := eng.Run(context.Background(), restores)
		eng.Close()
		for _, f := range files {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		for _, r := range results {
			if r.Err != nil && err == nil {
				err = fmt.Errorf("%s v%d: %w", r.Job.FileID, r.Job.Version, r.Err)
			}
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("snapshot %q restored to %s\n", *id, *outDir)

	case "snapshots":
		fs.Parse(args)
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		ids, err := sys.Snapshots()
		if err != nil {
			fatalf("%v", err)
		}
		for _, id := range ids {
			snap, err := sys.SnapshotInfo(id)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%s: %d files, %d bytes\n", snap.ID, len(snap.Members), snap.TotalBytes)
		}

	case "verify":
		name := fs.String("name", "", "backup name")
		version := fs.Int("version", -1, "version to verify (-1 = all)")
		jobsN := fs.Int("jobs", 4, "concurrent verify jobs")
		fs.Parse(args)
		if *name == "" {
			fatalf("verify: -name is required")
		}
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		var versions []int
		if *version >= 0 {
			versions = []int{*version}
		} else {
			versions, err = sys.Versions(*name)
			if err != nil {
				fatalf("%v", err)
			}
		}
		eng := sys.NewEngine(slimstore.EngineOptions{LNodes: *jobsN})
		var verifies []slimstore.Job
		for _, v := range versions {
			verifies = append(verifies, slimstore.Job{
				Kind: slimstore.JobVerify, FileID: *name, Version: v,
			})
		}
		results := eng.Run(context.Background(), verifies)
		eng.Close()
		for _, r := range results {
			if r.Err != nil {
				fatalf("verify %q v%d: %v", r.Job.FileID, r.Job.Version, r.Err)
			}
			fmt.Printf("verified %q version %d: %d bytes intact\n", r.Job.FileID, r.Job.Version, r.Restore.Bytes)
		}
		es := eng.Stats()
		fmt.Printf("verify summary: %d jobs, %d bytes verified (prefetch: %d dispatched, %d consumed, %d direct)\n",
			es.VerifyJobs, es.VerifiedBytes, es.PrefetchDispatched, es.PrefetchConsumed, es.PrefetchDirect)

	case "gc":
		fs.Parse(args)
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		audit, err := sys.Audit()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("audit: %d containers live, %d swept, %d bytes reclaimed\n",
			audit.ContainersMarked, audit.ContainersSwept, audit.BytesReclaimed)

	case "scrub":
		fs.Parse(args)
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		st, err := sys.Scrub()
		if err != nil {
			fatalf("scrub: %v", err)
		}
		fmt.Printf("scrub: %d containers scanned, %d chunks verified, %d corrupt, %d repaired, %d containers rebuilt\n",
			st.ContainersScanned, st.ChunksVerified, st.CorruptChunks, st.RepairedChunks, st.RebuiltContainers)
		if len(st.Quarantined) > 0 {
			fmt.Printf("quarantined: %v\n", st.Quarantined)
		}
		for _, fp := range st.Lost {
			fmt.Printf("LOST: chunk %s is unrecoverable; affected versions will fail to restore\n", fp.Short())
		}

	case "stats":
		fs.Parse(args)
		sys, err := openSystem(*repo)
		if err != nil {
			fatalf("%v", err)
		}
		u, err := sys.SpaceUsage()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("containers: %d bytes\nrecipes:    %d bytes\nindexes:    %d bytes\ntotal:      %d bytes\n",
			u.ContainerBytes, u.RecipeBytes, u.IndexBytes, u.TotalBytes)

	default:
		fatalf("unknown command %q", cmd)
	}
}
