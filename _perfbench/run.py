#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 _perfbench/run.py --workload sdb-ingest --seed 1 --seconds 10 --trace 0

The build and every Go cache live under .bench_build/ in the working
directory, so nothing is read or written outside it. Arguments are passed
to the program unchanged; its exit code is this script's exit code.

The benchmark is a module of its own, in a directory whose leading
underscore keeps it out of the main module's package walks (go's ./...
patterns and slimlint's whole-tree test), so it adds no work to them.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "XDG_CACHE_HOME": os.path.join(out, "cache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "TMPDIR": os.path.join(out, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
