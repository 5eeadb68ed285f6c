#!/usr/bin/env python3
"""Build the benchmark program, hxbench, from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload flow-large-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

hxbench (perfbench/*.go, a module of its own that imports the
repository's packages) is built into the build directory, $CARGO_TARGET_DIR
or .bench_build, with the Go build cache, temporary files and Go's
configuration kept there too, so nothing is written outside the checkout.
Arguments are passed on to `hxbench run`, or to `hxbench compare` when the
first argument is "compare". Each run appends its result, with a machine
header, to <build>/perfbench/results.jsonl.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: %s is not a checkout of the repository (no go.mod or internal/)" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    for d in ("tmp", "home", os.path.join("perfbench")):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    exe = os.path.join(build, "hxbench")
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    cmd = [exe, "compare", "-spec", "BENCHMARK.json"] + args[1:] if args[:1] == ["compare"] else \
        [exe, "run", "-spec", "BENCHMARK.json", "-out", os.path.join(build, "perfbench")] + args
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
