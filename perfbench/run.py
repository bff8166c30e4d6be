#!/usr/bin/env python3
"""Service benchmark of the streaming DDC.

Builds the release ``ddc_server`` binary and the benchmark driver from
source, then runs one workload and passes the driver's output through.
Run from the root of the repository:

    python3 perfbench/run.py --workload bulk_2x --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads: bulk_2x, small_pingpong, small_paced, deadline_paced. The
last line of stdout is the result object. Build products go to
``$CARGO_TARGET_DIR`` (default ``.bench_build``); the traced run writes
its spans there too, under ``perfbench/``.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def source_id():
    """The git commit if there is one, else a hash of the sources the
    benchmark builds, so results from one tree can be told apart."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "ddc-server", "--bin", "ddc_server"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        # Build output goes to stderr, so stdout stays the result.
        r = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from a checkout of the repository")
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--server", os.path.join(release, "ddc_server"),
        "--commit", source_id(),
        "--out", os.path.join(target_dir, "perfbench"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    r = subprocess.run(cmd)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
