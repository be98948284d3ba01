#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (perfbench) from the repository root.

    python3 perfbench/run.py --workload dueling64 --seed 1 --seconds 55 --trace 0

Builds perfbench/ (a Go module that imports the repository's packages through
a `replace rlgraph => ../` directive) with every Go cache kept under
.bench_build/, then runs the binary with the given arguments. The binary
prints a header line, one line per metric, and as its last line the JSON
result. Traced runs write their spans under .bench_build/traces/.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT = 600  # the first build of a checkout compiles every package
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def run_quiet(cmd, cwd):
    """Runs a helper command; returns its stdout, or None if it fails."""
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash():
    """SHA-256 over the Go sources and module files of the measured tree."""
    h = hashlib.sha256()
    for top in ("go.mod", "internal", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".go", ".mod", ".json")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        print("perfbench: the repository sources (go.mod, internal/) are missing", file=sys.stderr)
        return 2
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=env,
                               timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    commit = run_quiet(["git", "rev-parse", "--short", "HEAD"], ROOT) or "unknown"
    status = run_quiet(["git", "status", "--porcelain"], ROOT)
    dirty = "unknown" if status is None else ("true" if status else "false")
    args = [BINARY, *sys.argv[1:], "--commit", commit, "--dirty", dirty,
            "--source-sha256", source_hash()]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
