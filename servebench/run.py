#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

    python3 servebench/run.py --workload chat_multiturn --seed 1 --seconds 45 --trace 0

Run from the repository root. The first run configures and builds the
lserve library and the benchmark binary (CMake, Release) into the directory
named by CARGO_TARGET_DIR, or .bench_build; later runs only check that the
build is up to date. The workload's traffic parameters come from
servebench/setup.json. Build output goes to stderr, so the binary's JSON
result stays the last line of stdout. The exit code is the binary's.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds (library and benchmark)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def workload_args(setup, name):
    w = setup["workloads"][name]
    span = lambda key: f"{w[key][0]}:{w[key][1]}"
    return [
        "--prefix-tokens", str(w["prefix_tokens"]),
        "--prompt", span("prompt"),
        "--followup", span("followup"),
        "--reply", span("reply"),
        "--turns", span("turns"),
        "--think-ms", span("think_ms"),
        "--rate", repr(w["rate"]),
        "--sat-rate", repr(w["sat_rate"]),
        "--open-share", repr(w["open_share"]),
        "--closed-share", repr(w["closed_share"]),
        "--ttft-slo-ms", repr(w["ttft_slo_ms"]),
        "--tpot-slo-ms", repr(w["tpot_slo_ms"]),
        "--replay-sessions", str(w["replay_sessions"]),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "setup.json")) as f:
        setup = json.load(f)
    if args.workload not in setup["workloads"]:
        fail(f"unknown workload {args.workload!r}; "
             f"have {', '.join(setup['workloads'])}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--trace-dir", trace_dir]
    cmd += workload_args(setup, args.workload)
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
