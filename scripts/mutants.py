#!/usr/bin/env python3
"""Mutation gate: every listed fault must make its named test fail.

Each entry of the mutant list (scripts/mutants.json by default) plants one
fault: an exact `find` snippet in `file`, which must occur exactly once,
replaced by `replace`. The script copies the tree to a work directory
(never touching the checkout), builds it once, checks that every named
test passes on the clean copy, then for each mutant in turn patches the
copy, rebuilds `target` incrementally and runs it with `--gtest_filter`
set to `filter`. A test that fails, crashes or outlives its timeout kills
the mutant (a planted livelock shows up as a timeout). Afterwards the file
is restored.

The gate fails if any mutant survives, if a snippet no longer matches
exactly once (a refactor must update its mutant, not drop it), if a
mutant does not compile, or if a named test fails on the clean copy.

Usage:
  python3 scripts/mutants.py [--work DIR] [--list FILE] [--source DIR]

The work directory (default: lserve-mutants under the system temp dir)
is reused between runs: only files whose content changed are re-copied,
so a second run rebuilds incrementally. Exit codes: 0 every mutant
killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_TIMEOUT_S = 120
JOBS = os.cpu_count() or 1


def tracked_files(source: Path) -> list[str]:
    """Files git tracks plus untracked, unignored ones (new sources)."""
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=source, check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines()
            if line and (source / line).is_file()]


def sync_tree(source: Path, work: Path) -> None:
    """Mirrors the source tree into `work`, copying only changed files so
    unchanged sources keep their timestamps and the build stays warm."""
    for rel in tracked_files(source):
        src, dst = source / rel, work / rel
        data = src.read_bytes()
        if dst.is_file() and dst.read_bytes() == data:
            continue
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(data)
        shutil.copymode(src, dst)


def run(cmd: list[str], cwd: Path, timeout: float | None = None
        ) -> tuple[int | None, str]:
    """Returns (exit code, output); the code is None on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        out, _ = proc.communicate()
        return None, out


def build(build_dir: Path, targets: list[str]) -> tuple[bool, str]:
    code, out = run(["cmake", "--build", str(build_dir), "-j", str(JOBS),
                     "--target", *targets], cwd=build_dir)
    return code == 0, out


def run_test(build_dir: Path, mutant: dict) -> tuple[int | None, str]:
    binary = build_dir / "tests" / mutant["target"]
    return run([str(binary), f"--gtest_filter={mutant['filter']}"],
               cwd=build_dir,
               timeout=mutant.get("timeout_s", DEFAULT_TIMEOUT_S))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source", type=Path, default=REPO,
                        help="tree to mutate a copy of (default: this repo)")
    parser.add_argument("--list", type=Path,
                        default=REPO / "scripts" / "mutants.json")
    parser.add_argument("--work", type=Path,
                        default=Path(tempfile.gettempdir()) / "lserve-mutants")
    args = parser.parse_args()

    mutants = json.loads(args.list.read_text())
    source = args.source.resolve()
    work = args.work.resolve()
    if work == source or source in work.parents:
        sys.exit("mutants.py: --work must lie outside the source tree")
    tree = work / "tree"
    build_dir = work / "build"
    tree.mkdir(parents=True, exist_ok=True)
    sync_tree(source, tree)

    failures: list[str] = []
    originals: dict[str, str] = {}
    for m in mutants:
        text = (tree / m["file"]).read_text()
        count = text.count(m["find"])
        if count != 1:
            failures.append(f"{m['name']}: snippet occurs {count} times in "
                            f"{m['file']} (must be exactly once)")
        originals[m["file"]] = text
    if failures:
        print("\n".join(failures))
        return 1

    if not (build_dir / "CMakeCache.txt").is_file():
        code, out = run(["cmake", "-B", str(build_dir), "-S", str(tree),
                         "-DLSERVE_BUILD_BENCH=OFF",
                         "-DLSERVE_BUILD_EXAMPLES=OFF"], cwd=work)
        if code != 0:
            print(out)
            return 1
    targets = sorted({m["target"] for m in mutants})
    ok, out = build(build_dir, targets)
    if not ok:
        print(out[-4000:])
        print("mutants.py: the clean copy does not build")
        return 1
    for key in sorted({(m["target"], m["filter"]) for m in mutants}):
        code, out = run_test(build_dir, {"target": key[0], "filter": key[1]})
        if code != 0:
            print(out[-4000:])
            print(f"mutants.py: {key[0]} --gtest_filter={key[1]} fails on "
                  "the clean copy")
            return 1

    for m in mutants:
        path = tree / m["file"]
        path.write_text(originals[m["file"]].replace(m["find"], m["replace"]))
        start = time.monotonic()
        try:
            ok, out = build(build_dir, [m["target"]])
            if not ok:
                print(out[-4000:])
                failures.append(f"{m['name']}: the mutant does not compile")
                continue
            code, out = run_test(build_dir, m)
        finally:
            path.write_text(originals[m["file"]])
        verdict = ("killed (timeout)" if code is None
                   else "killed" if code != 0 else "SURVIVED")
        print(f"{m['name']:<10} {verdict:<17} {m['target']} "
              f"--gtest_filter={m['filter']} "
              f"({time.monotonic() - start:.1f} s)", flush=True)
        if code == 0:
            failures.append(f"{m['name']}: survived {m['target']} "
                            f"--gtest_filter={m['filter']}")
    # Leave the copy clean for the next incremental run.
    build(build_dir, targets)

    if failures:
        print("\n".join(failures))
        return 1
    print(f"mutants.py: all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
