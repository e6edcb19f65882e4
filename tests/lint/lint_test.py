#!/usr/bin/env python3
"""Tests for tools/lint/ompmca_lint.py.

Three assertions, mirroring the acceptance criteria:
  1. The seeded-violation fixture tree produces EXACTLY the expected
     findings, each reported once, with a non-zero exit.
  2. The clean fixture tree produces no findings and exit 0.
  3. The real repository tree lints clean (exit 0) — reintroducing a
     violation in src/ fails this test.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))
LINT = os.path.join(REPO, "tools", "lint", "ompmca_lint.py")

FAILURES = []


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc


def check(name, cond, detail=""):
    if cond:
        print(f"  PASS {name}")
    else:
        print(f"  FAIL {name}: {detail}")
        FAILURES.append(name)


def test_seeded_tree():
    print("seeded fixture tree:")
    proc = run_lint("--root", os.path.join(HERE, "fixtures"),
                    "--subdirs", "src")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    check("exit-nonzero", proc.returncode == 1,
          f"rc={proc.returncode} out={proc.stdout!r} err={proc.stderr!r}")

    seeded = os.path.join("src", "common", "seeded_violations.cpp")
    gomp = os.path.join("src", "gomp", "seeded_seq_cst.cpp")
    seam = os.path.join("src", "gomp", "seeded_obs_seam.cpp")
    expected = [
        (seeded, "[ignored-status]"),
        (seeded, "[hook-parity]"),   # acquire without release
        (seeded, "[hook-parity]"),   # region enter/exit mismatch
        (seeded, "[fault-parity]"),
        (seeded, "[no-tsa]"),
        (gomp, "[seq-cst]"),
        (seam, "[obs-seam]"),
    ]
    for path, rule in set(expected):
        want = expected.count((path, rule))
        got = sum(1 for l in lines if path in l and rule in l)
        check(f"{rule}@{os.path.basename(path)}x{want}", got == want,
              f"expected {want}, linter reported {got}:\n{proc.stdout}")
    check("no-extra-findings", len(lines) == len(expected),
          f"expected {len(expected)} lines, got {len(lines)}:\n{proc.stdout}")
    # Exactly once: no duplicated finding lines.
    check("each-reported-once", len(set(lines)) == len(lines),
          f"duplicate lines in:\n{proc.stdout}")
    # The justified seq_cst control in the same file must NOT be reported.
    check("justified-seq-cst-silent",
          sum(1 for l in lines if "[seq-cst]" in l) == 1, proc.stdout)
    # The sinks' own direct calls inside src/obs must NOT be reported.
    check("obs-sinks-inside-src-obs-silent",
          not any(l.startswith(os.path.join("src", "obs", "")) for l in lines),
          proc.stdout)


def test_clean_tree():
    print("clean fixture tree:")
    proc = run_lint("--root", os.path.join(HERE, "fixtures_clean"),
                    "--subdirs", "src")
    check("exit-zero", proc.returncode == 0,
          f"rc={proc.returncode}:\n{proc.stdout}")
    check("no-output", proc.stdout.strip() == "", proc.stdout)


def test_repo_tree():
    print("repository tree:")
    proc = run_lint()
    check("repo-lints-clean", proc.returncode == 0,
          f"rc={proc.returncode}:\n{proc.stdout}")


def main():
    test_seeded_tree()
    test_clean_tree()
    test_repo_tree()
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all lint-test checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
