#!/usr/bin/env python3
"""Build the LEOTP benchmark from source and run one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload chain|manyflow|pathtrace \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into the tree's own _build directory
(the dune cache is disabled so nothing is written outside the tree),
then replaces itself with the benchmark process, whose last stdout line
is the JSON result.  Exits non-zero, without a result line, when the
LEOTP sources are missing or the build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    missing = [p for p in ("dune-project", "lib", os.path.join("bench", "main.ml"))
               if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: no LEOTP source tree here (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "./perfbench/main.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.chdir(root)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
