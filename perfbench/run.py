#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe with dune (build
log on stderr), then runs it with the given arguments; its last line of
standard output is the JSON result. NAME is bpt-write, bpt-read-zipf,
bst-shared or all. See perfbench/README.md.
"""

import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.join(os.path.expanduser("~"), ".opam", "*", "bin", "dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: no dune-project at %s; run from a full checkout" % ROOT)
    dune = find_dune()
    if dune is None:
        sys.exit("run.py: dune not found")
    env = dict(os.environ)
    # dune finds the compiler and libraries through PATH.
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    # --cache=disabled: build only inside the checkout, not in dune's
    # shared cache under the home directory.
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--cache=disabled", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
