#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 servebench/run.py --workload ecosystem_wire --seed 1 --seconds 10 --trace 0

Workloads: ecosystem_wire, cold_label, tiered_churn. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones. The build goes to
.bench_build/dune (release profile, dune cache off) and the run's scratch
files (journals, the Unix socket) to .bench_build/run; both stay inside
the checkout. The last line of standard output is the result JSON.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.stderr.write(
            "servebench: no dune-project and lib/ beside servebench/; "
            "run from the root of a checkout of the repository\n"
        )
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("servebench: dune not found on PATH\n")
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(BUILD, "xdg-cache"),
    )
    build = subprocess.run(
        [
            dune, "build", "--root", ROOT,
            "--build-dir", os.path.join(BUILD, "dune"),
            "--profile", "release",
            "./servebench/servebench.exe",
        ],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("servebench: build failed\n")
        return 2
    exe = os.path.join(BUILD, "dune", "default", "servebench", "servebench.exe")
    # Relative run directory: keeps the Unix socket path short.
    args = [exe] + sys.argv[1:] + ["--dir", os.path.join(".bench_build", "run")]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("servebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
