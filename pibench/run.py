#!/usr/bin/env python3
"""Build and run one workload of the Pi-tree benchmark.

Run from the root of a pitree checkout:

    python3 pibench/run.py --workload read-mostly --seed 1 --seconds 4 --trace 0

The benchmark (an OCaml executable in pibench/bin) is built from the
checkout's sources into .bench_build, then run once. Its standard output
is passed through: the last line is the result object
{"correct", "attempted", "failed", "metrics"}, the line before it stamps
the run (host core count, commit, OCaml version, full config, sample
counts). With --trace 1 the metrics are the per-layer ones and the spans
are written to .pibench_out/spans-<workload>.tsv.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the checkout or the arguments are unusable, the build's status
when the build failed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("read-mostly", "update-spill", "si-txn", "hb-spatial")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "pibench", "bin", "main.exe")
RUN_TIMEOUT_S = 170


def log(msg):
    print("pibench: " + msg, file=sys.stderr, flush=True)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def commit_id():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd, timeout, **kw):
    """Run [cmd] to completion; on timeout or interrupt, kill it and wait."""
    proc = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    old = signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % timeout)
        proc.kill()
        proc.wait()
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.signal(signal.SIGTERM, old)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2

    # The library under test must be in this checkout; never build against
    # anything else.
    if not (os.path.isfile("dune-project") and os.path.isfile("lib/env/env.mli")
            and os.path.isfile("pibench/bin/main.ml")):
        log("run from the root of a pitree checkout (dune-project, lib/ and pibench/)")
        return 2
    dune = dune_command()
    if dune is None:
        log("dune not found")
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    status = run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
                "--cache=disabled", "--display", "quiet", "./pibench/bin/main.exe"],
        timeout=880, env=env, stdout=sys.stderr,
    )
    if status != 0 or not os.path.isfile(EXE):
        log("build failed")
        return status or 1

    return run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", commit_id(), "--out-dir", ".pibench_out"],
        timeout=RUN_TIMEOUT_S,
    )


if __name__ == "__main__":
    sys.exit(main())
