#!/usr/bin/env python3
"""Build the ssp binary and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <engine_ff|engine_chaos|cluster_gateway|check> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build in the
checkout). The benchmark runs in its own session with this script as
child subreaper, so every process it starts -- including the cluster
node processes -- is killed and reaped on every exit path. The last
stdout line is the result object; the exit code is 0 only for a
correct run.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("engine_ff", "engine_chaos", "cluster_gateway", "check")
# Whole-run limit, builds included, once the first build is done.
RUN_LIMIT_S = 175
PR_SET_CHILD_SUBREAPER = 36


def build(manifest, target_dir, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def reap_all(group):
    """Kill the benchmark's process group and reap every descendant."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    root_manifest = os.path.join(root, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print("error: no Cargo.toml at the checkout root; nothing to build",
              file=sys.stderr)
        return 1
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    started = time.monotonic()
    if not build(root_manifest, target_dir, ["--bin", "ssp"]):
        print("error: building the ssp binary failed", file=sys.stderr)
        return 1
    if not build(os.path.join(here, "Cargo.toml"), target_dir, []):
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    built = time.monotonic() - started

    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--ssp-bin", os.path.join(release, "ssp"),
           "--work-dir", os.path.join(root, ".perfbench_work")]
    # Orphans of the benchmark (node processes whose parent died) are
    # re-parented here, so reap_all can collect them.
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # The first run in a checkout pays for the build; later runs must
    # finish inside the limit measured from now.
    limit = RUN_LIMIT_S if built > 30 else RUN_LIMIT_S - built
    try:
        out, _ = proc.communicate(timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        reap_all(proc.pid)
        proc.communicate()
        print(f"error: {args.workload} did not finish in {limit:.0f} s",
              file=sys.stderr)
        return 1
    finally:
        reap_all(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
