#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; paths resolve against the repository root. The script
builds the `perfbench` crate from source (release profile, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs one measurement per
workload in a private directory under `.perfbench/` with
`RAYON_NUM_THREADS=1`. The binary's last line of standard output is the
result object; results and traced spans are also kept in
`.perfbench/results/`. Each run gets its own process group, which is
emptied and waited for before the script exits, so no shard worker
outlives a run, not even after a crash or a timeout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["screen-er", "point-tm", "ingest-er", "pair-bx"]
RUN_TIMEOUT_S = 170
GUARDED = ("CNE_FAULT_PLAN", "CNE_FORCE_PORTABLE_KERNELS")


def refuse_overrides():
    """Fault plans, forced portable kernels and retry overrides each make
    a different program from the one being measured."""
    bad = [k for k in os.environ if k in GUARDED or k.startswith("CNE_CLUSTER_")]
    if bad:
        sys.stderr.write(
            "run.py: refusing to measure with %s set\n" % ", ".join(sorted(bad))
        )
        sys.exit(3)


def capture(cmd, env=None):
    try:
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=30, check=True
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def empty_group(pgid):
    """Kills whatever is left in process group `pgid` and waits for it."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.05)


def run_one(binary, env, workload, args, index):
    run_dir = os.path.join(".perfbench", "run-%d-%d" % (os.getpid(), index))
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", run_dir,
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s timed out after %d s\n" % (workload, RUN_TIMEOUT_S))
        empty_group(proc.pid)
        proc.wait()
        rc = 124
    except BaseException:
        empty_group(proc.pid)
        proc.wait()
        raise
    finally:
        empty_group(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
    # A run killed by a signal reports -N; exit as a shell would (128 + N).
    return rc if rc >= 0 else 128 - rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    os.chdir(ROOT)
    refuse_overrides()

    env = dict(os.environ)
    env["RAYON_NUM_THREADS"] = "1"
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        sys.exit(build.returncode or 4)
    binary = os.path.join(target, "release", "perfbench")

    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"], env)
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    env["PERFBENCH_COMMIT"] = capture(["git", "-C", ROOT, "rev-parse", "HEAD"], git_env)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for index, workload in enumerate(workloads):
        worst = max(worst, run_one(binary, env, workload, args, index))
    sys.exit(worst)


if __name__ == "__main__":
    main()
