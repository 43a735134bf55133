#!/usr/bin/env python3
"""Builds and runs the foldic benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `perfbench` and the `repro` daemon it drives (release, offline,
into $CARGO_TARGET_DIR, default .bench_build), then runs one workload.
The last line of standard output is the run's JSON result. Exits non-zero,
without a result, when the build or the run fails. Scratch files (design
snapshots, daemon logs, traces) go to .bench_work/.
"""

import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Runs cmd in a process group of its own and stops the whole group
    when it ends or times out, so no compiler or daemon outlives it.
    Returns (exit code, captured stdout or "")."""
    try:
        proc = subprocess.Popen(cmd, text=True, start_new_session=True, **kw)
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out or ""


def main():
    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        fail("run from the root of the repository checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest,
        "-p", "foldic-perfbench", "-p", "foldic-bench", "--bins",
    ]
    code = run_group(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)[0]
    if code != 0:
        fail(f"build failed with exit code {code}")

    exe = os.path.join(root, target, "release", "perfbench")
    cmd = [exe, *sys.argv[1:], "--work-dir", os.path.join(root, ".bench_work")]
    code, out = run_group(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"run failed with exit code {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("the run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
