#!/usr/bin/env python3
"""Build and run the od-serve end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds `od-serve` (the root workspace's
release build skips it) and the benchmark package into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark,
which prints one JSON result as its last line. The run is killed, with
every process it started, if it outlives its time limit.
"""

import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("e2ebench", "Cargo.toml")
# A run must end within 180 s; keep a margin for reaping.
RUN_LIMIT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    # The benchmark drives the workspace's own service: without it there
    # is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        fail("no od-serve sources in this checkout (crates/serve is missing)")
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "od-serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", MANIFEST],
    ):
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
        if result.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return (
        os.path.join(target_dir, "release", "od-e2ebench"),
        os.path.join(target_dir, "release", "od-serve"),
    )


def main():
    target_dir = os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")
    )
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
        os.environ["CARGO_TARGET_DIR"] = target_dir
    bench, serve = build(target_dir)
    # A session of its own, so a timeout can kill the benchmark and the
    # od-serve children it spawned together.
    child = subprocess.Popen(
        [bench, *sys.argv[1:], "--serve-bin", serve], cwd=ROOT, start_new_session=True
    )
    try:
        code = child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        kill_group(child)
        fail(f"run exceeded {RUN_LIMIT_S} s and was killed")
    except KeyboardInterrupt:
        kill_group(child)
        raise
    sys.exit(code)


def kill_group(child):
    """Kills the run's process group and waits until it is gone."""
    os.killpg(child.pid, signal.SIGKILL)
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
