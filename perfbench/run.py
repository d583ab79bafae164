#!/usr/bin/env python3
"""Build and run the reseeding benchmark.

    python3 perfbench/run.py --workload reseed-cold|sweep-cold|serve-warm|all
                             --seed N [--seconds S] [--trace 0|1]

Builds the `fbist` CLI from the repository and the `perfbench` harness
(a package of its own in this directory) with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the harness. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the human-readable summary
goes to stderr. Stores live under `.bench_tmp/` and are removed when the
run ends; traced runs write their spans to `.bench_out/`.

`--workload all` runs every workload, each in its own process, and prints
one JSON object whose metrics are named `<workload>/<metric>`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tomllib

WORKLOADS = ("reseed-cold", "sweep-cold", "serve-warm")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def release_profile_env():
    """The repository's `[profile.release]` as CARGO_PROFILE_RELEASE_* variables.

    The harness is its own workspace, so without these it would compile the
    repository's crates with Cargo's default release profile instead of the
    one the repository sets.
    """
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif not isinstance(value, (int, str)):
            continue
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def build(env):
    for manifest, extra in (
        ("Cargo.toml", ["-p", "fbist-cli"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")


def stop_group(pgid):
    """Kills what is left of the harness's process group and waits for it."""
    deadline = time.monotonic() + 30
    sig = signal.SIGTERM
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.05)
        sig = signal.SIGKILL


def run_one(workload, args, target, env):
    """Runs the harness for one workload; returns its JSON result."""
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--fbist", os.path.join(target, "release", "fbist"),
        "--scratch", scratch,
    ]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{workload}-{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: harness exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates", "core"))):
        fail(f"no repository sources at {ROOT} (need Cargo.toml and crates/); nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target, **release_profile_env())
    build(env)

    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args, target, env)))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(workload, args, target, env)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
