#!/usr/bin/env python3
"""Build and run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
perfbench/perfbench.exe with dune (shared cache off, so nothing is written
outside the checkout), runs it once, and passes its output through. The
executable's last line is the result: one JSON object with the keys
correct, attempted, failed and metrics. Before printing it, the script
checks that the metric names and units are exactly those BENCHMARK.json
lists (end_to_end without --trace, per_layer with --trace 1); on any
failure it prints no result and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        env=env,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 3)
    return proc.returncode, out


def source_revision():
    """The git revision, or a digest of the sources in a plain checkout."""
    if os.path.isdir(".git"):
        try:
            return subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root: BENCHMARK.json not found")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    for needed in ["dune-project", "lib", "perfbench/dune"]:
        if not os.path.exists(needed):
            fail("not a source checkout: %s is missing" % needed)

    env = dict(os.environ, DUNE_CACHE="disabled")
    started = time.monotonic()
    code, _ = run_group(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S, env=env)
    if code != 0:
        fail("build failed (exit %d)" % code, 4)
    print("build: %.1f s" % (time.monotonic() - started), file=sys.stderr)

    code, out = run_group(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--nproc", str(len(os.sched_getaffinity(0))),
         "--rev", source_revision()],
        RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if code != 0:
        fail("perfbench.exe exited with %d" % code, 5)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: %r" % lines[-1][:200], 6)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result), 6)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(expected) - set(got)),
            sorted(n for n in got if expected.get(n) != got[n])), 6)
    print(lines[-1])


if __name__ == "__main__":
    main()
