#!/usr/bin/env python3
"""Build and run the benchmark defined in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/main.exe from source with dune (into $CARGO_TARGET_DIR
when set, else _build; the shared dune cache stays off so nothing is
written outside the checkout), runs it with the same arguments, and
checks that its last line carries exactly the metrics BENCHMARK.json
names for the mode. Exits non-zero, without a result, if the build
fails.
"""

import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
# A workload's run: set-up repetitions, the exact-count prefix and the
# end-of-run checks, plus the measured --seconds with room for the last
# piece of work to finish.
SETUP_ALLOWANCE_S = 90
SECONDS_MARGIN = 2


def run_timeout(argv):
    """Seconds the run may take, from its --workload and --seconds."""
    def arg(name):
        return argv[argv.index(name) + 1] if name in argv[:-1] else None
    try:
        seconds = max(0.0, float(arg("--seconds")))
    except (TypeError, ValueError):
        seconds = 0.0
    workloads = 1
    if arg("--workload") == "all":
        with open("BENCHMARK.json") as f:
            workloads = len(json.load(f)["workloads"])
    return workloads * (SETUP_ALLOWANCE_S + SECONDS_MARGIN * seconds)


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True,
                             timeout=run_timeout(argv))
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    return check_result(run.stdout, argv)


def check_result(out, argv):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    lines = out.strip().splitlines()
    if not lines:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["correct"] and got != want:
        print("perfbench: result metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
