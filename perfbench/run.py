#!/usr/bin/env python3
"""Builds and runs the performance benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the repository root. The library, aeetes_server and the
benchmark binary are built from source into .bench_build/ on first use.
The last line of standard output is the result object.

--quick runs every workload on tiny inputs, once untraced and once traced,
and checks that each prints every metric that BENCHMARK.json names, with
its unit, and that the output checks pass.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not gate on (see
# README.md); --quick covers them too.
UNGATED = ["usjob_batch", "dbworld_batch"]


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to the benchmark "
                 "(expected src/CMakeLists.txt); run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "aeetes", "aeetes_server"))


def run_once(binary, server, workload, seed, seconds, trace, quick):
    """Runs one workload; returns (exit code, stdout text)."""
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", server, "--workdir", WORKDIR]
    if quick:
        cmd.append("--quick")
    # Own process group, so the server it spawns goes down with it even
    # when the benchmark itself dies or times out.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "perfbench: run timed out\n", 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code, out


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def quick(binary, server):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            code, out = run_once(binary, server, name, 1, 2, trace, True)
            label = "%s trace=%d" % (name, trace)
            try:
                result = last_json(out)
            except ValueError:
                result = None
            if code != 0 or not result:
                problems.append("%s: exit %d\n%s" % (label, code, out[-2000:]))
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if not result.get("correct"):
                problems.append("%s: output checks failed" % label)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s: metrics %s, expected %s" %
                                (label, got, want))
            print("%-28s %s" % (label, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print("QUICK FAILED:", p)
    print("quick mode: %d problem(s)" % len(problems))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required (or --quick)")

    try:
        binary, server = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.quick:
        return quick(binary, server)
    code, out = run_once(binary, server, args.workload, args.seed,
                         args.seconds, args.trace, False)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
