#!/usr/bin/env python3
"""Build and run the COMPACT benchmark from the root of a checkout.

    python3 perfbench/run.py --workload mip-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke            # every workload once, minimal size
    python3 perfbench/run.py --selftest         # the bench's own arithmetic
    python3 perfbench/run.py --compare OLD NEW  # layer diff of two result sets

A run builds the program and the bench with dune, runs one workload and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.  A traced run (--trace 1) also checks its
trace with `compact_cli trace-check`.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/compact_cli.exe"
OUT = "perfbench/_run"
RUN_TIMEOUT = 175
BUILD_TIMEOUT = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of a COMPACT checkout (dune-project, lib/ or bin/ missing)")
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/compact_cli.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)
    os.makedirs(OUT, exist_ok=True)


def run_group(argv, timeout=RUN_TIMEOUT):
    """Run argv in its own process group, so a timeout also stops any
    daemon it spawned; returns (exit code, stdout)."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("%s timed out after %d s" % (" ".join(argv), timeout))
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return p.returncode, out


def run_workload(workload, seed, seconds, trace, smoke=False):
    argv = [BENCH, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--cli", CLI, "--out", OUT] + (["--smoke"] if smoke else [])
    code, out = run_group(argv)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("%s exited %d without a result" % (workload, code))
    result = json.loads(lines[-1])
    if trace:
        trace_file = os.path.join(OUT, "trace-%s.jsonl" % workload)
        check = [CLI, "trace-check", trace_file] + ([] if workload == "serve-mixed" else ["--expect-stages"])
        r = subprocess.run(check, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        lines[-1:-1] = r.stdout.rstrip("\n").split("\n")
        if r.returncode != 0:
            result["correct"] = False
            result["failed"] += 1
    return lines[:-1], result


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bad = 0
    for w in spec["workloads"]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, result = run_workload(w["name"], 1, 1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in table}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in want if k in got and got[k] != want[k])))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("result keys %s" % sorted(result))
            if not result["correct"] or result["attempted"] < 1:
                problems.append("correct=%s attempted=%s" % (result["correct"], result["attempted"]))
            if trace == 0:
                problems += ["%s is 0" % k for k, v in result["metrics"].items() if v["value"] == 0]
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("smoke %-12s trace=%d: %s" % (w["name"], trace, status))
            bad += bool(problems)
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    build()
    if args.selftest:
        return subprocess.run([BENCH, "selftest"]).returncode
    if args.compare:
        return subprocess.run([BENCH, "compare"] + args.compare).returncode
    if args.smoke:
        return smoke()
    if not args.workload:
        fail("give --workload, --smoke, --selftest or --compare")
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
