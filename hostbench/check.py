#!/usr/bin/env python3
"""Self-check of the host-cost benchmark, at tiny scale.

For every workload in BENCHMARK.json, runs hostbench/run.py twice traced and
once untraced at a tiny scale, and asserts that:

  * every run passes the correctness gate and prints its result line last;
  * the untraced run prints every end_to_end metric and the traced runs
    every per_layer metric, each with the unit BENCHMARK.json names;
  * the exact work counts repeat bit for bit between the two traced runs;
  * workloads with prefix reuse on report a prefix hit ratio above 0;
  * the traced run's spans load as trace-event-v1 (tools/trace_validate.py)
    and no child span leaves its parent's interval (run.py's own gate);
  * the benchmark refuses to run, without a result line, in a directory
    that holds only BENCHMARK.json and the benchmark's files.

Run from the repository root: python3 hostbench/check.py. Exit 0 = pass.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = ["--scale", "0.002", "--seconds", "0.2"]
# Workloads on shieldctl run's default path, where prefix forking is on.
PREFIX_REUSE = ("registry", "seed-sweep")
EXACT = ("sim.", "kernel.", "rt.", "fault.", "telemetry.",
         "config.result_bytes", "config.journal_records",
         "config.journal_bytes", "config.distinct_seed_results",
         "config.supervisor.")


def run(workload, trace, cwd="."):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace)] + TINY
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def result_line(proc, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0:
        raise AssertionError(f"{what}: not correct: {line}")
    return line


def expect_metrics(line, wanted, what):
    got = line["metrics"]
    for m in wanted:
        if m["name"] not in got:
            raise AssertionError(f"{what}: metric {m['name']} not printed")
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{what}: {m['name']} unit "
                                 f"{got[m['name']]['unit']} != {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        raise AssertionError(f"{what}: unexpected metrics {sorted(extra)}")


def trace_file(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("trace "):
            return line.split(" ", 1)[1]
    raise AssertionError("traced run printed no trace path")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        plain = result_line(run(w, 0), f"{w} --trace 0")
        expect_metrics(plain, bench["end_to_end"], f"{w} --trace 0")
        first, second = run(w, 1), run(w, 1)
        a = result_line(first, f"{w} --trace 1")
        b = result_line(second, f"{w} --trace 1 (repeat)")
        expect_metrics(a, bench["per_layer"], f"{w} --trace 1")
        ratio = a["metrics"]["config.prefix_hit_ratio"]["value"]
        if w in PREFIX_REUSE and not ratio > 0:
            raise AssertionError(f"{w}: prefix reuse on but hit ratio {ratio}")
        for name, v in a["metrics"].items():
            if name.startswith(EXACT) and v != b["metrics"][name]:
                raise AssertionError(f"{w}: count {name} differs between "
                                     f"runs: {v} vs {b['metrics'][name]}")
        validator = os.path.join("tools", "trace_validate.py")
        if os.path.exists(validator):
            subprocess.run([sys.executable, validator, trace_file(first)],
                           check=True)
        print(f"check: {w} ok")

    # Without the simulator sources the benchmark must fail cleanly.
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "check-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark ran without the simulator sources")
    print("check: refuses to run without sources ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.CalledProcessError) as e:
        print(f"check: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
