#!/usr/bin/env python3
"""Host-cost benchmark of the shieldsim simulator: one command per workload.

Builds the measuring binary (hostbench/hostbench.cpp plus the library from src/) with
CMake, runs one workload for --seconds of host time, checks the outputs and
prints every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 hostbench/run.py --workload registry --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 re-runs the workload
with spans recorded, adds a traced stage pass and reports the per-layer
metrics, writing the spans as trace-event-v1 next to the run record.

Run from the repository root. Build output and run records go under
$CARGO_TARGET_DIR (default .bench_build). Stdlib only.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("registry", "stress-serial", "observed", "seed-sweep")
TAIL = 0.90  # scenario_s_p90: ten or more scenarios lie beyond it per run

# test_paper_claims' shape checks. The fig5 floor and the fig6 <
# preempt-lowlat < fig5 order need the sample counts test_paper_claims
# checks them at (scale 0.05 and 0.02); the other bounds hold at any scale.
MS, US = 1_000_000, 1_000


def shape_checks(probes, scale):
    """Return a list of violated claims (empty when every check passes)."""
    bad = []
    by = {}
    for p in probes:
        by.setdefault(p["campaign"], {})[p["name"]] = p
    for campaign, specs in sorted(by.items()):
        at = f" (root seed #{campaign})"
        f5, f6 = specs.get("fig5"), specs.get("fig6")
        pl = specs.get("preempt-lowlat")
        if f5 and not f5["max_ns"] < 95 * MS:
            bad.append(f"fig5 max {f5['max_ns']} ns >= 95 ms" + at)
        if f5 and scale >= 0.05 and not f5["max_ns"] > 5 * MS:
            bad.append(f"fig5 max {f5['max_ns']} ns <= 5 ms" + at)
        if f6 and not f6["max_ns"] < 1 * MS:
            bad.append(f"fig6 max {f6['max_ns']} ns >= 1 ms" + at)
        for name in ("fig7", "fig7-quad"):
            p = specs.get(name)
            if p and not p["max_ns"] < 100 * US:
                bad.append(f"{name} max {p['max_ns']} ns >= 100 us" + at)
            if p and not p["min_ns"] > 3 * US:
                bad.append(f"{name} min {p['min_ns']} ns <= 3 us" + at)
        if f5 and f6 and pl and scale >= 0.02 and not (
                f6["max_ns"] < pl["max_ns"] < f5["max_ns"]):
            bad.append("fig6 < preempt-lowlat < fig5 (max) violated" + at)
    return bad


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_root):
    """Configure + build hostbench; returns the binary path."""
    bdir = os.path.join(build_root, "hostbench")
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources (src/) in " + root)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "hostbench")


def fingerprint(root, build_root):
    fp = {"nproc": os.cpu_count(), "cpu_model": "unknown", "cpu_mhz": None}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and fp["cpu_model"] == "unknown":
                    fp["cpu_model"] = val.strip()
                elif key == "cpu MHz" and fp["cpu_mhz"] is None:
                    fp["cpu_mhz"] = float(val)
    except OSError:
        pass
    fp["git_rev"] = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            fp["git_rev"] = r.stdout.strip()
    # Identifies the code in checkouts that are not git repositories.
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    fp["source_sha256"] = h.hexdigest()[:16]
    fp["cmake_build_type"] = "unknown"
    cache = os.path.join(build_root, "hostbench", "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    fp["cmake_build_type"] = line.split("=", 1)[1].strip()
    return fp


def pct(values, q):
    """Nearest-rank percentile (rank = ceil(q * n))."""
    v = sorted(values)
    return v[max(1, math.ceil(q * len(v))) - 1]


def end_to_end(raw):
    ps = raw["passes"]
    scen = [s for p in ps for s in p["scenario_s"]]
    # Rates are totals over every pass of the run (work / time).
    wall = sum(p["wall_s"] for p in ps)
    events = sum(p["events"] for p in ps)
    return {
        "scenarios_per_min": (sum(p["ok"] for p in ps) / wall * 60, "1/min"),
        "sim_events_per_s": (events / wall, "1/s"),
        "host_ns_per_event": (sum(p["cpu_s"] for p in ps) * 1e9 / events,
                              "ns"),
        "sim_s_per_host_s": (sum(p["sim_s"] for p in ps) / wall, "s/s"),
        # Each pass's median scenario, averaged over the run's passes: host
        # speed switches between regimes within a run, and a median taken
        # across passes (or over pooled scenarios, which with an even spec
        # count sits on the boundary between two specs) snaps to one of them.
        "scenario_s_p50": (statistics.fmean(
            statistics.median(p["scenario_s"]) for p in ps), "s"),
        "scenario_s_p90": (pct(scen, TAIL), "s"),
        # Each pass's fastest set-up (a pass sets up once, or once per root
        # seed on seed-sweep), median over passes. A supervised campaign's
        # set-up lands in steps of ~3.8 ms as host scheduling delays worker
        # spawn; any average or median over campaigns snaps between steps.
        "setup_s": (statistics.median(min(p["setup_s"]) for p in ps), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw):
    ps, st = raw["passes"], raw["stage"]
    first = ps[0]
    hits = sum(p["prefix_hits"] for p in ps)
    tries = hits + sum(p["prefix_misses"] for p in ps)
    waits = [w for p in ps for w in p["queue_wait_s"]]
    events, counts = st["events"], st["counts"]
    m = {
        "config.build_ms": (st["build_ms"], "ms"),
        "config.simulate_ns_per_event": (st["simulate_ns_per_event"], "ns"),
        "config.extract_ms": (st["extract_ms"], "ms"),
        "config.serialize_ms": (st["serialize_ms"], "ms"),
        "config.parse_ms": (st["parse_ms"], "ms"),
        "config.runner_self_ms": (st["runner_self_ms"], "ms"),
        "config.queue_wait_s": (statistics.fmean(waits), "s"),
        "config.worker_busy_share": (
            statistics.median(p["busy_share"] for p in ps), "share"),
        "config.prefix_hit_ratio": (hits / tries if tries else 0.0, "share"),
        "config.result_bytes": (first["result_bytes"], "bytes"),
        "config.supervisor.spawns": (first["spawns"], "count"),
        "config.supervisor.respawns": (first["respawns"], "count"),
        "config.supervisor.requeues": (first["requeues"], "count"),
        "config.journal_records": (first["journal_records"], "count"),
        "config.journal_bytes": (first["journal_bytes"], "bytes"),
        "config.distinct_seed_results": (raw["distinct_seed_results"],
                                         "count"),
        "sim.events": (raw["events"], "count"),
        "sim.events_per_sim_s": (raw["events"] / raw["sim_s"], "1/s"),
        "trace.overhead_share": (st["overhead_share"], "share"),
    }
    for name in ("kernel.syscalls", "kernel.switches", "kernel.hardirqs",
                 "kernel.softirqs_raised", "kernel.lock_acquisitions",
                 "kernel.lock_contentions", "kernel.oob_preemptions"):
        m[name] = (counts[name] * 1000 / events, "1/kevent")
    for name in ("rt.samples", "fault.fired", "telemetry.sampler_points",
                 "telemetry.blame_samples"):
        m[name] = (counts[name], "count")
    return m


def span_report(doc):
    """Per-span-name total and self time; raises if a child leaves its
    parent's interval. Self time = duration minus the union of the
    children's intervals."""
    spans = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            a = e["args"]
            spans[a["id"]] = (e["name"], a["ns"], a["ns"] + a["dur_ns"],
                              a["parent"])
    kids = {}
    for sid, (name, s, t, parent) in spans.items():
        if parent < 0:
            continue
        _, ps, pt, _ = spans[parent]
        if s < ps or t > pt:
            raise RuntimeError(f"span {name!r} [{s},{t}] exceeds its parent "
                               f"[{ps},{pt}]")
        kids.setdefault(parent, []).append((s, t))
    rows = {}
    for sid, (name, s, t, _) in spans.items():
        covered, end = 0, s
        for cs, ct in sorted(kids.get(sid, [])):
            cs = max(cs, end)
            if ct > cs:
                covered += ct - cs
                end = ct
        key = name.split(" ")[0]
        tot, slf, n = rows.get(key, (0, 0, 0))
        rows[key] = (tot + t - s, slf + t - s - covered, n + 1)
    return rows


def gate(raw):
    """Correctness gate: a list of failures (empty = correct)."""
    bad = []
    for i, p in enumerate(raw["passes"]):
        bad += [f"pass {i}: {f}" for f in p["failed"]]
        if p["digest"] != raw["digest"]:
            bad.append(f"pass {i}: digest {p['digest']} != {raw['digest']} "
                       "(same seed, different results)")
    if "inprocess_digest" in raw:
        if raw["inprocess_digest"] != raw["digest"]:
            bad.append(f"supervised digest {raw['digest']} != in-process "
                       f"{raw['inprocess_digest']}")
        if raw["inprocess_events"] != raw["events"]:
            bad.append("supervised and in-process event counts differ")
    bad += shape_checks(raw["probes"], raw["scale"])
    return bad


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="override the workload's scale (the check uses it)")
    args = ap.parse_args(argv[1:])

    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        binary = build(root, build_root)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"hostbench: build failed: {e}")
        return 1

    stamp = time.strftime("%Y%m%dT%H%M%S")
    runs = os.path.join(build_root, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    trace_path = os.path.join(runs, tag + ".trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--specs", os.path.join(BENCH_DIR, "specs"),
           "--tmp", os.path.join(build_root, "tmp", tag)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("hostbench: binary timed out")
        return 1
    finally:
        shutil.rmtree(os.path.join(build_root, "tmp", tag), ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"hostbench: binary exited {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout)

    failures = gate(raw)
    spans = None
    if args.trace and not failures:
        with open(trace_path) as f:
            try:
                spans = span_report(json.load(f))
            except RuntimeError as e:
                failures.append(str(e))
    attempted = sum(p["attempted"] for p in raw["passes"])
    failed = sum(len(p["failed"]) for p in raw["passes"])
    metrics = {}
    if not failures:
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record_path = os.path.join(runs, tag + ".json")
    with open(record_path, "w") as f:
        json.dump({
            "schema": "hostbench-run-v1",
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": fingerprint(root, build_root),
            "binary_build_type": raw["build_type"],
            "calibration_s": raw["calibration"],
            "digest": raw["digest"], "failures": failures,
            "metrics": metrics,
            "span_ns": ({k: {"total": t, "self": s, "count": n}
                         for k, (t, s, n) in spans.items()}
                        if spans else None),
            "raw": raw,
        }, f, indent=1)

    print(f"workload {args.workload} seed {args.seed} scale {raw['scale']}: "
          f"{len(raw['passes'])} passes, {attempted} scenarios")
    print(f"digest {args.workload} {raw['digest']}")
    c = raw["calibration"]
    print(f"calibration {c['before_s']:.4f} s before, {c['after_s']:.4f} s "
          f"after; record {record_path}")
    if failures:
        for f in failures:
            log(f"hostbench: incorrect: {f}")
        return 1
    if spans:
        print(f"{'span':<10} {'count':>6} {'total_ms':>10} {'self_ms':>10}")
        for k, (t, s, n) in sorted(spans.items(), key=lambda r: -r[1][1]):
            print(f"{k:<10} {n:>6} {t / 1e6:>10.2f} {s / 1e6:>10.2f}")
        print(f"trace {trace_path}")
    for k, v in metrics.items():
        print(f"{k:<32} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
