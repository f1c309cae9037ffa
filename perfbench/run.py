#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the perfbench binary from
source (into $CARGO_TARGET_DIR, default .bench_build) and runs the workload
defined in perfbench/workloads.json: one repetition per process, cycling
through the seed's cities until each has run and --seconds are spent
(--trace 1 alternates untraced and traced repetitions of the first city).
It checks that repetitions of a city agree, checks each city's digest
against perfbench/reference.json when one is recorded for that workload and
seed, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones.

The line before it records provenance (nproc, rustc, source revision, load
average at start), and each result set is appended to
.bench_out/results.jsonl. It exits 0 only when the result is correct.

Extra options: --smoke runs the workload's small smoke size; --record
stores this untraced run's per-city digests as the reference for the
workload and seed.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Digest of every source file the benchmark builds from."""
    h = hashlib.sha256()
    files = sorted(
        p
        for pattern in ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml", "perfbench/**/*")
        for p in ROOT.glob(pattern)
        if p.is_file() and "__pycache__" not in p.parts
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(load_at_start):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": source_sha256(),
        "loadavg_at_start": load_at_start,
    }


def reference_problem(references, size, workload, seed, digests):
    """Why the per-city `digests` fail the recorded reference, or None if
    they pass. A traced run covers the first city only."""
    expected = references.get(size, {}).get(workload, {}).get(str(seed))
    if expected is None:
        print(f"run.py: no reference digest for {workload} seed {seed} ({size}); "
              "checked repeatability only", file=sys.stderr)
        return None
    if expected[: len(digests)] != digests:
        return f"digests {digests} differ from the reference {expected}"
    return None


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    binary = target_dir / "release" / "perfbench"
    if not binary.is_file():
        fail(f"no binary at {binary}")
    return binary


def quantile(values, q):
    """The q-quantile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_rep(binary, seed, city, traced, params, timeout):
    """One repetition in a fresh process: its JSON record, or None."""
    cmd = [str(binary), "--seed", str(seed), "--city", str(city), "--trace", str(int(traced))]
    for key, value in params.items():
        cmd += ["--param", f"{key}={value}"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"run.py: city {city} did not finish in time", file=sys.stderr)
        return None
    try:
        rep = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        rep = None
    if done.returncode != 0 or rep is None:
        print(f"run.py: city {city} failed (exit {done.returncode})", file=sys.stderr)
        return None
    rep["city"], rep["traced"] = city, traced
    return rep


def measure(binary, args, params, cities, min_reps):
    """Runs repetitions, cycling through the cities, until every city has
    run, `min_reps` are done and the time budget is spent. A traced run
    alternates untraced and traced repetitions."""
    started = time.monotonic()
    plain, traced, longest, broken = [], [], 0.0, 0
    while True:
        done = len(traced) >= max(min_reps, 2) if args.trace else len(plain) >= max(min_reps, cities)
        step = longest * (2 if args.trace else 1)
        if done and time.monotonic() - started + step > args.seconds:
            break
        t = time.monotonic()
        left = RUN_TIMEOUT_S - (t - started)
        if left <= 0:
            fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
        city = len(plain) % cities
        for traced_rep, reps in [(False, plain)] + ([(True, traced)] if args.trace else []):
            rep = run_rep(binary, args.seed, city, traced_rep, params, left - (time.monotonic() - t))
            if rep is None:
                broken += 1
                if broken > 2:
                    fail("repetitions keep failing")
                continue
            reps.append(rep)
        longest = max(longest, (time.monotonic() - t) / (2 if args.trace else 1))
    return plain, traced, broken


def repeat_failures(plain, traced):
    """Repetitions that miss their city's digest or simulated counts, and
    traced repetitions whose layer counts differ from the first traced one."""
    first = {r["city"]: r for r in first_per_city(plain)}
    failed = 0
    for rep in plain + traced:
        ref = first[rep["city"]]
        if rep["digest"] != ref["digest"] or rep["exact"][:4] != ref["exact"][:4]:
            print(f"run.py: city {rep['city']} digest {rep['digest']} differs from {ref['digest']}", file=sys.stderr)
            failed += 1
    for rep in traced[1:]:
        if rep["exact"] != traced[0]["exact"]:
            print("run.py: traced counts differ between repetitions", file=sys.stderr)
            failed += 1
    return failed


def first_per_city(reps):
    firsts = {}
    for rep in reps:
        firsts.setdefault(rep["city"], rep)
    return [firsts[city] for city in sorted(firsts)]


def end_to_end(plain, horizon_s):
    firsts = first_per_city(plain)
    total = [sum(r["exact"][i] for r in firsts) for i in range(4)]
    pings_sent, pings_received, connects, connect_failures = total
    slices = [v for r in plain for v in r["slices_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_ms_per_sim_s": statistics.median(r["wall_ms"] / horizon_s for r in plain),
        "slice_ms_p50": quantile(slices, 0.5),
        "slice_ms_p90": quantile(slices, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        # Simulated failures, summed over the seed's cities.
        "msg_fail_ratio": 1 - pings_received / pings_sent if pings_sent else math.nan,
        "connect_fail_ratio": connect_failures / connects if connects else math.nan,
    }


def per_layer(plain, traced):
    # The traced repetition with the median wall time is reported whole, so
    # its self times, callback times and untraced time add up to its wall.
    pick = sorted(traced, key=lambda r: r["wall_ms"])[(len(traced) - 1) // 2]
    layers = dict(pick["layers"])
    wall = lambda reps: statistics.median(r["wall_ms"] for r in reps)  # noqa: E731
    layers["trace_overhead"] = wall(traced) / wall(plain) - 1
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    load_at_start = list(os.getloadavg())

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in defs:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(defs)}")
    workload = defs[args.workload]
    params = dict(workload["params"])
    if args.smoke:
        params.update(workload["smoke"])
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    binary = build(target_dir)

    # A traced run stays on city 0, so its repetitions compare count for count.
    cities = 1 if args.trace else workload["cities"]
    # At smoke size every city runs twice, so repeatability is checked in-run.
    min_reps = 2 * cities if args.smoke else 1
    plain, traced, broken = measure(binary, args, params, cities, min_reps)

    failed = broken + repeat_failures(plain, traced)
    problems = [f"{failed} repetition(s) failed"] if failed else []
    digests = [r["digest"] for r in first_per_city(plain)]
    size = "smoke" if args.smoke else "full"
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.record and not args.trace:
        references.setdefault(size, {}).setdefault(args.workload, {})[str(args.seed)] = digests
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    else:
        problem = reference_problem(references, size, args.workload, args.seed, digests)
        if problem:
            problems.append(problem)
            failed = len(plain) + len(traced)

    raw = per_layer(plain, traced) if args.trace else end_to_end(plain, params["horizon_s"])
    metrics = {}
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        value = raw.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} missing or not finite: {value!r}")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(plain) + len(traced) + broken,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "provenance": provenance(load_at_start),
        "digests": digests,
        "reps": [{k: r[k] for k in ("city", "traced", "setup_s", "wall_ms", "peak_rss_mb")} for r in plain + traced],
    }
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps({"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "args": vars(args),
                            **info, "all_metrics": raw, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
