#!/usr/bin/env python3
"""The repository benchmark: three workloads over the icn-repro pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py selftest
    python3 perfbench/run.py compare <results-a.jsonl> <results-b.jsonl>

Run from the root of the repository. A run builds the `perfbench` package
(CARGO_TARGET_DIR, default `.bench_build`), then starts one fresh process
per measured iteration with ICN_THREADS=2 (1 for `ingest_faulty_feed`,
see E2E_THREADS), so each iteration's peak RSS is its own. `--trace 0`
runs two iterations, and another while it would still end within
`--seconds`, and reports medians of the end-to-end metrics.
Iteration i runs on the campaign of seed `--seed` + i: how much work a
campaign takes varies with its seed (TreeSHAP by up to a fifth), so a run
takes the median over several campaigns rather than repeating one.
`--trace 1` makes the traced pass on the campaign of `--seed`: one
untraced iteration and one traced iteration at ICN_THREADS=1 and at 2,
giving the per-layer metrics. Every output is checked; the last line of
standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A human-readable table,
which includes `failed_frac`, goes to standard error. Each run also appends
its full record, stamped with the machine it ran on, to
`perfbench/out/results.jsonl`.

`selftest` runs every workload once at a tiny scale with all checks, and
checks that every emitted name is declared in BENCHMARK.json. `compare`
pairs the runs of two results files by workload and seed, refuses pairs
measured on different machines or settings, and reports each metric
against its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

THREADS = 2  # ICN_THREADS of the end-to-end runs and of the traced pass
# End-to-end ICN_THREADS where it differs from THREADS. At 2 threads the
# faulty feed's ~32,600 short chunks each spawn and join two scoped
# threads, so its wall time is mostly cross-CPU wake-ups: on a shared
# 2-vCPU host that rose from 6.5 s to 15-26 s for minutes at a time while
# CPU time rose a quarter. The 2-thread cost stays measured, per layer, by
# the traced pass's `ingest.pipeline.speedup`.
E2E_THREADS = {"ingest_faulty_feed": 1}
SCALE = 1.0  # the paper's population
SETUP_REPS = 3  # input generations timed per iteration
MIN_ITERATIONS = 2  # end-to-end iterations per run, each on its own campaign
SMOKE_SCALE = 0.08
CHILD_TIMEOUT_S = 170

# Layers whose ICN_THREADS=1 / ICN_THREADS=2 time ratio is reported.
SPEEDUP_LAYERS = [
    "shap.batch",
    "forest.fit",
    "cluster.agglomerate",
    "forecast.series",
    "temporal.cluster_heatmap",
    "ingest.pipeline",
    "ingest.clean_pipeline",
]
# Layers whose allocator peak growth is reported (the rest allocate little).
PEAK_LAYERS = [
    "synth.generate",
    "synth.record_stream",
    "core.rsca",
    "cluster.condensed",
    "cluster.agglomerate",
    "cluster.sweep_k",
    "forest.fit",
    "shap.batch",
    "core.outdoor",
    "forecast.series",
    "forecast.models",
    "temporal.cluster_heatmap",
    "temporal.service_heatmap",
    "ingest.pipeline",
]
# Stamp fields that must match for two results to be compared.
PAIRING_KEYS = [
    "available_parallelism",
    "cpu_model",
    "build_profile",
    "icn_threads",
    "scale",
    "days",
    "seed",
]


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds both benchmark binaries; returns the release directory."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        raise BenchError("no crates/ next to perfbench/: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(target, "release")


def child(bin_dir, workload, seed, threads, traced, scale, setup_reps):
    """Runs one iteration in a fresh process and returns its JSON record."""
    exe = os.path.join(bin_dir, "perfbench_traced" if traced else "perfbench")
    cmd = [exe, workload, "--seed", str(seed), "--scale", repr(scale),
           "--setup-reps", str(setup_reps)]
    env = dict(os.environ, ICN_THREADS=str(threads))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} iteration exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_all(records, failures):
    """Counts each iteration's own checks plus one fingerprint check per
    iteration that repeats an earlier one's campaign: outputs of one
    campaign must hash alike in every iteration, traced or not, at either
    thread count."""
    attempted = 0
    first = {}
    for r in records:
        attempted += int(r["checks_attempted"])
        failures.extend(f"{r['workload']}: {f}" for f in r["check_failures"])
        seed = r["stamp"]["seed"]
        if seed not in first:
            first[seed] = r
            continue
        attempted += 1
        if r["fingerprint"] != first[seed]["fingerprint"]:
            failures.append(
                f"seed {seed}: fingerprint {r['fingerprint']} (threads "
                f"{r['stamp']['icn_threads']}, traced {r['traced']}) != "
                f"{first[seed]['fingerprint']}")
    return attempted


def end_to_end(records):
    setup = [s for r in records for s in r["setup_s"]]
    med = lambda key: statistics.median(float(r[key]) for r in records)
    return {
        "setup_s": statistics.median(setup),
        "run_s": med("run_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "records_per_s": statistics.median(r["records"] / r["run_s"] for r in records),
    }


def per_layer(plain, t1, t2):
    """Per-layer metrics of the traced pass; layers a workload does not call
    read 0."""
    walls = lambda r: {k: v["wall_s"] for k, v in r["layers"].items()}
    w1, w2 = walls(t1), walls(t2)
    m = {f"{layer}_s": w for layer, w in w2.items()}
    m.update({f"{layer}.peak_mb": v["peak_mb"] for layer, v in t2["layers"].items()
              if layer in PEAK_LAYERS})
    m.update(t2["counts"])
    for layer in SPEEDUP_LAYERS:
        if w2.get(layer, 0) > 0:
            m[f"{layer}.speedup"] = w1[layer] / w2[layer]
    if w2.get("shap.batch", 0) > 0:
        m["shap.samples_per_s"] = t2["counts"]["shap.samples"] / w2["shap.batch"]
    m["obs.overhead_frac"] = t2["run_s"] / plain["run_s"] - 1.0
    m["trace.unattributed_frac"] = 1.0 - t2["attributed_s"] / plain["run_s"]
    return m


def measure(bin_dir, workload, seed, seconds, trace, scale):
    """One benchmark run; returns (metrics, attempted, failures, records)."""
    failures = []
    if trace:
        plain = child(bin_dir, workload, seed, THREADS, False, scale, 1)
        t1 = child(bin_dir, workload, seed, 1, True, scale, 1)
        t2 = child(bin_dir, workload, seed, THREADS, True, scale, 1)
        records = [plain, t1, t2]
        metrics = per_layer(plain, t1, t2)
    else:
        # MIN_ITERATIONS always run; another only while it, as long as the
        # last one, would still end within `seconds`.
        records = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            records.append(child(bin_dir, workload, seed + len(records),
                                 E2E_THREADS.get(workload, THREADS), False, scale,
                                 SETUP_REPS))
            now = time.monotonic()
            if len(records) >= MIN_ITERATIONS and now - start + (now - t0) > seconds:
                break
        metrics = end_to_end(records)
    attempted = check_all(records, failures)
    return metrics, attempted, failures, records


def shape_metrics(spec, metrics, trace):
    """Orders the metrics as BENCHMARK.json declares them, filling layers
    the workload does not call with 0; fails on any undeclared name."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    extra = sorted(set(metrics) - names)
    if extra:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {extra}")
    missing = sorted(names - set(metrics))
    if missing and not trace:
        raise BenchError(f"end-to-end metrics not measured: {missing}")
    bad = [n for n in metrics if not NAME.match(n)]
    if bad:
        raise BenchError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    return {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared}


def summary(workload, seed, shaped, attempted, failed, n_iter):
    lines = [f"perfbench {workload} seed {seed}: {n_iter} iteration(s)"]
    for name, m in shaped.items():
        lines.append(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    frac = failed / attempted
    lines.append(f"  {'failed_frac':<36} {frac:>16.6g} 1  ({failed} of {attempted} checks failed)")
    print("\n".join(lines), file=sys.stderr)


def cmd_run(opts):
    spec = load_spec()
    if opts.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {opts.workload}")
    if opts.seconds < 1:
        raise BenchError("--seconds must be at least 1")
    bin_dir = build()
    metrics, attempted, failures, records = measure(
        bin_dir, opts.workload, opts.seed, opts.seconds, opts.trace == 1, SCALE)
    shaped = shape_metrics(spec, metrics, opts.trace == 1)
    failed = len(failures)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    summary(opts.workload, opts.seed, shaped, attempted, failed, len(records))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps({
            "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
            "seconds": opts.seconds, "stamp": records[0]["stamp"], "metrics": shaped,
            "attempted": attempted, "failures": failures,
            "iterations": [{"seed": r["stamp"]["seed"],
                            **{k: r[k] for k in ("traced", "setup_s", "run_s", "cpu_s",
                                                 "peak_rss_mb", "records", "fingerprint")}}
                           for r in records],
        }) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shaped}))


def cmd_selftest():
    """Tiny-scale smoke run of every workload, both passes, all checks,
    plus the name checks on BENCHMARK.json and on every emitted metric."""
    spec = load_spec()
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"duplicate name {n!r}" for n in set(names) if names.count(n) > 1]
    bin_dir = build()
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                metrics, attempted, failures, _ = measure(
                    bin_dir, w["name"], 7, 1, trace == 1, SMOKE_SCALE)
                shape_metrics(spec, metrics, trace == 1)
                problems += failures
                status = "ok" if not failures else "FAILED"
                print(f"selftest {w['name']} trace {trace}: {attempted} checks, {status}",
                      file=sys.stderr)
            except BenchError as e:
                problems.append(f"{w['name']} trace {trace}: {e}")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest " + ("passed" if not problems else "FAILED"), file=sys.stderr)
    return 0 if not problems else 1


def cmd_compare(path_a, path_b):
    """Pairs runs by (workload, trace, seed); refuses a pair whose stamps
    differ in anything but the git commit. For each end-to-end metric it
    prints both medians, the share by which B is worse, and how many pairs
    B won, and flags a metric worse by more than its bound."""
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def load(path):
        with open(path) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        return {(r["workload"], r["trace"], r["seed"]): r for r in rows}

    a, b = load(path_a), load(path_b)
    keys = sorted(set(a) & set(b))
    if not keys:
        raise BenchError("no (workload, trace, seed) appears in both files")
    for k in keys:
        diff = [f for f in PAIRING_KEYS if a[k]["stamp"].get(f) != b[k]["stamp"].get(f)]
        if diff:
            raise BenchError(f"refusing to pair {k}: stamps differ in {diff}")
    regressed = False
    for workload, trace in sorted({(k[0], k[1]) for k in keys}):
        pairs = [(a[k], b[k]) for k in keys if k[:2] == (workload, trace)]
        print(f"{workload} (trace {trace}, {len(pairs)} pairs)")
        for name in pairs[0][0]["metrics"]:
            va = [p[0]["metrics"][name]["value"] for p in pairs]
            vb = [p[1]["metrics"][name]["value"] for p in pairs]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if better[name] == "lower" else -1.0
            worse = sign * (mb - ma) / abs(ma) if ma else 0.0
            wins = sum(sign * (y - x) < 0 for x, y in zip(va, vb))
            flag = ""
            if name in bound and worse > bound[name]:
                flag, regressed = "  REGRESSED", True
            print(f"  {name:<36} {ma:>14.6g} -> {mb:<14.6g} worse by {worse:+.3f}"
                  f"  B wins {wins}/{len(pairs)}{flag}")
    return 2 if regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        return cmd_selftest()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            raise BenchError("usage: run.py compare <results-a.jsonl> <results-b.jsonl>")
        return cmd_compare(sys.argv[2], sys.argv[3])
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmd_run(p.parse_args())
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
