#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each workload.

    python3 perfbench/summarize.py [--seeds 201-210] [--out FILE]
    python3 perfbench/summarize.py --compare perfbench/results/baseline.json --seeds 909090 [--out FILE]

From the root of a checkout, over every workload ``BENCHMARK.json`` lists.
The first form reports, for every end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, next to the bound in ``BENCHMARK.json``; it also collects
the ROADMAP's north-star numbers, as medians over the seeds of the runs'
headline values: the cold ``verify-all`` subprocess, the n = 8 ring orbit and
the n = 4 and n = 5 ``lc_search`` misses; and, from one traced run of
``cli-cold``, the cold and warm in-process ``verify_all``.  The default seeds
are the ones ``results/baseline.json`` was measured on.

The second form runs one seed per workload and compares each metric with the
medians of an earlier summary: ``vs_median`` is (value - median) / median and
``within_bound`` applies the metric's bound in its worse direction.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
BASELINE_SEEDS = "201-210"
NORTH_STAR = {
    "cli-cold": ["verify_all_cold_s"],
    "orbit-census": ["ring8_orbit_s", "orbit_members_per_s"],
    "lc-decide": ["lc_miss_n4_p50_s", "lc_miss_n5_p50_s", "lc_hit_p50_s"],
    "ghz-census": ["unsat_p50_s", "sat_p50_s"],
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                                 "--trace", str(trace)], capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(spec: dict, seeds: list[int]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": f"{seeds[0]}-{seeds[-1]}", "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        heads: dict[str, list[float]] = {}
        records = []
        digests: set = set()
        for seed in seeds:
            record, result = run(workload, seed, spec["run_seconds"], 0)
            records.append(record)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name in NORTH_STAR[workload]:
                heads.setdefault(name, []).append(record["headline"][name])
            digests.add(record["headline"].get("verify_all_json_sha256"))
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                          "values": vals}
            print(f"{workload:13s} {name:13s} median={med:.6g} spread={spread:.4f} bound={bounds[name]}")
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "north_star": {k: statistics.median(v) for k, v in heads.items()},
            "env": {k: records[0]["env"][k] for k in ("commit", "source_sha256", "python", "numpy", "nproc")},
        }
        if workload == "cli-cold":
            # `verify-all --json` must be byte-identical across runs, not only within one
            summary["workloads"][workload]["verify_all_json_sha256"] = sorted(digests)
            if len(digests) != 1:
                print(f"verify-all --json differs across runs: {sorted(digests)}")
            _, traced = run(workload, seeds[0], spec["run_seconds"], 1)
            summary["workloads"][workload]["north_star"].update(
                {k: traced["metrics"][k]["value"] for k in ("verify.verify_all_first_s", "verify.verify_all_warm_s")})
    summary["machine"] = {"platform": platform.platform(), "processor": platform.processor() or None,
                          "nproc": os.cpu_count()}
    return summary


def compare(spec: dict, seed: int, reference: dict) -> dict:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seed": seed, "reference_seeds": reference["seeds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        _, result = run(workload, seed, spec["run_seconds"], 0)
        metrics = {}
        for name, m in result["metrics"].items():
            med = reference["workloads"][workload]["end_to_end"][name]["median"]
            rel = (m["value"] - med) / med
            worse = -rel if better[name] == "higher" else rel
            metrics[name] = {"value": m["value"], "vs_median": round(rel, 4), "within_bound": worse <= bounds[name]}
            print(f"{workload:13s} {name:13s} value={m['value']:.6g} vs_median={rel:+.4f} "
                  f"within_bound={metrics[name]['within_bound']}")
        out["workloads"][workload] = {**{k: result[k] for k in ("correct", "attempted", "failed")},
                                      "metrics": metrics}
    return out


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=BASELINE_SEEDS, help="first-last, or one seed with --compare")
    parser.add_argument("--compare", metavar="SUMMARY", help="compare one seed with this summary's medians")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    if args.compare:
        if len(seeds) != 1:
            parser.error("--compare takes one seed")
        with open(args.compare) as fh:
            summary = compare(spec, seeds[0], json.load(fh))
    else:
        summary = summarize(spec, seeds)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
