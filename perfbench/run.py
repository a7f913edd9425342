#!/usr/bin/env python3
"""Benchmark of the graphstab toolkit: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the directory holding ``src/graphstab``):

    python3 perfbench/run.py --workload orbit-census --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same inputs untraced and traced, replays each operation's layer calls
and reports the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record of the run (environment, seed, every input's properties, headline
numbers).  Spans of a traced run are written to ``.perfbench/`` in the
checkout after the run.  ``--tiny`` shrinks every workload for the self-test.
"""
from __future__ import annotations

import os

# One BLAS thread for this process and every child it starts; set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from inputs import Generator  # noqa: E402
from spans import LayerStats, NullTracer, Tracer, nearest_rank, tail_percentile  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Outcome, run_child  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
FIRST_CALL_REPEATS = 3

END_TO_END = [("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
              ("correct_frac", "frac"), ("peak_rss_mb", "MB")]

# (metric, unit, statistic, stats key, workload whose probe supplies it when the
# run's own operations never make that call)
PER_LAYER = [
    ("cli.interpreter_s", "s", "first", "cli.interpreter_s", None),
    ("cli.import_s", "s", "first", "cli.import_s", None),
    ("cli.verify_all_s", "s", "median", "cli.verify-all", "cli-cold"),
    ("cli.ghz_check_s", "s", "median", "cli.ghz-check", "cli-cold"),
    ("cli.state_chi00_s", "s", "median", "cli.state-chi00", "cli-cold"),
    ("cli.state_graph_s", "s", "median", "cli.state-graph", "cli-cold"),
    ("cli.entropy_s", "s", "median", "cli.entropy", "cli-cold"),
    ("cli.lc_search_s", "s", "median", "cli.lc-search", "cli-cold"),
    ("cli.orbit_s", "s", "median", "cli.orbit", "cli-cold"),
    ("cli.error_exit_s", "s", "median", "cli.error-exit", "cli-cold"),
    ("cli.main_warm_s", "s", "median", "cli.main_warm", "cli-cold"),
    ("cli.stdout_bytes", "count", "count", "cli.stdout_bytes", "cli-cold"),
    ("verify.verify_all_first_s", "s", "first", "verify.verify_all_first_s", None),
    ("verify.verify_all_warm_s", "s", "first", "verify.verify_all_warm_s", None),
    ("localops.clifford_group_first_s", "s", "first", "localops.clifford_group_first_s", None),
    ("localops.construct_us", "us", "median", "localops.construct", "orbit-census"),
    ("localops.compose_us", "us", "median", "localops.compose", "orbit-census"),
    ("graphs.local_complement_us", "us", "median", "graphs.local_complement", "orbit-census"),
    ("graphs.canonical_key_us", "us", "median", "graphs.canonical_key", "orbit-census"),
    ("graphs.construct_us", "us", "median", "graphs.construct", "orbit-census"),
    ("graphs.lc_moves", "count", "count", "graphs.lc_moves", "orbit-census"),
    ("graphs.new_member_ratio", "frac", "ratio", ("graphs.new_members", "graphs.lc_moves"), "orbit-census"),
    ("lc.search_first_extra_s", "s", "first", "lc.search_first_extra_s", None),
    ("lc.search_hit_n4_s", "s", "median", "lc.search_hit_n4", "lc-decide"),
    ("lc.search_hit_n5_s", "s", "median", "lc.search_hit_n5", "lc-decide"),
    ("lc.search_graph_miss_n4_s", "s", "median", "lc.search_graph_miss_n4", "lc-decide"),
    ("lc.search_graph_miss_n5_s", "s", "median", "lc.search_graph_miss_n5", "lc-decide"),
    ("lc.search_nonstab_miss_n4_s", "s", "median", "lc.search_nonstab_miss_n4", "lc-decide"),
    ("lc.search_nonstab_miss_n5_s", "s", "median", "lc.search_nonstab_miss_n5", "lc-decide"),
    ("lc.candidates_per_decision", "count", "count", "lc.candidates_per_decision", "lc-decide"),
    ("lc.tau_unitary_us", "us", "median", "lc.tau_unitary", "orbit-census"),
    ("lc.orbit_enum_s", "s", "median", "lc.orbit_enum", "orbit-census"),
    ("lc.orbit_dense_check_s", "s", "median", "lc.orbit_dense_check", "orbit-census"),
    ("states.build_graph_state_n6_us", "us", "median", "states.build_graph_state_n6", "ghz-census"),
    ("states.build_graph_state_n8_us", "us", "median", "states.build_graph_state_n8", "ghz-census"),
    ("states.apply_local_us", "us", "median", "states.apply_local", "ghz-census"),
    ("states.apply_pauli_us", "us", "median", "states.apply_pauli", "ghz-census"),
    ("states.expectation_us", "us", "median", "states.expectation", "ghz-census"),
    ("pauli.multiply_us", "us", "median", "pauli.multiply", "ghz-census"),
    ("pauli.conjugate_by_local_us", "us", "median", "pauli.conjugate_by_local", "ghz-census"),
    ("pauli.independent_us", "us", "median", "pauli.independent", "ghz-census"),
    ("pauli.elements", "count", "count", "pauli.elements", "ghz-census"),
    ("stabilizers.conjugate_set_us", "us", "median", "stabilizers.conjugate_set", "ghz-census"),
    ("stabilizers.stabilizes_us", "us", "median", "stabilizers.stabilizes", "ghz-census"),
    ("nonlocality.constraints", "count", "count", "nonlocality.constraints", "ghz-census"),
    ("nonlocality.quantum_check_s", "s", "median", "nonlocality.quantum_check", "ghz-census"),
    ("nonlocality.lhv_exhaustive_s", "s", "median", "nonlocality.lhv_exhaustive", "ghz-census"),
    ("nonlocality.lhv_certificate_s", "s", "median", "nonlocality.lhv_certificate", "ghz-census"),
    ("nonlocality.assignments_scanned", "count", "count", "nonlocality.assignments_scanned", "ghz-census"),
    ("entanglement.reduce_us", "us", "median", "entanglement.reduce", "ghz-census"),
    ("entanglement.entropy_us", "us", "median", "entanglement.entropy", "ghz-census"),
    ("entanglement.cuts", "count", "count", "entanglement.cuts", "ghz-census"),
    ("trace.overhead_frac", "frac", "own", "trace.overhead_frac", None),
    ("trace.unattributed_frac", "frac", "own", "trace.unattributed_frac", None),
]
SCALE = {"s": 1.0, "us": 1e6, "count": 1.0, "frac": 1.0}


class Context:
    """What the workloads share: paths, the children's environment, first-call timings."""

    def __init__(self, workdir: str) -> None:
        self.root = ROOT
        self.workdir = workdir
        self.child_env = {**os.environ, "PYTHONPATH": SRC}
        self.null_tracer = NullTracer()
        self.first_calls: dict[str, float] = {}


def environment(args) -> dict:
    import numpy
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "graphstab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def _child(args, env) -> tuple[float, bytes]:
    proc = run_child([sys.executable, *args], env, ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{args}: exit {proc.returncode}: {proc.stderr[-500:]!r}")
    return proc.seconds, proc.stdout


def measure_setup(ctx, workload: str, tiny: bool) -> list[float]:
    """Fresh interpreters, each through `import graphstab` and the workload's lazy tables.

    At least five, and up to fifteen while they have taken under four seconds,
    so that the cheap set-ups get more samples against start-up noise.
    """
    samples: list[float] = []
    while True:
        samples.append(_child([os.path.join(HERE, "child.py"), "setup", workload], ctx.child_env)[0])
        if tiny or len(samples) >= 15 or len(samples) >= 5 and sum(samples) >= 4.0:
            return samples


def measure_first_calls(ctx, repeats: int) -> dict:
    """First-call costs in fresh interpreters, each the median of `repeats` children."""
    samples: dict[str, list[float]] = {}
    for mode in ("first-calls", "verify-first"):
        for _ in range(repeats):
            _, stdout = _child([os.path.join(HERE, "child.py"), mode], ctx.child_env)
            for key, value in json.loads(stdout.decode().strip().splitlines()[-1]).items():
                samples.setdefault(key, []).append(value)
    out = {key: statistics.median(values) for key, values in samples.items()}
    bare = statistics.median(_child(["-c", "pass"], ctx.child_env)[0] for _ in range(2 * repeats))
    imp = statistics.median(_child(["-c", "import graphstab.cli"], ctx.child_env)[0]
                            for _ in range(2 * repeats))
    out["cli.interpreter_s"] = bare
    out["cli.import_s"] = imp - bare
    return out


def run_items(wl, items, tracer) -> list:
    done = []
    for item in items:
        try:
            out = wl.run(item, tracer)
        except Exception as exc:  # an operation that raised is a failure, not a crash of the run
            out = Outcome(error=f"{type(exc).__name__}: {exc}")
        done.append((item, out))
    return done


def timed_phase(wl, budget: float) -> tuple[list, list, list]:
    """Whole rounds of cycles until the operations have taken `budget` seconds
    and at least ten operations lie beyond the workload's tail percentile.

    Returns the (item, outcome) pairs of each cycle, one verdict row per
    operation, and each cycle's wall time.

    Each cycle's verdicts are checked after the cycle, outside the timed
    region and the results are dropped, so that the peak memory is one
    cycle's, not the run's.
    """
    done, rows, walls = [], [], []
    need = 0 if wl.tiny else math.ceil(10 / (1 - wl.tail_pct / 100))
    per_round = getattr(wl, "cycles_per_round", 1)
    while True:
        for _ in range(per_round):
            items = wl.cycle()
            gc.collect()  # every cycle starts from the same collector state
            t0 = perf_counter()
            batch = run_items(wl, items, wl.ctx.null_tracer)
            walls.append(perf_counter() - t0)
            rows += verdicts(wl, batch)
            for _, out in batch:
                out.result = None
            done.append(batch)
        if sum(walls) >= budget and len(rows) >= need:
            return done, rows, walls


def verdicts(wl, done) -> list[dict]:
    rows = []
    for item, out in done:
        ok = out.error is None and bool(wl.check(item, out))
        row = {**item.props(), "seconds": out.seconds, "units": out.units,
               "correct": ok, "failed": out.error is not None, "known_defect": out.known_defect}
        if hasattr(out.result, "maxrss_kb"):
            row["peak_rss_kb"] = out.result.maxrss_kb
        if out.error is None and hasattr(out.result, "stdout"):
            row["stdout_bytes"] = len(out.result.stdout)
        rows.append(row)
    return rows


def end_to_end(wl, cycles, rows, walls, setup, args) -> tuple[dict, dict]:
    done = [pair for batch in cycles for pair in batch]
    lat = [out.seconds / out.units for _, out in done if out.error is None]
    pct = min(wl.tail_pct, tail_percentile(len(lat)))
    rates = [sum(out.units for _, out in batch if out.error is None) / wall
             for batch, wall in zip(cycles, walls)]
    if args.workload == "cli-cold":  # the workload's own children, not the set-up ones
        rss_kb = max(r["peak_rss_kb"] for r in rows if "peak_rss_kb" in r)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": nearest_rank(lat, pct),
        "ops_per_s": statistics.median(rates),
        "correct_frac": sum(r["correct"] for r in rows) / len(rows),
        "peak_rss_mb": rss_kb / 1024,
    }
    extra = {"tail_percentile": pct, "samples": len(lat), "setup_samples_s": setup,
             "cycle_rates_per_s": rates, "busy_s": sum(walls),
             "fail_frac": sum(r["failed"] for r in rows) / len(rows)}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, extra


def layer_values(stats, first_calls: dict, own: dict) -> dict:
    out = {}
    for name, unit, kind, key, _ in PER_LAYER:
        if kind == "first":
            value = first_calls.get(key)
        elif kind == "own":
            value = own.get(key)
        elif kind == "median":
            value = stats.median(key)
        elif kind == "count":
            value = stats.mean_count(key)
        else:
            num, den = (sum(stats.counts.get(k, ())) for k in key)
            value = num / den if den else None
        if value is not None:
            out[name] = value * SCALE[unit]
    return out


def replay_traced(wl, traced, tracer, stats, deadline: float) -> tuple[float, float]:
    """Fold the op spans' children into `stats`, then replay each operation's
    layer calls until `deadline`; return outer op seconds and the seconds the
    layer calls cover."""
    child_time: dict[int, float] = {}
    for sid, parent, name, start, end in tracer.spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
            if tracer.spans[parent][2] == "op":
                stats.add(name, end - start)
    op_spans = [sid for sid, _, name, _, _ in tracer.spans if name == "op"]
    outer = covered = 0.0
    for (item, out), sid in zip(traced, op_spans):
        if out.error is not None:
            continue
        got = wl.replay(item, out, stats)
        outer += out.seconds
        covered += child_time.get(sid, 0.0) if got is None else got
        if perf_counter() > deadline:
            break
    return outer, covered


def traced_run(wl, args, ctx) -> tuple[dict, list, dict]:
    """Untraced and traced passes over the same inputs, replay, and probes for the rest."""
    ctx.first_calls = measure_first_calls(ctx, 1 if args.tiny else FIRST_CALL_REPEATS)
    # Each cycle runs untraced and then traced, so both passes see the same
    # inputs under the same conditions.
    tracer = Tracer()
    plain, traced, busy = [], [], 0.0
    while busy < args.seconds / 2:
        items = wl.cycle()
        gc.collect()
        t0 = perf_counter()
        plain += run_items(wl, items, ctx.null_tracer)
        busy += perf_counter() - t0
        gc.collect()
        traced += run_items(wl, items, tracer)
    stats = LayerStats()
    outer, covered = replay_traced(wl, traced, tracer, stats, perf_counter() + args.seconds / 2)
    own = {
        "trace.overhead_frac": (sum(o.seconds for _, o in traced) / sum(o.seconds for _, o in plain)) - 1,
        "trace.unattributed_frac": 1 - covered / outer if outer else None,
    }
    values = layer_values(stats, ctx.first_calls, own)
    sources = {name: args.workload for name in values}

    # Layers this workload never calls are timed on a small probe set drawn
    # from its own random stream, so the workload's inputs stay as they were.
    missing = [row for row in PER_LAYER if row[0] not in values]
    for owner in dict.fromkeys(row[4] for row in missing if row[4]):
        probe = WORKLOADS[owner](Generator(args.seed + 1_000_003), True, ctx)
        probe.warm()
        probe.warm_replay()
        probe_stats = LayerStats()
        probe_tracer = Tracer()
        replay_traced(probe, run_items(probe, probe.probe_items(), probe_tracer), probe_tracer,
                      probe_stats, float("inf"))
        for name, value in layer_values(probe_stats, ctx.first_calls, own).items():
            if name not in values and any(r[0] == name and r[4] == owner for r in missing):
                values[name] = value
                sources[name] = f"probe:{owner}"
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
    return metrics, traced, {"metric_sources": sources}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphstab", "__init__.py")):
        print(f"perfbench: no src/graphstab under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = Context(workdir)
        record = {"env": environment(args)}
        if args.trace:
            wl = WORKLOADS[args.workload](Generator(args.seed), args.tiny, ctx)
            wl.warm()
            wl.warm_replay()
            metrics, done, extra = traced_run(wl, args, ctx)
            rows = verdicts(wl, done)
        else:
            setup = measure_setup(ctx, args.workload, args.tiny)
            wl = WORKLOADS[args.workload](Generator(args.seed), args.tiny, ctx)
            wl.warm()
            cycles, rows, walls = timed_phase(wl, args.seconds)
            metrics, extra = end_to_end(wl, cycles, rows, walls, setup, args)
            done = [pair for batch in cycles for pair in batch]
            extra["headline"] = wl.headline([pair for pair in done if pair[1].error is None])
        record.update(extra)
        wrong = [r for r in rows if not r["correct"] and not r["failed"] and not r["known_defect"]]
        defects = sorted({r["kind"] for r in rows if r["known_defect"]})
        record["known_defects_seen"] = {k: KNOWN_DEFECTS[k] for k in defects}
        record["errors"] = [out.error for _, out in done if out.error][:5]
        record["inputs"] = rows
        print(json.dumps({"record": record}))
        failed = sum(r["failed"] for r in rows)
        print(json.dumps({"correct": not wrong and not failed, "attempted": len(rows),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
