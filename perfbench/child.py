"""Work done in a fresh interpreter, where first-call costs are still unpaid.

    python3 perfbench/child.py setup <workload>   import and warm up as the workload does
    python3 perfbench/child.py first-calls         print first-call timings as JSON
    python3 perfbench/child.py verify-first        print cold and warm verify_all timings as JSON

``graphstab`` must be importable (the parent sets PYTHONPATH to the
checkout's ``src``).
"""
from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import oracle


def _paper_pair(gs):
    """|G_b> and chi00 as the package's states, built from the oracle's amplitudes."""
    gb = oracle.graph_state(4, oracle.rows_from_edges(4, oracle.PAPER_GB))
    return (gs.StateVector(oracle.PAPER_LABELS, gb),
            gs.StateVector(oracle.PAPER_LABELS, oracle.paper_chi00()))


def setup(workload: str) -> None:
    if workload == "cli-cold":
        import graphstab.cli  # noqa: F401  the module every command imports
    import graphstab as gs
    if workload in ("cli-cold", "lc-decide"):
        gs.lc_search(*_paper_pair(gs))  # builds the batched tail table
    elif workload == "orbit-census":
        gs.enumerate_orbit(gs.Graph(oracle.PAPER_LABELS, oracle.rows_from_edges(4, oracle.PAPER_CYCLE)))
    elif workload == "ghz-census":
        u = gs.LocalUnitary(1.0, tuple(oracle.cliffords()[i] for i in (20, 23, 23, 16)))
        gs.conjugate_set(u, gs.graph_generators(
            gs.Graph(oracle.PAPER_LABELS, oracle.rows_from_edges(4, oracle.PAPER_GB))))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def first_calls() -> dict:
    import graphstab as gs
    t0 = perf_counter()
    gs.single_qubit_cliffords()
    t1 = perf_counter()
    source, target = _paper_pair(gs)
    gs.lc_search(source, target)
    t2 = perf_counter()
    warm = []
    for _ in range(3):
        t = perf_counter()
        gs.lc_search(source, target)
        warm.append(perf_counter() - t)
    return {"localops.clifford_group_first_s": t1 - t0,
            "lc.search_first_extra_s": (t2 - t1) - statistics.median(warm)}


def verify_first() -> dict:
    import graphstab as gs
    t0 = perf_counter()
    gs.verify_all()
    first = perf_counter() - t0
    warm = []
    for _ in range(3):
        t = perf_counter()
        gs.verify_all()
        warm.append(perf_counter() - t)
    return {"verify.verify_all_first_s": first, "verify.verify_all_warm_s": statistics.median(warm)}


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "first-calls":
        print(json.dumps(first_calls()))
    elif mode == "verify-first":
        print(json.dumps(verify_first()))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
