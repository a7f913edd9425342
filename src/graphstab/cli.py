"""Command-line surface and every file format: the JSON documents of graphs,
states, local unitaries and the verification report, and the DOT form of graphs.

Exit codes: 0 success, 1 check failed or no witness found, 2 bad input or usage.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .entanglement import Bipartition, entropy, is_product_across, reduce
from .graphs import Graph
from .lc import enumerate_orbit, lc_search
from .localops import ATOL, LocalUnitary
from .nonlocality import lhv_contradiction_certificate, quantum_check
from .states import StateVector, build_graph_state
from .verify import (VerificationReport, build_chi00, ghz_constraints, ghz_origins,
                     verify_all)

T = TypeVar("T")


# --- documents ---

def _fields(data: object, kind: str, names: tuple[str, ...]) -> list:
    """The values of `names` in a `kind` document, which must be a JSON object holding each."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    for name in names:
        if name not in data:
            raise ValueError(f"missing field {name!r}")
    return [data[name] for name in names]


def _pair(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def graph_to_dict(g: Graph) -> dict:
    return {"vertices": list(g.names), "edges": [list(e) for e in g.edges()]}


def graph_from_dict(data: object) -> Graph:
    vertices, edges = _fields(data, "graph", ("vertices", "edges"))
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("field 'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise ValueError("field 'edges' must be a list of pairs")
    pairs = []
    for k, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise ValueError(f"edges[{k}]: expected a pair of labels")
        pairs.append((e[0], e[1]))
    try:
        return Graph.from_edges(vertices, pairs)
    except ValueError as exc:
        raise ValueError(f"edges/vertices: {exc}") from None


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}  # in any case


def _dot_id(name: str) -> str:
    """`name` bare if it is a non-keyword identifier, else quoted with `\\` and `"` escaped."""
    bare = name and (name[0].isalpha() or name[0] == "_") and all(c.isalnum() or c == "_" for c in name)
    if bare and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph, graph_name: str) -> str:
    lines = [f"graph {graph_name} {{"]
    for name in g.names:
        lines.append(f"  {_dot_id(name)};")
    for a, b in g.edges():
        lines.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines)


def state_to_dict(s: StateVector) -> dict:
    return {"n": s.n, "order": list(s.names), "amps": [_pair(a) for a in s.amps]}


def state_from_dict(data: object) -> StateVector:
    n, order, amps = _fields(data, "state", ("n", "order", "amps"))
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n' must be an integer")
    if not isinstance(order, list) or not all(isinstance(v, str) for v in order):
        raise ValueError("field 'order' must be a list of strings")
    if len(order) != n:
        raise ValueError(f"field 'n' ({n}) disagrees with 'order' length ({len(order)})")
    if not isinstance(amps, list):
        raise ValueError("field 'amps' must be a list of [re, im] pairs")
    if len(amps) != 2**n:
        raise ValueError(f"field 'amps': expected {2**n} entries, got {len(amps)}")
    values = np.empty(2**n, dtype=complex)
    for k, pair in enumerate(amps):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise ValueError(f"amps[{k}]: expected a [re, im] pair")
        try:
            values[k] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"amps[{k}]: number too large for a float") from None
    with np.errstate(over="ignore"):  # a norm past float range is inf, which StateVector rejects
        return StateVector(tuple(order), values)


def local_unitary_to_dict(u: LocalUnitary) -> dict:
    return {
        "global_phase": _pair(u.global_phase),
        "factors": [[[_pair(f[0, 0]), _pair(f[0, 1])], [_pair(f[1, 0]), _pair(f[1, 1])]]
                    for f in u.factors],
    }


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "tolerance": ATOL,
        "checks": [
            {"name": c.name, "anchor": c.anchor, "passed": c.passed, "details": c.details}
            for c in report.checks
        ],
    }


def report_to_table(report: VerificationReport) -> str:
    lines = []
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.anchor:<28}  {c.name}")
    done = sum(c.passed for c in report.checks)
    lines.append(f"{done}/{len(report.checks)} checks passed")
    return "\n".join(lines)


def load(path: str, parse: Callable[[object], T]) -> T:
    """Read, decode and parse one JSON file; every failure is a ValueError naming `path`."""
    try:
        return parse(json.loads(Path(path).read_bytes()))
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # bad encoding, schema, or nesting depth
        raise ValueError(f"{path}: {exc}") from None


def positive_int(text: str) -> int:
    """argparse type of an orbit --max option: a decimal integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _cmd_state(args: argparse.Namespace) -> int:
    if args.kind == "chi00":
        state = build_chi00()
    else:
        state = build_graph_state(load(args.graph_file, graph_from_dict))
    _emit(state_to_dict(state))
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    seed = load(args.graph_file, graph_from_dict)
    try:
        report = enumerate_orbit(seed, max_members=args.max)
    except RuntimeError as exc:  # a witness failed the dense check
        print(f"graphstab: {exc}", file=sys.stderr)
        return 1
    if args.format == "dot":
        blocks = []
        for i, member in enumerate(report.members):
            blocks.append(f"// member {i}, path: {','.join(member.path) or '(seed)'}")
            blocks.append(graph_to_dot(member.graph, f"member{i}"))
        print("\n".join(blocks))
        return 0
    _emit({
        "seed": graph_to_dict(report.seed),
        "truncated": report.truncated,
        "members": [
            {
                "graph": graph_to_dict(m.graph),
                "path": list(m.path),
                "witness": local_unitary_to_dict(m.witness),
            }
            for m in report.members
        ],
    })
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    state = load(args.state_file, state_from_dict)
    cut = Bipartition.of(state, tuple(name for name in args.cut.split(",") if name))
    rho = reduce(state, cut)
    _emit({
        "cut": list(cut.side_a),
        "complement": list(cut.side_b),
        "eigenvalues": [float(v) for v in np.linalg.eigvalsh(rho)[::-1]],
        "entropy_bits": entropy(rho),
        "product_across_cut": is_product_across(rho),
    })
    return 0


def _cmd_ghz_check(args: argparse.Namespace) -> int:
    chi = build_chi00()
    origins = ghz_origins()
    constraints = ghz_constraints()
    report = quantum_check(chi, constraints, origins)
    # the certificate exists iff the constraints are unsatisfiable
    contradiction, subset = lhv_contradiction_certificate(constraints)
    _emit({
        "settings": [
            {
                "origin": e.origin.to_text(),
                "constraint": e.constraint.to_text(),
                "expectation": e.expectation,
                "satisfied": e.satisfied,
            }
            for e in report.entries
        ],
        "quantum_all_satisfied": report.all_satisfied,
        "lhv_satisfiable": not contradiction,
        "contradiction": {"found": contradiction, "subset": list(subset)},
    })
    return 0 if report.all_satisfied and contradiction else 1


def _cmd_lc_search(args: argparse.Namespace) -> int:
    source = load(args.source, state_from_dict)
    witness = lc_search(source, load(args.target, state_from_dict))
    if not witness.found:
        _emit({"found": False})
        return 1
    _emit({
        "found": True,
        "order": list(source.names),
        "witness": local_unitary_to_dict(witness.unitary),
    })
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    report = verify_all()
    if args.json:
        _emit(report_to_dict(report))
    else:
        print(report_to_table(report))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphstab",
        description="Exact verification toolkit for graph states, stabilizer groups, "
                    "local-Clifford equivalence and GHZ-type nonlocality.",
        epilog="exit codes: 0 success, 1 check failed or no witness found, "
               "2 bad input or usage")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build reference states")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)
    p_build = state_sub.add_parser("build", help="emit a state as JSON")
    build_sub = p_build.add_subparsers(dest="kind", required=True)
    build_sub.add_parser("chi00", help="the paper's chi00 state").set_defaults(func=_cmd_state)
    p_graph = build_sub.add_parser("graph", help="the graph state of a graph JSON file")
    p_graph.add_argument("graph_file")
    p_graph.set_defaults(func=_cmd_state)

    p_orbit = sub.add_parser("orbit", help="enumerate the local-complementation orbit")
    p_orbit.add_argument("graph_file")
    p_orbit.add_argument("--max", type=positive_int, default=None, help="cap on member count")
    p_orbit.add_argument("--format", choices=["json", "dot"], default="json")
    p_orbit.set_defaults(func=_cmd_orbit)

    p_entropy = sub.add_parser("entropy", help="bipartite entanglement entropy of a state")
    p_entropy.add_argument("state_file")
    p_entropy.add_argument("--cut", required=True, help="comma-separated labels of one side")
    p_entropy.set_defaults(func=_cmd_entropy)

    p_ghz = sub.add_parser("ghz-check", help="quantum correlations vs. local hidden variables",
                           description="chi00's correlations, Eqs. (21)-(24), and their LHV "
                                       "contradiction, Eq. (25), decided by GF(2) elimination "
                                       "(verify-all also cross-checks it by an exhaustive scan)")
    p_ghz.set_defaults(func=_cmd_ghz_check)

    p_search = sub.add_parser("lc-search", help="exact local-Clifford equivalence search",
                              description="the first per-qubit Clifford assignment, in "
                                          "lexicographic order, that maps source to target "
                                          "up to global phase, from a scan of all 24^n; a "
                                          "pair whose Pauli spectra differ is answered "
                                          "without the scan")
    p_search.add_argument("source")
    p_search.add_argument("target")
    p_search.set_defaults(func=_cmd_lc_search)

    p_verify = sub.add_parser("verify-all", help="run the full verification battery")
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")
    p_verify.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"graphstab: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the flush
        # at interpreter exit cannot raise again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
