"""Command-line surface.

Exit codes: 0 success, 1 check failed or no witness found, 2 bad input or usage.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from . import reference
from .entanglement import Bipartition, entropy, is_product_across, reduce
from .graphs import graph_from_dict, graph_to_dict, graph_to_dot
from .lc import enumerate_orbit, lc_search
from .localops import local_unitary_to_dict
from .nonlocality import lhv_contradiction_certificate, quantum_check
from .states import build_chi00, build_graph_state, state_from_dict, state_to_dict
from .verify import verify_all

T = TypeVar("T")


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
        if args.graph_file is not None:
            raise ValueError("state build chi00 takes no file argument")
        state = build_chi00()
    else:
        if args.graph_file is None:
            raise ValueError("state build graph requires a graph JSON file")
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
        "product_across_cut": is_product_across(state, cut),
    })
    return 0


def _cmd_ghz_check(args: argparse.Namespace) -> int:
    chi = build_chi00()
    origins = reference.ghz_origins()
    constraints = reference.ghz_constraints()
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
        print(report.to_json())
    else:
        print(report.to_table())
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
    p_build.add_argument("kind", choices=["chi00", "graph"])
    p_build.add_argument("graph_file", nargs="?", help="graph JSON (kind=graph only)")
    p_build.set_defaults(func=_cmd_state)

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
    sys.exit(main())


if __name__ == "__main__":
    entry()
