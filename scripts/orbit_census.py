#!/usr/bin/env python3
"""Census of a local-complementation orbit.

Enumerates the orbit of the built-in 4-cycle (or of a graph JSON file),
prints one line per member with its path and edge list, and re-verifies
every witness against the dense engine.
"""
import argparse
import json
from collections import Counter

from graphstab import apply_local, build_graph_state, enumerate_orbit, equal_up_to_global_phase
from graphstab import reference
from graphstab.cli import positive_int
from graphstab.graphs import graph_from_dict


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("graph_file", nargs="?", help="graph JSON; default: built-in 4-cycle")
    parser.add_argument("--max", type=positive_int, default=None)
    args = parser.parse_args()

    if args.graph_file:
        with open(args.graph_file) as fh:
            seed = graph_from_dict(json.load(fh))
    else:
        seed = reference.graph_a()

    report = enumerate_orbit(seed, max_members=args.max)
    seed_state = build_graph_state(seed)
    print(f"seed edges: {list(seed.edges())}")
    print(f"orbit size: {len(report.members)}  truncated: {report.truncated}")
    for i, member in enumerate(report.members):
        ok = equal_up_to_global_phase(apply_local(member.witness, seed_state),
                                      build_graph_state(member.graph))
        path = ",".join(member.path) or "(seed)"
        print(f"  [{i:2d}] edges={member.graph.edge_count()}  path={path:<12} "
              f"witness={'ok' if ok else 'BAD'}  {list(member.graph.edges())}")
    hist = Counter(m.graph.edge_count() for m in report.members)
    print(f"edge-count histogram: {dict(sorted(hist.items()))}")


if __name__ == "__main__":
    main()
