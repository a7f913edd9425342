#!/usr/bin/env python3
"""Census of a local-complementation orbit.

Enumerates the orbit of the built-in 4-cycle (or of a graph JSON file) with
every witness checked against the dense engine (`enumerate_orbit(...,
verify=True)`), and prints one line per member with its path and edge list.
A witness that fails the check exits 1 with one line on stderr.
"""
import argparse
from collections import Counter

from graphstab import enumerate_orbit
from graphstab import reference
from graphstab.cli import load, positive_int
from graphstab.graphs import graph_from_dict


def census(graph_file: str | None, max_members: int | None) -> None:
    seed = load(graph_file, graph_from_dict) if graph_file else reference.graph_a()
    report = enumerate_orbit(seed, max_members=max_members, verify=True)
    print(f"seed edges: {list(seed.edges())}")
    print(f"orbit size: {len(report.members)}  truncated: {report.truncated}")
    for i, member in enumerate(report.members):
        path = ",".join(member.path) or "(seed)"
        print(f"  [{i:2d}] edges={member.graph.edge_count()}  path={path:<12} "
              f"{list(member.graph.edges())}")
    hist = Counter(m.graph.edge_count() for m in report.members)
    print(f"edge-count histogram: {dict(sorted(hist.items()))}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("graph_file", nargs="?", help="graph JSON; default: built-in 4-cycle")
    parser.add_argument("--max", type=positive_int, default=None)
    args = parser.parse_args()
    try:
        census(args.graph_file, args.max)
    except ValueError as exc:  # an unreadable or invalid graph file: exit 2, as the CLI does
        parser.exit(2, f"{parser.prog}: {exc}\n")
    except RuntimeError as exc:  # a witness failed the dense check
        parser.exit(1, f"{parser.prog}: {exc}\n")


if __name__ == "__main__":
    main()
