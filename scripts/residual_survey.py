#!/usr/bin/env python3
"""Measure the actual floating-point residuals behind every amplitude-level
identity in the verification battery, far below the 1e-9 acceptance gate.

Useful when deciding how much tolerance headroom the dense engine has.
"""
import numpy as np

from graphstab import (apply_local, apply_pauli, build_chi00, build_graph_state,
                       lc_search, tau_unitary)
from graphstab import verify
from graphstab.states import expectation, max_residual


def main() -> None:
    ga, gb = verify.graph_a(), verify.graph_b()
    chi = build_chi00()
    state_a, state_b = build_graph_state(ga), build_graph_state(gb)
    u_chi = verify.chi00_unitary()

    rows = []
    rows.append(("tau unitary on the 4-cycle",
                 max_residual(apply_local(tau_unitary(ga, "A4"), state_a), state_b)))
    rows.append(("chi00 from |G_b|", max_residual(apply_local(u_chi, state_b), chi)))
    witness = lc_search(state_b, chi)
    rows.append(("chi00 via searched witness",
                 max_residual(apply_local(witness.unitary, state_b), chi)))
    for k in verify.conjugated_generators().generators:
        rows.append((f"stabilization by {k.to_text()}",
                     max_residual(apply_pauli(k, chi), chi)))
    for origin in verify.ghz_origins():
        rows.append((f"<chi|{origin.to_text()}|chi> - 1",
                     abs(expectation(origin, chi) - 1.0)))
    u_dense = u_chi.dense()
    for plain, conj in zip(verify.plain_generators().generators,
                           verify.conjugated_generators().generators):
        dense = u_dense @ plain.to_matrix() @ u_dense.conj().T
        rows.append((f"dense conjugation of {plain.to_text()}",
                     float(np.max(np.abs(dense - conj.to_matrix())))))

    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.3e}")
    print(f"\nworst residual: {max(v for _, v in rows):.3e}")


if __name__ == "__main__":
    main()
