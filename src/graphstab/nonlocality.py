"""GHZ-argument machinery: outcome-correlation constraints from stabilizer
elements, their quantum predictions, and exact local-hidden-variable
satisfiability by two independent routes: ``ghz-check`` reads its verdict
from :func:`lhv_contradiction_certificate` alone, and ``verify-all`` also runs
the reference scan :func:`lhv_solve_exhaustive` and checks that they agree.

A constraint says ``prod over terms of m_axis^qubit = sign`` for deterministic
outcomes m = +-1.  The LHV universe is every (qubit, axis in {x, z}) pair for
each qubit that appears, including pairs no constraint measures; deterministic
assignments suffice because a mixture satisfies sign constraints only if one
of its deterministic components does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import xor
from typing import Sequence

from .pauli import PauliString, _dependencies, multiply
from .states import ATOL, StateVector, expectation

AXES = ("x", "z")
MAX_UNIVERSE = 16
_NULLSPACE_SCAN_CAP = 16  # enumerate 2^dim dependency combinations up to here


@dataclass(frozen=True)
class CorrelationConstraint:
    terms: tuple[tuple[str, str], ...]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        labels = [q for q, _ in self.terms]
        if len(set(labels)) != len(labels):
            raise ValueError("at most one term per qubit")
        for q, axis in self.terms:
            if axis not in AXES:
                raise ValueError(f"axis must be one of {AXES}, got {axis!r} on {q!r}")

    def to_text(self) -> str:
        if not self.terms:
            return f"1 = {self.sign:+d}"
        prod = " ".join(f"m_{axis}^{q}" for q, axis in self.terms)
        return f"{'-' if self.sign < 0 else ''}{prod} = 1"


def constraint_from_pauli(p: PauliString, labels: Sequence[str]) -> CorrelationConstraint:
    """One term per non-identity factor; the constraint sign is the Pauli's sign.

    Only X/Z factors are meaningful here; a Y factor or an imaginary phase
    is rejected.
    """
    if len(labels) != p.n:
        raise ValueError("label count must match qubit count")
    sign = p.sign  # raises on imaginary phase
    terms = []
    for q in range(p.n):
        letter = p.letter(q)
        if letter == "I":
            continue
        if letter == "Y":
            raise ValueError(f"Y factor on {labels[q]!r} has no x/z measurement axis")
        terms.append((labels[q], letter.lower()))
    return CorrelationConstraint(tuple(terms), sign)


@dataclass(frozen=True)
class CorrelationCheck:
    constraint: CorrelationConstraint
    origin: PauliString
    expectation: float
    satisfied: bool


@dataclass(frozen=True)
class CorrelationReport:
    entries: tuple[CorrelationCheck, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)


def quantum_check(s: StateVector, constraints: Sequence[CorrelationConstraint],
                  origins: Sequence[PauliString]) -> CorrelationReport:
    """Dense-engine expectation of each origin observable; satisfied iff +1 within ATOL."""
    if len(constraints) != len(origins):
        raise ValueError("constraints and origins must pair up")
    entries = []
    for c, p in zip(constraints, origins):
        val = expectation(p, s)
        entries.append(CorrelationCheck(c, p, val, abs(val - 1.0) <= ATOL))
    return CorrelationReport(tuple(entries))


def _encode(
    constraints: Sequence[CorrelationConstraint],
) -> tuple[list[tuple[str, str]], list[int], int]:
    """The canonical pairs, each constraint's term-incidence mask over them,
    and the mask of constraints whose sign is -1."""
    labels = sorted({q for c in constraints for q, _ in c.terms})
    pairs = [(q, axis) for q in labels for axis in AXES]
    index = {pair: j for j, pair in enumerate(pairs)}
    incidence = [sum(1 << index[term] for term in c.terms) for c in constraints]
    neg = sum(1 << i for i, c in enumerate(constraints) if c.sign < 0)
    return pairs, incidence, neg


def lhv_solve_exhaustive(
    constraints: Sequence[CorrelationConstraint],
) -> tuple[bool, dict[tuple[str, str], int] | None]:
    """Scan all 2^k deterministic assignments in canonical order.

    Canonical order: pairs sorted by (label, axis); assignment index counts
    up from the all-(+1) assignment, bit j flipping pair j to -1.
    """
    pairs, incidence, neg = _encode(constraints)
    k = len(pairs)
    if k > MAX_UNIVERSE:
        raise ValueError(f"LHV universe has {k} pairs, limit is {MAX_UNIVERSE}")
    # a constraint holds iff the parity of its terms flipped to -1 is its sign bit
    rows = [(inc, neg >> i & 1) for i, inc in enumerate(incidence)]
    for mask in range(2**k):
        if all((mask & inc).bit_count() & 1 == sbit for inc, sbit in rows):
            return True, {pair: -1 if mask >> j & 1 else 1 for j, pair in enumerate(pairs)}
    return False, None


def lhv_contradiction_certificate(
    constraints: Sequence[CorrelationConstraint],
) -> tuple[bool, tuple[int, ...]]:
    """GF(2) elimination on term-incidence vectors.

    A dependent subset whose signs multiply to -1 certifies unsatisfiability
    (every outcome squares to +1, so the subset's product forces 1 = -1).
    A subset's sign is read off the parity of its -1 constraints.  When the
    null space has at most 16 dimensions every dependency is visited, in
    Gray-code order, and the subset returned is a smallest one (fewest
    constraints, ties broken by the lower index bitmask).  Above that the
    scan is skipped and the subset is the elimination's null-space basis
    vector with sign -1 that has the fewest constraints: a valid certificate,
    but not necessarily minimal, and it depends on the constraint order.
    Returns (False, ()) when the sign functional is +1 on the whole null
    space, which happens exactly when the system is satisfiable.
    """
    _, incidence, neg = _encode(constraints)
    basis = _dependencies(incidence)
    if not any((combo & neg).bit_count() & 1 for combo in basis):
        return False, ()
    combos = basis
    if len(basis) <= _NULLSPACE_SCAN_CAP:
        # step s of the Gray code flips the basis vector at s's lowest set bit
        flips = (basis[(s & -s).bit_length() - 1] for s in range(1, 2 ** len(basis)))
        combos = accumulate(flips, xor)
    _, best = min((combo.bit_count(), combo) for combo in combos if (combo & neg).bit_count() & 1)
    return True, tuple(i for i in range(len(constraints)) if best >> i & 1)


def certificate_pauli_product(constraints: Sequence[CorrelationConstraint],
                              origins: Sequence[PauliString],
                              subset: Sequence[int]) -> tuple[PauliString, int]:
    """Product of the subset's origin Paulis and the subset's sign product."""
    product = multiply(*(origins[i] for i in subset))
    return product, math.prod(constraints[i].sign for i in subset)
