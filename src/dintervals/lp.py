"""Exact simplex in integer arithmetic, enough for the piercing LPs.

Maximize c·y subject to Ay ≤ b, y ≥ 0 with b ≥ 0, so the slack basis
is feasible and no first phase is needed.  Bland's rule (least-index
entering column, least-index basic leaving variable on ratio ties)
guarantees termination without cycling.  Dual values are read off the
slack columns of the final objective row.

The tableau is fraction-free (integer-preserving pivoting, after
Bareiss 1968): every entry is a Python int over one common denominator
D, which starts at 1.  A pivot on the entry p > 0 replaces every other
row, the objective row included, by (x·p − f·y) // D, where f is the
row's entry in the pivot column and y the pivot row's entry; the
division is exact, since every entry is a minor of the initial tableau,
and then D = p.  Rows whose entry in the pivot column is 0 are rescaled
the same way (x·p // D).  Because D > 0, the signs of reduced costs and
the ratio test, done by cross-multiplying (rhs_i·coeff_r against
rhs_r·coeff_i), are those of the rational tableau, ties included, so the
pivot sequence, the vertex and the dual are the ones a Fraction tableau
finds.  Rational input is first scaled by the lcm L of every denominator
in c, A and b: scaling A and b by L keeps the feasible set, scaling c
keeps the pivots, and together they keep the dual; the value is computed
from the unscaled c.  Rows are stored sparse (column → nonzero entry),
since slack columns stay mostly zero.  Fractions are built only for the
returned value, primal and dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Sequence


@dataclass(frozen=True)
class SimplexOutcome:
    value: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


def _eliminate(
    row: dict[int, int], pivot_row: dict[int, int], col: int, p: int, D: int
) -> dict[int, int]:
    """``row`` after the pivot on ``pivot_row[col] = p``, over the new
    denominator p (the old one is D).  Rows map column to nonzero entry."""
    f = row.get(col, 0)
    if f == 0:
        return row if p == D else {k: x * p // D for k, x in row.items()}
    new = {k: x * p for k, x in row.items()}
    for k, y in pivot_row.items():
        new[k] = new.get(k, 0) - f * y
    return {k: x // D for k, x in new.items() if x}


def simplex_maximize(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> SimplexOutcome:
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    if any(v < 0 for v in b):
        raise ValueError("this solver needs b ≥ 0")

    c, b = [_rational(x) for x in c], [_rational(x) for x in b]
    A = [[_rational(x) for x in row] for row in A]
    L = lcm(*(x.denominator for x in chain(c, b, *A)))

    def sparse(entries) -> dict[int, int]:
        return {j: x.numerator * (L // x.denominator) for j, x in entries if x}

    # columns: n structural, m slack, then the rhs
    rhs = n + m
    rows = [sparse([*enumerate(A[i]), (rhs, b[i])]) | {n + i: 1} for i in range(m)]
    # reduced costs z_j − c_j, times D; optimal for a max problem when all ≥ 0
    obj = sparse((j, -x) for j, x in enumerate(c))
    basis = list(range(n, n + m))
    D = 1

    while True:
        entering = min((j for j, x in obj.items() if x < 0 and j != rhs), default=None)
        if entering is None:
            break
        pivot_row = None
        for i, row in enumerate(rows):
            coeff = row.get(entering, 0)
            if coeff <= 0:
                continue
            if pivot_row is not None:
                # rhs_i / coeff_i against the best rhs_r / coeff_r so far
                order = row.get(rhs, 0) * best_coeff - best_rhs * coeff
                if order > 0 or (order == 0 and basis[i] > basis[pivot_row]):
                    continue
            pivot_row, best_rhs, best_coeff = i, row.get(rhs, 0), coeff
        if pivot_row is None:
            raise ValueError("LP is unbounded")
        prow = rows[pivot_row]
        p = prow[entering]
        rows = [
            row if i == pivot_row else _eliminate(row, prow, entering, p, D)
            for i, row in enumerate(rows)
        ]
        obj = _eliminate(obj, prow, entering, p, D)
        D = p
        basis[pivot_row] = entering

    primal = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            primal[var] = Fraction(rows[i].get(rhs, 0), D)
    dual = tuple(Fraction(obj.get(n + i, 0), D) for i in range(m))
    value = sum((ci * yi for ci, yi in zip(c, primal)), Fraction(0))
    return SimplexOutcome(value, tuple(primal), dual)


def _rational(x) -> int | Fraction:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)
