"""Exact revised simplex in integer arithmetic, enough for the piercing LPs.

Maximize c·y subject to Ay ≤ b, y ≥ 0 with b ≥ 0, so the slack basis is
feasible and no first phase is needed.  Bland's rule (least-index entering
column, least-index basic leaving variable on ratio ties) guarantees
termination.  Int or Fraction entries are first scaled by the lcm of
every denominator, which keeps the feasible set, the pivots and the dual.

The state is fraction-free (after Bareiss 1968) over one denominator D, the
last pivot's entry (1 at first): D·B⁻¹ as one int column per slack, the rhs
D·B⁻¹b and π = D·c_B·B⁻¹.  A basic slack's column, D times its row's unit
vector, is not stored; it becomes explicit when the slack leaves the basis
and implicit again when it re-enters.  Reduced costs are priced on demand,
π·A_j − D·c_j over A's sparse column j and π_k for slack k, and the entering
column D·B⁻¹A_j is summed from D·B⁻¹'s columns.  A pivot on p > 0 maps each
kept vector x to (x·p − f·y) // D, an exact division, and sets D = p.  These
are the entries a fraction-free tableau holds in the same places, so the
pivots, ties included, the vertex and the dual are the tableau's, and those
of a Fraction tableau.  Fractions are built only for the returned values.
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

    # A's columns, sparse: (row, entry) per nonzero entry
    columns = [[(i, row[j]) for i, row in enumerate(A) if row[j] != 0] for j in range(n)]
    L = lcm(*(x.denominator for x in chain(c, b, (a for col in columns for _, a in col))))

    def scaled(x) -> int:
        return x.numerator * (L // x.denominator)

    cost = [scaled(x) for x in c]
    columns = [[(i, scaled(a)) for i, a in col] for col in columns]
    rhs = [scaled(x) for x in b]
    # variables: n structural, then m slack; basis[i] is row i's basic one
    basis = list(range(n, n + m))
    row_of = {n + i: i for i in range(m)}
    # D·B⁻¹ by columns, None for a basic slack's implicit unit column
    inverse: list[list[int] | None] = [None] * m
    pi = [0] * m
    D = 1

    def price() -> tuple[int | None, int]:
        """Bland's entering variable and its reduced cost, times D."""
        for j in range(n):
            if j not in row_of:
                f = sum(pi[i] * a for i, a in columns[j]) - cost[j] * D
                if f < 0:
                    return j, f
        for k, f in enumerate(pi):
            if f < 0:
                return n + k, f
        return None, 0

    while True:
        entering, f = price()
        if entering is None:
            break
        if entering >= n:
            col = inverse[entering - n]
        else:
            col = [0] * m
            for i, a in columns[entering]:
                if inverse[i] is None:
                    col[row_of[n + i]] += a * D
                else:
                    col = [x + a * y for x, y in zip(col, inverse[i])]
        r = None
        for i, coeff in enumerate(col):
            if coeff <= 0:
                continue
            if r is not None:
                # rhs_i / coeff_i against the best rhs_r / coeff_r so far
                order = rhs[i] * best_coeff - best_rhs * coeff
                if order > 0 or (order == 0 and basis[i] > basis[r]):
                    continue
            r, best_rhs, best_coeff = i, rhs[i], coeff
        if r is None:
            raise ValueError("LP is unbounded")
        p, leaving = col[r], basis[r]

        def pivoted(x: list[int]) -> list[int]:
            """``x`` over the new denominator p; row r keeps its entry."""
            y = x[r]
            if y == 0 and p == D:
                return x
            new = [(v * p - u * y) // D for v, u in zip(x, col)]
            new[r] = y
            return new

        # row r of D·B⁻¹ before the pivot, the leaving slack's unit column included
        pivot_row = [
            D if n + k == leaving else 0 if x is None else x[r] for k, x in enumerate(inverse)
        ]
        pi = [(x * p - f * y) // D for x, y in zip(pi, pivot_row)]
        rhs = pivoted(rhs)
        if entering >= n:
            inverse[entering - n] = None
        inverse = [x if x is None else pivoted(x) for x in inverse]
        if leaving >= n:
            inverse[leaving - n] = [-u for u in col]
            inverse[leaving - n][r] = D
        del row_of[leaving]
        row_of[entering] = r
        basis[r] = entering
        D = p

    primal = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            primal[var] = Fraction(rhs[i], D)
    dual = tuple(Fraction(x, D) for x in pi)
    value = sum((ci * yi for ci, yi in zip(c, primal)), Fraction(0))
    return SimplexOutcome(value, tuple(primal), dual)
