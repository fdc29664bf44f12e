"""Independent output oracles for the benchmark.

Every oracle here works on explicit point sets: a trace is expanded from
its runs into the frozenset of ``(level, coord)`` points it holds, and
everything else — nerves, Helly hypotheses, α, τ, ν, τ* — is recomputed
by exhaustive enumeration over those sets.  No oracle calls into
``dintervals``; the only things read from the program's objects are the
data fields ``runs`` and ``ground.levels``.

Each ``check_*`` function returns a list of problems (empty when the
program's answer is right).  ``check_nu`` and ``check_tau_star`` import
``networkx`` and ``scipy``; the benchmark spools their inputs to a file
with ``piercing_record`` and runs them only after its memory reading, so
neither the imports nor the spooled inputs inflate ``peak_rss_mib``.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb

LP_TOLERANCE = 1e-7  # |τ* − linprog optimum| allowed, in absolute terms


# ---------------------------------------------------------------------------
# explicit sets


def expand(trace) -> frozenset:
    """Points ``(level, coord)`` of a trace, read off its runs."""
    out = []
    for lvl, run in enumerate(trace.runs, start=1):
        if run is not None:
            coords = trace.ground.levels[lvl - 1]
            out.extend((lvl, coords[i]) for i in range(run[0], run[1] + 1))
    return frozenset(out)


def ground_points(ground) -> frozenset:
    return frozenset(
        (lvl, c) for lvl, coords in enumerate(ground.levels, start=1) for c in coords
    )


def common(sets) -> frozenset:
    it = iter(sets)
    acc = next(it)
    for s in it:
        acc = acc & s
    return acc


def levels_met(points) -> int:
    return len({lvl for lvl, _ in points})


def level_maxima(points, d: int) -> tuple:
    """Per-level maximum coordinate, None on empty levels."""
    out = [None] * d
    for lvl, c in points:
        if out[lvl - 1] is None or c > out[lvl - 1]:
            out[lvl - 1] = c
    return tuple(out)


def point_key(p) -> tuple:
    """A program ``Point(coord, level)`` as an oracle point."""
    return (p[1], p[0])


# ---------------------------------------------------------------------------
# nerves and collapses


def brute_nerve(sets, ground_nonempty: bool) -> frozenset:
    """All label sets (1-based) with a common point, by enumeration of
    every subfamily; the empty face is present iff the ground is."""
    faces = {frozenset()} if (sets and ground_nonempty) else set()
    n = len(sets)
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            if common(sets[j] for j in idx):
                faces.add(frozenset(j + 1 for j in idx))
    return frozenset(faces)


def replay_collapses(faces, free_faces, bound: int) -> list[str]:
    """Replay collapses at the given faces: each must be a face of size
    ≤ bound lying in exactly one maximal face; the replay must end with
    no nonempty face left."""
    current = set(faces)
    for sigma in free_faces:
        sigma = frozenset(sigma)
        if len(sigma) > bound:
            return [f"free face {sorted(sigma)} exceeds bound {bound}"]
        if sigma not in current:
            return [f"collapse at {sorted(sigma)}, which is not a face"]
        above = [f for f in current if sigma <= f]
        # in a downward-closed complex, sigma lies in exactly one maximal
        # face iff the union of the faces above it is itself a face
        if frozenset().union(*above) not in current:
            return [f"collapse at {sorted(sigma)}, which is not free"]
        current.difference_update(above)
    if any(current - {frozenset()}):
        return ["replay leaves nonempty faces"]
    return []


# ---------------------------------------------------------------------------
# Helly family


def helly_oracle(sets, m: int, k: int) -> tuple[bool, bool]:
    """(hypothesis, conclusion) of "every ≤ m sets meet k levels"."""
    hyp = all(
        levels_met(common(sets[j] for j in idx)) >= k
        for size in range(1, min(m, len(sets)) + 1)
        for idx in itertools.combinations(range(len(sets)), size)
    )
    concl = bool(sets) and levels_met(common(sets)) >= k
    return hyp, concl


def alpha_oracle(sets, k: int, r: int) -> Fraction:
    hits = sum(
        1
        for idx in itertools.combinations(range(len(sets)), r)
        if levels_met(common(sets[j] for j in idx)) >= k
    )
    return Fraction(hits, comb(len(sets), r))


def max_k_subfamily(sets, k: int) -> int:
    """Size of the largest subfamily meeting k levels, over all subsets."""
    n = len(sets)
    for size in range(n, 0, -1):
        for idx in itertools.combinations(range(n), size):
            if levels_met(common(sets[j] for j in idx)) >= k:
                return size
    return 0


def check_helly(sets, m, k, verdict, levels) -> list[str]:
    hyp, concl = helly_oracle(sets, m, k)
    out = []
    if verdict != ((not hyp) or concl):
        out.append(f"helly verdict {verdict}, oracle hyp={hyp} concl={concl}")
    if levels is not None and sets and levels != levels_met(common(sets)):
        out.append(f"intersection levels {levels} != {levels_met(common(sets))}")
    return out


def check_lower_bound(sets, d) -> list[str]:
    """The 2d-set family: every (2d−1)-subfamily meets, the whole does not."""
    if len(sets) != 2 * d:
        return [f"lower-bound family has {len(sets)} sets, not {2 * d}"]
    hyp, concl = helly_oracle(sets, 2 * d - 1, 1)
    return [] if hyp and not concl else ["lower-bound family is not extremal"]


def check_frac(sets, k, d, stats, verdict) -> list[str]:
    r = 2 * d - k + 1
    n = len(sets)
    if n < r:
        return [] if stats.get("alpha") is None else ["alpha given below r sets"]
    alpha = alpha_oracle(sets, k, r)
    best = max_k_subfamily(sets, k)
    out = []
    if Fraction(stats["alpha"]) != alpha:
        out.append(f"alpha {stats['alpha']} != {alpha}")
    if Fraction(stats["beta_hat"]) != Fraction(best, n):
        out.append(f"beta_hat {stats['beta_hat']} != {best}/{n}")
    if verdict != (Fraction(best, n) >= alpha / r):
        out.append("fractional verdict disagrees")
    return out


def check_cfh(families, points, d, stats, verdict) -> list[str]:
    work = 1
    for fam in families:
        work *= len(fam)
    hits = sum(1 for combo in itertools.product(*families) if common(combo))
    alpha = Fraction(hits, work)
    betas = tuple(
        Fraction(max((sum(1 for s in fam if p in s) for p in points), default=0), len(fam))
        for fam in families
    )
    out = []
    if Fraction(stats["alpha"]) != alpha:
        out.append(f"cfh alpha {stats['alpha']} != {alpha}")
    if tuple(Fraction(b) for b in stats["beta_hats"]) != betas:
        out.append("cfh beta_hats disagree")
    if verdict != any((1 - b) ** (2 * d) <= 1 - alpha for b in betas):
        out.append("cfh verdict disagrees")
    return out


def check_colorful(families, k, points, designated) -> list[str]:
    """Every colorful tuple meets k levels; the k selected points sit on
    distinct levels and lie in every member of the designated family."""
    for combo in itertools.product(*families):
        if levels_met(common(combo)) < k:
            return ["a colorful tuple fails to meet k levels"]
    out = []
    if len(points) != k or levels_met(points) != k:
        out.append(f"selected {sorted(points)} are not k={k} points on k levels")
    if not 0 <= designated < len(families):
        return out + [f"designated family {designated} out of range"]
    for member in families[designated]:
        if not set(points) <= member:
            out.append("a member of the designated family misses a selected point")
            break
    return out


def check_maxima_witness(sets, k, d, indices) -> list[str]:
    if not indices or len(indices) > 2 * d - k:
        return [f"witness {indices} is empty or above 2d-k={2 * d - k}"]
    whole = level_maxima(common(sets), d)
    sub = level_maxima(common(sets[j] for j in indices), d)
    return [] if whole == sub else ["witness changes the per-level maxima"]


def _has_q(members, q) -> bool:
    pts = frozenset().union(*members)
    return any(sum(1 for s in members if x in s) >= q for x in pts)


def pq_holds(sets, p, q) -> bool:
    """Among every p sets, some q share a point."""
    return all(
        _has_q([sets[j] for j in idx], q)
        for idx in itertools.combinations(range(len(sets)), p)
    )


def check_pq(sets, p, q, ok, counterexample) -> list[str]:
    truth = pq_holds(sets, p, q)
    if ok != truth:
        return [f"(p,q) answer {ok}, oracle {truth}"]
    if not ok and (
        counterexample is None or _has_q([sets[j] for j in counterexample], q)
    ):
        return ["(p,q) counterexample is not one"]
    return []


# ---------------------------------------------------------------------------
# piercing


def _cover_masks(sets) -> dict:
    """Candidate point → bitmask of the sets it hits."""
    masks: dict = {}
    for j, s in enumerate(sets):
        for p in s:
            masks[p] = masks.get(p, 0) | (1 << j)
    return masks


def check_tau(sets, tau, witness) -> list[str]:
    """The witness has τ points and pierces every set, and no τ−1
    candidate points do.  Dominated candidates (hitting a subset of what
    another hits) are dropped first: swapping one for its dominator
    keeps a set piercing, so the exhaustive search over the rest is
    still exact."""
    out = []
    pts = set(witness)
    if len(pts) != tau:
        out.append(f"witness has {len(pts)} points, tau says {tau}")
    if not all(s & pts for s in sets):
        out.append("witness misses a set")
    masks = sorted(set(_cover_masks(sets).values()), reverse=True)
    kept = [m for m in masks if not any(m != o and m & o == m for o in masks)]
    full = (1 << len(sets)) - 1
    for combo in itertools.combinations(kept, tau - 1):
        acc = 0
        for m in combo:
            acc |= m
        if acc == full:
            out.append(f"{tau - 1} points already pierce the family")
            break
    return out


def check_nu(sets, nu, witness) -> list[str]:
    """ν as a maximum clique of the disjointness graph (networkx)."""
    import networkx as nx

    out = []
    for i, j in itertools.combinations(witness, 2):
        if sets[i] & sets[j]:
            out.append(f"disjoint witness sets {i} and {j} meet")
            break
    graph = nx.Graph()
    graph.add_nodes_from(range(len(sets)))
    graph.add_edges_from(
        (i, j) for i, j in itertools.combinations(range(len(sets)), 2)
        if not sets[i] & sets[j]
    )
    _, size = nx.max_weight_clique(graph, weight=None)
    if size != nu or len(witness) != nu:
        out.append(f"nu {nu} (witness {len(witness)}), clique oracle {size}")
    return out


def check_tau_star(sets, tau_star, nu_star) -> list[str]:
    """τ* = ν*, and both within LP_TOLERANCE of the optimum that
    ``scipy.optimize.linprog`` finds for the fractional transversal."""
    import numpy as np
    from scipy.optimize import linprog

    if tau_star != nu_star:
        return [f"tau* {tau_star} != nu* {nu_star}"]
    pts = sorted(frozenset().union(*sets))
    a = np.array([[1.0 if p in s else 0.0 for p in pts] for s in sets])
    # min Σx  s.t.  every set gets weight ≥ 1, x ≥ 0
    res = linprog(np.ones(len(pts)), A_ub=-a, b_ub=-np.ones(len(sets)), method="highs")
    if res.status != 0 or abs(res.fun - float(tau_star)) > LP_TOLERANCE:
        return [f"tau* {tau_star}, linprog {res.fun}"]
    return []


def piercing_record(sets, nu, witness, tau_star, nu_star) -> str:
    """One JSON line with what ``check_piercing_record`` needs."""
    return json.dumps({
        "sets": [sorted([lvl, str(c)] for lvl, c in s) for s in sets],
        "nu": nu,
        "witness": list(witness),
        "tau_star": str(tau_star),
        "nu_star": str(nu_star),
    })


def check_piercing_record(line: str) -> list[str]:
    rec = json.loads(line)
    sets = [frozenset((lvl, Fraction(c)) for lvl, c in s) for s in rec["sets"]]
    return check_nu(sets, rec["nu"], rec["witness"]) + check_tau_star(
        sets, Fraction(rec["tau_star"]), Fraction(rec["nu_star"])
    )


def check_tau_bound(d, tau, nu) -> list[str]:
    """τ ≤ (d²−d)ν for d ≥ 2; τ = ν for intervals (d = 1)."""
    ok = tau == nu if d == 1 else tau <= (d * d - d) * nu
    return [] if ok else [f"tau {tau} breaks the bound with nu {nu} at d={d}"]
