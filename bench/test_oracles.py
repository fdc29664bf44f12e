"""Each benchmark oracle accepts the program's answer and rejects a wrong one.

    python3 -m pytest bench/test_oracles.py -q
"""

import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pytest

import oracles as O
from dintervals.complexes import SimplicialComplex, is_d_collapsible, nerve, sweep_collapse
from dintervals.generators import (
    ColorfulHellyProperty,
    GenSpec,
    gen_conditioned,
    gen_family,
    gen_helly_lower_bound,
    gen_instance,
)
from dintervals.helly import (
    cfh_stats,
    colorful_helly_points,
    frac_helly_stats,
    helly_check,
    maxima_witness_subfamily,
)
from dintervals.piercing import pierce_all, pq_check


def spec(seed, d=2, n=6, families=1, full=True):
    return GenSpec(
        d=d, points_per_level=(4,) * d, coord_range=(0, 12), n_sets=n,
        presence=Fraction(1) if full else Fraction(3, 4), max_width=6,
        seed=seed, n_families=families,
    )


def piercing_family(seed):
    """A family with τ ≥ 2 and no empty set."""
    for s in range(seed, seed + 200):
        ground, fam = gen_family(spec(s, n=8))
        fam = [t for t in fam if not t.is_empty]
        if len(fam) >= 4 and pierce_all(fam).tau >= 2:
            return fam
    raise AssertionError("no family with tau >= 2")


@pytest.mark.parametrize("seed", range(5))
def test_brute_nerve_accepts_the_nerve_and_rejects_a_dropped_face(seed):
    ground, fam = gen_family(spec(seed, full=False))
    faces = O.brute_nerve([O.expand(t) for t in fam], True)
    K = nerve(fam)
    assert K.faces == faces
    dropped = set(K.faces) - {max(K.faces, key=len)}
    assert frozenset(dropped) != faces


@pytest.mark.parametrize("seed", range(5))
def test_replay_accepts_the_sweep_and_rejects_broken_sequences(seed):
    ground, fam = gen_family(spec(seed, d=2, n=7))
    faces = O.brute_nerve([O.expand(t) for t in fam], True)
    steps = [s.free_face for s in sweep_collapse(fam).sequence.steps]
    assert O.replay_collapses(faces, steps, 3) == []
    assert O.replay_collapses(faces, steps[:-1], 3)  # stops short
    assert O.replay_collapses(faces, steps, max(len(s) for s in steps) - 1)


def test_replay_rejects_a_collapse_at_a_face_that_is_not_free():
    faces = {frozenset(), frozenset([1]), frozenset([2]), frozenset([3]),
             frozenset([1, 2]), frozenset([2, 3])}
    assert O.replay_collapses(faces, [frozenset([2])], 2)
    ok, seq = is_d_collapsible(SimplicialComplex(frozenset(faces)), 1)
    assert ok and O.replay_collapses(faces, [s.free_face for s in seq.steps], 1) == []


@pytest.mark.parametrize("seed", range(4))
def test_helly_oracle_rejects_a_flipped_verdict(seed):
    ground, fam = gen_family(spec(seed, n=7, full=False))
    sets = [O.expand(t) for t in fam]
    rep = helly_check(fam, 4, 1)
    levels = rep.statistics["intersection_levels"]
    assert O.check_helly(sets, 4, 1, rep.verdict, levels) == []
    assert O.check_helly(sets, 4, 1, not rep.verdict, levels)
    assert O.check_helly(sets, 4, 1, rep.verdict, levels + 1)
    lb = gen_helly_lower_bound(ground)
    lbs = [O.expand(t) for t in lb]
    assert O.check_lower_bound(lbs, 2) == []
    assert O.check_helly(lbs, 3, 1, not helly_check(lb, 3, 1).verdict, None)
    assert O.check_lower_bound(lbs[:-1] + [lbs[0]], 2)


@pytest.mark.parametrize("seed", range(4))
def test_fractional_oracles_reject_a_wrong_alpha(seed):
    ground, fam = gen_family(spec(seed, n=7))
    sets = [O.expand(t) for t in fam]
    stats = dict(frac_helly_stats(fam, 1).statistics)
    assert O.check_frac(sets, 1, 2, stats, True) == []
    stats["alpha"] = stats["alpha"] + Fraction(1, 35)
    assert O.check_frac(sets, 1, 2, stats, True)
    ground, fams = gen_instance(spec(seed, n=2, families=4))
    csets = [[O.expand(t) for t in f] for f in fams]
    rep = cfh_stats(fams)
    stats = dict(rep.statistics)
    assert O.check_cfh(csets, O.ground_points(ground), 2, stats, rep.verdict) == []
    stats["alpha"] = 1 - stats["alpha"] if stats["alpha"] != Fraction(1, 2) else Fraction(0)
    assert O.check_cfh(csets, O.ground_points(ground), 2, stats, rep.verdict)


def test_colorful_oracle_rejects_a_point_outside_the_designated_family():
    sp = GenSpec(d=2, points_per_level=(3, 3), coord_range=(0, 5), n_sets=2,
                 presence=Fraction(1), max_width=5, seed=3, n_families=4)
    out = gen_conditioned(sp, ColorfulHellyProperty(1))
    assert out.found
    sel = colorful_helly_points(out.families, 1)
    fams = [[O.expand(t) for t in f] for f in out.families]
    pts = [O.point_key(p) for p in sel.points]
    assert O.check_colorful(fams, 1, pts, sel.designated) == []
    designated = fams[sel.designated]
    outside = [p for p in frozenset().union(*fams[0] + fams[1]) if not all(p in s for s in designated)]
    assert O.check_colorful(fams, 1, outside[:1], sel.designated)
    assert O.check_colorful(fams, 2, pts, sel.designated)


@pytest.mark.parametrize("seed", range(4))
def test_piercing_oracles_reject_tau_minus_one_and_nu_plus_one(seed):
    fam = piercing_family(100 * seed)
    sets = [O.expand(t) for t in fam]
    res = pierce_all(fam)
    pts = [O.point_key(p) for p in res.piercing_points]
    assert O.check_tau(sets, res.tau, pts) == []
    assert O.check_tau(sets, res.tau - 1, pts[:-1])   # witness misses a set
    assert O.check_tau(sets, res.tau + 1, pts + [max(frozenset().union(*sets) - set(pts))])
    assert O.check_nu(sets, res.nu, res.disjoint_subfamily) == []
    assert O.check_nu(sets, res.nu + 1, res.disjoint_subfamily)
    assert O.check_tau_star(sets, res.tau_star, res.nu_star) == []
    wrong = res.tau_star + Fraction(1, 10)
    assert O.check_tau_star(sets, wrong, wrong)
    assert O.check_tau_star(sets, res.tau_star, wrong)
    assert O.check_tau_bound(2, res.tau, res.nu) == []
    assert O.check_tau_bound(2, 2 * res.nu + 1, res.nu)


@pytest.mark.parametrize("seed", range(4))
def test_pq_and_maxima_oracles_reject_wrong_answers(seed):
    ground, fam = gen_family(spec(seed, n=6))
    sets = [O.expand(t) for t in fam]
    ok, counter = pq_check([fam], 3, 2, "plain")
    assert O.check_pq(sets, 3, 2, ok, counter) == []
    assert O.check_pq(sets, 3, 2, not ok, None if ok else counter)
    if O.levels_met(O.common(sets)) >= 1:
        idx = maxima_witness_subfamily(fam, 1)
        assert O.check_maxima_witness(sets, 1, 2, idx) == []
        assert O.check_maxima_witness(sets, 1, 2, tuple(range(len(fam))) * 2)


def test_random_families_cover_both_pq_answers():
    answers = set()
    rng = random.Random(0)
    for _ in range(40):
        ground, fam = gen_family(spec(rng.randrange(10**6), n=6))
        answers.add(pq_check([fam], 3, 2, "plain")[0])
    assert answers == {True, False}


def test_spooled_piercing_record_round_trips_and_rejects_a_wrong_nu():
    fam = piercing_family(7)
    sets = [O.expand(t) for t in fam]
    res = pierce_all(fam)
    line = O.piercing_record(sets, res.nu, res.disjoint_subfamily, res.tau_star, res.nu_star)
    assert O.check_piercing_record(line) == []
    wrong = O.piercing_record(sets, res.nu + 1, res.disjoint_subfamily, res.tau_star, res.nu_star)
    assert O.check_piercing_record(wrong)
