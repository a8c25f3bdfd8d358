"""Property suites: invariances, oracle equivalence, cone and degree laws."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblinks import (
    FANO,
    NOT_WEAK_FANO,
    BlowupVariety,
    Link,
    antik_degree,
    antik_in_interior_mov,
    build_link,
    classify,
    is_terminal_blowup,
    is_terminal_cqs,
    is_terminal_wps,
    is_weak_fano,
    singularity_indices,
)
from conftest import ORACLE
from reference import anticanonical_class, mori_structure, verify_degree_inequalities

MANY = settings(max_examples=1000, deadline=None)

weight_lists = st.lists(st.integers(-10, 10), min_size=1, max_size=5)
indices = st.integers(1, 50)
blowup_weight_lists = st.lists(st.integers(1, 20), min_size=2, max_size=4)


@MANY
@given(weight_lists, indices)
def test_cqs_matches_brute_force_oracle(ws, r):
    assert is_terminal_cqs(ws, r) == ORACLE.terminal_cqs(ws, r)


@MANY
@given(st.data(), weight_lists, indices)
def test_permutation_invariance(data, ws, r):
    perm = data.draw(st.permutations(ws))
    assert is_terminal_cqs(ws, r) == is_terminal_cqs(perm, r)
    assert singularity_indices(ws) == singularity_indices(perm)
    assert is_terminal_wps(ws) == is_terminal_wps(perm)


@MANY
@given(st.data(), blowup_weight_lists)
def test_blowup_permutation_invariance(data, ws):
    perm = data.draw(st.permutations(ws))
    assert is_terminal_blowup(ws) == is_terminal_blowup(perm)
    assert build_link(ws, len(ws)) == build_link(perm, len(ws))
    assert mori_structure(BlowupVariety(len(ws), tuple(ws))) == mori_structure(
        BlowupVariety(len(ws), tuple(perm))
    )


@MANY
@given(st.data(), weight_lists, indices, st.integers(-5, 5))
def test_residue_invariance(data, ws, r, m):
    i = data.draw(st.integers(0, len(ws) - 1))
    shifted = list(ws)
    shifted[i] += m * r
    assert is_terminal_cqs(ws, r) == is_terminal_cqs(shifted, r)


@MANY
@given(weight_lists, indices, st.integers(1, 50))
def test_unit_scaling_invariance(ws, r, u):
    if gcd(u, r) != 1:
        u = 1
    scaled = [u * w for w in ws]
    assert is_terminal_cqs(ws, r) == is_terminal_cqs(scaled, r)


@MANY
@given(blowup_weight_lists)
def test_blowup_cqs_bridge(ws):
    assert is_terminal_blowup(ws) == is_terminal_cqs(ws, sum(ws) - 1)


@MANY
@given(weight_lists)
def test_wps_is_cqs_at_every_index(ws):
    assert is_terminal_wps(ws) == all(
        is_terminal_cqs(ws, g) for g in singularity_indices(ws)
    )


def test_weak_fano_degree_positive_and_inequalities():
    # exhaustive over d=3 entries <= 40 and d=4 entries <= 20; together
    # that is > 3000 weak-Fano cases
    cases = 0
    for d, top in ((3, 40), (4, 20)):
        for ws in combinations_with_replacement(range(1, top + 1), d):
            if ws[0] == ws[-1] and ws[0] > 1:
                # constant weight > 1: T fails the normality hypothesis
                # (singular along the exceptional divisor), theorem void
                continue
            T = BlowupVariety(d, ws)
            if is_weak_fano(T) == NOT_WEAK_FANO:
                continue
            cases += 1
            assert antik_degree(T) > 0, ws
            assert verify_degree_inequalities(T), ws
            s, p = sum(ws), prod(ws)
            if d**d * p == s**d:
                assert all(w == 1 for w in ws)
    assert cases >= 1000


def _coords(cls, m):
    """Coefficients of h*H + e*E in the basis {H, H - mE}."""
    y = Fraction(-cls.e, m)
    return Fraction(cls.h) - y, y


@MANY
@given(blowup_weight_lists)
def test_interior_mov_is_positive_coords(ws):
    T = BlowupVariety(len(ws), tuple(ws))
    x, y = _coords(anticanonical_class(T), T.second_largest)
    assert antik_in_interior_mov(T) == (x > 0 and y > 0)


@MANY
@given(blowup_weight_lists)
def test_weak_fano_is_nonnegative_nef_coords(ws):
    T = BlowupVariety(len(ws), tuple(ws))
    x, y = _coords(anticanonical_class(T), T.weights[0])
    assert (is_weak_fano(T) != NOT_WEAK_FANO) == (x >= 0 and y >= 0)


@MANY
@given(blowup_weight_lists)
def test_fano_is_positive_nef_coords(ws):
    """First step of the ``is_weak_fano`` proof: -K_T is ample iff both of its
    coordinates in the basis {H, H - a_1 E} are positive, iff
    sum(a_i) - 1 < (d+1) * a_1."""
    T = BlowupVariety(len(ws), tuple(ws))
    x, y = _coords(anticanonical_class(T), T.weights[0])
    d, s, a1 = T.dim, T.weight_sum, T.weights[0]
    assert y == Fraction(s - 1, a1) > 0 and x == d + 1 - y
    assert (is_weak_fano(T) == FANO) == (x > 0 and y > 0) == (s - 1 < (d + 1) * a1)


@MANY
@given(blowup_weight_lists)
def test_nef_antik_is_big_by_the_degree_chain(ws):
    """Second step: when -K_T is nef, (sum - 1)^d <= ((d+1) a_1)^d
    <= (d+1)^d prod(a_i), not both equalities, so (-K_T)^d > 0."""
    T = BlowupVariety(len(ws), tuple(ws))
    if is_weak_fano(T) == NOT_WEAK_FANO:
        return
    d, s, a1, p = T.dim, T.weight_sum, T.weights[0], prod(ws)
    lo, mid, hi = (s - 1) ** d, ((d + 1) * a1) ** d, (d + 1) ** d * p
    assert lo <= mid <= hi and lo < hi, ws
    assert antik_degree(T) == (d + 1) ** d - Fraction(lo, p) > 0


@MANY
@given(blowup_weight_lists)
def test_chamber_slopes_strictly_decrease(ws):
    T = BlowupVariety(len(ws), tuple(ws))
    ms = mori_structure(T)
    rays = [ms.nef_chambers[0][0]] + [hi for _, hi in ms.nef_chambers]
    slopes = [Fraction(r.e, r.h) for r in rays]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


@MANY
@given(blowup_weight_lists)
def test_accepted_links_cross_every_wall(ws):
    res = build_link(ws, len(ws))
    if isinstance(res, Link):
        T = BlowupVariety(len(ws), tuple(ws))
        assert len(res.steps) == len(mori_structure(T).nef_chambers) - 1


@MANY
@given(blowup_weight_lists)
def test_flip_sign_convention(ws):
    res = build_link(ws, len(ws))
    if isinstance(res, Link):
        for step in res.steps:
            negated = tuple(-x for x in step.flip_weights)
            assert step.flip_weights.count(0) == negated.count(0)
            assert step.flip_weights.count(-1) >= 1


@settings(max_examples=1000, deadline=None)
@given(st.integers(2, 10), st.integers(0, 6))
def test_classify_monotone_in_bound(bound, extra):
    small = set(classify(3, bound).accepted)
    large = set(classify(3, bound + extra).accepted)
    assert small <= large


@pytest.mark.parametrize("dim,bound", [(3, 10), (4, 6)])
def test_classify_monotone_dense(dim, bound):
    prev = set()
    for b in range(2, bound + 1):
        cur = set(classify(dim, b).accepted)
        assert prev <= cur
        prev = cur
