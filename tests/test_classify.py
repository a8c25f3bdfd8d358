import csv
import errno
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

from wblinks import (
    BlowupVariety,
    ClassificationRun,
    DivContraction,
    Fibration,
    FlipStep,
    Link,
    Rejected,
    antik_in_interior_mov,
    build_link,
    classify,
    display_orientation,
    interior_walls,
    is_terminal_blowup,
    is_terminal_cqs,
    is_terminal_wps,
    shape_of,
)
from wblinks.classify import (
    MAX_BOUNDS,
    _survivors,
    classify_stable,
    worker_count,
)
from wblinks.cli import end_summary
from wblinks.link import STAGE_BLOWUP, STAGE_INTERIOR, STAGE_WALL
from wblinks.singularity import _residue_table
from conftest import ORACLE, SCAN, assert_no_process_left
from reference import (
    CyclicQuotient,
    exceptional_patch_types,
    mori_structure,
    packed_walls_terminal,
    wall_flip_weights,
)

P3_ANSWER = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 5))
P4_LINKS = Path(__file__).parent / "data" / "p4_links_bound39.csv"


# The stages whose survivors the scan hands to the wall test, and to build_link.
BLOWUP_STAGES = (STAGE_BLOWUP, STAGE_INTERIOR)
SCAN_STAGES = BLOWUP_STAGES + (STAGE_WALL,)


@cache
def oracle_answers(dim, bound):
    """The oracle's answer for each ascending tuple with top weight <= bound, in order."""
    return {
        ws: ORACLE.link_answer(ws)
        for ws in combinations_with_replacement(range(1, bound + 1), dim)
    }


def passing(dim, bound, stages):
    """The ascending tuples with top weight <= bound that the oracle rejects at none of stages."""
    refused = {"R:" + stage for stage in stages}
    return tuple(ws for ws, answer in oracle_answers(dim, bound).items() if answer not in refused)


def as_oracle_answer(result):
    """A ``build_link`` result in the oracle's form: ``R:<stage>`` or ``A:<end kind>:<weights>``."""
    if isinstance(result, Rejected):
        return "R:" + result.stage
    kind, weights = end_summary(result.end)
    return f"A:{kind}:{ORACLE.fmt(weights)}"


@pytest.mark.parametrize(
    "dim, bound, answers",
    [
        (3, 30, {STAGE_BLOWUP: 4682, STAGE_INTERIOR: 92, STAGE_WALL: 182,
                 "divisorial_contraction": 3, "fibration": 1}),
        (4, 20, {STAGE_BLOWUP: 6960, STAGE_INTERIOR: 130, STAGE_WALL: 1458,
                 "divisorial_contraction": 302, "fibration": 5}),
    ],
)
def test_build_link_gives_the_oracles_answer_on_every_tuple(dim, bound, answers):
    """Every ascending tuple: the stage of a rejection, or the end kind and target of a link.

    The oracle tests the end model of every divisorial link, which
    ``build_link`` proves terminal instead, so no tuple reaches
    ``end_model_not_terminal``.
    """
    expected = oracle_answers(dim, bound)
    for ws, answer in expected.items():
        assert as_oracle_answer(build_link(ws, dim)) == answer, ws
    assert Counter(answer.split(":")[1] for answer in expected.values()) == answers


@pytest.mark.parametrize("dim, bound, total", [(3, 40, 4), (4, 30, 400)])
def test_classify_with_its_ends_is_the_oracles_enumeration(dim, bound, total):
    """The scan's links, with their ends, are the oracle's naive enumeration's."""
    _, accepted = ORACLE.enumerate_links(dim, bound)
    links = classify(dim, bound).links
    assert {ws: as_oracle_answer(link) for ws, link in links.items()} == accepted
    assert list(links) == list(accepted) and len(links) == total


@pytest.mark.parametrize("dim,bound", [(3, 40), (4, 24), (5, 12)])
def test_scan_matches_literal_criterion(dim, bound):
    assert tuple(ws for ws, _ in _survivors(dim, bound, 1, bound)) == passing(dim, bound, SCAN_STAGES)


@pytest.mark.parametrize(
    "dim,bound,tested,at_head", [(3, 40, 326, 0), (4, 40, 11529, 5180), (5, 12, 2289, 336)]
)
def test_packed_wall_test_matches_scalar_on_every_blowup_survivor(
    monkeypatch, dim, bound, tested, at_head
):
    """The scan's packed wall test against ``is_terminal_wps`` on each flip.

    The scan hands the wall test exactly its blowup survivors, each once:
    the oracle's, so a wrong range of c or d fails here even where the
    walls would hide it.  Each packed answer is recorded during the scan
    and compared with the scalar one after it.  It is also the answer of
    ``reference.packed_walls_terminal``, which tests each flip at all its
    entries without the memo.  A flip at a head weight v has the
    head-only entry a - v > 1 for each head weight a > v + 1, and at_head
    survivors fail the criterion at one of those (dimension 3 has none).
    """
    real = SCAN._walls_terminal
    seen = []

    def record(ws, tables, memo):
        head = ws[:-2]
        early = any(
            not is_terminal_cqs([w - v for w in ws] + [-1, -v], a - v)
            for v, a in combinations(head, 2) if a - v > 1
        )
        seen.append((ws, real(ws, tables, memo), packed_walls_terminal(ws, tables), early))
        return seen[-1][1]

    monkeypatch.setattr(SCAN, "_walls_terminal", record)
    _survivors(dim, bound, 1, bound)
    assert len(seen) == tested
    assert tuple(sorted(ws for ws, *_ in seen)) == passing(dim, bound, BLOWUP_STAGES)
    for ws, packed, full, early in seen:
        T = BlowupVariety(dim, ws)
        scalar = all(is_terminal_wps(wall_flip_weights(T, v)) for v in interior_walls(T))
        assert packed == full == scalar, ws
        assert not (early and packed), ws
    assert sum(early for *_, early in seen) == at_head


@pytest.mark.parametrize("dim,bound,tested,filled", [(4, 40, 21951, 3243), (5, 12, 11071, 2215)])
def test_wall_memo_holds_each_heads_flip_sums(monkeypatch, dim, bound, tested, filled):
    """Each head's memo holds the head-only sum of each flip entry its candidates tested.

    A flip entry e = a - v > 1 is tested for each distinct head weight
    v < c, ascending, then each a in ws, in order, until the first
    failure; the hook replays that order with the scalar criterion.  After
    each call the head's memo holds exactly the (v, e) tested so far for
    that head, each as (P, x, high) of the table at e, with x the offset
    plus the rows of -1, -v and w - v over the head, summed afresh here.
    A head's memo is its own, made once, with one row per distinct head
    weight.
    """
    real = SCAN._walls_terminal
    memos, entries = {}, {}  # head -> its memo; head -> the (v, e) tested so far
    count = 0

    def record(ws, tables, memo):
        nonlocal count
        head, c = ws[:-2], ws[-2]
        assert memos.setdefault(head, memo) is memo, ws
        assert [v for v, _ in memo] == sorted(set(head)), ws
        packed = real(ws, tables, memo)
        flips = [(v, a - v) for v in sorted(set(head)) if v < c for a in ws if a - v > 1]
        for v, e in flips:
            count += 1
            entries.setdefault(head, set()).add((v, e))
            if not is_terminal_cqs([w - v for w in ws] + [-1, -v], e):
                break
        filled_now = {(v, e) for v, row in memo for e, m in enumerate(row) if m}
        assert filled_now == entries.get(head, set()), ws
        return packed

    monkeypatch.setattr(SCAN, "_walls_terminal", record)
    _survivors(dim, bound, 1, bound)
    assert count == tested
    assert sum(map(len, entries.values())) == filled
    assert len({id(memo) for memo in memos.values()}) == len(memos)
    for head, memo in memos.items():
        for v, row in memo:
            for e, m in enumerate(row):
                if m:
                    P, K, high = SCAN._residue_table(e, dim, bound)
                    fresh = K + sum(P[t % e] for t in [-1, -v] + [w - v for w in head])
                    assert m == (P, fresh, high), (head, v, e)


@pytest.mark.parametrize("dim,bound,dropped", [(3, 40, 3522), (4, 24, 4161), (5, 10, 341)])
def test_row_rule_skips_only_candidates_that_fail_at_half_the_index(monkeypatch, dim, bound, dropped):
    """The scan skips the interior candidates with an even blowup index V
    and fewer than three odd weights, and each of them fails at k = V/2.

    With every blowup table's mask set to 0 the packed blowup test passes
    every candidate, so the wall test sees each candidate the scan tests.
    """
    real, tested = SCAN._residue_table, []

    def unmasked(r, n, top):
        P, K, _ = real(r, n, top)
        return P, K, 0

    def record(ws, tables, memo):
        tested.append(ws)
        return False

    monkeypatch.setattr(SCAN, "_residue_table", unmasked)
    monkeypatch.setattr(SCAN, "_walls_terminal", record)
    SCAN._scan_partition(dim, bound, SCAN._partitions(dim, bound), bound)
    interior = [
        ws for ws in combinations_with_replacement(range(1, bound + 1), dim)
        if (dim + 1) * ws[-2] > sum(ws) - 1
    ]
    skipped = [ws for ws in interior if (sum(ws) - 1) % 2 == 0 and sum(w % 2 for w in ws) < 3]
    assert len(skipped) == dropped
    assert sorted(tested) == sorted(set(interior) - set(skipped))
    for ws in skipped:
        V = sum(ws) - 1
        assert sum(V // 2 * w % V for w in ws) <= V, ws


@pytest.mark.parametrize("dim,bound", [(3, 40), (4, 24), (5, 12)])
def test_divisorial_targets_of_survivors_are_terminal(dim, bound):
    """The end-model proof in ``wblinks.link``, kept as a check.

    Every tuple whose blowup and walls are terminal and whose -K is
    interior is accepted, and when its top two weights differ the oracle
    finds the target of its divisorial contraction terminal: it accepts
    each of them too, with the same end.
    """
    survivors = passing(dim, bound, SCAN_STAGES)
    assert survivors
    for ws in survivors:
        link = build_link(ws, dim)
        assert isinstance(link, Link), ws
        assert as_oracle_answer(link) == oracle_answers(dim, bound)[ws], ws


def test_dim3_answer_follows_from_the_terminal_lemma():
    """Each step of the dimension-3 argument in the ``classify`` docstring."""
    triples = list(combinations_with_replacement(range(1, 61), 3))
    terminal = [ws for ws in triples if is_terminal_blowup(ws)]
    assert terminal == [(a, b, c) for a, b, c in triples if a == 1 and gcd(b, c) == 1]
    assert len(terminal) == 1102
    walls_terminal = []
    for ws in terminal:
        _, b, c = ws
        T = BlowupVariety(3, ws)
        if 1 < b < c:
            flip = wall_flip_weights(T, 1)
            assert interior_walls(T) == [1] and flip == (-1, -1, b - 1, c - 1)
            if is_terminal_cqs(flip, c - 1):
                assert b == 2 or c <= 3, ws
        else:
            assert interior_walls(T) == [], ws
        if all(is_terminal_wps(wall_flip_weights(T, v)) for v in interior_walls(T)):
            walls_terminal.append(ws)
    assert len(walls_terminal) == 89
    assert all(b <= 2 or c <= 3 for _, b, c in walls_terminal)
    interior = [ws for ws in walls_terminal if antik_in_interior_mov(BlowupVariety(3, ws))]
    assert all((ws[2] < 3 * ws[1]) == (ws in interior) for ws in walls_terminal)
    assert tuple(interior) == P3_ANSWER == classify(3, 60).accepted


def test_dim4_11cd_family_follows_from_the_wall_at_1():
    """Each step of the (1, 1, c, d) argument in the ``classify`` docstring."""
    family = [(1, 1, c, d) for c in range(1, 41) for d in range(c, 41)]
    interior = [ws for ws in family if antik_in_interior_mov(BlowupVariety(4, ws))]
    assert interior == [ws for ws in family if ws[3] <= 4 * ws[2] - 2]
    ones = [ws for ws in interior if ws[2] == 1]
    assert ones == [(1, 1, 1, 1), (1, 1, 1, 2)]
    assert all(interior_walls(BlowupVariety(4, ws)) == [] for ws in ones)
    walls_terminal = []
    for ws in family:
        _, _, c, d = ws
        if c == 1:
            continue
        T = BlowupVariety(4, ws)
        flip = wall_flip_weights(T, 1)
        assert interior_walls(T) == [1] and flip == (-1, -1, 0, c - 1, d - 1)
        if d >= 3:
            r = d - 1
            residues = [(d - 2) * w % r for w in flip]
            assert residues == [1, 1, 0, (1 - c) % r, 0]
            assert sum(residues) == (d - c + 2 if c < d else 2)
            if is_terminal_cqs(flip, r):
                assert c == 2 < d, ws
        if is_terminal_wps(flip):
            walls_terminal.append(ws)
    assert all(ws[2] == 2 for ws in walls_terminal)
    twos = [ws for ws in walls_terminal if ws in interior]
    assert twos == [(1, 1, 2, d) for d in range(2, 7)]
    assert all(isinstance(build_link(ws, 4), Link) for ws in ones + twos)
    assert [ws for ws in classify(4, 40).accepted if ws[:2] == (1, 1)] == ones + twos


def test_dim4_122d_family_follows_from_the_wall_at_1():
    """Each step of the (1, 2, 2, d) argument in the ``classify`` docstring."""
    family = [(1, 2, 2, d) for d in range(2, 41)]
    for ws in family:
        d = ws[3]
        T = BlowupVariety(4, ws)
        flip = wall_flip_weights(T, 1)
        assert interior_walls(T) == [1] and flip == (-1, -1, 1, 1, d - 1)
        e = d - 1
        assert [w for w in flip if w > 1] == ([e] if d >= 3 else [])
        for k in range(1, e):
            residues = [k * w % e for w in flip]
            assert residues == [e - k, e - k, k, k, 0]
            assert sum(residues) == 2 * e > e
        assert is_terminal_wps(flip), ws
    interior = [ws for ws in family if antik_in_interior_mov(BlowupVariety(4, ws))]
    assert interior == [ws for ws in family if ws[3] <= 5]
    assert [ws for ws in interior if not is_terminal_blowup(ws)] == [(1, 2, 2, 2), (1, 2, 2, 4)]
    for ws, V, k in [((1, 2, 2, 2), 6, 3), ((1, 2, 2, 4), 8, 4)]:
        assert V == sum(ws) - 1 and sum(k * w % V for w in ws) == k
        assert not is_terminal_cqs(ws, V)
    accepted = [(1, 2, 2, 3), (1, 2, 2, 5)]
    assert all(isinstance(build_link(ws, 4), Link) for ws in accepted)
    assert [ws for ws in classify(4, 40).accepted if ws[:3] == (1, 2, 2)] == accepted


def test_dim4_1bcc_wall_at_1_forces_b_2():
    """First step of the (1, b, c, c) argument: at the entry c - 1 the wall
    at 1 is 1/(c-1)(-1, -1, b-1) times a plane, terminal only if b = 2."""
    passed = []
    for c in range(3, 61):
        for b in range(2, c):
            T = BlowupVariety(4, (1, b, c, c))
            flip = wall_flip_weights(T, 1)
            assert interior_walls(T) == [1, b] and flip == (-1, -1, b - 1, c - 1, c - 1)
            r = c - 1
            assert [w % r for w in flip[3:]] == [0, 0]
            terminal = is_terminal_cqs(flip, r)
            assert terminal == is_terminal_cqs((-1, -1, b - 1), r)
            if terminal:
                pairs = [(x, y) for x, y in combinations((-1, -1, b - 1), 2) if (x + y) % r == 0]
                assert pairs and (2 % r == 0 or (b - 2) % r == 0), (b, c)
                assert b == 2, (b, c)
            if is_terminal_wps(flip):
                passed.append((b, c))
    assert passed == [(2, c) for c in range(3, 61)]


def test_dim4_12cc_wall_at_2_leaves_c_3_and_5():
    """Second step: with b = 2 the wall at 2 is 1/(c-2)(-2, -1, -1) times a
    plane at its only entry > 1, c - 2, which leaves c = 3 and c = 5."""
    passed = []
    for c in range(3, 61):
        flip = wall_flip_weights(BlowupVariety(4, (1, 2, c, c)), 2)
        assert flip == (-2, -1, -1, c - 2, c - 2)
        assert [w for w in flip if w > 1] == ([c - 2, c - 2] if c >= 4 else [])
        if c >= 4:
            r = c - 2
            terminal = is_terminal_cqs(flip, r)
            assert terminal == is_terminal_cqs((-2, -1, -1), r)
            if terminal:
                assert 3 % r == 0 or 2 % r == 0, c
            if c == 4:
                assert [w % 2 for w in flip[:3]] == [0, 1, 1] and not terminal
        if is_terminal_wps(flip):
            passed.append(c)
    assert passed == [3, 5]


def test_dim4_1bcc_answer_is_1233_and_1255():
    """Last step: the wall at 1 of (1, 2, c, c) is terminal at every c, -K is
    interior, and ``build_link`` accepts (1, 2, 3, 3) and (1, 2, 5, 5)."""
    for c in range(3, 61):
        ws = (1, 2, c, c)
        flip, e = wall_flip_weights(BlowupVariety(4, ws), 1), c - 1
        for k in range(1, e):
            residues = [k * w % e for w in flip]
            assert residues == [e - k, e - k, k, 0, 0]
            assert sum(residues) == 2 * e - k > e
        assert antik_in_interior_mov(BlowupVariety(4, ws)), ws
    accepted = [(1, 2, 3, 3), (1, 2, 5, 5)]
    assert all(isinstance(build_link(ws, 4), Link) for ws in accepted)
    assert [ws for ws in classify(4, 40).accepted if ws[0] == 1 < ws[1] < ws[2] == ws[3]] == accepted


def test_dim4_abcc_shape_follows_from_the_chart_at_c():
    """Each step of the (a, b, c, c) argument in the ``classify`` docstring."""
    family = [(a, b, c, c) for c in range(4, 41) for b in range(3, c) for a in range(2, b)]
    charts, terminal = [], []
    for ws in family:
        a, b, c, _ = ws
        chart = exceptional_patch_types(ws)[2]
        assert chart == CyclicQuotient(c, (-1, a, b, 0))
        assert chart.is_terminal == is_terminal_cqs((-1, a, b), c)
        assert (a - 1) % c and (b - 1) % c
        if chart.is_terminal:
            assert [(x, y) for x, y in combinations((-1, a, b), 2) if (x + y) % c == 0] == [(a, b)]
            assert a + b == c, ws
            charts.append(ws)
        if is_terminal_blowup(ws):
            assert chart.is_terminal, ws
            terminal.append(ws)
    assert len(charts) == 206
    assert terminal == [(2, 3, 5, 5), (3, 5, 8, 8)]
    assert [ws for ws in classify(4, 40).accepted if 1 < ws[0] and ws[2] == ws[3]] == [(2, 3, 5, 5)]


# The (a, b, a + b, a + b) with 2 <= a < b and a + b <= 100.
ABCC = [(a, b, a + b, a + b) for b in range(3, 99) for a in range(2, min(b, 101 - b))]


def test_dim4_abcc_chart_at_b_is_minus_one_and_three_a():
    """First step after c = a + b: the chart at b is 1/b(-1, a, a, a)."""
    for ws in ABCC:
        a, b, _, _ = ws
        assert exceptional_patch_types(ws)[1] == CyclicQuotient(b, (-1, a, a, a)), ws


def test_dim4_abcc_chart_at_b_gives_b_2a_minus_1():
    """Second step: the chart at b fails at k = b/g for g = gcd(a, b) > 1, and
    at k = 1/a mod b unless that k is 2, which is b = 2a - 1."""
    charts = []
    for a, b, _, _ in ABCC:
        flip, g = (-1, a, a, a), gcd(a, b)
        if g > 1:
            k = b // g
            residues = [k * w % b for w in flip]
            assert residues == [b - k, 0, 0, 0] and sum(residues) < b
            assert not is_terminal_cqs(flip, b), (a, b)
        else:
            k = pow(a, -1, b)
            assert [k * w % b for w in flip] == [b - k, 1, 1, 1] and k != 1
            if is_terminal_cqs(flip, b):
                assert k == 2 and b == 2 * a - 1, (a, b)
                charts.append((a, b))
        if is_terminal_blowup((a, b, a + b, a + b)):
            assert (a, b) in charts
    assert charts == [(a, 2 * a - 1) for a in range(2, 34)]


def test_dim4_abcc_chart_at_a_leaves_a_at_most_3():
    """Third step: with b = 2a - 1 the chart at a is 1/a(-1, -1, -1, -1), whose
    residues at k = a - 1 are all 1; that leaves a = 2 and a = 3."""
    terminal = []
    for a in range(2, 60):
        ws = (a, 2 * a - 1, 3 * a - 1, 3 * a - 1)
        chart = exceptional_patch_types(ws)[0]
        assert chart == CyclicQuotient(a, (-1, -1, -1, -1))
        assert [(a - 1) * w % a for w in (-1, -1, -1, -1)] == [1, 1, 1, 1]
        assert chart.is_terminal == (a <= 3)
        if is_terminal_blowup(ws):
            terminal.append(ws)
    assert terminal == [(2, 3, 5, 5), (3, 5, 8, 8)]
    assert [ws for ws in ABCC if is_terminal_blowup(ws)] == terminal


def test_dim4_abcc_build_link_rejects_3588_at_its_wall_at_3():
    """Last step: (3, 5, 8, 8) fails at the entry 5 of its wall at 3, at k = 3;
    (2, 3, 5, 5) is accepted."""
    flip = wall_flip_weights(BlowupVariety(4, (3, 5, 8, 8)), 3)
    assert flip == (-3, -1, 2, 5, 5)
    assert [3 * w % 5 for w in flip] == [1, 2, 1, 0, 0]
    assert not is_terminal_cqs(flip, 5)
    rejected = build_link((3, 5, 8, 8), 4)
    assert isinstance(rejected, Rejected)
    assert (rejected.stage, rejected.wall) == (STAGE_WALL, 3)
    assert isinstance(build_link((2, 3, 5, 5), 4), Link)


# The (1, b, b, d) with 3 <= b < d and d <= 120.
ONE_BBD = [(1, b, b, d) for b in range(3, 120) for d in range(b + 1, 121)]


def test_dim4_1bbd_interior_and_wall_at_1_give_d_from_2b_minus_2_to_3b_minus_1():
    """First step of the (1, b, b, d) argument in the ``classify`` docstring:
    -K is interior iff d <= 3b - 1, and the only wall, at 1, fails at its
    entry d - 1 and k = d - 2 unless d >= 2b - 2."""
    for ws in ONE_BBD:
        _, b, _, d = ws
        T = BlowupVariety(4, ws)
        assert antik_in_interior_mov(T) == (d <= 3 * b - 1), ws
        flip = wall_flip_weights(T, 1)
        assert interior_walls(T) == [1] and flip == (-1, -1, b - 1, b - 1, d - 1)
        r, k = d - 1, d - 2
        residues = [k * w % r for w in flip]
        assert residues == [1, 1, d - b, d - b, 0]
        if sum(residues) <= r:
            assert d < 2 * b - 2 and not is_terminal_wps(flip), ws
        else:
            assert d >= 2 * b - 2, ws


def test_dim4_1bbd_wall_at_1_at_entry_b_minus_1_needs_b_3_or_d_2_mod_b_minus_1():
    """Second step: at the entry b - 1 the wall at 1 is 1/(b-1)(-1, -1, d-1)
    times a plane, terminal only if b = 3 or d = 2 mod (b - 1)."""
    for ws in ONE_BBD:
        _, b, _, d = ws
        flip, r = wall_flip_weights(BlowupVariety(4, ws), 1), b - 1
        assert [w % r for w in flip[2:4]] == [0, 0]
        terminal = is_terminal_cqs(flip, r)
        assert terminal == is_terminal_cqs((-1, -1, d - 1), r)
        if terminal:
            pairs = [(x, y) for x, y in combinations((-1, -1, d - 1), 2) if (x + y) % r == 0]
            assert pairs and (2 % r == 0 or (d - 2) % r == 0), ws
            assert b == 3 or d % r == 2 % r, ws


def test_dim4_1bbd_b_at_least_4_fails_at_d_2b_and_3b_minus_1():
    """Third step: for b >= 4 only d = 2b and d = 3b - 1 are left, and the
    chart at b or the wall at 1 fails there; no such (1, b, b, d) passes
    the wall at 1 and the interior inequality."""
    for b in range(4, 120):
        left = [d for d in range(2 * b - 2, 3 * b) if d % (b - 1) == 2]
        assert left == [2 * b, 3 * b - 1], b
        chart = exceptional_patch_types((1, b, b, 2 * b))[1]
        assert chart == CyclicQuotient(b, (-1, 1, 0, 0))
        assert all(sum(k * w % b for w in (-1, 1, 0, 0)) == b for k in range(1, b))
        assert not chart.is_terminal and not is_terminal_blowup((1, b, b, 2 * b))
        d, r, k = 3 * b - 1, 3 * b - 2, 3 * b - 5
        flip = wall_flip_weights(BlowupVariety(4, (1, b, b, d)), 1)
        residues = [k * w % r for w in flip]
        assert residues == [3, 3, 1, 1, 0] and sum(residues) <= r
        assert not is_terminal_wps(flip), b
    passed = [
        ws for ws in ONE_BBD if ws[1] >= 4 and antik_in_interior_mov(BlowupVariety(4, ws))
        and is_terminal_wps(wall_flip_weights(BlowupVariety(4, ws), 1))
    ]
    assert passed == []


def test_dim4_1bbd_answer_is_1334_and_1338():
    """Last step: b = 3 leaves 4 <= d <= 8; the entry 2 of the wall at 1
    needs d even and the chart at 3 needs 3 not dividing d."""
    for d in range(4, 9):
        ws = (1, 3, 3, d)
        flip = wall_flip_weights(BlowupVariety(4, ws), 1)
        assert [w % 2 for w in flip] == [1, 1, 0, 0, (d - 1) % 2]
        assert is_terminal_cqs(flip, 2) == (d % 2 == 0)
        chart = exceptional_patch_types(ws)[1]
        assert chart == CyclicQuotient(3, (-1, 1, 3, d))
        if d % 3 == 0:
            assert all(sum(k * w % 3 for w in (-1, 1, 3, d)) == 3 for k in (1, 2))
            assert not chart.is_terminal
    accepted = [(1, 3, 3, 4), (1, 3, 3, 8)]
    assert all(isinstance(build_link(ws, 4), Link) for ws in accepted)
    assert [ws for ws in classify(4, 40).accepted if ws[0] == 1 and 3 <= ws[1] == ws[2] < ws[3]] == accepted


# The (a, b, b, d) with 2 <= a < b < d <= 3b - a and b < 40: -K is interior.
ABBD = [(a, b, b, d) for b in range(3, 40) for a in range(2, b) for d in range(b + 1, 3 * b - a + 1)]


def test_dim4_abbd_interior_is_d_at_most_3b_minus_a_with_one_wall_at_a():
    """First step of the (a, b, b, d) argument in the ``classify`` docstring:
    -K is interior iff d <= 3b - a, and the only wall is at a."""
    for b in range(3, 40):
        for a in range(2, b):
            for d in range(b + 1, 3 * b + 3):
                T = BlowupVariety(4, (a, b, b, d))
                assert antik_in_interior_mov(T) == (d <= 3 * b - a), T
                assert interior_walls(T) == [a], T


def test_dim4_abbd_chart_at_b_leaves_d_b_plus_1_2b_plus_1_2b_minus_a_or_3b_minus_a():
    """Second step: the chart at b is 1/b(-1, a, d) times a line, terminal
    only if d = 1 or a + d = 0 mod b, since a = 1 mod b is ruled out."""
    for ws in ABBD:
        a, b, _, d = ws
        chart = exceptional_patch_types(ws)[1]
        assert chart == CyclicQuotient(b, (-1, a, 0, d))
        assert chart.is_terminal == is_terminal_cqs((-1, a, d), b)
        assert chart.is_terminal or not is_terminal_blowup(ws), ws
        if chart.is_terminal:
            pairs = [(x, y) for x, y in combinations((-1, a, d), 2) if (x + y) % b == 0]
            assert pairs and (-1, a) not in pairs, ws
            assert d in (b + 1, 2 * b + 1, 2 * b - a, 3 * b - a), ws


def test_dim4_abbd_chart_at_d_fails_at_d_2b_plus_1_and_3b_minus_a():
    """Third step: the chart at d, 1/d(-1, a, b, b), fails at k = d - 2 for
    d = 2b + 1; for d = 3b - a at k = d/g if g = gcd(a, b) > 1, and else at
    k = j = 1/b mod d, where j >= 5."""
    for b in range(3, 60):
        for a in range(2, b):
            chart = (-1, a, b, b)
            d = 2 * b + 1
            assert exceptional_patch_types((a, b, b, d))[3] == CyclicQuotient(d, chart)
            residues = [(d - 2) * w % d for w in chart]
            assert residues == [2, d - 2 * a, 1, 1] and sum(residues) <= d
            assert not is_terminal_blowup((a, b, b, d)), (a, b)
            d, g = 3 * b - a, gcd(a, b)
            k = d // g if g > 1 else pow(b, -1, d)
            residues = [k * w % d for w in chart]
            assert residues == ([d - k, 0, 0, 0] if g > 1 else [d - k, 3, 1, 1]), (a, b)
            assert g > 1 or k >= 5, (a, b)
            assert sum(residues) <= d and not is_terminal_blowup((a, b, b, d)), (a, b)


def test_dim4_abbd_d_2b_minus_a_fails_at_the_wall_unless_b_is_a_plus_1():
    """Fourth step: at d = 2b - a the wall at a, at its entry e = b - a, has
    only -1 and -a nonzero, so s(k) + s(e - k) <= 2e and it is not terminal
    unless e = 1, where d = b + 1."""
    for b in range(3, 60):
        for a in range(2, b):
            d, e = 2 * b - a, b - a
            flip = wall_flip_weights(BlowupVariety(4, (a, b, b, d)), a)
            assert flip == (-a, -1, e, e, 2 * e)
            if e == 1:
                assert d == b + 1
                continue
            assert [w % e for w in flip][2:] == [0, 0, 0]
            sums = [sum(k * w % e for w in flip) for k in range(1, e)]
            assert all(s + t <= 2 * e for s, t in zip(sums, reversed(sums)))
            assert not is_terminal_wps(flip), (a, b)


def test_dim4_abbd_answer_is_2334_and_2556():
    """Last step: at d = b + 1 the chart at d fails at k = b unless a = 2;
    then the wall at 2, at its entry b - 1, is 1/(b-1)(-1, -1, -1, -2) times
    a line, which fails for b >= 6, and the chart at b needs b odd."""
    for b in range(3, 60):
        for a in range(2, b):
            d = b + 1
            assert exceptional_patch_types((a, b, b, d))[3] == CyclicQuotient(d, (-1, a, -1, -1))
            residues = [b * w % d for w in (-1, a, -1, -1)]
            assert residues == [1, d - a, 1, 1]
            assert (sum(residues) > d) == (a == 2), (a, b)
        ws, m = (2, b, b, b + 1), b - 1
        flip = wall_flip_weights(BlowupVariety(4, ws), 2)
        assert sorted(w % m for w in flip) == sorted(w % m for w in (-1, -1, -1, -2, 0))
        if m >= 5:
            k = -(-4 * m // 5)
            assert sum(k * w % m for w in (-1, -1, -1, -2)) == 5 * m - 5 * k <= m
        assert is_terminal_cqs(flip, m) == (b <= 5), b
        chart = exceptional_patch_types(ws)[1]
        assert chart == CyclicQuotient(b, (-1, 2, 0, 1))
        if b % 2 == 0:
            assert sum(b // 2 * w % b for w in (-1, 2, 0, 1)) == b and not chart.is_terminal
    accepted = [(2, 3, 3, 4), (2, 5, 5, 6)]
    assert all(isinstance(build_link(ws, 4), Link) for ws in accepted)
    assert [ws for ws in classify(4, 40).accepted if 1 < ws[0] < ws[1] == ws[2] < ws[3]] == accepted


# The (a, a, a + 1, d) with 2 <= a < 60 and a + 1 < d <= 2a + 4: -K is interior.
AACD = [(a, a, a + 1, d) for a in range(2, 60) for d in range(a + 2, 2 * a + 5)]
# What the chart at a + 1 and the chart at d leave of them.
AACD_LEFT = [(2, 2, 3, 4), (2, 2, 3, 5), (2, 2, 3, 7), (2, 2, 3, 8), (3, 3, 4, 5),
             (3, 3, 4, 6), (3, 3, 4, 10), (4, 4, 5, 7), (5, 5, 6, 8)]


def test_dim4_aacd_chart_at_a_plus_1_leaves_d_a_plus_2_a_plus_3_2a_plus_3_or_2a_plus_4():
    """First step of the (a, a, a + 1, d) argument in the ``classify``
    docstring: -K is interior iff d <= 2a + 4, and the chart at a + 1,
    1/(a+1)(-1, -1, -1, delta) with delta = d mod (a + 1), has residues
    1, 1, 1 and a + 1 - delta at k = a, which sum to more than a + 1 only
    if delta is 1 or 2."""
    for a in range(2, 60):
        for d in range(a + 2, 2 * a + 8):
            assert antik_in_interior_mov(BlowupVariety(4, (a, a, a + 1, d))) == (d <= 2 * a + 4)
    for ws in AACD:
        a, _, c, d = ws
        delta = d % c
        chart = exceptional_patch_types(ws)[2]
        assert chart == CyclicQuotient(c, (-1, -1, -1, delta))
        residues = [a * w % c for w in (-1, -1, -1, delta)]
        assert residues == [1, 1, 1, -delta % c]
        if sum(residues) <= c:
            assert not chart.is_terminal and not is_terminal_blowup(ws), ws
        else:
            assert delta in (1, 2) and d in (a + 2, a + 3, 2 * a + 3, 2 * a + 4), ws


def test_dim4_aacd_chart_at_d_bounds_a():
    """Second step: the chart at d, 1/d(-1, a, a, a + 1), has residues
    summing to 3(d - a) at k = d - 1 and to 3(d - 2a) at k = d - 2, so
    a <= 3 at d = a + 2, a <= 5 at a + 3, a = 2 at 2a + 3 and a <= 3 at
    2a + 4."""
    left = []
    for a in range(2, 60):
        chart = (-1, a, a, a + 1)
        for d, k, total, largest in [(a + 2, a + 1, 6, 3), (a + 3, a + 2, 9, 5),
                                     (2 * a + 3, 2 * a + 1, 9, 2), (2 * a + 4, 2 * a + 2, 12, 3)]:
            ws = (a, a, a + 1, d)
            assert exceptional_patch_types(ws)[3] == CyclicQuotient(d, chart)
            assert sum(k * w % d for w in chart) == total
            assert (total > d) == (a <= largest), ws
            assert a <= largest or not is_terminal_blowup(ws), ws
            left += [ws] if a <= largest else []
    assert sorted(left) == AACD_LEFT


def test_dim4_aacd_answer_is_the_six_with_a_prime_to_d():
    """Last step: the chart at a, 1/a(-1, 0, 1, d), has residue sum a at
    k = a/g if g = gcd(a, d) > 1.  That drops (2, 2, 3, 4), (3, 3, 4, 6) and
    (2, 2, 3, 8) and leaves six, which ``build_link`` accepts."""
    for ws in AACD_LEFT:
        a, d = ws[0], ws[3]
        chart = exceptional_patch_types(ws)[0]
        assert chart == CyclicQuotient(a, (-1, 0, 1, d))
        if (g := gcd(a, d)) > 1:
            assert sum(a // g * w % a for w in (-1, 0, 1, d)) == a and not chart.is_terminal
    accepted = [ws for ws in AACD_LEFT if gcd(ws[0], ws[3]) == 1]
    assert accepted == [(2, 2, 3, 5), (2, 2, 3, 7), (3, 3, 4, 5), (3, 3, 4, 10), (4, 4, 5, 7), (5, 5, 6, 8)]
    assert all(isinstance(build_link(ws, 4), Link) for ws in accepted)
    assert [ws for ws in classify(4, 40).accepted if 1 < ws[0] == ws[1] == ws[2] - 1 < ws[3] - 1] == accepted


def _entries(field):
    """The integers of one ':'-joined list of the pinned links file."""
    return tuple(int(x) for x in field.split(":"))


def test_dim4_links_at_bound_39_are_the_pinned_links():
    """The whole dimension-4 answer: each quadruple's flips, in wall order, and its end.

    A row of ``data/p4_links_bound39.csv`` holds the weights; the walls;
    the flips as ``FlipStep`` stores them and in display form, ';' between
    flips and ':' between entries; the end kind and weights; and the
    fibration's base dimension or the divisorial contraction's centre
    dimension and index.  Each wall and flip is also derived afresh from
    the Cox classes (``reference.wall_flip_weights``).
    """
    with P4_LINKS.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [
        "weights", "walls", "flips", "flips_display",
        "end_kind", "end_weights", "base_dim", "center_dim", "center_index",
    ]
    pinned = {}
    for ws, walls, flips, shown, kind, weights, base, center_dim, center_index in rows:
        ws = _entries(ws)
        T = BlowupVariety(4, ws)
        steps = [
            (int(v), _entries(flip), _entries(disp))
            for v, flip, disp in zip(walls.split(";"), flips.split(";"), shown.split(";"))
        ] if walls else []
        chamber_walls = [-hi.e for _, hi in mori_structure(T).nef_chambers[:-1]]
        assert [v for v, _, _ in steps] == chamber_walls, ws
        for v, flip, disp in steps:
            assert flip == wall_flip_weights(T, v), ws
            assert disp == tuple(-x for x in flip) == display_orientation(flip), ws
        if kind == "fibration":
            assert center_dim == center_index == "", ws
            end = Fibration(int(base), _entries(weights))
        else:
            assert kind == "divisorial_contraction" and base == "", ws
            end = DivContraction(_entries(weights), int(center_dim), int(center_index))
        pinned[ws] = Link(tuple(FlipStep(v, flip) for v, flip, _ in steps), end)
    links = classify(4, 39).links
    assert list(links) == list(pinned)
    assert links == pinned
    assert Counter(len(link.steps) for link in links.values()) == {2: 402, 1: 17, 0: 2}
    assert Counter(type(link.end) for link in links.values()) == {DivContraction: 416, Fibration: 5}


@pytest.mark.parametrize("dim,bound", [(3, 40), (4, 24)])
def test_scan_drops_only_wall_rejections(dim, bound):
    kept = {ws for ws, _ in _survivors(dim, bound, 1, bound)}
    dropped = [ws for ws in passing(dim, bound, BLOWUP_STAGES) if ws not in kept]
    assert dropped
    for ws in dropped:
        result = build_link(ws, dim)
        assert isinstance(result, Rejected) and result.stage == STAGE_WALL, ws


def test_p4_small_bound_contains_derived_set():
    run = classify(4, 3)
    expected = {
        (1, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 1, 2, 2),
        (1, 1, 2, 3),
        (1, 2, 2, 3),
        (1, 2, 3, 3),
    }
    assert expected <= set(run.accepted)


def test_accepted_sorted_and_ascending():
    run = classify(4, 10)
    assert list(run.accepted) == sorted(run.accepted)
    assert all(tuple(sorted(ws)) == ws for ws in run.accepted)


def test_shape_counts_sum_to_total():
    run = classify(4, 16)
    assert sum(run.shape_counts.values()) == len(run.accepted)


def test_shape_buckets():
    assert shape_of((1, 1, 1, 2)) == "(1,1,1,d)"
    assert shape_of((1, 1, 2, 6)) == "(1,1,c,d)"
    assert shape_of((1, 2, 2, 5)) == "one-equality-with-1"
    assert shape_of((2, 3, 5, 5)) == "(a,b,c,c)-fibration"
    assert shape_of((3, 3, 4, 10)) == "one-equality-no-1"
    assert shape_of((2, 3, 5, 7)) == "strictly-increasing"
    assert shape_of((1, 2, 3)) == "strictly-increasing"
    assert shape_of((1, 1, 2)) == "(1,1,d)"


def test_stabilization_small_bound_fails():
    # (1,2,5) is missing at bound 2 but present at bound 5
    assert (1, 2, 5) not in classify(3, 2).accepted
    assert (1, 2, 5) in classify(3, 5).accepted
    assert classify_stable(3, 2)[1] is False


def test_stabilization_p3():
    assert classify_stable(3, 64)[1] is True


def test_run_keeps_the_links_it_built():
    run = classify(3, 64)
    assert tuple(run.links) == run.accepted
    for ws, link in run.links.items():
        assert link == build_link(ws, 3)


@cache
def serial_run(dim, bound):
    return classify(dim, bound)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "dim, bound",
    [(3, b) for b in range(2, 9)] + [(4, b) for b in range(2, 25)] + [(4, 39)],
)
def test_stable_flag_matches_two_independent_scans(two_cpus, dim, bound, jobs):
    """False for dim 3 at bounds 2-4 and dim 4 up to 24; True for dim 3 from 5 and at 39.

    The stabilizing scan stops looking above the bound once it holds an
    accepted tuple there; the run and the flag are those of full scans.
    """
    run = serial_run(dim, bound)
    stable = run.accepted == serial_run(dim, 2 * bound).accepted
    assert classify_stable(dim, bound, jobs) == (ClassificationRun(dim, bound, run.links, jobs), stable)
    assert stable == (bound >= 5 if dim == 3 else bound == 39)
    assert_no_process_left()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("refused, stable", [(2, False), (None, True)])
def test_stabilize_stops_only_at_an_accepted_tuple(two_cpus, monkeypatch, jobs, refused, stable):
    """build_link refuses the first survivors above the bound: two, or all of them.

    A scan that stopped at its first survivor above the bound without
    asking ``build_link`` would hand back only a refused tuple, and the
    flag would read True.  The flag follows ``build_link``'s answers, and
    the links at the bound are untouched.
    """
    expected = classify(4, 16).links
    real, refusing = SCAN.build_link, set()

    def refuse(ws, dim):
        if ws[-1] > 16 and (ws in refusing or refused is None or len(refusing) < refused):
            refusing.add(ws)
            return Rejected(STAGE_WALL, None, "refused for the test")
        return real(ws, dim)

    monkeypatch.setattr(SCAN, "build_link", refuse)
    run, flag = classify_stable(4, 16, jobs)
    assert flag is stable
    assert run.links == expected and run.jobs == jobs
    assert len(refusing) >= 2
    assert_no_process_left()


def test_stabilize_scans_a_fraction_of_the_walls_above_an_unstable_bound(monkeypatch):
    """At (4, 16) the first tuple above 16 is accepted early: the scan at 32 is cut.

    The full scan at 32 tests 6,467 walls; the cut one, which scans every
    candidate up to 16 but stops above it at (1, 2, 5, 17), about 1,200.
    """
    real, calls = SCAN._walls_terminal, []

    def record(ws, tables, memo):
        calls.append(ws)
        return real(ws, tables, memo)

    monkeypatch.setattr(SCAN, "_walls_terminal", record)
    classify(4, 32)
    full = len(calls)
    calls.clear()
    assert classify_stable(4, 16)[1] is False
    assert full == 6467 and len(calls) < full / 3


def test_cut_scan_fetches_no_blowup_row_past_its_cut(monkeypatch):
    """Once its witness is found, a head's scan stops at S = 2 * cut.

    Each blowup table is unpacked once per row the scan fetches, so the
    tables log each fetch by ``_scan_partition``.  The serial scan at
    (4, 32) with the cut at 16 finds its witness (1, 2, 5, 17) part-way
    through the head (1, 2); the S up to 64 left of that head hold no c
    with d <= 16, and the 32 rows of them, S = 33, ..., 64, are not
    fetched: 1,360 rows of the full scan's 10,080.
    """
    real, fetched = SCAN._residue_table, []

    class Logged(tuple):
        def __iter__(self):
            if sys._getframe(1).f_code.co_name == "_scan_partition":
                fetched.append(self)
            return super().__iter__()

    monkeypatch.setattr(SCAN, "_residue_table", lambda r, n, top: Logged(real(r, n, top)))
    pairs = _survivors(4, 32, 1, 16)
    assert [ws for ws, _ in pairs if ws[-1] > 16] == [(1, 2, 5, 17)]
    assert len(pairs) == 229 and len(fetched) == 1360
    fetched.clear()
    _survivors(4, 32, 1, 32)
    assert len(fetched) == 10080


@pytest.mark.parametrize("dim, top, bounds", [(3, 64, range(2, 33)), (4, 24, (2, 5, 12))])
def test_scan_at_smaller_bound_is_the_larger_run_cut_to_it(dim, top, bounds):
    """Acceptance does not depend on the bound: a run at a bound is the run
    at a larger one, with the tuples of top weight <= bound."""
    run = classify(dim, top)
    for bound in bounds:
        links = {ws: link for ws, link in run.links.items() if ws[-1] <= bound}
        assert classify(dim, bound) == ClassificationRun(dim, bound, links, 1)


def test_input_validation():
    with pytest.raises(ValueError):
        classify(5, 10)
    with pytest.raises(ValueError):
        classify(3, 1)


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert worker_count(1, 4, 40) == 1
    assert worker_count(3, 4, 40) == 3
    assert worker_count(10_000, 4, 40) == 4  # usable CPUs
    assert worker_count(10_000, 3, 2) == 2  # partitions: heads (1,) and (2,)
    assert worker_count(10_000, 4, 2) == 3  # heads (1,1), (1,2) and (2,2)


def test_worker_count_keeps_the_tables_of_all_processes_within_the_budget(monkeypatch):
    """On 64 usable CPUs: 6 processes at the dimension-3 cap, 8 at the dimension-4 cap.

    One process's tables, the list ``_scan_partition`` builds summed with
    ``sys.getsizeof`` over it, its tuples and their lists and ints, take at
    most ``TABLE_BYTES[dim] * B**3`` bytes from B = 40 to the cap, so the
    processes admitted hold at most the budget.  A pure function of its
    inputs: no process is started.  --jobs 2 keeps both processes at
    (4, 40) and at the dimension-4 cap.
    """

    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr("os.fork", refuse)
    assert SCAN.SCAN_TABLES_BUDGET == 256 * 2**20
    for dim, bound, capped in [(3, 170, 6), (4, 130, 8), (3, 85, 51)]:
        n = worker_count(64, dim, bound)
        tables = SCAN.TABLE_BYTES[dim] * bound**3
        assert n == capped and n * tables <= SCAN.SCAN_TABLES_BUDGET < (n + 1) * tables
    for dim in (3, 4):
        for bound in (40, 48, 85, 128, MAX_BOUNDS[dim]):
            tables = [None, None] + [_residue_table(r, dim, bound) for r in range(2, dim * bound)]
            size = sys.getsizeof(tables)
            size += sum(sys.getsizeof(x) for table in tables[2:] for x in (table, *table, *table[0]))
            assert size <= SCAN.TABLE_BYTES[dim] * bound**3, (dim, bound, size / bound**3)
            assert worker_count(64, dim, bound) * size <= SCAN.SCAN_TABLES_BUDGET, (dim, bound)
    assert worker_count(64, 4, 65) == worker_count(64, 4, 40) == 64
    assert worker_count(2, 4, 40) == worker_count(2, 4, 130) == 2
    monkeypatch.setattr(SCAN, "SCAN_TABLES_BUDGET", 0)
    assert worker_count(64, 4, 40) == 1


def test_worker_count_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delattr("os.sched_getaffinity")
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert worker_count(10_000, 4, 40) == 3
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(10_000, 4, 40) == 1
    assert classify(3, 8, jobs=4).jobs == 1


def test_worker_count_without_fork_is_one(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.delattr("os.fork")
    assert worker_count(10_000, 4, 40) == 1
    run = classify(3, 8, jobs=4)
    assert run.jobs == 1 and run.accepted == P3_ANSWER


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        worker_count(jobs, 4, 40)
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        classify(3, 4, jobs=jobs)


@pytest.fixture
def no_scan(monkeypatch):
    """Fail the test if a scan starts."""

    def refuse(dim, bound):
        raise AssertionError(f"scan started at dim {dim}, bound {bound}")

    monkeypatch.setattr(SCAN, "_partitions", refuse)


def test_non_integer_scan_inputs_raise_type_error(no_scan, monkeypatch):
    with pytest.raises(TypeError):
        classify(3.0, 40)
    with pytest.raises(TypeError):
        classify(4, 40.0)
    with pytest.raises(TypeError):
        classify_stable(4, 10.5)
    with pytest.raises(TypeError):
        worker_count(2.0, 4, 40)
    monkeypatch.undo()  # lift no_scan: a bool jobs is an integer, so this scans
    jobs = classify(3, 8, jobs=True).jobs
    assert jobs == 1 and type(jobs) is int


@pytest.mark.parametrize(
    "dim, bound, message",
    [
        (4, 131, "largest bound is 130"),
        (4, 256, "largest bound is 130"),
        (4, 10**9, "largest bound is 130"),
        (4, 10**18, "largest bound is 130"),
        (3, 171, "largest bound is 170"),
        (3, 180, "largest bound is 170"),
        (3, 10**18, "largest bound is 170"),
    ],
)
def test_over_budget_refused_before_any_scan(no_scan, dim, bound, message):
    with pytest.raises(ValueError, match=message) as exc:
        classify(dim, bound)
    assert f"a dim-{dim} scan at bound {bound} is over budget" in str(exc.value)


def test_stabilize_budget_applies_at_twice_the_bound(no_scan):
    with pytest.raises(ValueError, match="bound 256"):
        classify_stable(4, 128)
    with pytest.raises(ValueError, match="bound 132 is over budget") as exc:
        classify_stable(4, 66)
    assert "its largest bound is 65 in dimension 4 and 85 in dimension 3" in str(exc.value)
    with pytest.raises(ValueError, match="bound 172 is over budget"):
        classify_stable(3, 86)


def test_budget_admits_dim4_bound_128_and_dim3_bound_160():
    SCAN._check_scan(4, 128)
    SCAN._check_scan(3, 160)


def test_admitted_bounds_are_2_to_170_in_dim3_and_2_to_130_in_dim4():
    assert MAX_BOUNDS == {3: 170, 4: 130}
    expected = {3: list(range(2, 171)), 4: list(range(2, 131))}
    for dim in (2, 3, 4, 5):
        admitted = []
        for bound in range(-3, 400):
            try:
                SCAN._check_scan(dim, bound)
            except ValueError:
                continue
            admitted.append(bound)
        assert admitted == expected.get(dim, []), dim


def ints(text):
    return tuple(map(int, text.split()))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dim,bound", [(3, 40), (4, 24)])
def test_scan_builds_each_table_once(two_cpus, monkeypatch, pid_log, dim, bound, jobs):
    """Each scanning process builds one table per index up to dim * bound - 1.

    Every process logs its builds by pid, so the child's reach the test too.
    """
    real = SCAN._residue_table

    def record(r, n, top):
        pid_log.write(f"{r} {n} {top}")
        return real(r, n, top)

    monkeypatch.setattr(SCAN, "_residue_table", record)
    _survivors(dim, bound, jobs, bound)
    assert_no_process_left()
    built = pid_log.read(ints)
    assert os.getpid() in built and len(built) == jobs
    for tables in built.values():
        assert tables == [(r, dim, bound) for r in range(2, dim * bound)]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dim,top,cut", [(4, 40, 40), (4, 32, 16)])
def test_scan_links_each_returned_pair_once(two_cpus, monkeypatch, pid_log, dim, top, cut, jobs):
    """Every scanning process calls ``build_link`` once per pair it returns.

    Each call is logged by pid, so the child's calls reach the test too.
    At (4, 32) with the cut at 16 each process links its survivors above
    the cut as it finds them, up to its witness, and the ones at or below
    the cut after its scan; no survivor is linked twice.
    """
    real = SCAN.build_link

    def record(ws, n):
        pid_log.write(" ".join(map(str, ws)))
        return real(ws, n)

    monkeypatch.setattr(SCAN, "build_link", record)
    pairs = _survivors(dim, top, jobs, cut)
    assert_no_process_left()
    linked = pid_log.read(ints)
    assert os.getpid() in linked and len(linked) == jobs
    calls = sorted(ws for share in linked.values() for ws in share)
    assert calls == [ws for ws, _ in pairs]
    assert len(set(calls)) == len(calls)
    above = [ws for ws in calls if ws[-1] > cut]
    assert len(above) == (0 if cut == top else jobs)


def held_after_scan(scan):
    """The share of a scan's peak traced memory still held when it returns.

    At (4, 40) the peak is about 1.0 MB above the start, nearly all of it
    the tables, which would leave about 0.9 MB if held.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scan()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start > 2**19
    return (now - start) / (peak - start)


def test_blowup_tables_live_only_during_a_scan():
    """A scan's memory is back to within a quarter of its peak on return."""
    assert held_after_scan(lambda: _survivors(4, 40, 1, 40)) < 0.25


def test_blowup_tables_cleared_when_a_scan_fails(monkeypatch):
    """A failed scan's memory is freed too.

    Its frames live in the traceback, so it is measured once the exception
    is dropped.
    """

    def fail(ws, tables, memo):
        raise RuntimeError("wall test failed")

    def failing_scan():
        with pytest.raises(RuntimeError, match="wall test failed"):
            _survivors(4, 40, 1, 40)

    monkeypatch.setattr(SCAN, "_walls_terminal", fail)
    assert held_after_scan(failing_scan) < 0.25


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("dim,bound", [(3, 40), (4, 16)])
def test_two_processes_match_the_serial_scan(two_cpus, dim, bound, jobs):
    """jobs - 1 children and the parent give the serial scan and its links, sorted."""
    scan = _survivors(dim, bound, 1, bound)
    assert [ws for ws, _ in scan] == sorted(ws for ws, _ in scan)
    assert _survivors(dim, bound, jobs, bound) == scan
    assert_no_process_left()
    run, serial = classify(dim, bound, jobs=2), classify(dim, bound)
    assert run.jobs == 2 and serial.jobs == 1
    assert run == ClassificationRun(dim, bound, serial.links, 2)
    assert_no_process_left()


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("dim, top, bound", [(3, 40, 40), (4, 16, 16), (4, 32, 16)])
def test_each_process_links_its_own_survivors(two_cpus, dim, top, bound, jobs):
    """The forked scan gives the serial survivors and links, and the cut scan its flag.

    Each pair carries the ``Link`` that ``build_link`` gives its tuple.
    Above the cut each process stops at its own first accepted tuple, so
    only the pairs up to the cut, and whether one is above it, match the
    serial scan.
    """
    serial = _survivors(dim, top, 1, bound)
    forked = _survivors(dim, top, jobs, bound)
    assert_no_process_left()
    for ws, link in forked:
        assert isinstance(link, Link) and link == build_link(ws, dim), ws

    def split(scan):
        kept = [(ws, link) for ws, link in scan if ws[-1] <= bound]
        return kept, len(kept) == len(scan)

    assert split(forked) == split(serial)
    run, flag = SCAN._classify(dim, bound, top, jobs)
    kept, stable = split(serial)
    assert run.links == dict(kept)
    assert flag is stable is (top == bound)
    assert_no_process_left()


def faulty(monkeypatch, name, where, fault):
    """Patch name to raise what fault(*args) returns in the child, in the parent or at the where-th call.

    Elsewhere the call goes through to the function patched before, which
    for ``os.sched_setaffinity`` is the ``two_cpus`` recorder.
    """
    owner, attr = (os, name[3:]) if name.startswith("os.") else (SCAN, name)
    real, parent, calls = getattr(owner, attr), os.getpid(), []

    def call(*args):
        calls.append(args)
        if where in ("parent" if os.getpid() == parent else "child", len(calls)):
            raise fault(*args)
        return real(*args)

    monkeypatch.setattr(owner, attr, call)


def open_fds():
    """The process's open descriptors, or False where ``/proc/self/fd`` is absent."""
    return os.path.isdir("/proc/self/fd") and sorted(os.listdir("/proc/self/fd"))


# id, patched name, where the fault acts ("child", "parent" or the n-th call), the
# fault (it returns the exception to raise, or kills its process), jobs, and what
# the scan raises: its type, a pattern of its message and its errno.
FAULTS = [
    ("child-link", "build_link", "child", lambda ws, dim: ArithmeticError(f"no link at {ws[:2]}"),
     2, RuntimeError, r"failed with exit code 1: ArithmeticError\('no link at \(1, 2\)'\)", None),
    ("child-scan", "_scan_partition", "child", lambda *a: ValueError("child scan failed"),
     2, RuntimeError, r"failed with exit code 1: ValueError\('child scan failed'\)", None),
    ("child-placement", "os.sched_setaffinity", "child", lambda *a: IndexError("placement failed"),
     2, RuntimeError, r"failed with exit code 1: IndexError\('placement failed'\)", None),
    ("child-signal", "_scan_partition", "child", lambda *a: os.kill(os.getpid(), signal.SIGKILL),
     2, RuntimeError, "failed with exit code -9: no exception reported", None),
    ("parent-interrupt", "_scan_partition", "parent", lambda *a: KeyboardInterrupt(),
     2, KeyboardInterrupt, "^$", None),
    ("parent-scan", "_scan_partition", "parent", lambda *a: ValueError("parent scan failed"),
     2, ValueError, "^parent scan failed$", None),
    ("parent-rebuild", "_link_from_fields", "parent", lambda *a: TypeError("bad link fields"),
     2, TypeError, "^bad link fields$", None),
    ("first-fork", "os.fork", 1, lambda: OSError(errno.EAGAIN, "fork refused"),
     2, OSError, "fork refused$", errno.EAGAIN),
    ("second-fork", "os.fork", 2, lambda: OSError(errno.EAGAIN, "fork refused"),
     3, OSError, "fork refused$", errno.EAGAIN),
]


@pytest.mark.parametrize("row", [pytest.param(row[1:], id=row[0]) for row in FAULTS])
def test_a_scan_fault_leaves_no_process_descriptor_or_narrowed_mask(two_cpus, monkeypatch, row):
    """The scan raises the row's exception, reaps every child, closes every pipe and allows the whole mask.

    A child's failure is a ``RuntimeError`` that quotes what the child
    wrote to its pipe.  The parent places itself on CPU 0 and allows both
    CPUs after its last fork and in the ``finally``; after a failed fork
    only the ``finally`` allows them.  The descriptor check needs
    ``/proc/self/fd``.
    """
    name, where, fault, jobs, error, message, code = row
    faulty(monkeypatch, name, where, fault)
    before = open_fds()
    with pytest.raises(error, match=message) as exc:
        _survivors(4, 16, jobs, 16)
    assert getattr(exc.value, "errno", None) == code
    assert_no_process_left()
    assert open_fds() == before
    assert two_cpus == [(0, {0}), (0, {0, 1}), (0, {0, 1})][: 2 if name == "os.fork" else 3]


def test_each_process_starts_on_its_own_cpu(two_cpus, monkeypatch, pid_log):
    """The parent starts on the first CPU and child i on CPU i mod 2, then each allows both.

    A serial scan makes no affinity call.  Every process logs its calls by
    pid, since a child's calls stay in the child.
    """

    def place(pid, cpus):
        pid_log.write(str(sorted(cpus)))

    real, children = os.fork, []

    def fork():
        pid = real()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr("os.sched_setaffinity", place)
    monkeypatch.setattr(os, "fork", fork)
    serial = _survivors(4, 16, 1, 16)
    assert not pid_log.path.exists()
    assert _survivors(4, 16, 3, 16) == serial
    assert_no_process_left()
    calls = pid_log.read()
    assert calls.pop(os.getpid()) == ["[0]", "[0, 1]", "[0, 1]"]
    assert [calls.pop(pid) for pid in children] == [["[1]", "[0, 1]"], ["[0]", "[0, 1]"]]
    assert calls == {}


def test_a_refused_placement_leaves_the_scan_alone(two_cpus, monkeypatch):
    """An OSError from placement, in the parent or a child, changes nothing."""

    def refuse(pid, cpus):
        two_cpus.append((pid, set(cpus)))
        raise OSError(errno.EINVAL, "no such CPU")

    monkeypatch.setattr("os.sched_setaffinity", refuse)
    assert _survivors(4, 16, 2, 16) == _survivors(4, 16, 1, 16)
    assert_no_process_left()
    assert two_cpus == [(0, {0}), (0, {0, 1}), (0, {0, 1})]


def test_a_platform_without_placement_still_forks(two_cpus, monkeypatch):
    real, forks = os.fork, []

    def fork():
        forks.append(1)
        return real()

    monkeypatch.delattr("os.sched_setaffinity")
    monkeypatch.setattr(os, "fork", fork)
    assert _survivors(4, 16, 2, 16) == _survivors(4, 16, 1, 16)
    assert forks == [1]
    assert_no_process_left()


# Output buffered before the fork and an exit handler must each show once:
# a child that ran the interpreter's exit would flush and run them again.
# Nothing is faked, so the scan places its processes on the real CPUs.
FORKED_SCAN = """
import atexit, json, os
from wblinks import classify

atexit.register(print, "exit handler")
print("before the scan")
mask = os.sched_getaffinity(0)
run = classify(4, 12, jobs=2)
print(json.dumps({"jobs": run.jobs, "accepted": run.accepted,
                  "same_mask": os.sched_getaffinity(0) == mask}))
"""


def test_forked_children_leave_the_parent_process_alone():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a real two-process scan needs two usable CPUs")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", FORKED_SCAN],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    first, doc, last = proc.stdout.splitlines()
    assert (first, last) == ("before the scan", "exit handler")
    doc = json.loads(doc)
    assert doc["jobs"] == 2 and doc["same_mask"] is True
    assert tuple(map(tuple, doc["accepted"])) == classify(4, 12).accepted
    assert proc.stderr == ""
