from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wblinks import (
    is_terminal_blowup,
    is_terminal_cqs,
    is_terminal_wps,
    singularity_indices,
)
from wblinks.singularity import _residue_sums_exceed, _residue_table
from conftest import ORACLE
from reference import CyclicQuotient, exceptional_patch_types


class TestTerminalCqs:
    def test_published_examples(self):
        assert is_terminal_cqs([1, 14, 13, 10], 7) is True
        assert is_terminal_cqs([1, 1, 4, 3], 9) is False
        assert is_terminal_cqs([-1, 3, 2], 5) is True

    def test_index_one_is_vacuously_terminal(self):
        assert is_terminal_cqs([5, 7, 11], 1) is True

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            is_terminal_cqs([1, 2], 0)
        with pytest.raises(ValueError):
            is_terminal_cqs([1, 2], -3)
        with pytest.raises(ValueError):
            is_terminal_cqs([], 5)


class TestTerminalBlowup:
    def test_published_examples(self):
        assert is_terminal_blowup([1, 3, 5]) is True
        assert is_terminal_blowup([2, 3, 5]) is False
        assert is_terminal_blowup([2, 3, 6, 7]) is True

    def test_ordinary_surface_blowup(self):
        assert is_terminal_blowup([1, 1]) is True

    @pytest.mark.parametrize("dim,bound", [(3, 40), (4, 22), (5, 12)])
    def test_chart_lemma(self, dim, bound):
        """1/V(a) is terminal iff every chart 1/a_j(-1, a_i : i != j) is."""
        for ws in combinations_with_replacement(range(1, bound + 1), dim):
            charts = all(p.is_terminal for p in exceptional_patch_types(ws))
            assert is_terminal_blowup(ws) == charts, ws

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            is_terminal_blowup([0, 2, 3])
        with pytest.raises(ValueError):
            is_terminal_blowup([-1, 2, 3])
        with pytest.raises(ValueError):
            is_terminal_blowup([5])


def packed_blowup_terminal(ws, table):
    """The test the scan inlines, on the table of index sum(ws) - 1."""
    P, K, high = table
    return (K + sum(P[w] for w in ws)) & high == high


class TestPackedBlowupTest:
    """The scan's packed blowup test against the scalar residue-sum loop."""

    @pytest.mark.parametrize("dim,bound", [(3, 40), (4, 40), (5, 20)])
    def test_matches_scalar_loop_on_every_tuple(self, dim, bound):
        tables = {}
        for ws in combinations_with_replacement(range(1, bound + 1), dim):
            V = sum(ws) - 1
            if V not in tables:
                tables[V] = _residue_table(V, dim, bound)
            assert packed_blowup_terminal(ws, tables[V]) == _residue_sums_exceed(ws, V), ws

    # The field width is (n * V).bit_length() + 1 bits, so weights up to
    # 2000 in dimensions 3-6 reach widths 4 (at V = 2) through 18.  Random
    # large tuples are almost never terminal; the examples include
    # terminal ones: (1, b, c) with gcd(b, c) = 1, and (1, ..., 1, d).
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 2000), min_size=3, max_size=6))
    @example([1, 1, 1])
    @example([1, 1999, 2000])
    @example([1, 1, 1, 1999])
    @example([1, 1, 1, 1, 1, 2000])
    @example([1, 1, 2, 1997])
    def test_matches_scalar_loop_on_large_weights(self, ws):
        V = sum(ws) - 1
        table = _residue_table(V, len(ws), max(ws))
        assert packed_blowup_terminal(ws, table) == _residue_sums_exceed(tuple(ws), V)


def packed_terminal(ws, r):
    """The packed criterion at index r on any integer list, as the wall test runs it."""
    P, K, high = _residue_table(r, len(ws), r - 1)
    return (K + sum(P[w % r] for w in ws)) & high == high


class TestPackedResidueTable:
    """The packed criterion on arbitrary integer lists against the scalar loop."""

    # A table for n terms is exact on n + 1: lists of n + 1 residues, zeros
    # included, cover every list of at most n + 1 nonzero terms.
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_scalar_loop_on_every_residue_list(self, n):
        for r in range(2, 14):
            P, K, high = _residue_table(r, n, r - 1)
            for ws in combinations_with_replacement(range(r), n + 1):
                packed = (K + sum(P[w] for w in ws)) & high == high
                assert packed == _residue_sums_exceed(ws, r), (ws, r)

    # Fields are F = (n * r).bit_length() + 1 bits wide, with the top bit
    # H = 2**(F - 1) > n * r.  The examples sit at the field-width edges:
    # r = 2, the narrowest fields; n * r a power of two, where H = 2 * n * r;
    # and n * r = 2**m - 1, where H = n * r + 1 is as small as it can be.
    # Lists of r - 1 reach the largest sum, n * (r - 1), at k = 1.  The
    # last two examples are terminal lists whose largest residue sums would
    # carry into the next field with one bit less.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-600, 600), min_size=1, max_size=7), st.integers(2, 300))
    @example([1], 2)
    @example([1, 1, 1, 1], 2)
    @example([-1, 0, 1, 2, 3, 4, 5], 2)
    @example([1, 1, 1, 1], 4)
    @example([3, 3, 3, 3], 4)
    @example([1, 1, 2], 8)
    @example([63, 63, 63, 63], 64)
    @example([-1, -1, 62, 63], 64)
    @example([127, 127], 128)
    @example([4, 4, 4], 5)
    @example([1, 2, 3], 5)
    @example([8, 8, 8, 8, 8, 8, 8], 9)
    @example([50, 50, 50, 50, 50], 51)
    @example([72, 72, 72, 72, 72, 72, 72], 73)
    @example([-1, 0, 1, 35, 36, 37, 73], 73)
    @example([254], 255)
    @example([-1, 300, 299, 0, 1, 2, 3], 300)
    @example([3, 4, 4, 4, 3, 4], 5)
    @example([2, 7, 7, 2, 5, 7, 5], 8)
    def test_matches_scalar_loop_on_integer_lists(self, ws, r):
        assert packed_terminal(ws, r) == _residue_sums_exceed(tuple(ws), r)


class TestSingularityIndices:
    def test_published_examples(self):
        assert set(singularity_indices([1, 1, 3, 6, 8])) == {8, 6, 2, 3}
        assert set(singularity_indices([7, 7, 3, 6, 8])) == {7, 8, 6, 2, 3}
        assert set(singularity_indices([-7, -7, 3, 6, 8])) == {8, 6, 2, 3}

    def test_repeated_entry(self):
        assert set(singularity_indices([2, 2])) == {2}

    def test_sorted_and_deduplicated(self):
        out = singularity_indices([1, 1, 3, 6, 8])
        assert list(out) == sorted(set(out))

    def test_entries_at_most_one_never_contribute(self):
        assert singularity_indices([1, 1, 0, -4]) == ()

    def test_long_lists_close_without_a_cap(self):
        assert singularity_indices([2] * 25) == (2,)
        assert singularity_indices([6, 10, 15] * 10) == (2, 3, 5, 6, 10, 15)


class TestTerminalWps:
    def test_published_nonterminal_flip(self):
        assert is_terminal_wps([-1, -1, 2, 3]) is False

    def test_vacuous_when_no_indices(self):
        assert is_terminal_wps([1, 1, 1, 1]) is True

    def test_terminal_end_model(self):
        assert is_terminal_wps([1, 3, 4, 5]) is True

    # ``is_terminal_wps`` tests a list only at its own entries > 1; the
    # definition, which the oracle follows, tests every subset gcd.  The
    # criterion at an index implies it at each divisor, and every subset
    # gcd divides an entry.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=7))
    @example([-1, -1, 2, 3])
    @example([-1, -2, 4, 6, 10])
    @example([-1, -4, 0, 8, 12, 20])
    def test_entries_alone_decide_terminality(self, ws):
        assert is_terminal_wps(ws) == ORACLE.terminal_wps(ws)


class TestExceptionalPatches:
    def test_published_patch(self):
        patches = exceptional_patch_types([1, 1, 3])
        assert CyclicQuotient(3, (1, 1, 2)) in patches

    def test_ordinary_blowup_is_smooth(self):
        patches = exceptional_patch_types([1, 1, 1])
        assert len(patches) == 3
        assert all(p.is_smooth for p in patches)

    def test_two_singular_patches(self):
        patches = exceptional_patch_types([1, 2, 3])
        assert CyclicQuotient(2, (-1, 1, 3)) in patches
        assert CyclicQuotient(3, (-1, 1, 2)) in patches
        # derived: both patches are terminal quotients
        assert all(p.is_terminal for p in patches)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exceptional_patch_types([0, 1, 2])


class TestCyclicQuotient:
    def test_equality_up_to_permutation_and_residues(self):
        assert CyclicQuotient(5, (-1, 3, 2)) == CyclicQuotient(5, (2, 3, 4))
        assert CyclicQuotient(5, (1, 2, 3)) == CyclicQuotient(5, (3, 2, 1))
        assert CyclicQuotient(5, (1, 2, 3)) != CyclicQuotient(7, (1, 2, 3))
        assert hash(CyclicQuotient(5, (-1, 3, 2))) == hash(CyclicQuotient(5, (4, 3, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            CyclicQuotient(0, (1, 2))
        with pytest.raises(ValueError):
            CyclicQuotient(3, ())

    def test_str(self):
        assert str(CyclicQuotient(3, (1, 1, 2))) == "1/3(1,1,2)"

    def test_non_integer_index_raises_type_error(self):
        with pytest.raises(TypeError):
            CyclicQuotient(5.5, (1, 2))
        with pytest.raises(TypeError):
            CyclicQuotient("5", (1, 2))

    def test_stores_reduced_sorted_weights(self):
        q = CyclicQuotient(5, (-1, 3, 2))
        assert q.weights == (2, 3, 4)
        assert str(q) == "1/5(2,3,4)"
