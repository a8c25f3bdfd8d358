from fractions import Fraction

import pytest

from wblinks import (
    FANO,
    NOT_WEAK_FANO,
    WEAK_NOT_FANO,
    BlowupVariety,
    antik_degree,
    antik_in_interior_mov,
    is_weak_fano,
)
from reference import (
    H,
    DivisorClass,
    anticanonical_class,
    mori_structure,
    verify_degree_inequalities,
)


def test_weights_sorted_on_construction():
    T = BlowupVariety(3, (3, 1, 2))
    assert T.weights == (1, 2, 3)


def test_validation():
    with pytest.raises(ValueError):
        BlowupVariety(1, (1,))
    with pytest.raises(ValueError):
        BlowupVariety(3, (1, 2))
    with pytest.raises(ValueError):
        BlowupVariety(3, (0, 1, 2))


def test_anticanonical_class():
    assert anticanonical_class(BlowupVariety(3, (1, 2, 3))) == DivisorClass(4, -5)
    assert anticanonical_class(BlowupVariety(3, (1, 1, 1))) == DivisorClass(4, -2)
    assert anticanonical_class(BlowupVariety(4, (2, 3, 5, 5))) == DivisorClass(5, -14)


class TestMoriStructure:
    def test_generic_triple(self):
        ms = mori_structure(BlowupVariety(3, (1, 2, 3)))
        assert (ms.mov_lo, ms.mov_hi) == (H, DivisorClass(1, -2))
        assert ms.nef_chambers == (
            (H, DivisorClass(1, -1)),
            (DivisorClass(1, -1), DivisorClass(1, -2)),
        )
        assert (ms.eff_lo, ms.eff_hi) == (DivisorClass(0, 1), DivisorClass(1, -3))
        assert ms.mov_boundary_big

    def test_ordinary_blowup(self):
        ms = mori_structure(BlowupVariety(3, (1, 1, 1)))
        assert (ms.mov_lo, ms.mov_hi) == (H, DivisorClass(1, -1))
        assert ms.nef_chambers == ((H, DivisorClass(1, -1)),)
        assert not ms.mov_boundary_big

    def test_three_chambers(self):
        ms = mori_structure(BlowupVariety(4, (2, 3, 5, 5)))
        assert (ms.mov_lo, ms.mov_hi) == (H, DivisorClass(1, -5))
        assert len(ms.nef_chambers) == 3
        assert not ms.mov_boundary_big

    def test_first_chamber_is_nef(self):
        for ws in [(1, 2, 3), (2, 3, 5, 5), (1, 1, 2, 6)]:
            T = BlowupVariety(len(ws), ws)
            lo, hi = mori_structure(T).nef_chambers[0]
            assert lo == H
            assert hi == DivisorClass(1, -T.weights[0])

    def test_chambers_cover_mov_and_share_boundaries(self):
        ms = mori_structure(BlowupVariety(4, (1, 2, 4, 7)))
        assert ms.nef_chambers[0][0] == ms.mov_lo
        assert ms.nef_chambers[-1][1] == ms.mov_hi
        for (_, hi), (lo, _) in zip(ms.nef_chambers, ms.nef_chambers[1:]):
            assert hi == lo


def test_antik_in_interior_mov():
    assert antik_in_interior_mov(BlowupVariety(3, (1, 2, 5))) is True
    assert antik_in_interior_mov(BlowupVariety(3, (1, 2, 6))) is False
    assert antik_in_interior_mov(BlowupVariety(3, (1, 1, 3))) is False


def test_is_weak_fano():
    assert is_weak_fano(BlowupVariety(3, (1, 1, 2))) == FANO
    assert is_weak_fano(BlowupVariety(3, (1, 1, 3))) == WEAK_NOT_FANO
    assert is_weak_fano(BlowupVariety(3, (1, 2, 3))) == NOT_WEAK_FANO


def test_antik_degree():
    assert antik_degree(BlowupVariety(3, (1, 1, 1))) == 56
    assert antik_degree(BlowupVariety(3, (1, 1, 2))) == Fraction(101, 2)
    assert antik_degree(BlowupVariety(4, (1, 1, 1, 1))) == 544


def test_degree_inequalities():
    assert verify_degree_inequalities(BlowupVariety(3, (1, 1, 1))) is True
    assert verify_degree_inequalities(BlowupVariety(3, (1, 1, 2))) is True
    assert verify_degree_inequalities(BlowupVariety(3, (1, 1, 3))) is True
    with pytest.raises(ValueError):
        verify_degree_inequalities(BlowupVariety(3, (1, 2, 3)))


def test_ordinary_blowup_amgm_equality():
    # second inequality is an equality exactly for the ordinary blowup
    T = BlowupVariety(3, (1, 1, 1))
    d, s, p = T.dim, T.weight_sum, 1
    assert d**d * p == s**d
