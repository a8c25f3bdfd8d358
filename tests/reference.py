"""Reference forms that the tests check the package against.

No command computes these: ``build_link`` and the scan find walls and
charts directly.  Each is restated here from its definition, so that a
test compares two independent derivations:

- the divisor classes hH + eE of Cl(T), the cones of T and the nef-chamber
  decomposition of Mov(T) (``wblinks.toric`` module docstring);
- -K_T = (d+1)H - (sum(a_i) - 1)E;
- the charts 1/a_j(-1, a_i : i != j) that cover the exceptional divisor
  (the chart lemma of ``wblinks.singularity.is_terminal_blowup``);
- the flip weights at a wall, read off the Cox coordinates as in the
  ``wblinks.link`` module docstring, without ``link._flip_weights``;
- the degree inequalities of a weak Fano T, cleared of roots;
- the packed wall test at every entry > 1 of every flip, each summed
  afresh, without the per-head memo of head-only sums that the scan's
  one wall test (``_walls_terminal``) fills.

The stages and ends of ``build_link`` are checked against the oracle,
``perfbench/oracle.py``, which ``conftest`` loads as ``ORACLE``.
"""

import operator
from math import prod

from wblinks import (
    NOT_WEAK_FANO,
    BlowupVariety,
    is_terminal_cqs,
    is_weak_fano,
)
from wblinks._record import Record


class DivisorClass(Record):
    """The class h*H + e*E in Cl(T)."""

    __slots__ = ("h", "e")


H = DivisorClass(1, 0)
E = DivisorClass(0, 1)


class MoriStructure(Record):
    """Eff/Mov cones and the nef-chamber decomposition of Mov(T).

    ``mov_boundary_big`` is False exactly when the two largest weights tie,
    i.e. the upper boundary of Mov coincides with the boundary of Eff and
    the link ends with a fibration.
    """

    __slots__ = ("eff_lo", "eff_hi", "mov_lo", "mov_hi", "nef_chambers", "mov_boundary_big")


def anticanonical_class(T: BlowupVariety) -> DivisorClass:
    """-K_T = (d+1)H - (sum(a_i) - 1)E."""
    return DivisorClass(T.dim + 1, -(T.weight_sum - 1))


def mori_structure(T: BlowupVariety) -> MoriStructure:
    """Cone structure of T; chamber boundaries at each distinct weight value."""
    a = T.weights
    boundary_values = sorted(set(v for v in a if v <= T.second_largest))
    rays = [H] + [DivisorClass(1, -v) for v in boundary_values]
    chambers = tuple(zip(rays[:-1], rays[1:]))
    return MoriStructure(
        eff_lo=E,
        eff_hi=DivisorClass(1, -a[-1]),
        mov_lo=H,
        mov_hi=DivisorClass(1, -T.second_largest),
        nef_chambers=chambers,
        mov_boundary_big=T.second_largest < a[-1],
    )


def wall_flip_weights(T: BlowupVariety, v: int) -> tuple[int, ...]:
    """Local C*-weights of the small modification at the wall H - vE.

    The wall must be a boundary between two nef chambers of Mov(T).  The
    Cox coordinates u, x_0, x_1, ..., x_d have classes E, H, H - a_1E, ...,
    H - a_dE, and the coordinate of class hH + eE has weight
    det((h, e), (1, -v)) = -(v*h + e): -1 on u, -v on x_0 and a_j - v on
    x_j.  One coordinate of the wall's own class has weight 0 and descends
    to the base of the modification, so it is dropped.  Sorted ascending.
    """
    wall = DivisorClass(1, -v)
    if wall not in [hi for _, hi in mori_structure(T).nef_chambers[:-1]]:
        raise ValueError(f"{v} is not an interior wall of {T}")
    classes = [E, H] + [DivisorClass(1, -a) for a in T.weights]
    classes.remove(wall)
    return tuple(sorted(-(v * c.h + c.e) for c in classes))


class CyclicQuotient(Record):
    """The cyclic quotient singularity 1/index(weights).

    The weights are stored reduced modulo the index and sorted, so the
    record's field equality and hash compare values up to permutation of
    the weights and reduction modulo the index: 1/5(-1, 3, 2) is
    1/5(2, 3, 4).  A float or a string index raises TypeError
    (``operator.index``).
    """

    __slots__ = ("index", "weights")

    def __init__(self, index: int, weights: tuple[int, ...]):
        index = operator.index(index)
        if index < 1:
            raise ValueError(f"index must be positive, got {index}")
        weights = tuple(map(operator.index, weights))
        if not weights:
            raise ValueError("weight list must be nonempty")
        super().__init__(index, tuple(sorted(w % index for w in weights)))

    @property
    def is_smooth(self) -> bool:
        return self.index == 1

    @property
    def is_terminal(self) -> bool:
        return is_terminal_cqs(self.weights, self.index)

    def __str__(self) -> str:
        return f"1/{self.index}({','.join(str(w) for w in self.weights)})"


def exceptional_patch_types(blowup_weights) -> list[CyclicQuotient]:
    """Affine-patch singularity types along the exceptional divisor.

    For the blowup with positive weights (a_1,...,a_d), the patch at the
    i-th coordinate is the quotient 1/a_i(-1, a_1, ..., â_i, ..., a_d).
    Index-1 patches are smooth and returned as such.
    """
    ws = tuple(map(operator.index, blowup_weights))
    if any(w < 1 for w in ws):
        raise ValueError(f"blowup weights must be positive, got {list(ws)}")
    return [CyclicQuotient(wi, (-1,) + ws[:i] + ws[i + 1 :]) for i, wi in enumerate(ws)]


def verify_degree_inequalities(T: BlowupVariety) -> bool:
    """Check the weak-Fano degree inequalities in exact integer arithmetic.

    (sum-1)/(d+1) < (prod)^(1/d) <= sum/d, the second strict unless the
    blowup is ordinary (all weights 1).  Roots are cleared by raising both
    sides to the d-th power.  Requires T weak Fano.
    """
    if is_weak_fano(T) == NOT_WEAK_FANO:
        raise ValueError(f"{T} is not weak Fano")
    d = T.dim
    s = T.weight_sum
    p = prod(T.weights)
    first = (s - 1) ** d < (d + 1) ** d * p
    all_ones = all(w == 1 for w in T.weights)
    second = d**d * p < s**d or (d**d * p == s**d and all_ones)
    return first and second


def packed_walls_terminal(ws, tables) -> bool:
    """True iff every wall flip of the ascending tuple ws is terminal.

    The flip at each distinct v < ws[-2] has the terms w - v for every w in
    ws, then -1 and -v (a zero term adds nothing).  Each entry e > 1 is
    tested with one packed sum on ``tables[e] = (P, K, high)``, a table of
    the scan's form (see ``wblinks.singularity._residue_table``): the flip
    is terminal at e iff K plus the rows of its terms mod e has every bit
    of high set.
    """
    for v in sorted({w for w in ws if w < ws[-2]}):
        terms = [w - v for w in ws] + [-1, -v]
        for e in terms:
            if e > 1:
                P, K, high = tables[e]
                if K + sum(P[t % e] for t in terms) & high != high:
                    return False
    return True

