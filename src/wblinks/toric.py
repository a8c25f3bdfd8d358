"""The rank-2 toric variety T given by a weighted blowup of P^d at a point.

T has class group Z[H] + Z[E] where H is the pullback of a hyperplane and
E the exceptional divisor.  With ascending blowup weights a_1 <= ... <= a_d:

    Eff(T) = R+[E] + R+[H - a_d E]
    Mov(T) = R+[H] + R+[H - a_{d-1} E]
    Nef(T) = R+[H] + R+[H - a_1 E]

and the movable cone splits into nef chambers at H - vE for each distinct
weight value v.  The tests restate these cones as exact integer pairs
(``tests/reference.py``); the checks here are the integer inequalities
that place -K_T in them.
"""

from __future__ import annotations

import operator
from math import prod

from ._record import Record

FANO = "fano"
WEAK_NOT_FANO = "weak_not_fano"
NOT_WEAK_FANO = "not_weak_fano"


class BlowupVariety(Record):
    """Weighted blowup of P^dim at a point; weights stored sorted ascending."""

    __slots__ = ("dim", "weights")

    def __init__(self, dim: int, weights: tuple[int, ...]):
        dim = operator.index(dim)
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        ws = tuple(sorted(map(operator.index, weights)))
        if len(ws) != dim:
            raise ValueError(f"expected {dim} weights, got {len(ws)}")
        if any(w < 1 for w in ws):
            raise ValueError(f"blowup weights must be positive, got {list(ws)}")
        super().__init__(dim, ws)

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    @property
    def second_largest(self) -> int:
        return self.weights[-2]


def antik_in_interior_mov(T: BlowupVariety) -> bool:
    """True iff -K_T lies in the open interior of Mov(T).

    Writing -K_T in the basis {H, H - a_{d-1}E} and clearing denominators,
    interiority is the single inequality (d+1) * a_{d-1} > sum(a_i) - 1.
    """
    return (T.dim + 1) * T.second_largest > T.weight_sum - 1


def is_weak_fano(T: BlowupVariety) -> str:
    """Classify -K_T: 'fano', 'weak_not_fano' (nef, not ample), or 'not_weak_fano'.

    T is weak Fano iff sum(a_i) - 1 <= (d+1) * min(a_i), with equality iff
    -K_T is nef but not ample.  Proof, with a_1 = min(a_i):

    - -K_T = (d+1)H - (sum(a_i) - 1)E and Nef(T) = R+[H] + R+[H - a_1 E].
      In that basis -K_T = (d+1 - y)H + y(H - a_1 E) with
      y = (sum(a_i) - 1) / a_1 > 0.  So -K_T is nef iff y <= d+1, that is
      sum(a_i) - 1 <= (d+1) * a_1, and ample (in the interior) iff the
      inequality is strict.
    - Nef implies big.  (-K_T)^d = (d+1)^d - (sum(a_i) - 1)^d / prod(a_i)
      (``antik_degree``), and when -K_T is nef
      (sum(a_i) - 1)^d <= ((d+1) * a_1)^d <= (d+1)^d * prod(a_i), since
      a_1^d <= prod(a_i).  Both are equalities only if every a_i = a_1 and
      d * a_1 - 1 = (d+1) * a_1, which cannot be.  So (-K_T)^d > 0, and a
      nef divisor of positive top degree is big.
    """
    lhs = T.weight_sum - 1
    rhs = (T.dim + 1) * T.weights[0]
    if lhs < rhs:
        return FANO
    if lhs == rhs:
        return WEAK_NOT_FANO
    return NOT_WEAK_FANO


def antik_degree(T: BlowupVariety):
    """(-K_T)^d = (d+1)^d - (sum(a_i) - 1)^d / prod(a_i), exactly, as a ``Fraction``."""
    # Imported here: only `check` needs it, and it loads decimal at start.  So
    # the return type is not annotated: ``typing.get_type_hints`` would need
    # the name at module level.
    from fractions import Fraction

    d = T.dim
    return Fraction((d + 1) ** d) - Fraction((T.weight_sum - 1) ** d, prod(T.weights))
