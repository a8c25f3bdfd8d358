"""The two-ray game: wall crossings, flip weights, end models, link pipeline.

Crossing the nef-chamber wall at H - vE is a small modification whose local
C*-weights are read off the Cox coordinates: -1 on u, -v on x_0 (weight 0),
and a_j - v on each blowup coordinate, with the one coordinate realising the
wall dropped (its weight is 0 and it descends to the base of the
modification).  Repeated wall values leave genuine zeros in the multiset and
the modification is fibre-wise.

A candidate blowup is accepted iff, in order: the blowup itself is terminal,
-K_T is interior to Mov(T), and every wall crossing is terminal.  When the
link ends in a divisorial contraction its target is then terminal by proof,
so it is not checked.  The Cox coordinates u, x_0, x_1, ..., x_d have
classes E, H, H - a_1E, ..., H - a_dE.  Let T_n be the last model, whose
nef cone ends at H - wE with w = a_{d-1}.  On T_n the coordinates split
into a lower side (u, x_0, and each x_i with a_i < w) and an upper side
(each x_j with a_j >= w).

- T_n is simplicial toric, so it is Q-factorial: its ample classes lie off
  every wall, so two classes from opposite sides are independent.
- A torus-fixed point of T_n has exactly two nonzero coordinates, one from
  each side.  Its singularity depends only on that pair, not on the
  chamber: it is the quotient by the stabilizer of the pair, a cyclic
  group of order |det| of their two classes.  A pair (u, x_j) has
  |det| = 1, a smooth point.  A pair (x_0, x_j) is the chart
  1/a_j(-1, a_i : i != j) of T on E, which the blowup test certifies
  (``is_terminal_blowup``: T is terminal iff 1/V(a) is).  A pair
  (x_i, x_j) with a_i < w <= a_j first exists past the wall v = a_i, in
  the locus that flip creates.  The stabilizer of x_i is the C* acting
  with the flip weights, so the point is 1/(a_j - v)(flip weights): the
  entry a_j - v, of x_j itself, adds 0 to every residue sum, and a_j - v
  is an entry of the flip, so ``is_terminal_wps(flip)`` tests the
  criterion there.  So, wall by wall, every model T_1, ..., T_n is terminal.
- The final contraction is K-negative.  The curves it contracts are zero
  on H - wE and positive on the interior of Nef(T_n), so they are positive
  on the whole open half-plane on that side of H - wE.  That half-plane
  holds the interior of Mov(T), where -K_T lies.  A K-negative divisorial
  contraction of a terminal Q-factorial variety has a terminal target
  (Kollar-Mori, *Birational Geometry of Algebraic Varieties*, 1998,
  Cor. 3.43).
"""

from __future__ import annotations

from ._record import Record
from .singularity import is_terminal_blowup, is_terminal_wps
from .toric import BlowupVariety, antik_in_interior_mov

STAGE_BLOWUP = "blowup_not_terminal"
STAGE_INTERIOR = "antik_not_interior"
STAGE_WALL = "wall_not_terminal"


class FlipStep(Record):
    """One small modification, crossing the wall H - wall*E."""

    __slots__ = ("wall", "flip_weights")


class Fibration(Record):
    """End of link: fibration over P^base_dim with weighted projective fibres."""

    __slots__ = ("base_dim", "fiber_weights")


class DivContraction(Record):
    """End of link: divisorial contraction to a center in P(target_weights)."""

    __slots__ = ("target_weights", "center_dim", "center_index")


class Link(Record):
    """An accepted candidate: its flips, in wall order, then the end of the link."""

    __slots__ = ("steps", "end")


class Rejected(Record):
    """A refused candidate: the first stage it fails, the wall (None before the walls), a detail."""

    __slots__ = ("stage", "wall", "detail")


LinkResult = Link | Rejected


def _link_fields(link: Link):
    """A link as plain tuples that ``marshal`` writes: ``_link_from_fields`` inverts it.

    The fields are the steps as (wall, flip_weights) and the end's field
    tuple: two fields for a ``Fibration``, three for a ``DivContraction``.
    """
    return tuple(step._astuple for step in link.steps), link.end._astuple


def _link_from_fields(fields) -> Link:
    """The link that ``_link_fields`` wrote."""
    steps, end = fields
    end_type = Fibration if len(end) == 2 else DivContraction
    return Link(tuple(FlipStep(*step) for step in steps), end_type(*end))


def _flip_weights(ws: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Flip weights at the wall H - vE of an ascending tuple; v not checked."""
    rest = list(ws)
    rest.remove(v)
    return tuple(sorted([-1, -v] + [w - v for w in rest]))


def interior_walls(T: BlowupVariety) -> list[int]:
    """Distinct weight values strictly below the second-largest weight.

    Each is one wall of the chamber decomposition crossed by one small
    modification on the way from Nef(T) to the far boundary of Mov(T).
    """
    return sorted({v for v in T.weights if v < T.second_largest})


def display_orientation(flip_weights) -> tuple[int, ...]:
    """Negated, descending form of a flip multiset (extracted locus first)."""
    return tuple(sorted((-x for x in flip_weights), reverse=True))


def end_model(T: BlowupVariety) -> Fibration | DivContraction:
    """End of the two-ray game past the last chamber of Mov(T).

    Fibration when the two largest weights tie (H - a_{d-1}E is not big),
    divisorial contraction otherwise.
    """
    a = T.weights
    top = a[-1]
    if T.second_largest == top:
        fiber = sorted([1, top] + [top - w for w in a if w < top])
        return Fibration(a.count(top) - 1, tuple(fiber))
    target = sorted([1, top] + [top - w for w in a[:-1]])
    return DivContraction(tuple(target), a.count(T.second_largest) - 1, top - T.second_largest)


def build_link(weights, dim: int) -> LinkResult:
    """Run the three-stage accept/reject pipeline for a candidate blowup.

    The stages are blowup, interior and walls, evaluated in that order;
    the first failure is reported, so rejections are stable across runs.
    An accepted link's divisorial target is terminal without a check (see
    the module docstring for the proof):

    - the last model T_n is simplicial toric, so it is Q-factorial;
    - each torus-fixed point of T_n is a chart of T, which the blowup
      stage certifies, or lies in the locus one flip creates, which that
      wall's ``is_terminal_wps(flip)`` certifies; by induction over the
      walls T_n is terminal;
    - the final contraction is K-negative, as -K_T is interior to Mov(T),
      so its target is terminal (Kollar-Mori, Cor. 3.43).
    """
    T = BlowupVariety(dim, tuple(weights))
    if not is_terminal_blowup(T.weights):
        return Rejected(STAGE_BLOWUP, None, f"weights={T.weights}")
    if not antik_in_interior_mov(T):
        return Rejected(STAGE_INTERIOR, None, f"weights={T.weights}")
    steps = []
    for v in interior_walls(T):
        flip = _flip_weights(T.weights, v)
        if not is_terminal_wps(flip):
            return Rejected(STAGE_WALL, v, f"flip_weights={flip}")
        steps.append(FlipStep(v, flip))
    return Link(tuple(steps), end_model(T))
