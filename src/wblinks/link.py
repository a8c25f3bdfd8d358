"""The two-ray game: wall crossings, flip weights, end models, link pipeline.

Crossing the nef-chamber wall at H - vE is a small modification whose local
C*-weights are read off the Cox coordinates: -1 on u, -v on x_0 (weight 0),
and a_j - v on each blowup coordinate, with the one coordinate realising the
wall dropped (its weight is 0 and it descends to the base of the
modification).  Repeated wall values leave genuine zeros in the multiset and
the modification is fibre-wise.

A candidate blowup is accepted iff, in order: the blowup itself is terminal,
-K_T is interior to Mov(T), every wall crossing is terminal, and (for links
ending in a divisorial contraction) the target space is terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .singularity import _wps_terminal, is_terminal_blowup, is_terminal_wps
from .toric import BlowupVariety, antik_in_interior_mov

STAGE_BLOWUP = "blowup_not_terminal"
STAGE_INTERIOR = "antik_not_interior"
STAGE_WALL = "wall_not_terminal"
STAGE_END = "end_model_not_terminal"


@dataclass(frozen=True)
class FlipStep:
    """One small modification, crossing the wall H - wall*E."""

    wall: int
    flip_weights: tuple[int, ...]
    terminal: bool


@dataclass(frozen=True)
class Fibration:
    """End of link: fibration over P^base_dim with weighted projective fibres."""

    base_dim: int
    fiber_weights: tuple[int, ...]


@dataclass(frozen=True)
class DivContraction:
    """End of link: divisorial contraction to a center in P(target_weights)."""

    target_weights: tuple[int, ...]
    center_dim: int
    center_index: int


@dataclass(frozen=True)
class Link:
    steps: tuple[FlipStep, ...]
    end: Fibration | DivContraction


@dataclass(frozen=True)
class Rejected:
    stage: str
    wall: int | None
    detail: str


LinkResult = Link | Rejected


def _interior_walls(ws: tuple[int, ...]) -> list[int]:
    """Distinct values below the second-largest of an ascending tuple."""
    return sorted(set(v for v in ws if v < ws[-2]))


def _flip_weights(ws: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Flip weights at the wall H - vE of an ascending tuple; v not checked."""
    rest = list(ws)
    rest.remove(v)
    return tuple(sorted([-1, -v] + [w - v for w in rest]))


def _walls_terminal(ws: tuple[int, ...]) -> bool:
    """True iff every wall crossing of the ascending tuple ws is terminal.

    Not validated: the classification scan calls this on its own ascending
    candidates, and ``build_link`` runs the same check one wall at a time.
    """
    return all(_wps_terminal(_flip_weights(ws, v)) for v in _interior_walls(ws))


def interior_walls(T: BlowupVariety) -> list[int]:
    """Distinct weight values strictly below the second-largest weight.

    Each is one wall of the chamber decomposition crossed by one small
    modification on the way from Nef(T) to the far boundary of Mov(T).
    """
    return _interior_walls(T.weights)


def wall_flip_weights(T: BlowupVariety, v: int) -> tuple[int, ...]:
    """Local C*-weights of the small modification at the wall H - vE.

    Sorted ascending, d+1 entries: {-1, -v} plus a_j - v over the weights
    with one occurrence of v removed.  Zeros occur exactly when v is a
    repeated weight (fibre-wise modification).
    """
    if v not in _interior_walls(T.weights):
        raise ValueError(f"{v} is not an interior wall of {T}")
    return _flip_weights(T.weights, v)


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
        return Fibration(
            base_dim=a.count(top) - 1,
            fiber_weights=tuple(fiber),
        )
    target = sorted([1, top] + [top - w for w in a[:-1]])
    return DivContraction(
        target_weights=tuple(target),
        center_dim=a.count(T.second_largest) - 1,
        center_index=top - T.second_largest,
    )


def build_link(weights, dim: int) -> LinkResult:
    """Run the full accept/reject pipeline for a candidate blowup.

    Stages are evaluated in a fixed order and the first failure is
    reported, so rejections are stable across runs.
    """
    T = BlowupVariety(dim, tuple(weights))
    if not is_terminal_blowup(T.weights):
        return Rejected(STAGE_BLOWUP, None, f"weights={T.weights}")
    if not antik_in_interior_mov(T):
        return Rejected(STAGE_INTERIOR, None, f"weights={T.weights}")
    steps = []
    for v in _interior_walls(T.weights):
        flip = _flip_weights(T.weights, v)
        if not is_terminal_wps(flip):
            return Rejected(STAGE_WALL, v, f"flip_weights={flip}")
        steps.append(FlipStep(wall=v, flip_weights=flip, terminal=True))
    end = end_model(T)
    if isinstance(end, DivContraction) and not is_terminal_wps(end.target_weights):
        return Rejected(STAGE_END, None, f"target_weights={end.target_weights}")
    return Link(steps=tuple(steps), end=end)
