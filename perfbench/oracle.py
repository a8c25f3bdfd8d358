"""Naive reference answers for the benchmark's correctness checks.

Written from the definitions rather than from the package, with no pruning
and no shortcuts, so it can disagree with the program when either is wrong:

- 1/r(w) is terminal iff sum_i (k*w_i mod r) > r for every 0 < k < r;
- P(w) is terminal iff 1/g(w) is terminal for every gcd g > 1 of a subset of
  the entries > 1;
- a blowup weight tuple initiates a link iff the blowup 1/(sum-1)(a) is
  terminal, -K is interior to Mov ((d+1)*a_{d-1} > sum-1), every wall
  crossing at a distinct weight v < a_{d-1} has terminal flip weights
  {-1, -v} + {a_j - v : one v removed}, and, when the two largest weights
  differ, the target P(1, a_d, a_d - a_1, ..., a_d - a_{d-1}) is terminal.

An answer is a string: ``R:<stage>`` for a rejection, or
``A:<end kind>:<weights a:b:...>`` for an accepted link.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import gcd


def fmt(ws) -> str:
    return ":".join(str(w) for w in ws)


def terminal_cqs(ws, r: int) -> bool:
    return all(sum((k * w) % r for w in ws) > r for k in range(1, r))


def singular_indices(ws) -> set[int]:
    big = [w for w in ws if w > 1]
    out = set()
    for n in range(1, len(big) + 1):
        for sub in combinations(big, n):
            g = 0
            for x in sub:
                g = gcd(g, x)
            if g > 1:
                out.add(g)
    return out


def terminal_wps(ws) -> bool:
    return all(terminal_cqs(ws, g) for g in singular_indices(ws))


def is_interior(ws) -> bool:
    a = sorted(ws)
    return (len(a) + 1) * a[-2] > sum(a) - 1


def link_answer(ws) -> str:
    a = sorted(ws)
    top, second = a[-1], a[-2]
    if not terminal_cqs(a, sum(a) - 1):
        return "R:blowup_not_terminal"
    if not is_interior(a):
        return "R:antik_not_interior"
    for v in sorted({x for x in a if x < second}):
        rest = list(a)
        rest.remove(v)
        if not terminal_wps([-1, -v] + [w - v for w in rest]):
            return "R:wall_not_terminal"
    if second == top:
        return "A:fibration:" + fmt(sorted([1, top] + [top - w for w in a if w < top]))
    target = sorted([1, top] + [top - w for w in a[:-1]])
    if not terminal_wps(target):
        return "R:end_model_not_terminal"
    return "A:divisorial_contraction:" + fmt(target)


def enumerate_links(dim: int, bound: int) -> tuple[int, dict[tuple[int, ...], str]]:
    """(interior candidates, {accepted tuple: answer}) over all ascending tuples."""
    interior = 0
    accepted = {}
    for ws in combinations_with_replacement(range(1, bound + 1), dim):
        if is_interior(ws):
            interior += 1
        answer = link_answer(ws)
        if answer.startswith("A:"):
            accepted[ws] = answer
    return interior, accepted
