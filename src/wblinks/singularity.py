"""Terminality of cyclic quotient singularities and weighted blowups.

A cyclic quotient singularity 1/r(a_1,...,a_n) is the quotient of affine
n-space by the order-r diagonal action with weights a_i.  Terminality is
decided by the residue-sum criterion: the singularity is terminal iff

    sum_i smallest_residue(k * a_i, r)  >  r    for every k = 1,...,r-1.

A weighted projective space P(a_1,...,a_n), or any integer weight list,
is terminal iff the criterion holds at each of its distinct entries e > 1
(``is_terminal_wps`` proves that this equals the test at every subset
gcd).  The subset-gcd closure itself serves only ``singularity_indices``.

The public checks run the criterion as a scalar loop over k.  The
classification scan instead decides every k at once with the packed tables
of ``_residue_table``: one bit field per k, offset so that a field's top
bit is set iff its residue sum exceeds r.  That offset is the same for every
weight list, and a table's field width depends only on the number of
terms that can have a nonzero residue; so one table per index serves both
the scan's blowup test and its wall test.

Everything here is exact integer arithmetic on immutable values; all
functions are pure and thread-safe.
"""

from __future__ import annotations

import operator
from math import gcd


def _validate_weights(weights) -> tuple[int, ...]:
    """The weights as a tuple of ints.

    A float or a string raises TypeError (``operator.index``) rather than
    being truncated or parsed, as ``int`` would.
    """
    ws = tuple(map(operator.index, weights))
    if not ws:
        raise ValueError("weight list must be nonempty")
    return ws


def is_terminal_cqs(weights, index: int) -> bool:
    """Return True iff the cyclic quotient 1/index(weights) is terminal.

    Residues are always taken as the smallest nonnegative representative,
    so negative weights are allowed.  An index of 1 is smooth, hence
    vacuously terminal.
    """
    ws = _validate_weights(weights)
    r = operator.index(index)
    if r < 1:
        raise ValueError(f"index must be positive, got {r}")
    return _residue_sums_exceed(ws, r)


def _residue_sums_exceed(ws: tuple[int, ...], r: int) -> bool:
    """The residue-sum criterion: s(k) > r for every k = 1,...,r-1.

    Here s(k) is the sum of the residues (k * w) % r over the weights w, and
    m(k) counts the nonzero ones.  A nonzero residue x at k is r - x at
    r - k and a zero one stays zero, so s(k) + s(r - k) = m(k) * r.  Hence
    s(r - k) > r iff s(k) < (m(k) - 1) * r, and it suffices to visit
    k <= r/2 and check r < s(k) < (m(k) - 1) * r.

    Inputs are not validated: ``is_terminal_cqs`` and ``is_terminal_wps``
    validate them first, and the latter passes only indices r > 1.
    """
    for k in range(1, r // 2 + 1):
        s = m = 0
        for w in ws:
            x = k * w % r
            if x:
                s += x
                m += 1
        if s <= r or s >= (m - 1) * r:
            return False
    return True


def _residue_table(r: int, n: int, top: int) -> tuple[list[int], int, int]:
    """Packed residues for the criterion at index r, n + 1 nonzero terms at a time.

    Returns (P, K, high).  Field k - 1 of an integer, k = 1,...,r-1, is the
    F bits above bit F * (k - 1), with F = (n * r).bit_length() + 1.  P[x]
    holds (k * x) % r in field k - 1, for x = 0,...,min(r - 1, top).  Then
    any integers ws (negative or zero too) with at most n + 1 terms nonzero
    mod r give a terminal 1/r(ws) iff

        (K + sum(P[w % r] for w in ws)) & high == high,

    and this test is exact.  Only the terms that can have a nonzero residue
    count; a term 0 mod r adds the row P[0] = 0.  Let H = 2**(F - 1); high
    holds H in every field and K holds H - r - 1 (H > n * r >= r, so K is
    nonnegative).  The sum holds s(k) + H - r - 1 in field k - 1, where
    s(k) is the sum of the residues at k, with no borrow or carry between
    fields: 0 <= s(k) <= (n + 1) * (r - 1) = n * r + r - n - 1, and
    n * r < H, so each field stays in [H - r - 1, 2 * H): the offset's
    r + 1 below H is the headroom for the (n + 1)-th term.  The field's
    top bit is set iff s(k) >= r + 1, so all top bits are set iff
    s(k) > r for every k, which is the residue-sum criterion (Reid-Tai;
    M. Reid, "Young person's guide to canonical singularities", 1987).  The
    offset is the same for every list, so no identity between the weights
    is needed: a blowup's sum(ws) = r + 1 makes s(k) = k mod r, but the
    test does not rely on it.
    Weights below r need no reduction, as in the scan's blowup test.

    No per-k loop: q holds k in field k - 1, and P[x] is P[x - 1] + q with
    r taken off each field that reaches r.  Fields stay below 2 * r - 1, so
    those are the fields whose top bit adding H - r sets.  The table takes
    about (min(r - 1, top) + 1) * (r - 1) * F / 8 bytes.
    """
    F = (n * r).bit_length() + 1
    shift = F - 1
    mask = (1 << F * (r - 1)) - 1
    ones = mask // ((1 << F) - 1)
    high = ones << shift
    q = ones * ones & mask  # the square of ones holds k in field k - 1
    lift = high - r * ones
    P = [0]
    x = 0
    for _ in range(min(r - 1, top)):
        x += q
        x -= ((x + lift & high) >> shift) * r
        P.append(x)
    return P, high - (r + 1) * ones, high


def is_terminal_blowup(weights) -> bool:
    """Return True iff the weighted blowup of a smooth point is terminal.

    The blowup T with positive weights a = (a_1,...,a_n), n >= 2, is smooth
    off its exceptional divisor, which the charts 1/a_j(-1, a_i : i != j)
    cover; so T is terminal iff every chart is.  Chart lemma: every chart
    is terminal iff 1/V(a) is, V = sum(a) - 1, and this function tests
    1/V(a).  The tests list the charts (``exceptional_patch_types`` in
    ``tests/reference.py``) and check the lemma against them.

    Proof.  Write the criterion with ages: the age of 1/r(b) at k is
    sum({k * b_i / r}), the residue sum over r, and terminal means every
    age > 1.  In Z^n with unit vectors e_i, the lattice points of the cone
    on a and e_i (i != j) with coordinates mu, lambda_i in [0, 1) are
    mu = k / a_j, lambda_i = {-k * a_i / a_j}; k -> a_j - k turns their
    coordinate sums into the ages of chart j.  So chart j is terminal iff
    the simplex conv(0, a, e_i : i != j) holds no lattice point but its
    vertices.  These n simplices make up {x >= 0 : phi(x) <= 1} with
    phi(x) = sum(x) - V * min_j(x_j / a_j), which is 1 at a and each e_i,
    linear on each cone and convex; so their union is the convex hull P of
    0, a and the e_i.  The plane sum(x) = 1 cuts P into conv(0, e_i), whose
    only lattice points are its vertices, and S = conv(a, e_i).  A point
    x = mu * a + sum(lambda_i * e_i) of S has sum(x) = 1 + mu * V.
    - If x is a lattice point of S other than a vertex, then k = mu * V is
      in 1..V-1, and lambda_i >= 0 with sum(lambda) = 1 - mu < 1 gives
      lambda_i = {-k * a_i / V}.  So 1/V(a) has age 1 - k / V <= 1 at V - k.
    - If 1/V(a) has age <= 1 at V - k, set lambda_i = {-k * a_i / V}.  Then
      x = (k / V) * a + lambda is integral, and sum(x) = k + k / V +
      sum(lambda) is an integer in (k, k + 2), so sum(lambda) = 1 - k / V
      and x is a lattice point of S with 0 < mu < 1, not a vertex.
    Both directions use only the residue sums, so the lemma holds for any
    positive weights; ``test_singularity`` checks it exhaustively on small
    tuples.
    """
    ws = _validate_weights(weights)
    if len(ws) < 2:
        raise ValueError("blowup needs at least 2 weights")
    if any(w < 1 for w in ws):
        raise ValueError(f"blowup weights must be positive, got {list(ws)}")
    return is_terminal_cqs(ws, sum(ws) - 1)


def singularity_indices(weights) -> tuple[int, ...]:
    """Indices of the singularities of the weighted projective space P(weights).

    Returns the ascending deduplicated gcds g > 1 over all nonempty subsets
    of the entries strictly greater than 1.  Entries <= 1 (zeros, negatives)
    never contribute.
    """
    ws = _validate_weights(weights)
    big = [w for w in ws if w > 1]
    # Incremental subset-gcd closure: after processing x, `seen` holds the
    # gcd of every nonempty subset processed so far.
    seen: set[int] = set()
    for x in big:
        seen |= {gcd(x, g) for g in seen} | {x}
    return tuple(sorted(g for g in seen if g > 1))


def is_terminal_wps(weights) -> bool:
    """Terminality of a weighted projective space (or any integer weight list).

    By definition the residue-sum criterion holds at every singularity
    index, every gcd g > 1 of a subset of the entries > 1.  It is tested
    at the distinct entries e > 1 only, which decides the same:

    - the criterion at e implies it at every divisor g > 1 of e: at
      k = m * e / g, each residue (k * w) % e is e / g times (m * w) % g,
      so s_e(k) > e iff s_g(m) > g, for m = 1,...,g-1;
    - every subset gcd divides an entry, and every entry e > 1 is the
      gcd of the subset {e}.

    Vacuously true when no entry exceeds 1.
    """
    ws = _validate_weights(weights)
    return all(_residue_sums_exceed(ws, e) for e in set(ws) if e > 1)
