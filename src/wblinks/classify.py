"""Bounded exhaustive classification of link-initiating blowup weights.

Candidates are generated as ascending tuples (so "up to permutation" is
structural) and the scan keeps those that pass, in order: the cheap
interior-movable inequality, blowup terminality, and terminality of every
wall crossing.  The survivors run through the full link pipeline.  The top
weight is bounded both by the caller's bound and by the interior inequality
itself, which caps the otherwise unbounded direction.

The published answer sets are finite (4 triples, 421 quadruples) but no
a-priori bound on the top weight is available for dimension 4; stabilization
under bound doubling is the empirical surrogate.  Acceptance does not depend
on the bound, so the run at 2B holds the run at B (its tuples with top
weight <= B), and B is stable iff no tuple with top weight in (B, 2B] is
accepted.  So the one stabilizing scan runs at 2B but scans everything only
up to B: above B it looks for one accepted tuple, and each process that
finds one scans the rest of its share at B.

Soundness: the scan drops only tuples that ``build_link`` would reject at
the interior, blowup or wall stage, and every tuple it returns has been
re-run through those three stages, which are the whole of acceptance (a
divisorial end's target is terminal by the proof in ``wblinks.link``).
Each scanning process builds its own tables and runs ``build_link`` at
most once on each of its own survivors, so a survivor is re-checked in
the process that found it, and only the ones it accepts leave that
process.  The scan's blowup and wall tests are packed: both sum rows of
the one ``_residue_table`` of each index and test every k of the
residue-sum criterion with one mask.  The wall test is one test, at
every entry > 1 of every flip; the row rule and the per-head memo of flip
sums of ``_scan_partition`` are parts of those same tests.  A head's memo
lives only while its candidates are scanned, so it holds nothing of
another head and crosses neither the fork nor the cut.
``build_link`` re-checks the blowup and every wall with the scalar
residue-sum loop, which shares no code with the packed test; both test
each flip at its own entries > 1 (see ``is_terminal_wps``).  So a scan bug
can only lose candidates, never add spurious ones; the pruned-vs-naive and
scan-vs-literal-criterion tests guard the losing direction, and the
packed-vs-scalar tests compare the two forms of the criterion.
"""

from __future__ import annotations

import marshal
import operator
import os
import signal
from collections import Counter
from itertools import combinations_with_replacement
from math import comb

from ._record import Record
from .link import Link, _link_fields, _link_from_fields, build_link
from .singularity import _residue_table

# The CLI's bound when none is given: dimension 3 is complete at any bound
# >= 5 (see ``classify``), and 39 is the stabilized bound of dimension 4.
DEFAULT_BOUNDS = {3: 64, 4: 39}

# The largest bound a scan may run at, per dimension; ``_check_scan`` refuses
# a larger one before any work.  These are the bounds that a budget of 12 M
# candidates and 32 MiB of blowup tables admitted: dimension 4 has
# 11,922,812 candidates at bound 130, and 131 would pass 12 M; dimension 3's
# blowup tables, about 7 * B**3 bytes at bound B, would pass 32 MiB at 171.
# Measured in process with Python 3.11, the scan's tables (built by
# ``_scan_partition``, one list in each scanning process) hold 33.7 MiB as
# Python objects in a serial dimension-3 scan at 170, and 28.0 MiB in
# dimension 4 at 130; those scans peak at 50.5 MB and 46.4 MB.
MAX_BOUNDS = {3: 170, 4: 130}

# Each scanning process builds every table, about TABLE_BYTES[dim] * B**3
# bytes at bound B.  ``worker_count`` starts no more processes than keep
# that estimate, summed over them, within SCAN_TABLES_BUDGET: 256 MiB,
# eight times the 32 MiB of one scan's tables above.  That is 7 processes
# at the dimension-3 cap and 9 at the dimension-4 cap, whose tables, as
# measured above, hold 236 MiB and 252 MiB in all.
TABLE_BYTES = {3: 7, 4: 13.5}
SCAN_TABLES_BUDGET = 256 * 2**20


class ClassificationRun(Record):
    """One scan's answer: each accepted tuple mapped to its link, in sorted order.

    ``links`` is the run's one field of results; its keys are the accepted
    tuples, ascending, so ``accepted`` is ``tuple(links)``.  jobs counts the
    processes that scanned.  A run's hash is the hash of its fields, and
    ``links`` is a dict, so hashing a run raises TypeError.
    """

    __slots__ = ("dim", "bound", "links", "jobs")

    @property
    def accepted(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.links)

    @property
    def shape_counts(self) -> dict[str, int]:
        """Accepted tuples per ``shape_of`` bucket."""
        return dict(Counter(map(shape_of, self.links)))


def shape_of(weights: tuple[int, ...]) -> str:
    """Equality-pattern bucket of an ascending accepted tuple."""
    if weights[0] == 1 and all(w == 1 for w in weights[:-1]):
        return "(" + ",".join(["1"] * (len(weights) - 1)) + ",d)"
    if len(weights) == 4 and weights[0] == weights[1] == 1:
        return "(1,1,c,d)"
    if all(x < y for x, y in zip(weights, weights[1:])):
        return "strictly-increasing"
    if weights[0] == 1:
        return "one-equality-with-1"
    if len(weights) == 4 and weights[2] == weights[3]:
        return "(a,b,c,c)-fibration"
    return "one-equality-no-1"


def _partitions(dim: int, bound: int):
    """Ascending heads: the dim - 2 smallest weights of a candidate."""
    return list(combinations_with_replacement(range(1, bound + 1), dim - 2))


def _head_sum(head: tuple[int, ...], v: int, e: int, tables):
    """(P, x, high) of ``tables[e]`` for the flip at v, less its terms c - v and d - v.

    x is the offset plus the rows of -1, -v and w - v for each w in head:
    every term of the flip at v but the two that the candidate's c and d
    add.  It depends only on the head, v and e.
    """
    P, K, high = tables[e]
    x = K + P[e - 1] + P[-v % e]
    for w in head:
        x += P[(w - v) % e]
    return P, x, high


def _walls_terminal(ws: tuple[int, ...], tables, memo) -> bool:
    """True iff every wall crossing of the ascending candidate ws is terminal.

    This is ``is_terminal_wps``'s rule, packed, on each flip: for each
    distinct v < ws[-2], in ascending order, the terms are w - v for every
    w in ws, then -1 and -v.  That is ``link._flip_weights`` with its
    zeros, plus one more zero from w = v; a zero adds the row P[0] = 0 and
    is no entry > 1.  That leaves at most dim + 1 nonzero terms, summed at
    each entry e > 1 on the rows of ``tables[e]``.

    The entries > 1 of the flip at v are e = a - v > 1 for a in ws.  Every
    term of the flip but c - v and d - v, where (c, d) = ws[-2:], depends
    only on the head, v and e, so at each entry e the flip's sum is the
    head's x (``_head_sum``) plus the rows of c - v and d - v.  memo,
    built once per head by ``_scan_partition``, holds (v, row) for each
    distinct head weight v, ascending; row[e] is None until the first test
    of a flip at v at the entry e fills it with (P, x, high).  So the one
    test runs over v ascending, then a in ws, with two row lookups per
    entry (at e = c - v or d - v one of them is P[0] = 0): every entry > 1
    of every flip, and a repeated weight's entry once more.
    """
    c, d = ws[-2:]
    for v, row in memo:
        if v >= c:
            break
        for a in ws:
            e = a - v
            if e > 1:
                m = row[e]
                if m is None:
                    m = row[e] = _head_sum(ws[:-2], v, e, tables)
                P, x, high = m
                if x + P[(c - v) % e] + P[(d - v) % e] & high != high:
                    return False
    return True


def _scan_partition(dim: int, bound: int, heads, cut: int) -> list:
    """One process's share of the scan: (ws, link) for each survivor ``build_link`` accepts.

    The candidates are (*head, c, d), head in heads, c <= d <= bound.

    The process builds its own tables, ``tables[r]`` =
    ``_residue_table(r, dim, bound)`` for every index r = 2, ...,
    dim * bound - 1 (0 and 1 are unused).  The blowup test reads
    ``tables[sum(head) + S - 1]`` once per head and S = c + d, which runs
    up to dim * bound - 1, where every weight is the bound; the wall test
    reads ``tables[e]`` at each flip entry e > 1, at most bound - 1, and
    the bound's rows hold every residue mod e.  The blowup test sums dim
    terms and a flip has at most dim + 1 nonzero ones, and a table for n
    terms is exact on n + 1 (see ``_residue_table``).  A full scan meets
    every index in that range.  The tables take about
    ``TABLE_BYTES[dim] * B**3`` bytes at bound B: 0.9 MiB at B = 40 and
    6.1 MiB at B = 78 in dimension 4.  The tables go once the share is
    scanned, before the survivors at or below the cut are linked.

    Index-major: the blowup index V = sum(head) + S - 1 depends only on the
    head and on S = c + d, so for each head the loop runs over S =
    2 * head[-1], ..., 2 * bound.  For each S it fetches ``tables[V]`` once
    and sums the head's rows into ``base`` once; a candidate then adds the
    rows of c and d = S - c.  Blowup terminality is the residue-sum
    criterion at index V, decided for every k at once by that sum; every
    weight is below V, so no row index needs reducing.  The
    interior-movable inequality (dim + 1) * c > sum(weights) - 1, with
    d <= bound and c <= d, leaves exactly the c in max(head[-1], S - bound,
    ceil((S + sum(head)) / (dim + 1))), ..., S // 2.  The wall test
    ``_walls_terminal``, on the same tables, runs last on the blowup
    survivors: about one candidate in ten at bound 40 in dimension 4.
    ``build_link`` re-checks each survivor with the scalar loop, which
    shares no code with the packed tests.  ``_survivors`` sorts the pairs.

    Two parts of those tests act once per row or head, not per candidate.
    The row rule is the criterion at k = V/2 for an even V: a weight has
    residue V/2 there if it is odd and 0 if it is even, so s(V/2) =
    (V/2) * (number of odd weights), which exceeds V only with three or
    more odd weights.  With o odd head weights, V is even iff
    o + S is odd.  So a head with o = 0 skips every odd S, where c and d
    hold one odd weight; a head with o = 1 takes only odd c at an even S,
    so that c and d = S - c are both odd; and o >= 2 always has three.  The
    rule drops a row before its table is fetched, or steps c by 2.  The
    memo: the flip at a wall v has the entry e = a - v > 1 for each a in
    ws, and every term of the flip but c - v and d - v depends only on
    the head.  So each head makes a memo with one row per distinct head
    weight v, indexed by e.  ``_walls_terminal`` fills row[e] with the
    head-only sum the first time it tests a flip at v at e, and tests
    every entry, c - v, d - v and the head-only ones (b - a at the wall a
    in dimension 4), with two row lookups; the wall test has no other
    path.  Each (v, e) costs one sum per head; at bound 40 in dimension 4,
    21,951 flip-entry tests fill 3,243 entries.  The memo goes with its
    head.  The row rule adds no test per candidate, and neither rule nor
    the memo changes the survivors.

    No survivor runs through ``build_link`` twice.  Those with top weight
    <= cut are linked once each, after the loop, with the tables gone.
    Above the cut each survivor is linked where it is found, until one is
    accepted, the witness: a rejected one is dropped, and from the witness
    on the scan runs at bound cut and links nothing above it.  It skips
    the heads with top weight above the cut, and its ranges of S and c
    shrink to d <= cut; the witness's own head stops at S = 2 * cut.  So
    the list holds every accepted tuple up to the cut, and above it at
    most the witness.  At cut == bound no survivor is above the cut, so
    that is the plain scan at the bound.
    """
    tables = [None, None] + [
        _residue_table(r, dim, bound) for r in range(2, dim * bound)
    ]
    found, out = [], []
    top = bound  # the scan's bound: cut once a witness is found
    for head in heads:
        if head[-1] > top:
            continue
        h = sum(head)
        odd = sum(a & 1 for a in head)
        memo = [(v, [None] * top) for v in sorted(set(head))]
        for S in range(2 * head[-1], 2 * top + 1, 1 + (odd == 0)):
            if S > 2 * top:
                break
            P, K, high = tables[h + S - 1]
            base = K
            for a in head:
                base += P[a]
            low = max(head[-1], S - top, -(-(S + h) // (dim + 1)))
            step = 1
            if odd == 1 and not S & 1:
                low |= 1
                step = 2
            for c in range(low, S // 2 + 1, step):
                if base + P[c] + P[S - c] & high == high:
                    ws = head + (c, S - c)
                    if _walls_terminal(ws, tables, memo):
                        if S - c <= cut:
                            found.append(ws)
                        elif top > cut and isinstance(link := build_link(ws, dim), Link):
                            out.append((ws, link))
                            top = cut
    del tables
    return out + [(ws, link) for ws in found if isinstance(link := build_link(ws, dim), Link)]


def _allow(cpus) -> None:
    """Let this process run only on cpus, unless cpus is empty.

    Best effort: which CPU a scanning process runs on never changes what
    it returns, so an ``OSError`` (a CPU taken offline, say) is ignored.
    """
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _survivors(dim: int, bound: int, jobs: int, cut: int) -> list:
    """The scan's accepted (ws, link) pairs, sorted, from jobs processes.

    This function owns the scan's processes: it builds the heads, forks
    jobs - 1 children, which inherit them, and scans a share itself, so a
    serial scan forks nothing.  Process i of 0, ..., jobs - 1 (0 is the
    parent) makes one ``_scan_partition`` call on the interleaved heads
    ``heads[i::jobs]``, which spreads the costly heads of large weights
    evenly.  Each process builds its own tables after the fork and runs
    ``build_link`` at most once on each of its own survivors, so the
    children start with no tables to copy and the parent links only its
    own share.  A child writes its accepted pairs to its own pipe as
    ``marshal`` bytes, each link as ``link._link_fields`` writes it, and
    always leaves by ``os._exit``: 0 once it is written, 1 on any
    exception, whose ``repr`` it writes to the pipe instead.  So it never
    flushes the parent's buffers or runs its ``finally`` clauses or exit
    handlers.  It opens its pipe before any other step, placement
    included, so only a child killed by a signal reports no exception.
    The parent scans and links its own share before it reads
    any pipe, then reads each pipe to EOF before it reaps that child and
    rebuilds the child's links.  A child
    that exits nonzero fails the scan with a ``RuntimeError`` that quotes
    what the child wrote.  A fork that fails closes its pipe.  However the
    scan ends, the ``finally`` kills and reaps every child not yet reaped.
    The parent merges the lists and sorts them once by the tuple, so the
    order does not depend on the split.

    Where ``os.sched_setaffinity`` exists, each process starts on its own
    CPU of the affinity mask: the parent moves onto the mask's first CPU
    before its first fork, child i onto CPU i mod n of the mask's n once its
    pipe is open, and each then allows the whole mask again, so the kernel
    stays free to move it.  Left to the kernel, the parent and the child
    of a ``--jobs 2`` scan at (4, 40) both ran their whole shares on one
    CPU of two, each taking about twice its CPU time in wall time.  The
    parent allows the whole mask again after its last fork and in the
    ``finally``, so no exit leaves it narrowed; a serial scan makes no
    affinity call.

    The cut goes to every process: each keeps every accepted tuple with
    top weight <= cut, and stops looking above the cut at its own first
    accepted one (see ``_scan_partition``).  So the list holds at most
    one pair above the cut from each process, and none only when
    ``build_link`` accepts no survivor above it.  A plain scan at the
    bound passes cut == bound and has no survivor above the cut.
    """
    heads = _partitions(dim, bound)
    pending = {}  # pid -> read end of its pipe, for each child not yet reaped
    cpus = sorted(os.sched_getaffinity(0)) if jobs > 1 and hasattr(os, "sched_setaffinity") else []
    try:
        _allow(cpus[:1])
        for i in range(1, jobs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    with open(w, "wb") as pipe:
                        try:
                            if cpus:
                                _allow([cpus[i % len(cpus)]])
                                _allow(cpus)
                            os.close(r)
                            data = marshal.dumps([
                                (ws, _link_fields(link))
                                for ws, link in _scan_partition(dim, bound, heads[i::jobs], cut)
                            ])
                        except BaseException as exc:
                            pipe.write(repr(exc).encode())
                            raise
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            pending[pid] = open(r, "rb")
        _allow(cpus)
        out = _scan_partition(dim, bound, heads[::jobs], cut)
        for pid, pipe in list(pending.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del pending[pid]
            if status:
                raise RuntimeError(
                    f"scan process {pid} failed with exit code "
                    f"{os.waitstatus_to_exitcode(status)}: "
                    f"{data.decode(errors='replace') or 'no exception reported'}"
                )
            out += [(ws, _link_from_fields(fields)) for ws, fields in marshal.loads(data)]
    finally:
        _allow(cpus)
        for pid, pipe in pending.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    out.sort(key=operator.itemgetter(0))
    return out


def _check_scan(dim: int, bound: int) -> None:
    """Raise ValueError unless dim is 3 or 4 and 2 <= bound <= MAX_BOUNDS[dim].

    A float or a string dim or bound raises TypeError (``operator.index``).
    """
    dim, bound = operator.index(dim), operator.index(bound)
    if dim not in MAX_BOUNDS:
        raise ValueError(f"dim must be 3 or 4, got {dim}")
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    if bound > MAX_BOUNDS[dim]:
        raise ValueError(
            f"a dim-{dim} scan at bound {bound} is over budget: "
            f"the largest bound is {MAX_BOUNDS[dim]}"
        )


def worker_count(jobs: int, dim: int, bound: int) -> int:
    """Processes that scan: jobs capped by the usable CPUs, partitions and memory.

    The scan forks all but one of them at once, so an uncapped count would
    start that many processes.  Usable CPUs are the affinity mask where
    ``os.sched_getaffinity`` exists (Linux) and ``os.cpu_count()``
    elsewhere; without ``os.fork`` the scan runs in one process.  Each
    process builds every table, so the count is also capped at the number
    whose tables, ``TABLE_BYTES[dim] * bound**3`` bytes each, fit within
    ``SCAN_TABLES_BUDGET``, and is never below 1.  A float or a string
    jobs, dim or bound raises TypeError (``operator.index``).
    """
    jobs, dim, bound = map(operator.index, (jobs, dim, bound))
    if jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    partitions = comb(bound + dim - 3, dim - 2)
    memory = max(1, int(SCAN_TABLES_BUDGET // (TABLE_BYTES[dim] * bound**3)))
    return min(jobs, cpus, partitions, memory)


def classify(dim: int, bound: int, jobs: int = 1) -> ClassificationRun:
    """Classify all ascending weight tuples with top weight <= bound.

    One scan at the bound with its cut at the bound (see ``_classify``).
    Deterministic: the accepted list is lexicographically sorted regardless
    of worker count or execution order.

    In dimension 3 the answer is (1,1,1), (1,1,2), (1,2,3), (1,2,5) at every
    bound >= 5.  The terminal lemma (Morrison-Stevens, Proc. AMS 90, 1984)
    says that a terminal 1/r(x, y, z) has, up to order, x + y = 0 mod r
    with x and z prime to r.  For an ascending triple (a, b, c):

    - The blowup-terminal triples are (1, b, c) with gcd(b, c) = 1.  In
      1/V(a, b, c), V = a + b + c - 1, two entries sum to V + 1 minus the
      third, so the third is 1, and then b must be prime to V = b + c.
    - For 1 < b < c the only wall is at 1, with flip (-1, -1, b-1, c-1).
      At its index c - 1 the entry c - 1 is 0, so -2 or b - 2 is 0 mod
      c - 1, which forces c <= 3 or b = 2.  (1, 1, c) has no wall.
    - -K is interior iff c < 3b.  That leaves (1, 1, 1) and (1, 1, 2) for
      b = 1, and (1, 2, 3) and (1, 2, 5) for 1 < b < c.

    In dimension 4 the wall at 1 settles the family (1, 1, c, d),
    1 <= c <= d, in the same way: it is (1, 1, 1, 1), (1, 1, 1, 2),
    (1, 1, 2, 2) and (1, 1, 2, d) for 3 <= d <= 6, at every bound >= 6.
    -K is interior iff 5c > c + d + 1, that is d <= 4c - 2.

    - c = 1 leaves d <= 2: (1, 1, 1, 1) and (1, 1, 1, 2), which have no
      wall.
    - For c >= 2 the only wall is at 1, with flip (-1, -1, 0, c-1, d-1).
      If d >= 3, test its entry d - 1 at k = d - 2: the residues are 1,
      1, 0, (1 - c) mod (d - 1) and 0.  For c < d they sum to d - c + 2,
      which exceeds d - 1 only if c = 2; the interior inequality then
      gives d <= 6.  For c = d they sum to 2 <= d - 1.
    - So c = d leaves only (1, 1, 2, 2).

    ``build_link`` accepts all seven.  The family (1, 2, 2, d), d >= 2, is
    (1, 2, 2, 3) and (1, 2, 2, 5) at every bound >= 5:

    - The only wall is at 1, with flip (-1, -1, 1, 1, d-1).  Its only
      entry > 1 is e = d - 1, when d >= 3; at index e and every k the
      residues are e - k, e - k, k, k and 0, which sum to 2e > e.  So the
      wall is terminal for every d.
    - -K is interior iff 10 > d + 4, that is d <= 5.
    - The blowup 1/V(1, 2, 2, d), V = d + 4, is not terminal at d = 2
      (V = 6: the residue sum at k = 3 is 3) or at d = 4 (V = 8: the
      residue sum at k = 4 is 4).  That leaves (1, 2, 2, 3) and
      (1, 2, 2, 5), and ``build_link`` accepts both.

    The family (1, b, c, c), 2 <= b < c, is (1, 2, 3, 3) and (1, 2, 5, 5) at
    every bound >= 5:

    - The wall at 1 has flip (-1, -1, b-1, c-1, c-1).  At its entry c - 1
      the two entries c - 1 are 0, so it is 1/(c-1)(-1, -1, b-1) times a
      plane, and that quotient must be terminal.  By the terminal lemma two
      of -1, -1 and b - 1 sum to 0 mod c - 1.  Either (c - 1) | 2, so c = 3
      and then b = 2; or (c - 1) | (b - 2), and 0 <= b - 2 < c - 1 gives
      b = 2.
    - With b = 2 the wall at 2 has flip (-2, -1, -1, c-2, c-2), whose only
      entry > 1 is c - 2, when c >= 4.  There it is 1/(c-2)(-2, -1, -1)
      times a plane, so the lemma needs (c - 2) | 3 or (c - 2) | 2: c = 5
      or c = 4.  At c = 4 the residues at k = 1 are 0, 1 and 1, which sum
      to 2 <= 2.  At c = 3 the flip has no entry > 1.  That leaves
      (1, 2, 3, 3) and (1, 2, 5, 5).
    - The wall at 1 of (1, 2, c, c) is terminal for every c: at its entry
      e = c - 1 and every k the residues are e - k, e - k, k, 0 and 0, which
      sum to 2e - k > e.  -K is interior iff 5c > 2c + 2, which always
      holds, and ``build_link`` accepts both.

    A blowup-terminal (a, b, c, c) with 2 <= a < b < c has c = a + b:

    - By the chart lemma (see ``is_terminal_blowup``) its chart at c,
      1/c(-1, a, b, c) = 1/c(-1, a, b, 0), is terminal.  The entry 0 adds
      nothing to any residue sum, so that chart is 1/c(-1, a, b) times a
      line, and 1/c(-1, a, b) is terminal.
    - By the terminal lemma two of -1, a and b sum to 0 mod c.
    - 1 <= a - 1 < b - 1 < c, so neither -1 + a nor -1 + b is 0 mod c.
      So a + b is, and 0 < a + b < 2c gives a + b = c.

    So the shape is blowup-terminal only at (2, 3, 5, 5) and (3, 5, 8, 8),
    at every bound, and only the first is accepted:

    - The chart at b is 1/b(-1, a, c, c) = 1/b(-1, a, a, a), since
      c = a + b.
    - If g = gcd(a, b) > 1, at k = b/g the residues are b - k, 0, 0 and
      0, which sum to b - b/g < b, so the chart is not terminal.
      Otherwise let k = 1/a mod b, so 1 <= k < b.  The residues are
      b - k, 1, 1 and 1, so k <= 2.  k = 1 would make a = 1 mod b, which
      2 <= a < b rules out.  So 2a = 1 mod b, and 4 <= 2a < 2b gives
      2a = b + 1: b = 2a - 1.
    - The chart at a is then 1/a(-1, 2a - 1, 3a - 1, 3a - 1) =
      1/a(-1, -1, -1, -1).  At k = a - 1 each residue is 1, and their sum
      4 exceeds a only if a <= 3.  a = 2 and a = 3 give (2, 3, 5, 5) and
      (3, 5, 8, 8), and both blowups are terminal.
    - ``build_link`` rejects (3, 5, 8, 8) at its wall at 3, whose flip
      (-3, -1, 2, 5, 5) at the entry 5 has residues 1, 2, 1, 0 and 0 at
      k = 3, which sum to 4 <= 5.  It accepts (2, 3, 5, 5).

    The family (1, b, b, d), 3 <= b < d, is (1, 3, 3, 4) and (1, 3, 3, 8)
    at every bound >= 8:

    - -K is interior iff 5b > 2b + d, that is d <= 3b - 1.  The only wall
      is at 1, with flip (-1, -1, b-1, b-1, d-1).
    - At its entry d - 1 and k = d - 2 the residues are 1, 1, d - b,
      d - b and 0, which sum to 2(d - b) + 2.  That exceeds d - 1 only if
      d >= 2b - 2.
    - At its entry b - 1 the two entries b - 1 are 0, so it is
      1/(b-1)(-1, -1, d-1) times a plane, and that quotient must be
      terminal.  By the terminal lemma two of -1, -1 and d - 1 sum to 0
      mod b - 1.  Either (b - 1) | 2, so b = 3; or d = 2 mod (b - 1).
    - For b >= 4 the d in [2b - 2, 3b - 1] with d = 2 mod (b - 1) are 2b
      and 3b - 1.  At d = 2b the chart at b, 1/b(-1, 1, b, 2b) =
      1/b(-1, 1, 0, 0), has residue sum b at every k, so the blowup is
      not terminal.  At d = 3b - 1 the wall at 1, at its entry 3b - 2 and
      k = 3b - 5, has residues 3, 3, 1, 1 and 0, which sum to
      8 <= 3b - 2.
    - For b = 3, 4 <= d <= 8.  At the entry 2 and k = 1 the residues are
      1, 1, 0, 0 and d - 1 mod 2, so d is even.  The chart at 3,
      1/3(-1, 1, 3, d), has residue sum 3 at every k if 3 | d.  That
      leaves (1, 3, 3, 4) and (1, 3, 3, 8), and ``build_link`` accepts
      both.

    The family (a, b, b, d), 2 <= a < b < d, is (2, 3, 3, 4) and
    (2, 5, 5, 6) at every bound >= 6:

    - -K is interior iff 5b > a + 2b + d - 1, that is d <= 3b - a.  The
      only wall is at a.
    - The chart at b, 1/b(-1, a, b, d) = 1/b(-1, a, 0, d), is
      1/b(-1, a, d) times a line.  By the terminal lemma two of -1, a and
      d sum to 0 mod b, and 2 <= a < b rules out a = 1 mod b.  So d = 1 or
      a + d = 0 mod b, and b < d <= 3b - a leaves d = b + 1, 2b + 1,
      2b - a or 3b - a.
    - d = 2b + 1: the chart at d, 1/d(-1, a, b, b), fails at k = d - 2.
      The residues are 2, d - 2a, 1 and 1, which sum to d + 4 - 2a <= d.
    - d = 3b - a: if g = gcd(a, b) > 1, g divides d, and the chart at d
      fails at k = d/g, where the residues are d - k, 0, 0 and 0.
      Otherwise b is prime to d; let j = 1/b mod d.  Since a = 3b - d,
      the residues at k = j are d - j, 3, 1 and 1, which sum to
      d - j + 5 <= d if j >= 5.  And j >= 5: jb - 1 = id for some
      0 <= i < j, as b < d.  With d = 3b - a, each i for j = 1, ..., 4
      gives jb = 1, a = 1, a = b + 1, a > b, a <= 0 or 2a = 2b + 1, none of
      which 2 <= a < b allows.
    - d = 2b - a: the wall at a has flip (-a, -1, b-a, b-a, 2(b-a)).  At
      its entry e = b - a only -a and -1 can be nonzero mod e, so s(k) +
      s(e - k) <= 2e and it is not terminal if e > 1.  So b = a + 1, and
      d = b + 1.
    - d = b + 1: the chart at d is 1/(b+1)(-1, a, -1, -1); at k = b its
      residues are 1, d - a, 1 and 1, which sum to d - a + 3, so a = 2.
      The wall at 2, at its entry m = b - 1, is 1/m(-1, -1, -1, -2) times
      a line, which fails at k = ceil(4m/5) for m >= 5, where the residues
      sum to 5m - 5k <= m; so b <= 5.  The chart at b, 1/b(-1, 2, 0, 1),
      has residue sum b at k = b/2 if b is even, so b is 3 or 5.  That
      leaves (2, 3, 3, 4) and (2, 5, 5, 6), and ``build_link`` accepts
      both.

    The rest of the dimension-4 answer, 421 quadruples with top weight
    <= 39 in all, is computed, not proved: the other repeated-weight shapes
    (6 quadruples) and the 399 strictly increasing ones.  CI checks that
    it is complete to top weight 130:
    ``classify --dim 4 --bound 65 --stabilize`` scans once at the cap.
    """
    return _classify(dim, bound, bound, jobs)[0]


def classify_stable(
    dim: int, bound: int, jobs: int = 1
) -> tuple[ClassificationRun, bool]:
    """The run at bound, and whether it accepts what the run at 2 * bound does.

    One scan at 2 * bound with its cut at bound (see ``_classify``).  The
    flag is True iff no tuple accepted at 2 * bound has top weight in
    (bound, 2 * bound].  A survivor above the bound stops the search there
    only once ``build_link`` has accepted it, so a fault in the packed
    tests can cost time but never turn the flag.  jobs counts the
    processes of the scan at 2 * bound.
    """
    return _classify(dim, bound, 2 * bound, jobs)


def _classify(
    dim: int, bound: int, top: int, jobs: int
) -> tuple[ClassificationRun, bool]:
    """One scan at top >= bound with its cut at bound: the run at bound and its flag.

    The scan links every survivor with top weight <= bound and looks above
    the bound only for one that ``build_link`` accepts (see
    ``_survivors``).  The run keeps the links with top weight <= bound,
    and the flag is True iff the scan returns none above the bound.  At
    top == bound there is none, and the flag is True.  A top over budget
    is refused with the largest bound that can stabilize.  The links are
    the ones ``_survivors`` returns, built in the process that found each
    survivor.  The bound is checked before top, so a bound below 2 is
    refused as such.
    """
    _check_scan(dim, bound)
    try:
        _check_scan(dim, top)
    except ValueError as exc:
        raise ValueError(
            f"{exc}; --stabilize scans at twice the bound it is given ({bound}), "
            f"so its largest bound is {MAX_BOUNDS[4] // 2} in dimension 4 and "
            f"{MAX_BOUNDS[3] // 2} in dimension 3"
        ) from None
    jobs = worker_count(jobs, dim, top)
    links = dict(_survivors(dim, top, jobs, bound))
    kept = {ws: link for ws, link in links.items() if ws[-1] <= bound}
    return ClassificationRun(dim, bound, kept, jobs), len(kept) == len(links)
