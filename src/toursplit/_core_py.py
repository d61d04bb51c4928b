"""Pure-Python solver kernels.

Reference implementations of the hot inner loops: Held-Karp dynamic
programs over vertex subsets and the min-max partition search.  The
compiled module ``_core`` runs the same dynamic programs: every table cell
receives the same candidates, in the same order, under the same strict
comparison, so both lanes produce bit-identical results, ties included.

The pure tour DP expands only the cells that can still lie on an optimal
tour, and those cells get the compiled lane's candidates in its order.
``_tour_bounds`` gives UB, the length of a real tour, and for each cell
(mask, last) a lower bound B on any path from ``last`` through the points
outside ``mask`` back to 0.  A cell holding g is expanded only if
``g + B <= UB * (1 + 1e-9)``.  Why the result cannot change:

- Let T be the tour the unpruned loop returns, of float length OPT.  UB
  is summed in the DP's own order, so OPT <= UB.
- A cell on T holds T's prefix sum g, and the rest of T is such a path,
  of exact length R >= B.  OPT sums R's edges onto g one rounding at a
  time, so g + B <= g + R <= OPT * (1 + n * 2^-53).  The computed test
  adds at most about n^2 * 2^-52 * UB more, and every term is kept within
  a small multiple of UB, so the 1e-9 slack covers it: every cell on T is
  expanded.
- Pruning only removes candidates, so no cell's value falls.  Each cell
  on T still receives its winning candidate, every candidate before it
  was larger, and the final scan and the parent walk pick T again.

The slack is proven only while every distance lies in [0, 2^1000] and UB
is at least 2^-1000: below that, halving a subnormal distance rounds by
more than the slack, and above it the sums may overflow.  Outside that
range the bounds are zero and the limit is the largest float, so the
same loop skips only the unreached (INF) cells, as the unpruned loop does.

The pure tour table holds a row only while it is needed.  Masks hold point
0, so mask m is kept at index m >> 1.  Its row, a list of n path lengths
by last point, is made when the mask first receives a finite value and is
dropped once the mask has been expanded, so a run holds only the rows of
masks reached and not yet expanded.  Each cell's parent, last + 1 (0 for
none), sits in one zero-filled bytearray of 2^(n-1)·n bytes.  The
compiled lane keeps every row, in the same layout.  A cell
(mask | 1 << j, j) hears only from its one source, mask, and the compiled
lane pulls mask's candidates into it, last rising, under a strict
comparison from INF.  So the pure lane pushes them all at once when mask
is expanded, in the same order: the first strict minimum is the value and
parent the compiled lane leaves, and a cell with no finite candidate stays
INF with no parent in both.

The pure subset table is one ``LazySubsetTable``, which computes a mask's
row (its path lengths from its lowest point, the anchor, by last point)
when it is first needed: on a read by the partition search, or in
``cycle_lengths_by_subset``'s ascending read of every mask.  Cell
(mask, last) reads only the row of mask less ``last``, which keeps the
anchor, so no row depends on the order rows are computed in.  Each cell
gets the compiled lane's candidates, prev rising, under its strict
comparison from INF, less the ``prev == anchor`` candidate in a mask of
three or more points: a path ends at the anchor only in its singleton, so
that candidate is always INF and never passes.  The value then closes the
paths back to the anchor, last rising, as the compiled lane does, so every
value is the compiled lane's to the bit, in any read order.
"""

from __future__ import annotations

import sys
from itertools import compress
from operator import add

INF = float("inf")
_FLOAT_MAX = sys.float_info.max
_HUGE = 2.0**1000
_TINY = 2.0**-1000
_SLACK = 1.0 + 1e-9
_ASCENT_STEPS = 16


def _short_tour(rows: list[list[float]], n: int, start: int) -> list[int]:
    """A short closed tour under the symmetric distances ``rows``, from
    point 0: nearest neighbour from ``start``, then 2-opt and or-opt moves
    until none shortens it by more than rounding noise."""
    tour = [start]
    left = set(range(n)) - {start}
    while left:
        nearest = min(left, key=rows[tour[-1]].__getitem__)
        left.remove(nearest)
        tour.append(nearest)
    eps = 1e-12 * sum(rows[a][b] for a, b in zip(tour, tour[1:] + tour[:1]))
    improved = True
    while improved:
        improved = False
        # 2-opt: reverse tour[i+1 .. k]
        for i in range(n - 2):
            a, b = tour[i], tour[i + 1]
            ra, rb = rows[a], rows[b]
            for k in range(i + 2, n if i else n - 1):
                c, d = tour[k], tour[(k + 1) % n]
                if ra[c] + rb[d] < ra[b] + rows[c][d] - eps:
                    tour[i + 1 : k + 1] = tour[k:i:-1]
                    b = tour[i + 1]
                    rb = rows[b]
                    improved = True
        # or-opt: move a run of one to three points between two others
        for run in range(1, min(3, n - 2) + 1):
            for i in range(n):
                r = tour[i:] + tour[:i]
                s, e, p, q = r[0], r[run - 1], r[-1], r[run]
                rs, re = rows[s], rows[e]
                gain = rows[p][s] + re[q] - rows[p][q] - eps
                for j in range(run, n - 1):
                    x, y = r[j], r[j + 1]
                    rx = rows[x]
                    if rx[s] + re[y] - rx[y] < gain:
                        tour = r[run : j + 1] + r[:run] + r[j + 1 :]
                    elif rx[e] + rs[y] - rx[y] < gain:
                        tour = r[run : j + 1] + r[run - 1 :: -1] + r[j + 1 :]
                    else:
                        continue
                    improved = True
                    break
    k = tour.index(0)
    return tour[k:] + tour[:k]


def _tour_bounds(rows: list[list[float]], n: int) -> tuple[float, list[float], list[float]]:
    """Pruning terms of the tour DP: ``(limit, weight, tail)``.

    ``limit`` is the length of a short tour, found by local search, times
    ``1 + 1e-9``.  Any path from ``last`` through the points outside
    ``mask`` back to 0 is at least ``tail[last]`` plus ``weight[v]`` summed
    over those points.  The terms use node penalties ``pi`` (Held and
    Karp's Lagrangian trick): under ``d'(a, b) = d(a, b) + pi[a] + pi[b]``
    such a path is longer by exactly ``pi[last] + pi[0]`` plus ``2 * pi[v]``
    for each point v it passes, and each such point meets two distinct
    neighbours on it (n >= 3), ``last`` and 0 one each.  So half the two
    shortest ``d'`` edges at each point to visit, plus half the shortest at
    ``last`` and at 0, less those penalties, is a bound for any ``pi``;
    ``pi = 0`` gives the plain form.  A short subgradient ascent picks a
    ``pi`` that raises the bound on a whole tour.  Each distance is read as
    the shorter of its two directions, which no path can beat.

    Outside n >= 3, distances in [0, 2^1000] and a tour of at least
    2^-1000, the 1e-9 slack is not proven to cover rounding: the terms are
    then zero and the limit is the largest float, so the DP skips only its
    unreached cells.
    """
    unpruned = (_FLOAT_MAX, [0.0] * n, [0.0] * n)
    if n < 3 or not all(0.0 <= d <= _HUGE for row in rows for d in row):
        return unpruned
    sym = [list(map(min, row, col)) for row, col in zip(rows, zip(*rows))]
    ub = INF
    for start in (0, n // 2):
        tour = _short_tour(sym, n, start)
        length = 0.0
        for a, b in zip(tour, tour[1:] + [0]):  # summed in the DP's own order
            length += rows[a][b]
        ub = min(ub, length)
    if not ub >= _TINY:
        return unpruned
    pi = [0.0] * n
    best = -INF
    rate = 2.0
    for _ in range(_ASCENT_STEPS):
        weight, end, surplus = [], [], [-2] * n
        for v, (row, p) in enumerate(zip(sym, pi)):
            reach = list(map(add, row, pi))  # d'(v, x) - pi[v]
            reach[v] = INF
            m1 = min(reach)
            x1 = reach.index(m1)
            reach[x1] = INF
            m2 = min(reach)
            surplus[x1] += 1
            surplus[reach.index(m2)] += 1
            weight.append(0.5 * (m1 + m2) - p)
            end.append(0.5 * (m1 - p))
        lb = sum(weight)
        if lb > best:
            best, best_weight, best_end = lb, weight, end
        else:
            rate *= 0.8
        norm = sum(g * g for g in surplus)
        if not (norm and ub > lb):
            break
        step = rate * (ub - lb) / norm
        # |pi| <= ub keeps every term within a small multiple of ub
        pi = [min(ub, max(-ub, p + step * g)) for p, g in zip(pi, surplus)]
    return ub * _SLACK, best_weight, [e + best_end[0] for e in best_end]


def shortest_cycle(dist: list[float], n: int) -> tuple[float, list[int]]:
    """Optimal closed tour over ``n`` points given a flat n*n distance matrix.

    Returns ``(length, order)`` with ``order`` starting at point 0.  Ties are
    broken by the fixed iteration order, so the result is deterministic.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if n > 24:
        raise ValueError("subset table would exceed the kernel's memory budget")
    if n == 1:
        return 0.0, [0]
    masks = 1 << n >> 1  # those holding point 0, indexed by mask >> 1
    rows = [dist[i * n : (i + 1) * n] for i in range(n)]
    limit, weight, tail = _tour_bounds(rows, n)
    # For each half of the points 1..n-1, by sub-mask: its members, its free
    # points with their bits in mask >> 1 and their cells' parent offsets,
    # and its members' weight.  A mask's bound is then limit less the weight
    # of the points outside it.
    low = (n - 1) // 2
    parts = []
    for points in (range(1, low + 1), range(low + 1, n)):
        members, free, held = [[]], [[]], [0.0]
        for j in points:
            bit = 1 << j >> 1
            members += [m + [j] for m in members]
            free = [f + [(j, bit, bit * n + j)] for f in free] + free
            held += [w + weight[j] for w in held]
        parts.append(list(zip(members, free, held)))
    lows, highs = parts
    lows[0] = ([0], lows[0][1], 0.0)  # last = 0 holds a value only in mask {0}
    low_bits = (1 << low) - 1
    offset = limit - sum(weight[1:])
    marked = [row + [last + 1] for last, row in enumerate(rows)]  # + parent mark
    dp = [None] * masks  # rows of the masks reached and not yet expanded
    dp[0] = [0.0] + [INF] * (n - 1)  # mask {0}, last vertex 0
    parent = bytearray(masks * n)
    live = bytearray(masks)  # masks that have been given a row
    live[0] = 1
    for h in compress(range(masks - 1), live):
        members_lo, free_lo, held_lo = lows[h & low_bits]
        members_hi, free_hi, held_hi = highs[h >> low]
        bound = offset + held_lo + held_hi
        values = dp[h]
        dp[h] = None
        passing = []
        for last in members_lo + members_hi:
            cur = values[last]
            if cur + tail[last] <= bound:
                passing.append((cur, marked[last]))
        if not passing:
            continue
        base = h * n
        # cell (mask | 1 << j, j) hears only from this mask: its candidates,
        # last rising, under the compiled lane's strict comparison
        for j, bit, off in free_lo + free_hi:
            best = INF
            for cur, row in passing:
                cand = cur + row[j]
                if cand < best:
                    best = cand
                    won = row
            if best < INF:
                out = dp[h | bit]
                if out is None:
                    out = dp[h | bit] = [INF] * n
                    live[h | bit] = 1
                out[j] = best
                parent[base + off] = won[n]
    values = dp[-1] or [INF] * n  # None when no finite tour exists
    best = INF
    best_last = -1
    for j in range(1, n):
        cand = values[j] + rows[j][0]
        if cand < best:
            best = cand
            best_last = j
    order = []
    h, cur = masks - 1, best_last
    while cur != -1:
        order.append(cur)
        nxt = parent[h * n + cur] - 1
        h ^= 1 << cur >> 1
        cur = nxt
    order.reverse()
    return best, order


def cycle_lengths_by_subset(dist: list[float], n: int) -> list[float]:
    """Optimal tour length for every subset of the points, in one pass.

    Returns a list indexed by bitmask; empty and singleton subsets cost 0.
    The masks are read from one ``LazySubsetTable`` in ascending order, so
    every row's submasks are already computed and no row recurses.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if n > 24:
        raise ValueError("subset table would exceed the kernel's memory budget")
    full = 1 << n
    half = full >> 1
    row_of = LazySubsetTable(dist, n)._row
    values = [0.0] * full
    members_of = [()] * half  # no larger mask reads the top half's members
    for mask in range(1, full):
        top = mask.bit_length() - 1
        members = members_of[mask ^ (1 << top)] + (top,)
        if mask < half:
            members_of[mask] = members
        values[mask] = row_of(mask, members)[n]
    return values


class LazySubsetTable(dict):
    """``cycle_lengths_by_subset(dist, n)`` as a dict that computes a mask's
    value when it is first read.

    A mask's row, its path lengths by last point and then its value, is
    kept at the mask's index in a list, so masks that share submasks share
    their work.
    """

    def __init__(self, dist: list[float], n: int) -> None:
        super().__init__()
        self._n = n
        self._cols = [dist[j::n] for j in range(n)]  # cols[last][prev] = dist[prev*n+last]
        self._rows: list[list[float] | None] = [None] * (1 << n)

    def __missing__(self, mask: int) -> float:
        members = [i for i in range(self._n) if mask >> i & 1]
        best = self[mask] = (self._rows[mask] or self._row(mask, members))[-1] if members else 0.0
        return best

    def _row(self, mask: int, members: list[int] | tuple[int, ...]) -> list[float]:
        """The shortest paths from the anchor through the nonempty ``mask``,
        whose points are ``members`` in rising order, by last point (INF
        where none ends), then the mask's value: the best of them closed
        back to the anchor, 0 for a singleton."""
        n = self._n
        rows, cols = self._rows, self._cols
        anchor, tail = members[0], members[1:]
        row = [INF] * (n + 1)
        # the anchor ends a path only in its singleton, so it is a live
        # predecessor only when the mask has two members
        best = row[anchor] = INF if tail else 0.0
        prevs = tail if len(tail) > 1 else members
        back = cols[anchor]
        for last in tail:
            sub = mask ^ (1 << last)
            before = rows[sub] or self._row(sub, [m for m in members if m != last])
            col = cols[last]
            cur = INF
            for prev in prevs:
                if prev == last:
                    continue
                cand = before[prev] + col[prev]
                if cand < cur:
                    cur = cand
            row[last] = cur
            closed = cur + back[last]
            if closed < best:
                best = closed
        row[n] = best
        rows[mask] = row
        return row


def partition_limit(dist: list[float], n: int, order: list[int], k: int) -> float:
    """A ``limit`` for ``min_max_partition`` above its minimum, or INF.

    It is the best cut of the tour ``order`` into at most ``k`` arcs, each
    closed back to its first point, times ``1 + 1e-9``.  Each block of that
    cut lies inside one such arc, so the optimal tour of any subset of the
    block is at most the arc's closed length: the distances, rounded
    Euclidean ones, keep the triangle inequality up to rounding.  The table
    values and the closed lengths are float sums of at most 2n distances,
    so rounding moves them by far less than the slack, and the bound is
    above the search's value for that cut.  As in the tour DP's pruning,
    that is proven only while every distance lies in [0, 2^1000] and the
    bound is at least 2^-1000; outside that range (k >= n included, where
    the bound is 0) the limit is INF.
    """
    if not all(0.0 <= d <= _HUGE for d in dist):
        return INF
    # closed[i][m]: the m + 1 points from order[i] on, closed back to order[i]
    closed = []
    for i, first in enumerate(order):
        path, prev, row = 0.0, first, []
        for v in order[i:] + order[:i]:
            path += dist[prev * n + v]
            row.append(path + dist[v * n + first])
            prev = v
        closed.append(row)
    candidates = sorted({c for row in closed for c in row})
    lo, hi = 0, len(candidates) - 1  # the largest lets one arc hold the tour
    while lo < hi:
        mid = (lo + hi) // 2
        if _cuts_within(closed, n, k, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    bound = candidates[hi]
    return bound * _SLACK if bound >= _TINY else INF


def _cuts_within(closed: list[list[float]], n: int, k: int, cap: float) -> bool:
    """Whether some cut of the tour into at most ``k`` arcs closes every arc
    within ``cap``: from each start, arcs are taken greedily, each as long as
    all its prefixes close within ``cap``."""
    reach = []
    for row in closed:
        m = 1
        while m < n and row[m] <= cap:
            m += 1
        reach.append(m)
    for start in range(n):
        covered = 0
        for _ in range(k):
            covered += reach[(start + covered) % n]
            if covered >= n:
                return True
    return False


def min_max_partition(
    values: list[float], n: int, k: int, limit: float = INF
) -> tuple[float, list[int]]:
    """Minimize the maximum subset value over partitions into <= k blocks.

    ``values`` is a by-bitmask table (as from ``cycle_lengths_by_subset``,
    or a ``LazySubsetTable``).  Partitions are enumerated as
    restricted-growth strings in lexicographic order with
    strict-improvement updates, so the returned labelling is the
    lexicographically smallest minimizer.  A partition is ranked by its
    running maximum: the largest value over every prefix, by point index,
    of each block.  Float subset values are not monotone under adding
    points, so this can sit an ulp above the largest value of the blocks
    themselves.  Branches whose running maximum already meets the incumbent
    are pruned; this is safe because a branch's running maximum never falls
    as it descends.

    The incumbent starts at ``limit``.  Any limit strictly above the minimum
    returns the same lexicographically first minimiser: that labelling's
    running maxima all lie below the limit and below every earlier
    labelling's value, so it is reached and kept as with no limit, and no
    later one improves on it.  A limit at or below the minimum raises
    ValueError.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if k < 1:
        raise ValueError("need at least one block")
    k = min(k, n)
    labels = [0] * n
    block_masks = [0] * k
    best_value = limit
    best_labels: list[int] | None = None

    def descend(i: int, used: int, cur_max: float) -> None:
        nonlocal best_value, best_labels
        if i == n:
            if cur_max < best_value:
                best_value = cur_max
                best_labels = labels.copy()
            return
        bit = 1 << i
        for lab in range(used + 1 if used < k else k):
            new_mask = block_masks[lab] | bit
            v = values[new_mask]
            new_max = cur_max if cur_max >= v else v
            if new_max >= best_value:
                continue
            old = block_masks[lab]
            block_masks[lab] = new_mask
            labels[i] = lab
            descend(i + 1, used + 1 if lab == used else used, new_max)
            block_masks[lab] = old

    descend(0, 0, 0.0)
    if best_labels is None:
        raise ValueError("no partition lies below the limit")
    return best_value, best_labels
