"""Pure-Python solver kernels.

Reference implementations of the hot inner loops: Held-Karp dynamic
programs over vertex subsets and the min-max partition search.  The
compiled module ``_core`` runs the same dynamic programs: every table cell
receives the same candidates, in the same order, under the same strict
comparison, so both lanes produce bit-identical results, ties included.

The pure subset table skips the candidates that are always INF: a path
that ends at its mask's anchor exists only in the anchor's singleton, so
the compiled lane's ``prev == anchor`` candidate from a larger mask reads
an unset cell.  Each cell starts at INF and an INF candidate never passes
the strict comparison, so dropping it changes no cell.
"""

from __future__ import annotations

INF = float("inf")


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
    full = 1 << n
    rows = [dist[i * n : (i + 1) * n] for i in range(n)]
    # Only masks that hold point 0 are reachable, so mask's row starts at
    # (mask >> 1) * n; adding point j moves (1 << j >> 1) * n + j cells on.
    step = [(1 << j >> 1) * n + j for j in range(n)]
    size = (full >> 1) * n
    dp = [INF] * size
    parent = [-1] * size
    dp[0] = 0.0  # mask {0}, last vertex 0
    # each cell (mask | 1 << j, j) hears only from mask, last rising: the
    # candidate order of the compiled lane's full-table loop
    for mask in range(1, full - 1, 2):
        base = (mask >> 1) * n
        outs = [(base + step[j], j) for j in range(1, n) if not mask >> j & 1]
        for last in range(n):
            cur = dp[base + last]
            if cur == INF:
                continue
            row = rows[last]
            for idx, j in outs:
                cand = cur + row[j]
                if cand < dp[idx]:
                    dp[idx] = cand
                    parent[idx] = last
    fm = full - 1
    fbase = (fm >> 1) * n
    best = INF
    best_last = -1
    for j in range(1, n):
        cand = dp[fbase + j] + rows[j][0]
        if cand < best:
            best = cand
            best_last = j
    order = []
    mask, cur = fm, best_last
    while cur != -1:
        order.append(cur)
        nxt = parent[(mask >> 1) * n + cur]
        mask ^= 1 << cur
        cur = nxt
    order.reverse()
    return best, order


def cycle_lengths_by_subset(dist: list[float], n: int) -> list[float]:
    """Optimal tour length for every subset of the points, in one pass.

    Returns a list indexed by bitmask; empty and singleton subsets cost 0.
    The path DP for each mask is anchored at its lowest set bit, which stays
    fixed as larger masks are built from smaller ones.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if n > 24:
        raise ValueError("subset table would exceed the kernel's memory budget")
    full = 1 << n
    values = [0.0] * full
    dp = [INF] * (full * n)
    cols = [dist[j::n] for j in range(n)]  # cols[last][prev] = dist[prev*n+last]
    members_of = [()] * full
    for mask in range(1, full):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        members = members_of[mask] = members_of[rest] + (top,)
        if not rest:
            dp[mask * n + top] = 0.0
            continue
        anchor = members[0]
        tail = members[1:]
        # the anchor ends a path only in its singleton, so it is a live
        # predecessor only when the mask has two members
        prevs = tail if len(tail) > 1 else members
        base = mask * n
        back = cols[anchor]
        best = INF
        for last in tail:
            pbase = (mask ^ (1 << last)) * n
            col = cols[last]
            cur = INF
            for prev in prevs:
                if prev == last:
                    continue
                cand = dp[pbase + prev] + col[prev]
                if cand < cur:
                    cur = cand
            dp[base + last] = cur
            closed = cur + back[last]
            if closed < best:
                best = closed
        values[mask] = best
    return values


def min_max_partition(
    values: list[float], n: int, k: int
) -> tuple[float, list[int]]:
    """Minimize the maximum subset value over partitions into <= k blocks.

    ``values`` is a by-bitmask table (as from ``cycle_lengths_by_subset``).
    Partitions are enumerated as restricted-growth strings in lexicographic
    order with strict-improvement updates, so the returned labelling is the
    lexicographically smallest minimizer.  Branches whose running maximum
    already meets the incumbent are pruned; this is safe because the table
    values are monotone under adding points to a block.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if k < 1:
        raise ValueError("need at least one block")
    k = min(k, n)
    labels = [0] * n
    block_masks = [0] * k
    best_value = INF
    best_labels: list[int] | None = None

    def descend(i: int, used: int, cur_max: float) -> None:
        nonlocal best_value, best_labels
        if i == n:
            if cur_max < best_value:
                best_value = cur_max
                best_labels = labels.copy()
            return
        bit = 1 << i
        limit = used + 1 if used < k else k
        for lab in range(limit):
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
    assert best_labels is not None
    return best_value, best_labels
