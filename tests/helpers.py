"""Shared test utilities: independent oracles and instance generators.

The oracles here are deliberately naive (permutation and set-partition
enumeration, per-point edge scans, every-edge width projections, a chord
search that locates every breakpoint by bisection, guaranteed splitting
as a recursion over ClosedTours, the Held-Karp tour DP over the full
``2^n * n`` table, the subset-table DP trying every predecessor, the
split-plan search building every sum and product candidate) so they stay
independent of the library's solver paths.  ``use_lane`` switches the
kernels module between lanes inside one test run.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from toursplit import (
    ChordSearchError,
    ClosedTour,
    Diagonal,
    Direction,
    Instance,
    Partition,
    Point,
    SolveResult,
    chord_at_arclength,
    convex_hull,
    min_width,
    split_plan,
)
from toursplit import _core_py, kernels
from toursplit.geometry import _unit_scale
from toursplit.splitting import PlanNode, _combine


def use_lane(monkeypatch, impl) -> None:
    """Point the kernels module at ``impl``, the compiled module or
    ``_core_py``, as if its lane had been selected at import."""
    lane = "pure" if impl is _core_py else "compiled"
    monkeypatch.setattr(kernels, "BACKEND", lane)
    names = ["shortest_cycle", "cycle_lengths_by_subset", "min_max_partition"]
    if lane == "pure":
        names += ["LazySubsetTable", "partition_limit"]
    for name in names:
        monkeypatch.setattr(kernels, name, getattr(impl, name), raising=False)


def dist(a, b) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def naive_shortest_cycle(dist: list[float], n: int) -> tuple[float, list[int]]:
    """The pure kernel's Held-Karp tour DP before its half-size table: all
    2^n masks in a ``2^n * n`` table, every j bit-tested per (mask, last).
    Kept as it was, so the pure lane stays checked without a C compiler."""
    if n < 1:
        raise ValueError("need at least one point")
    if n > 24:
        raise ValueError("subset table would exceed the kernel's memory budget")
    if n == 1:
        return 0.0, [0]
    full = 1 << n
    dp = [math.inf] * (full * n)
    parent = [-1] * (full * n)
    dp[n] = 0.0  # mask {0}, last vertex 0
    for mask in range(1, full):
        if not mask & 1:
            continue
        base = mask * n
        for last in range(n):
            cur = dp[base + last]
            if cur == math.inf:
                continue
            drow = last * n
            for j in range(1, n):
                bit = 1 << j
                if mask & bit:
                    continue
                idx = (mask | bit) * n + j
                cand = cur + dist[drow + j]
                if cand < dp[idx]:
                    dp[idx] = cand
                    parent[idx] = last
    fm = full - 1
    best = math.inf
    best_last = -1
    for j in range(1, n):
        cand = dp[fm * n + j] + dist[j * n]
        if cand < best:
            best = cand
            best_last = j
    order = []
    mask, cur = fm, best_last
    while cur != -1:
        order.append(cur)
        nxt = parent[mask * n + cur]
        mask ^= 1 << cur
        cur = nxt
    order.reverse()
    return best, order


def naive_cycle_lengths_by_subset(dist: list[float], n: int) -> list[float]:
    """The pure kernel's subset-table DP before its leaner loop: members
    bit-tested per mask, distances read from the flat matrix, and every
    predecessor tried, the always-INF anchor included.  Kept as it was, so
    the pure lane stays checked without a C compiler."""
    if n < 1:
        raise ValueError("need at least one point")
    if n > 24:
        raise ValueError("subset table would exceed the kernel's memory budget")
    full = 1 << n
    values = [0.0] * full
    dp = [math.inf] * (full * n)
    for mask in range(1, full):
        anchor = (mask & -mask).bit_length() - 1
        if mask == 1 << anchor:
            dp[mask * n + anchor] = 0.0
            continue
        members = [i for i in range(n) if (mask >> i) & 1]
        base = mask * n
        best = math.inf
        for last in members:
            if last == anchor:
                continue
            pm = mask ^ (1 << last)
            pbase = pm * n
            cur = math.inf
            for prev in members:
                if prev == last:
                    continue
                cand = dp[pbase + prev] + dist[prev * n + last]
                if cand < cur:
                    cur = cand
            dp[base + last] = cur
            closed = cur + dist[last * n + anchor]
            if closed < best:
                best = closed
        values[mask] = best
    return values


def computed_rows(table) -> int:
    """How many rows a ``LazySubsetTable`` has computed: its row list holds
    one slot per mask, None until that mask's row is computed."""
    return len(table._rows) - table._rows.count(None)


def brute_force_tour_length(points) -> float:
    """Optimal tour length by enumerating all permutations (n <= 8)."""
    pts = list(points)
    n = len(pts)
    if n == 1:
        return 0.0
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        total = sum(dist(pts[order[i]], pts[order[(i + 1) % n]]) for i in range(n))
        if total < best:
            best = total
    return best


def all_set_partitions(items):
    """Every partition of ``items`` into nonempty blocks, naive recursion."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_force_partition_value(points, k: int) -> float:
    """Min-max partition value by full enumeration (n <= 7)."""
    pts = list(points)
    best = math.inf
    for part in all_set_partitions(list(range(len(pts)))):
        if len(part) > k:
            continue
        worst = max(brute_force_tour_length([pts[i] for i in blk]) for blk in part)
        if worst < best:
            best = worst
    return best


def random_points(rng: random.Random, n: int, scale: float = 1.0) -> list[Point]:
    """Distinct uniform points in a square of the given side."""
    pts: list[Point] = []
    seen = set()
    while len(pts) < n:
        p = Point(rng.random() * scale, rng.random() * scale)
        key = (p.x, p.y)
        if key not in seen:
            seen.add(key)
            pts.append(p)
    return pts


def random_instance(rng: random.Random, n: int, scale: float = 1.0) -> Instance:
    return Instance(tuple(random_points(rng, n, scale)))


def angular_tour(points) -> ClosedTour:
    """A simple polygon through the points: sort by angle around the centroid.

    Valid for points in general position (distinct angles), which holds
    almost surely for continuous random input.
    """
    pts = list(points)
    cx = sum(p.x for p in pts) / len(pts)
    cy = sum(p.y for p in pts) / len(pts)
    pts.sort(key=lambda p: (math.atan2(p.y - cy, p.x - cx), p.x, p.y))
    return ClosedTour(tuple(pts))


def random_simple_tour(rng: random.Random, n: int, scale: float = 1.0) -> ClosedTour:
    return angular_tour(random_points(rng, n, scale))


def ellipse_tour(rng: random.Random, m: int) -> ClosedTour:
    """Points on a rotated ellipse, jittered at most half a step: a convex tour."""
    b = 0.5 + 0.3 * rng.random()
    phi = 2.0 * math.pi * rng.random()
    c, s = math.cos(phi), math.sin(phi)
    pts = []
    for i in range(m):
        t = 2.0 * math.pi * (i + 0.5 * rng.random()) / m
        x, y = math.cos(t), b * math.sin(t)
        pts.append(Point(x * c - y * s, x * s + y * c))
    return ClosedTour(tuple(pts))


def naive_assign_points(tour: ClosedTour, diagonal, points, labels=None):
    """Sides of the cut with every point located by the edge scan, O(m) per
    point.  The scan reads coordinates only, so ``labels`` is not read."""
    ell = tour.length
    tol = 1e-9 * ell
    span = (diagonal.t_q - diagonal.t_p) % ell
    first, second = [], []
    for pt in points:
        rel = (tour.arclength_of(pt, tol) - diagonal.t_p) % ell
        (first if rel < span else second).append(pt)
    return tuple(first), tuple(second)


def naive_min_width(obj):
    """Minimum width by projecting the whole hull on every edge normal, O(h^2)."""
    hull = convex_hull(obj.vertices if isinstance(obj, ClosedTour) else obj)
    if len(hull) == 1:
        return 0.0, Direction(0.0)
    if len(hull) == 2:
        a, b = hull
        return 0.0, Direction(math.atan2(b.y - a.y, b.x - a.x)).orthogonal()
    coords = [(p.x, p.y) for p in hull]
    best_w, best_dir = math.inf, Direction(0.0)
    for i, a in enumerate(hull):
        b = hull[(i + 1) % len(hull)]
        normal = Direction(math.atan2(b.y - a.y, b.x - a.x)).orthogonal()
        ux, uy = math.cos(normal.theta), math.sin(normal.theta)
        projs = [x * ux + y * uy for x, y in coords]
        w = max(projs) - min(projs)
        if w < best_w:
            best_w, best_dir = w, normal
    return best_w, best_dir


def naive_chord_at_arclength(tour: ClosedTour, x: float, u) -> float:
    """The chord search with f evaluated by two ``point_at`` calls per break."""
    ell = tour.length
    if ell <= 0.0:
        raise ValueError("chord search needs a tour of positive length")
    if not 0.0 < x < ell:
        raise ValueError(f"arclength offset must be in (0, {ell}), got {x}")
    ux, uy = u
    norm = math.hypot(ux, uy)
    if norm == 0.0:
        raise ValueError("projection vector must be nonzero")
    ux, uy = ux / norm, uy / norm

    def f(t: float) -> float:
        p = tour.point_at(t)
        q = tour.point_at(t + x)
        return (q.x - p.x) * ux + (q.y - p.y) * uy

    breaks = sorted(
        {s % ell for s in tour._cum[:-1]}
        | {(s - x) % ell for s in tour._cum[:-1]}
    )
    s = _unit_scale(ell)
    values = [f(b) * s for b in breaks]
    zero_tol = 1e-12 * ell * s
    roots = []
    m = len(breaks)
    for i in range(m):
        f0 = values[i]
        if abs(f0) <= zero_tol:
            roots.append(breaks[i])
            continue
        b1 = breaks[(i + 1) % m]
        f1 = values[(i + 1) % m]
        if i + 1 == m:
            b1 += ell
        if f0 * f1 < 0.0:
            roots.append(breaks[i] + (b1 - breaks[i]) * f0 / (f0 - f1))
    if not roots:
        raise ChordSearchError("no sign change found in the chord projection")
    t = min(r % ell for r in roots)
    if abs(f(t)) > 1e-9 * ell:
        raise ChordSearchError(f"chord root residual too large: {f(t)}")
    return t


def naive_vertex_sides(tour: ClosedTour, diagonal, points, labels=None):
    """Sides of the cut with each point read at its first vertex.

    ``labels`` names the point each vertex carries, or None; by default
    each vertex carries itself.  The first vertex is found by a linear
    search over the labels, and a point that no vertex carries raises
    ValueError.  This is the assignment rule of each cut of
    ``guaranteed_partition``, whose sub-tours keep every point's vertices.
    The edge scan alone breaks it on ties: a vertex read an ulp before the
    cut start, or a collinear tour's vertex that lies on an earlier edge.
    """
    labels = tour.vertices if labels is None else labels
    ell = tour.length
    span = (diagonal.t_q - diagonal.t_p) % ell
    first, second = [], []
    for pt in points:
        rel = (tour._cum[labels.index(pt)] - diagonal.t_p) % ell
        (first if rel < span else second).append(pt)
    return tuple(first), tuple(second)


def cut_diagonal(tour: ClosedTour, fraction: float) -> Diagonal:
    """The diagonal cutting off ``fraction`` of the tour's length, from the
    one-level primitives: the chord orthogonal to the minimum width's
    normal, found by ``chord_at_arclength``."""
    x = fraction * tour.length
    _, normal = min_width(tour)
    t = chord_at_arclength(tour, x, normal.orthogonal().unit)
    t_q = (t + x) % tour.length
    return Diagonal(tour.point_at(t), tour.point_at(t_q), t, t_q)


def naive_subcurve(tour: ClosedTour, t1: float, t2: float, labels) -> tuple:
    """The open path from t1 forward to t2, and the label of each of its
    points: every vertex whose offset lies in [0, span), sorted.  A vertex
    at offset 0 and at the start's coordinates is the start, which takes
    its label; the end is labelled None."""
    ell = tour.length
    start = t1 % ell
    span = (t2 - t1) % ell
    first = tour.point_at(start)
    if span == 0.0:
        return (first,), [None]
    start_label = None
    interior = []
    for idx, (v, s) in enumerate(zip(tour.vertices, tour._cum)):
        rel = (s - start) % ell
        if rel == 0.0 and v == first:
            if labels[idx] is not None:
                start_label = labels[idx]
        elif rel < span:
            interior.append((rel, idx))
    interior.sort()
    path = (first,) + tuple(tour.vertices[i] for _, i in interior) + (tour.point_at(start + span),)
    return path, [start_label] + [labels[i] for _, i in interior] + [None]


def naive_guaranteed_partition(points, tour: ClosedTour, k: int, assign=naive_vertex_sides):
    """guaranteed_partition as a recursion over ClosedTours, one split per
    plan node: the every-edge width, the chord search that bisects for
    every break, the sorted subcurve and ``assign`` for the sides.  Each
    tour's vertices are labelled with the points they carry."""
    instance = points if isinstance(points, Instance) else Instance.from_points(points)
    plan = split_plan(k)
    if tour.length == 0.0:
        return SolveResult(Partition((instance.points,)), (tour,), 0.0)
    leaves = []
    diagonals = []

    def descend(node, node_tour, labels, pts):
        if not pts:
            return
        if node.is_leaf:
            leaves.append((pts, node_tour))
            return
        x = node.fraction * node_tour.length
        _, direction = naive_min_width(node_tour)
        t = naive_chord_at_arclength(node_tour, x, direction.orthogonal().unit)
        t_q = (t + x) % node_tour.length
        diagonal = Diagonal(node_tour.point_at(t), node_tour.point_at(t_q), t, t_q)
        diagonals.append(diagonal)
        path1, labels1 = naive_subcurve(node_tour, t, t_q, labels)
        path2, labels2 = naive_subcurve(node_tour, t_q, t, labels)
        pts1, pts2 = assign(node_tour, diagonal, pts, labels)
        descend(node.left, ClosedTour(path1), labels1, pts1)
        descend(node.right, ClosedTour(path2), labels2, pts2)

    carried = set(instance.points)
    labels = [v if v in carried else None for v in tour.vertices]
    descend(plan, tour, labels, instance.points)
    tours = tuple(t for _, t in leaves)
    return SolveResult(
        partition=Partition(tuple(pts for pts, _ in leaves)),
        tours=tours,
        value=max(t.length for t in tours),
        diagonals=tuple(diagonals),
    )


def projection_width(points, theta: float) -> float:
    """Extent of the points' projection onto the direction at angle theta."""
    ux, uy = math.cos(theta), math.sin(theta)
    projs = [p.x * ux + p.y * uy for p in points]
    return max(projs) - min(projs)


def chain_length(points) -> float:
    """Length of the open polygonal path through the points."""
    return sum(dist(a, b) for a, b in zip(points, points[1:]))


def _graft(outer: PlanNode, inner: PlanNode) -> PlanNode:
    """Replace every leaf of ``outer`` with ``inner``, rebalancing fractions."""
    if outer.is_leaf:
        return inner
    return _combine(_graft(outer.left, inner), _graft(outer.right, inner))


@functools.lru_cache(maxsize=None)
def naive_plan(k: int) -> tuple:
    """The split-plan search building a node for every candidate, a sum
    candidate that cannot balance being skipped by its ValueError."""
    if k == 1:
        return PlanNode(1, 1.0), "trivial"
    best = None
    for a in range(2, k):
        if k % a == 0 and a <= k // a:
            cand = _graft(naive_plan(a)[0], naive_plan(k // a)[0])
            if best is None or cand.ratio < best[0].ratio - 1e-12:
                best = (cand, f"{a}*{k // a}")
    for a in range(1, k // 2 + 1):
        try:
            cand = _combine(naive_plan(a)[0], naive_plan(k - a)[0])
        except ValueError:
            continue
        if best is None or cand.ratio < best[0].ratio - 1e-12:
            best = (cand, f"{a}+{k - a}")
    return best


def leaf_count(node) -> int:
    """Leaves of a split-plan subtree."""
    return 1 if node.is_leaf else leaf_count(node.left) + leaf_count(node.right)


def plan_depth(node) -> int:
    """Cuts on the longest root-to-leaf path of a split-plan subtree."""
    return 0 if node.is_leaf else 1 + max(plan_depth(node.left), plan_depth(node.right))


def gap_fill_move_count(n: int) -> int:
    """Valid gap-fill moves on the n-circle, counted from the subsets.

    A move fills the gap after member i, so a subset of 2..n-1 points has
    one move per member whose successor is absent.
    """
    return sum(
        i % n + 1 not in subset
        for size in range(2, n)
        for subset in itertools.combinations(range(1, n + 1), size)
        for i in subset
    )


def naive_gap_fill_failure(values: list[float], n: int, tol: float):
    """The message for the first costly gap-fill move on the n-circle's
    subset table ``values``, or None: subsets by ascending mask, members
    by ascending index, one move per member whose successor is absent."""
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        if len(members) in (1, n):
            continue
        for i, j in zip(members, members[1:] + members[:1]):
            successor = i % n + 1
            if successor in members:
                continue
            new_mask = mask & ~(1 << (j - 1)) | (1 << (successor - 1))
            delta = values[mask] - values[new_mask]
            if delta < -tol:
                return (
                    f"gap fill on subset {members} of the {n}-circle (i={i}, j={j}) "
                    f"increased the tour value by {-delta}"
                )
    return None


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when segments ab and cd intersect in their interiors."""
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def tour_self_intersects(tour: ClosedTour) -> bool:
    """Check all non-adjacent edge pairs for proper crossings."""
    verts = tour.vertices
    m = len(verts)
    edges = [(verts[i], verts[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            if segments_cross(*edges[i], *edges[j]):
                return True
    return False
