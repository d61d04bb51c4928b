"""Exact desk-scale oracles: optimal tours, min-max k-partitions, speedup ratios.

The tour solver is a Held-Karp subset dynamic program.  The k-partition
oracle enumerates set partitions as restricted-growth strings, reading one
tour value per subset, and breaks ties by the lexicographically smallest
labelling so results are stable.  Every oracle is exact and limited to
``MAX_EXACT_POINTS`` points.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

from . import kernels
from .geometry import (
    ClosedTour,
    Diagonal,
    Point,
    PointInput,
    _as_points,
    _checked_make,
    _Frozen,
)

MAX_EXACT_POINTS = 18


class CapacityError(Exception):
    """An instance exceeds an exact-solver budget."""


class Instance(_Frozen):
    """A set of distinct planar points; instances compare and hash by them."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[PointInput]) -> None:
        pts = _as_points(points)
        if not pts:
            raise ValueError("an instance needs at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError("instance points must be distinct (use from_points)")
        object.__setattr__(self, "points", pts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.points == other.points
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.points,))

    def __repr__(self) -> str:
        return f"Instance(points={self.points!r})"

    def __reduce__(self):
        return Instance, (self.points,)

    @classmethod
    def from_points(cls, points: Iterable[PointInput]) -> "Instance":
        """Build an instance, dropping coincident duplicates (order kept)."""
        # equal Points hash alike, so each keeps its first occurrence
        return cls(tuple(dict.fromkeys(_as_points(points))))

    @property
    def n(self) -> int:
        return len(self.points)

    def distance_matrix(self) -> list[float]:
        """Flat row-major Euclidean distance matrix.

        Raises ValueError when a distance overflows, which the solver
        kernels could not order.
        """
        pts = self.points
        dist = [a.distance_to(b) for a in pts for b in pts]
        if not all(map(math.isfinite, dist)):
            raise ValueError("distances between the points overflow the float range")
        return dist


class _PartitionFields(NamedTuple):
    blocks: tuple[tuple[Point, ...], ...]


class Partition(_PartitionFields):
    """Pairwise-disjoint nonempty point blocks."""

    __slots__ = ()

    def __new__(cls, blocks: tuple[tuple[Point, ...], ...]) -> "Partition":
        if not blocks:
            raise ValueError("a partition needs at least one block")
        seen: set[Point] = set()
        for block in blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            for p in block:
                if p in seen:
                    raise ValueError("partition blocks must be disjoint")
                seen.add(p)
        return tuple.__new__(cls, (blocks,))

    _make = classmethod(_checked_make)


class SolveResult(NamedTuple):
    """Tours for each block of a partition and the max tour length."""

    partition: Partition
    tours: tuple[ClosedTour, ...]
    value: float
    diagonals: tuple[Diagonal, ...] = ()


def _capped(n: int) -> int:
    """``n``, after the one cap check of the exact oracles."""
    if n > MAX_EXACT_POINTS:
        raise CapacityError(f"exact tours are limited to {MAX_EXACT_POINTS} points, got {n}")
    return n


def _solved(
    instance: Instance, kernel: Callable[[list[float], int], Sequence], whole_at: int
) -> tuple[list[float], Sequence]:
    """The distance matrix and ``kernel(matrix, n)``, after the one cap check.

    ``result[whole_at]`` is the optimal tour length of the whole set; it
    raises ValueError when that overflows.  No subset's tour is longer, so
    when it is finite so is every tour value an exact oracle returns.
    """
    n = _capped(instance.n)
    dist = instance.distance_matrix()
    result = kernel(dist, n)
    if not math.isfinite(result[whole_at]):
        raise ValueError("the tour through all the points overflows the float range")
    return dist, result


def optimal_tour(instance: Instance) -> ClosedTour:
    """Minimum-length closed tour through all instance points.

    Degenerate sizes are honored: a single point yields a zero-length tour
    and two points an out-and-back tour of twice their distance.
    """
    return _exact_partition(instance, 1)[1].tours[0]


def tour_values_by_subset(instance: Instance) -> list[float]:
    """Optimal tour length for every subset of the points, by bitmask."""
    return _solved(instance, kernels.cycle_lengths_by_subset, -1)[1]


def _blocks_solved(instance: Instance, labels: list[int]) -> SolveResult:
    """The partition ``labels`` names, each block's tour solved again, since
    the search keeps lengths only."""
    blocks: list[list[Point]] = [[] for _ in range(max(labels) + 1)]
    for idx, lab in enumerate(labels):
        blocks[lab].append(instance.points[idx])
    tours = tuple(optimal_tour(Instance(tuple(block))) for block in blocks)
    value = max(t.length for t in tours)
    return SolveResult(
        partition=Partition(tuple(tuple(b) for b in blocks)),
        tours=tours,
        value=value,
    )


def _exact_partition(instance: Instance, k: int) -> tuple[float, SolveResult]:
    """OPT_1 and the optimal partition into at most ``k`` blocks.

    The one dispatch of every exact answer, ``optimal_tour``'s included.
    One block (k = 1) and singletons (k >= n, the only partition of value
    0) need no search: both lanes take them, and OPT_1, from the tour DP.
    For 1 < k < n the compiled lane reads both from the whole subset table,
    whose last entry is the tour DP's float: the table anchors the whole
    set at point 0 and gives each cell the tour DP's sums.  The pure lane
    searches a ``LazySubsetTable`` from a limit just above a cut of the
    optimal tour, so it computes only the subset values the search reads.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = instance.n
    k = min(k, n)
    if 1 < k < n and kernels.BACKEND == "compiled":
        values = tour_values_by_subset(instance)
        _, labels = kernels.min_max_partition(values, n, k)
        return values[-1], _blocks_solved(instance, labels)
    dist, (whole, order) = _solved(instance, kernels.shortest_cycle, 0)
    if k == 1:  # the one block's tour is the one just solved
        tour = ClosedTour(tuple(instance.points[i] for i in order))
        return whole, SolveResult(Partition((instance.points,)), (tour,), tour.length)
    if k == n:
        labels = list(range(n))
    else:
        limit = kernels.partition_limit(dist, n, order, k)
        _, labels = kernels.min_max_partition(kernels.LazySubsetTable(dist, n), n, k, limit)
    return whole, _blocks_solved(instance, labels)


def optimal_partition(instance: Instance, k: int) -> SolveResult:
    """Partition into at most ``k`` blocks minimizing the longest block tour.

    Every partition is considered, so this is exact; the search reads one
    tour value per subset, and the pure lane computes only the values it
    reads.
    """
    return _exact_partition(instance, k)[1]


def speedup_ratio(instance: Instance, k: int) -> float:
    """Best-possible k-way time over the single-tour optimum, in [0, 1]; 0 once k >= n."""
    whole, best = _exact_partition(instance, k)
    if whole == 0.0:
        raise ValueError("ratio undefined: optimal tour has zero length")
    return best.value / whole
