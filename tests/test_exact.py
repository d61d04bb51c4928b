"""Exact oracles: optimal tours, min-max partitions, speedup ratios."""

import math
import random

import pytest

from helpers import (
    brute_force_partition_value,
    brute_force_tour_length,
    computed_rows,
    random_instance,
    random_points,
    tour_self_intersects,
    use_lane,
)
from toursplit import (
    CapacityError,
    Instance,
    SolveResult,
    optimal_partition,
    optimal_tour,
    speedup_ratio,
    tour_values_by_subset,
)
from toursplit import _core_py, circle_ratio, kernels
from toursplit.exact import _blocks_solved

SIN_PI_8 = math.sin(math.pi / 8)
SIN_3PI_8 = math.sin(3 * math.pi / 8)


def square_instance() -> Instance:
    return Instance.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])


def table_partition(inst: Instance, values: list[float], k: int) -> SolveResult:
    """The optimal partition read from the whole subset table ``values``."""
    _, labels = _core_py.min_max_partition(values, inst.n, min(k, inst.n))
    return _blocks_solved(inst, labels)


def circle_instance(n: int) -> Instance:
    return Instance.from_points(
        [
            (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
            for i in range(1, n + 1)
        ]
    )


class TestInstance:
    def test_deduplicates_coincident_points(self):
        inst = Instance.from_points([(0, 0), (1, 1), (0, 0), (1, 1)])
        assert inst.n == 2
        # the first occurrence survives, in input order; -0.0 equals 0.0
        inst = Instance.from_points([(2, 5), (0.0, 3), (1, 1), (-0.0, 3), (2, 5), (4, 0)])
        assert [(p.x, p.y) for p in inst.points] == [(2, 5), (0.0, 3), (1, 1), (4, 0)]
        assert math.copysign(1.0, inst.points[1].x) == 1.0
        inst = Instance.from_points([(-0.0, 3), (0.0, 3)])
        assert math.copysign(1.0, inst.points[0].x) == -1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Instance.from_points([])

    def test_duplicates_never_change_the_tour(self):
        rng = random.Random(7)
        inst = random_instance(rng, 6)
        doubled = Instance.from_points(inst.points + inst.points)
        assert optimal_tour(doubled).length == optimal_tour(inst).length


    def test_overflowing_distance_rejected(self):
        # the kernels never see an infinite distance
        inst = Instance.from_points([(1.6e308, 0), (0, 1.6e308), (0, 0)])
        with pytest.raises(ValueError, match="overflow"):
            inst.distance_matrix()


class TestOptimalTour:
    def test_unit_square(self):
        assert optimal_tour(square_instance()).length == pytest.approx(4.0)

    def test_equilateral_triangle(self):
        inst = Instance.from_points([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        assert optimal_tour(inst).length == pytest.approx(3.0)

    def test_regular_octagon(self):
        # closed form 16 sin(pi/8); cross-checked against permutation brute force
        tour = optimal_tour(circle_instance(8))
        assert tour.length == pytest.approx(16 * SIN_PI_8, abs=1e-9)
        assert tour.length == pytest.approx(
            brute_force_tour_length(circle_instance(8).points), abs=1e-9
        )

    def test_degenerate_sizes(self):
        assert optimal_tour(Instance.from_points([(3, 7)])).length == 0.0
        two = optimal_tour(Instance.from_points([(0, 0), (2, 0)]))
        assert two.length == pytest.approx(4.0)

    def test_capacity_error_over_budget(self):
        rng = random.Random(1)
        with pytest.raises(CapacityError):
            optimal_tour(random_instance(rng, 19))

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(12345)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(2, 8))
            assert optimal_tour(inst).length == pytest.approx(
                brute_force_tour_length(inst.points), abs=1e-9
            )

    def test_optimal_tours_are_simple(self):
        rng = random.Random(99)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(4, 10))
            assert not tour_self_intersects(optimal_tour(inst))


class TestOptimalPartition:
    def test_two_far_clusters(self):
        inst = Instance.from_points([(0, 0), (0, 0.1), (100, 0), (100, 0.1)])
        result = optimal_partition(inst, 2)
        assert result.value == pytest.approx(0.2)
        blocks = {frozenset((p.x, p.y) for p in b) for b in result.partition.blocks}
        assert blocks == {
            frozenset({(0.0, 0.0), (0.0, 0.1)}),
            frozenset({(100.0, 0.0), (100.0, 0.1)}),
        }

    def test_k1_equals_single_tour(self):
        rng = random.Random(2)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 8))
            assert optimal_partition(inst, 1).value == pytest.approx(
                optimal_tour(inst).length, abs=1e-12
            )

    def test_octagon_two_arcs(self):
        result = optimal_partition(circle_instance(8), 2)
        expected = 6 * SIN_PI_8 + 2 * SIN_3PI_8
        assert result.value == pytest.approx(expected, abs=1e-9)
        assert result.value == pytest.approx(
            brute_force_partition_value(circle_instance(8).points, 2), abs=1e-9
        )
        sizes = sorted(len(b) for b in result.partition.blocks)
        assert sizes == [4, 4]

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(12):
            inst = random_instance(rng, rng.randint(2, 7))
            k = rng.randint(1, inst.n)
            assert optimal_partition(inst, k).value == pytest.approx(
                brute_force_partition_value(inst.points, k), abs=1e-9
            )

    def test_monotone_in_k(self):
        rng = random.Random(4)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(2, 8))
            values = [optimal_partition(inst, k).value for k in range(1, inst.n + 1)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_all_singletons_cost_nothing(self):
        rng = random.Random(5)
        inst = random_instance(rng, 7)
        result = optimal_partition(inst, inst.n)
        assert result.value == 0.0
        assert all(len(b) == 1 for b in result.partition.blocks)

    def test_blocks_partition_the_instance(self):
        rng = random.Random(6)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 9))
            k = rng.randint(1, 4)
            result = optimal_partition(inst, k)
            assert len(result.partition.blocks) <= k
            covered = [p for b in result.partition.blocks for p in b]
            assert sorted((p.x, p.y) for p in covered) == sorted(
                (p.x, p.y) for p in inst.points
            )
            assert result.value == pytest.approx(
                max(t.length for t in result.tours), abs=1e-12
            )

    def test_capacity_error_over_budget(self):
        rng = random.Random(8)
        with pytest.raises(CapacityError):
            optimal_partition(random_instance(rng, 19), 2)

    def test_rejects_bad_k(self):
        # k is checked before the cap
        for inst in (square_instance(), random_instance(random.Random(120), 19)):
            for call in (optimal_partition, speedup_ratio):
                with pytest.raises(ValueError, match="k must be at least 1"):
                    call(inst, 0)


class TestSubsetTable:
    def test_last_entry_is_the_optimal_tour_length(self):
        # speedup_ratio and split --strategy exact read OPT_1 from it
        rng = random.Random(12)
        cases = [
            random_instance(rng, n, scale=scale)
            for n in range(1, 14)
            for scale in (1.0, 2.0**900, 2.0**-900)
        ]
        cases += [
            Instance.from_points([(x, y) for x in range(cols) for y in range(rows)])
            for rows, cols in ((1, 5), (3, 3), (3, 4), (2, 6))
        ]
        # the exact partitions' corpus: ties, far clusters, a regular polygon
        cases += [
            Instance.from_points([(x, 0) for x in range(13)]),
            Instance.from_points([(x, y) for x in range(4) for y in range(4)][:13]),
            Instance(random_points(rng, 6) + [(p.x + 1e3, p.y) for p in random_points(rng, 7)]),
            circle_instance(13),
        ]
        for inst in cases:
            last = tour_values_by_subset(inst)[-1]
            assert last.hex() == optimal_tour(inst).length.hex(), inst.n
            # the pure lane's exact partitions take OPT_1 from the tour DP
            dist = inst.distance_matrix()
            assert last.hex() == _core_py.shortest_cycle(dist, inst.n)[0].hex(), inst.n

    def test_the_cap_is_checked_before_the_table_is_built(self, monkeypatch):
        # the one cap of the exact oracles, MAX_EXACT_POINTS, covers the table
        def unexpected(dist, n):
            raise AssertionError("the subset table was built over the cap")

        monkeypatch.setattr(kernels, "cycle_lengths_by_subset", unexpected)
        with pytest.raises(CapacityError, match="exact tours are limited to 18 points, got 19"):
            tour_values_by_subset(random_instance(random.Random(13), 19))


class TestLazyPartitionWork:
    """The pure lane's exact partitions compute few of the 2^n subset values."""

    @staticmethod
    def lazy_tables(monkeypatch) -> list:
        # the pure lane whichever lane was selected, recording the tables it reads
        made = []

        class Recorded(_core_py.LazySubsetTable):
            def __init__(self, dist, n):
                super().__init__(dist, n)
                made.append(self)

        use_lane(monkeypatch, _core_py)
        monkeypatch.setattr(kernels, "LazySubsetTable", Recorded)
        return made

    def test_uniform_13_points_compute_few_rows(self, monkeypatch):
        # Reading values[-1] computes the 4096 rows of the masks that hold
        # point 0, and so does an unseeded search: its first labelling puts
        # every point in block 0.  A hard k = 2 input can need over a
        # quarter of the 8192 rows, but the typical search needs far fewer.
        made = self.lazy_tables(monkeypatch)
        rng = random.Random(117)
        rows = []
        for _ in range(3):
            inst = random_instance(rng, 13)
            full = tour_values_by_subset(inst)
            for k in (2, 3, 4):
                result = optimal_partition(inst, k)
                table = made.pop()
                assert not made
                rows.append(computed_rows(table))
                assert rows[-1] < (1 << 13) // 2, k
                assert result == table_partition(inst, full, k)
        assert sorted(rows)[len(rows) // 2] < (1 << 13) // 4, rows

    def test_one_block_and_singletons_need_no_search(self, monkeypatch):
        made = self.lazy_tables(monkeypatch)
        tours = []
        solve = kernels.shortest_cycle
        monkeypatch.setattr(kernels, "shortest_cycle", lambda d, n: tours.append(n) or solve(d, n))
        inst = random_instance(random.Random(118), 7)
        one = optimal_partition(inst, 1)
        assert one.partition.blocks == (inst.points,)
        assert tours == [7]  # the one block's tour is not solved again
        assert one.tours == (optimal_tour(inst),) and one.value == optimal_tour(inst).length
        for k in (7, 8):
            blocks = optimal_partition(inst, k).partition.blocks
            assert blocks == tuple((p,) for p in inst.points)
        assert made == []


class TestOneDispatch:
    """Every exact partition goes through one dispatch, which answers one
    block and singletons from the tour DP on both lanes."""

    @pytest.mark.parametrize("lane", ["compiled", "pure"])
    def test_trivial_splits_build_no_table(self, lane, monkeypatch, request):
        impl = request.getfixturevalue("compiled_core") if lane == "compiled" else _core_py
        use_lane(monkeypatch, impl)
        tables = []
        build = kernels.cycle_lengths_by_subset
        monkeypatch.setattr(
            kernels, "cycle_lengths_by_subset", lambda d, n: tables.append(n) or build(d, n)
        )
        inst = random_instance(random.Random(119), 9)
        assert optimal_partition(inst, 1).partition.blocks == (inst.points,)
        singletons = optimal_partition(inst, inst.n + 3).partition.blocks
        assert singletons == tuple((p,) for p in inst.points)
        assert speedup_ratio(inst, 1) == 1.0
        assert circle_ratio(5, 7) == 0.0
        assert tables == []
        # between them only the compiled lane searches the whole table
        optimal_partition(inst, 2)
        assert tables == ([9] if lane == "compiled" else [])


class TestSpeedupRatio:
    def test_k1_is_one(self):
        rng = random.Random(9)
        inst = random_instance(rng, 6)
        assert speedup_ratio(inst, 1) == pytest.approx(1.0, abs=1e-12)

    def test_octagon_two_ways(self):
        assert speedup_ratio(circle_instance(8), 2) == pytest.approx(
            0.6767766952966369, abs=1e-9
        )

    def test_far_clusters_tiny_ratio(self):
        inst = Instance.from_points([(0, 0), (0, 0.1), (100, 0), (100, 0.1)])
        ratio = speedup_ratio(inst, 2)
        assert ratio == pytest.approx(0.2 / optimal_tour(inst).length, abs=1e-12)
        assert ratio < 0.001

    def test_coincident_points_rejected(self):
        inst = Instance.from_points([(1, 1), (1, 1), (1, 1)])
        assert inst.n == 1
        with pytest.raises(ValueError):
            speedup_ratio(inst, 2)

    def test_partition_cap_fails_before_the_tour_is_solved(self, monkeypatch):
        def unexpected(dist, n):
            raise AssertionError("the tour DP ran before the partition cap was checked")

        monkeypatch.setattr(kernels, "shortest_cycle", unexpected)
        with pytest.raises(CapacityError, match="exact tours are limited to 18 points, got 19"):
            speedup_ratio(random_instance(random.Random(11), 19), 2)

    def test_always_in_unit_interval(self):
        # singleton-only partitions (k >= n) legitimately reach ratio 0
        rng = random.Random(10)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 8))
            k = rng.randint(1, inst.n)
            ratio = speedup_ratio(inst, k)
            assert 0.0 <= ratio <= 1.0 + 1e-12
            if k < inst.n:
                assert ratio > 0.0
        assert speedup_ratio(Instance([(0, 0), (1, 0)]), 2) == 0.0
