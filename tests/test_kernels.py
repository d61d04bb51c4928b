"""Solver kernels: both lanes agree with each other and with brute force."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import (
    brute_force_partition_value,
    brute_force_tour_length,
    computed_rows,
    naive_cycle_lengths_by_subset,
    naive_shortest_cycle,
    random_points,
)
from toursplit import Point, _core_py, circle_points

SRC = Path(__file__).resolve().parent.parent / "src"


def flat_distances(points) -> list[float]:
    return [a.distance_to(b) for a in points for b in points]


def grid(rows: int, cols: int) -> list[Point]:
    """Integer grid points: many tours tie exactly."""
    return [Point(float(x), float(y)) for x in range(cols) for y in range(rows)]


def overflowing_points(rng: random.Random, n: int) -> list[Point]:
    """Points whose distances are finite but whose every tour overflows."""
    return random_points(rng, n, scale=1e308)


def collinear(n: int) -> list[Point]:
    """Evenly spaced points on a line: every out-and-back tour ties."""
    return [Point(float(x), 0.0) for x in range(n)]


def shuffled_lattice(rng: random.Random, n: int, side: int) -> list[Point]:
    """``n`` distinct points of a ``side x side`` integer lattice, shuffled."""
    pts = grid(side, side)
    rng.shuffle(pts)
    return pts[:n]


def bound_cases(rng: random.Random):
    """Small instances for the pruning bounds: uniform, tie-heavy, far scales."""
    for n in range(3, 9):
        yield random_points(rng, n)
        yield random_points(rng, n, scale=rng.choice([2.0**900, 2.0**-900]))
        yield shuffled_lattice(rng, n, 3)
        yield collinear(n)
    yield circle_points(8).points
    yield grid(2, 4)


class TestPureLane:
    def test_shortest_cycle_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(25):
            pts = random_points(rng, rng.randint(1, 7))
            value, order = _core_py.shortest_cycle(flat_distances(pts), len(pts))
            assert sorted(order) == list(range(len(pts)))
            assert value == pytest.approx(brute_force_tour_length(pts), abs=1e-9)

    def test_subset_table_matches_brute_force(self):
        rng = random.Random(102)
        pts = random_points(rng, 6)
        table = _core_py.cycle_lengths_by_subset(flat_distances(pts), 6)
        assert table[0] == 0.0
        for mask in range(1, 1 << 6):
            subset = [pts[i] for i in range(6) if (mask >> i) & 1]
            assert table[mask] == pytest.approx(
                brute_force_tour_length(subset), abs=1e-9
            )

    def test_partition_matches_brute_force(self):
        rng = random.Random(103)
        for _ in range(10):
            pts = random_points(rng, rng.randint(2, 6))
            n = len(pts)
            table = _core_py.cycle_lengths_by_subset(flat_distances(pts), n)
            for k in range(1, n + 1):
                value, labels = _core_py.min_max_partition(table, n, k)
                assert value == pytest.approx(
                    brute_force_partition_value(pts, k), abs=1e-9
                )
                assert len(labels) == n and labels[0] == 0
                assert max(labels) < k

    def test_partition_labels_are_lexicographically_smallest(self):
        # enumerate all restricted-growth strings and pick the smallest
        # labelling among the minimizers, independent of the search kernel
        rng = random.Random(104)
        for _ in range(10):
            pts = random_points(rng, 6)
            n = len(pts)
            table = _core_py.cycle_lengths_by_subset(flat_distances(pts), n)
            k = rng.randint(1, n)

            def all_rgs(prefix, used):
                if len(prefix) == n:
                    yield list(prefix)
                    return
                for lab in range(min(used + 1, k)):
                    yield from all_rgs(prefix + [lab], max(used, lab + 1))

            def value_of(rgs):
                masks = {}
                for i, lab in enumerate(rgs):
                    masks[lab] = masks.get(lab, 0) | (1 << i)
                return max(table[m] for m in masks.values())

            candidates = [(value_of(r), r) for r in all_rgs([], 0)]
            best_value = min(v for v, _ in candidates)
            expected = min(r for v, r in candidates if v == best_value)
            value, labels = _core_py.min_max_partition(table, n, k)
            assert value == best_value
            assert labels == expected

    def test_tour_bounds_never_exceed_the_rest_of_a_tour(self):
        # for every (mask, last): the bound on a path from last through the
        # points outside mask back to 0 is at most the shortest such path,
        # up to rounding far inside the limit's 1e-9 slack
        rng = random.Random(109)
        for pts in bound_cases(rng):
            n = len(pts)
            dist = flat_distances(pts)
            rows = [dist[i * n : (i + 1) * n] for i in range(n)]
            limit, weight, tail = _core_py._tour_bounds(rows, n)
            assert limit < sys.float_info.max
            for mask in range(1, 1 << n, 2):
                outside = [v for v in range(1, n) if not mask >> v & 1]
                lasts = [0] if mask == 1 else [v for v in range(1, n) if mask >> v & 1]
                for last in lasts:
                    shortest = min(
                        sum(dist[a * n + b] for a, b in zip((last, *order), (*order, 0)))
                        for order in itertools.permutations(outside)
                    )
                    bound = sum(weight[v] for v in outside) + tail[last]
                    assert bound <= shortest + 1e-12 * limit, (pts, mask, last)

    def test_tour_bounds_limit_is_at_least_the_optimum(self):
        rng = random.Random(110)
        for i in range(500):
            n = rng.randint(3, 8)
            pts = [random_points(rng, n), shuffled_lattice(rng, n, 3), collinear(n)][i % 3]
            rng.shuffle(pts)
            dist = flat_distances(pts)
            rows = [dist[j * n : (j + 1) * n] for j in range(n)]
            limit, _, _ = _core_py._tour_bounds(rows, n)
            assert limit >= naive_shortest_cycle(dist, n)[0]

    def test_tour_bounds_switch_off_outside_the_proven_range(self):
        # subnormal spacing, distances past 2^1000, and n < 3: nothing pruned
        tiny = [Point(i * 5e-324, (i % 3) * 5e-324) for i in range(6)]
        far = [Point(i * 1e305, (i % 2) * 1e305) for i in range(6)]
        for pts in (tiny, far, collinear(2)):
            n = len(pts)
            dist = flat_distances(pts)
            rows = [dist[j * n : (j + 1) * n] for j in range(n)]
            assert _core_py._tour_bounds(rows, n) == (sys.float_info.max, [0.0] * n, [0.0] * n)

    def test_shortest_cycle_matches_the_full_table_loop(self):
        # pruning and the half-size table must keep every value, order and
        # tie-break of the unpruned full-table loop
        rng = random.Random(106)
        cases = [random_points(rng, n, scale=rng.choice([1.0, 100.0])) for n in range(1, 13)]
        cases += [random_points(rng, n) for n in range(1, 13) for _ in range(3)]
        cases += [circle_points(n).points for n in (3, 4, 6, 8, 12)]
        cases += [grid(3, 4), grid(2, 6)]
        cases += [shuffled_lattice(rng, n, side) for n, side in ((9, 3), (12, 4), (13, 4))]
        cases += [collinear(12), rng.sample(collinear(14), 14)]
        cases += [random_points(rng, n, scale=2.0**e) for n in (8, 12) for e in (900, -900)]
        # subnormal spacing: halving a distance rounds, so nothing is pruned
        cases += [[Point(p.x * 5e-324, p.y * 5e-324) for p in shuffled_lattice(rng, 9, 4)]]
        # near overflow: pruned just inside 2^1000, not pruned past it
        cases += [random_points(rng, 9, scale=1e300), random_points(rng, 9, scale=1e306)]
        cases += [overflowing_points(rng, 6)]
        for pts in cases:
            dist = flat_distances(pts)
            assert _core_py.shortest_cycle(dist, len(pts)) == naive_shortest_cycle(dist, len(pts))
        dist = flat_distances(cases[-1])
        assert _core_py.shortest_cycle(dist, 6) == (math.inf, [])

    def test_shortest_cycle_holds_only_the_rows_it_reaches(self):
        # a full 2^(n-1) * n table at n = 16 takes 4 MB of list slots alone
        rng = random.Random(111)
        dist = flat_distances(random_points(rng, 16))
        tracemalloc.start()
        try:
            _core_py.shortest_cycle(dist, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_subset_table_matches_the_full_candidate_loop(self):
        # dropping the always-INF candidates must keep every value to the bit
        rng = random.Random(108)
        cases = [random_points(rng, n, scale=rng.choice([1.0, 100.0])) for n in range(1, 14)]
        cases += [random_points(rng, n) for n in range(1, 11) for _ in range(3)]
        cases += [circle_points(n).points for n in (3, 4, 6, 8, 12, 13)]
        cases += [grid(3, 4), grid(2, 6), overflowing_points(rng, 6)]
        for pts in cases:
            n = len(pts)
            dist = flat_distances(pts)
            naive = naive_cycle_lengths_by_subset(dist, n)
            assert _core_py.cycle_lengths_by_subset(dist, n) == naive
            # read out of order, rows recurse into submasks not yet computed
            masks = list(range(1 << n))
            rng.shuffle(masks)
            lazy = _core_py.LazySubsetTable(dist, n)
            assert [lazy[m] for m in masks] == [naive[m] for m in masks], pts
        assert naive[-1] == lazy[(1 << n) - 1] == math.inf

    def test_rejects_bad_sizes(self):
        assert_rejects_bad_sizes(_core_py)

    def test_no_finite_partition_raises_value_error(self):
        assert_no_finite_partition_raises(_core_py)


def assert_rejects_bad_sizes(core):
    """Sizes out of range raise ValueError, and sizes that are not ints
    TypeError, before any table is built."""
    for kernel in (core.shortest_cycle, core.cycle_lengths_by_subset):
        with pytest.raises(ValueError, match="need at least one point"):
            kernel([], 0)
        with pytest.raises(ValueError, match="memory budget"):
            kernel([0.0] * 625, 25)
        with pytest.raises(TypeError):
            kernel([0.0] * 4, 2.0)
    with pytest.raises(ValueError, match="need at least one point"):
        core.min_max_partition([0.0], 0, 1)
    with pytest.raises(ValueError, match="need at least one block"):
        core.min_max_partition([0.0, 0.0], 1, 0)
    for n, k in ((2.0, 1), (2, 1.0)):
        with pytest.raises(TypeError):
            core.min_max_partition([0.0] * 4, n, k)


def assert_no_finite_partition_raises(core):
    """A table with no finite partition raises the same ValueError on both
    lanes."""
    with pytest.raises(ValueError, match="no partition lies below the limit"):
        core.min_max_partition([math.inf] * 4, 2, 1)


def far_clusters(rng: random.Random, n: int) -> list[Point]:
    """Two far-apart clusters of uniform points."""
    half = n // 2
    return random_points(rng, half) + [Point(p.x + 1e3, p.y) for p in random_points(rng, n - half)]


def partition_inputs():
    """The lane-parity corpus plus tie-heavy and clustered 13-point sets."""
    yield from TestLaneParity.inputs()
    yield collinear(13)
    yield grid(4, 4)[:13]
    yield far_clusters(random.Random(112), 13)
    yield circle_points(13).points


def seeded_lazy_search(dist: list[float], n: int, k: int):
    """The pure lane's exact search: a lazy table from a limit seeded by a
    cut of the optimal tour.  Returns the search's result and the table."""
    order = _core_py.shortest_cycle(dist, n)[1]
    table = _core_py.LazySubsetTable(dist, n)
    limit = _core_py.partition_limit(dist, n, order, k)
    return _core_py.min_max_partition(table, n, k, limit), table


class TestLazyPartition:
    def test_seeded_lazy_search_matches_the_full_table(self):
        for pts in partition_inputs():
            n = len(pts)
            dist = flat_distances(pts)
            full = naive_cycle_lengths_by_subset(dist, n)
            for k in range(1, n + 2):
                result, table = seeded_lazy_search(dist, n, k)
                assert result == _core_py.min_max_partition(full, n, k), (pts, k)
                # every value the lazy table computed is the full table's, to the bit
                assert all(v.hex() == full[m].hex() for m, v in table.items())

    def test_the_seed_is_set_between_one_block_and_singletons(self):
        # otherwise the parity above would hold with no seed at all
        rng = random.Random(113)
        for n in (3, 8, 13):
            dist = flat_distances(random_points(rng, n))
            order = _core_py.shortest_cycle(dist, n)[1]
            for k in range(1, n):
                assert _core_py.partition_limit(dist, n, order, k) < math.inf

    def test_tiny_sets_and_k_at_least_n_run_unseeded(self):
        # at k >= n the best cut is the singletons, of value 0: a seed of 0
        # would prune every partition
        rng = random.Random(114)
        for pts in ([Point(0.5, 0.5)], random_points(rng, 2), random_points(rng, 5)):
            n = len(pts)
            dist = flat_distances(pts)
            order = _core_py.shortest_cycle(dist, n)[1]
            for k in range(n, n + 3):
                assert _core_py.partition_limit(dist, n, order, k) == math.inf
                result, _ = seeded_lazy_search(dist, n, k)
                assert result == (0.0, list(range(n)))
        dist = flat_distances(random_points(rng, 2))
        assert seeded_lazy_search(dist, 2, 1)[0] == (2 * dist[1], [0, 0])

    def test_far_scales_run_unseeded(self):
        # distances past 2^1000, or a cut below 2^-1000, leave the slack unproven
        rng = random.Random(115)
        for scale in (2.0**1010, 2.0**-1030, 1e-320):
            pts = random_points(rng, 9, scale=scale)
            dist = flat_distances(pts)
            full = naive_cycle_lengths_by_subset(dist, 9)
            order = _core_py.shortest_cycle(dist, 9)[1]
            for k in range(1, 11):
                assert _core_py.partition_limit(dist, 9, order, k) == math.inf
                result, _ = seeded_lazy_search(dist, 9, k)
                assert result == _core_py.min_max_partition(full, 9, k)

    def test_inputs_that_defeat_the_pruning_still_match(self):
        # A seeded hill climb towards the inputs whose lazy search computes
        # the most rows.  It finds a cluster with far outliers, where k = 2
        # computes most of the table (97% on one 13-point set).  Every input
        # it tries must give the result over an independently written table
        # at k = 2 and 3, and the worst one at every k.
        rng = random.Random(119)
        n = 12

        def rows(pts):
            dist = flat_distances(pts)
            full = naive_cycle_lengths_by_subset(dist, n)
            most = 0
            for k in (2, 3):
                result, table = seeded_lazy_search(dist, n, k)
                assert result == _core_py.min_max_partition(full, n, k), (pts, k)
                most = max(most, computed_rows(table))
            return most

        pts = random_points(rng, n)
        start = most = rows(pts)
        for _ in range(60):
            moved = list(pts)
            i = rng.randrange(n)
            move = rng.random()
            if move < 0.5:  # nudge a point
                moved[i] = Point(pts[i].x + rng.gauss(0, 0.1), pts[i].y + rng.gauss(0, 0.1))
            elif move < 0.8:  # throw it anywhere
                moved[i] = Point(rng.random(), rng.random())
            else:  # next to another point
                near = pts[rng.randrange(n)]
                moved[i] = Point(near.x + rng.gauss(0, 1e-3), near.y + rng.gauss(0, 1e-3))
            if len(set(moved)) == n:
                score = rows(moved)
                if score >= most:
                    pts, most = moved, score
        assert most > 2 * start, (start, most)  # the climb found harder inputs
        dist = flat_distances(pts)
        naive = naive_cycle_lengths_by_subset(dist, n)
        for k in range(1, n + 1):
            assert seeded_lazy_search(dist, n, k)[0] == _core_py.min_max_partition(naive, n, k)

    def test_a_limit_at_the_minimum_finds_nothing(self):
        dist = flat_distances(random_points(random.Random(116), 6))
        full = naive_cycle_lengths_by_subset(dist, 6)
        value, labels = _core_py.min_max_partition(full, 6, 3)
        assert _core_py.min_max_partition(full, 6, 3, math.nextafter(value, math.inf)) == (
            value, labels
        )
        with pytest.raises(ValueError, match="no partition lies below the limit"):
            _core_py.min_max_partition(full, 6, 3, value)


class TestLaneParity:
    @staticmethod
    def inputs():
        rng = random.Random(105)
        for n in range(1, 14):
            yield random_points(rng, n, scale=rng.choice([1.0, 100.0]))
        # regular polygons are full of exact and near ties
        for n in (2, 6, 8, 12, 13):
            yield circle_points(n).points

    def test_seeded_lazy_search_matches_the_compiled_search(self, compiled_core):
        for pts in partition_inputs():
            n = len(pts)
            dist = flat_distances(pts)
            table = compiled_core.cycle_lengths_by_subset(dist, n)
            for k in range(1, n + 2):
                expected = compiled_core.min_max_partition(table, n, k)
                assert seeded_lazy_search(dist, n, k)[0] == expected, (pts, k)

    def test_exact_partitions_bit_identical_past_13_points(self, compiled_core):
        # the pure lane's lazy search against the compiled whole-table search
        rng = random.Random(108)
        cases = [
            random_points(rng, 14),
            random_points(rng, 15),
            random_points(rng, 16),
            collinear(16),
            grid(4, 4),
            far_clusters(rng, 16),
            circle_points(16).points,
        ]
        for pts in cases:
            n = len(pts)
            dist = flat_distances(pts)
            table = compiled_core.cycle_lengths_by_subset(dist, n)
            for k in range(2, 6):
                expected = compiled_core.min_max_partition(table, n, k)
                assert seeded_lazy_search(dist, n, k)[0] == expected, (pts, k)

    def test_backends_bit_identical(self, compiled_core):
        # repr tells -0.0 from 0.0 and prints every float exactly; the
        # collinear, grid and far-cluster sets are full of exact ties
        rng = random.Random(117)
        ties = [collinear(n) for n in (3, 7, 12)]
        ties += [grid(2, 5), grid(3, 4), shuffled_lattice(rng, 13, 4)]
        ties += [far_clusters(rng, n) for n in (5, 9, 13)]
        for pts in [*self.inputs(), *ties]:
            n = len(pts)
            dist = flat_distances(pts)
            assert repr(compiled_core.shortest_cycle(dist, n)) == repr(
                _core_py.shortest_cycle(dist, n)
            ), pts
            table_c = compiled_core.cycle_lengths_by_subset(dist, n)
            table_py = _core_py.cycle_lengths_by_subset(dist, n)
            assert repr(table_c) == repr(table_py), pts
            for k in range(1, n + 1):
                assert repr(compiled_core.min_max_partition(table_c, n, k)) == repr(
                    _core_py.min_max_partition(table_py, n, k)
                ), (pts, k)

    def test_compiled_lane_rejects_bad_sizes(self, compiled_core):
        assert_rejects_bad_sizes(compiled_core)

    def test_compiled_lane_no_finite_partition_raises_value_error(self, compiled_core):
        assert_no_finite_partition_raises(compiled_core)

    def test_shortest_cycle_keeps_half_the_masks_and_a_parent_byte(self, compiled_core):
        # rows only for the masks holding point 0, 8-byte values and 1-byte
        # parents: 2^15 * 16 * 9 bytes at n = 16
        dist = flat_distances(random_points(random.Random(118), 16))
        tracemalloc.start()
        try:
            compiled_core.shortest_cycle(dist, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**15 * 16 * 9 + 65_536

    def test_shortest_cycle_bit_identical_at_the_tour_cap(self, compiled_core):
        rng = random.Random(107)
        cases = [
            random_points(rng, 16),
            grid(4, 4),
            circle_points(16).points,
            grid(3, 6),  # n = 18, MAX_EXACT_POINTS
            collinear(18),  # ties everywhere: the least pruned input
            random_points(rng, 18),
            random_points(rng, 18),
            # weak bounds: most masks are reached and many rows live at once
            random_points(rng, 8) + [Point(p.x + 1e3, p.y) for p in random_points(rng, 8)],
            rng.sample(collinear(16), 16),
            # exact ties, where the parent tie-breaking decides the tour
            circle_points(18).points,
            rng.sample(grid(4, 5), 18),
            far_clusters(rng, 18),
            collinear(17),
        ]
        for pts in cases:
            dist = flat_distances(pts)
            n = len(pts)
            assert repr(compiled_core.shortest_cycle(dist, n)) == repr(
                _core_py.shortest_cycle(dist, n)
            ), pts
        dist = flat_distances(overflowing_points(rng, 10))
        assert compiled_core.shortest_cycle(dist, 10) == (math.inf, [])
        assert _core_py.shortest_cycle(dist, 10) == (math.inf, [])


def backend_of(env_value, preload=None, then=""):
    """Run a fresh interpreter with TOURSPLIT_BACKEND set; return its result.

    ``preload`` is a compiled module file registered as ``toursplit._core``
    before the package imports, standing in for an in-place build, or
    False to make that module unimportable, as on a fresh checkout.  The
    interpreter prints the selected lane, then runs the code in ``then``.
    """
    code = (
        "import sys\n"
        "preloaded = set(sys.modules)  # loaded before this script runs\n"
        "import importlib.util\n"
        f"path = {preload!r}\n"
        "if path:\n"
        "    spec = importlib.util.spec_from_file_location('toursplit._core', path)\n"
        "    mod = importlib.util.module_from_spec(spec)\n"
        "    spec.loader.exec_module(mod)\n"
        "    sys.modules['toursplit._core'] = mod\n"
        "elif path is False:\n"
        "    sys.modules['toursplit._core'] = None  # importing it raises ImportError\n"
        "import toursplit\n"
        "print(toursplit.SOLVER_BACKEND)\n"
        + then
    )
    env = dict(os.environ, TOURSPLIT_BACKEND=env_value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


class TestLaneSelection:
    def test_forced_compiled(self, compiled_core):
        proc = backend_of("compiled", preload=compiled_core.__file__)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "compiled"

    def test_forced_pure(self, compiled_core):
        proc = backend_of("pure", preload=compiled_core.__file__)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "pure"

    def test_automatic_choice_prefers_the_build(self, compiled_core):
        proc = backend_of("", preload=compiled_core.__file__)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "compiled"

    def test_automatic_choice_falls_back_to_pure(self):
        proc = backend_of("", preload=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "pure"

    def test_unknown_value_rejected(self):
        proc = backend_of("bogus")
        assert proc.returncode != 0
        assert "ValueError: unknown TOURSPLIT_BACKEND value: 'bogus'" in proc.stderr

    @pytest.mark.parametrize("lane", ["compiled", "pure"])
    def test_cli_import_loads_neither_dataclasses_nor_inspect(self, lane, request):
        # importing them took about a fifth of a small CLI job's wall time;
        # json and random are imported by the commands that use them.  A
        # site hook may load a module before the script runs, and then the
        # package cannot be blamed for it.  The compiled lane never loads
        # the pure kernels either.
        preload = request.getfixturevalue("compiled_core").__file__ if lane == "compiled" else None
        then = (
            "import toursplit.cli\n"
            "unwanted = {'dataclasses', 'inspect', 'json', 'random'} - preloaded\n"
            + ("unwanted.add('toursplit._core_py')\n" if lane == "compiled" else "")
            + "print(sorted(unwanted & set(sys.modules)))\n"
        )
        proc = backend_of(lane, preload=preload, then=then)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [lane, "[]"]

    @pytest.mark.parametrize("lane", ["compiled", "pure"])
    def test_short_inputs_raise_index_error(self, lane, request):
        # a list shorter than n * n distances, or 2^n values, must raise, not
        # be read past its end; a child interpreter turns a crash into a
        # failure of this test instead of the whole run
        preload = request.getfixturevalue("compiled_core").__file__ if lane == "compiled" else None
        then = (
            "from toursplit import kernels\n"
            "for call in ('shortest_cycle([0.0], 2)', 'cycle_lengths_by_subset([0.0], 2)',\n"
            "             'min_max_partition([0.0], 2, 1)'):\n"
            "    try:\n"
            "        print(call, eval('kernels.' + call))\n"
            "    except IndexError:\n"
            "        print(call, 'IndexError')\n"
        )
        proc = backend_of(lane, preload=preload, then=then)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            lane,
            "shortest_cycle([0.0], 2) IndexError",
            "cycle_lengths_by_subset([0.0], 2) IndexError",
            "min_max_partition([0.0], 2, 1) IndexError",
        ]
