"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass line once its checks complete; run with
``pytest tests/test_acceptance.py -v`` to see one line per criterion.
"""

import math
import random
import time

import pytest

from helpers import (
    brute_force_tour_length,
    cut_diagonal,
    random_instance,
    random_simple_tour,
)
from toursplit import (
    Instance,
    circle_limit_ratio,
    circle_points,
    circle_ratio,
    guaranteed_partition,
    optimal_partition,
    optimal_tour,
    speedup_ratio,
    split_plan,
    verify_arc_optimality,
    verify_gap_fill_monotonicity,
)
from toursplit.cli import main

# published three-decimal bounds for k = 1..10: (lower, upper, decomposition)
TABLE_ROWS = {
    1: (1.000, 1.000, "trivial"),
    2: (0.818, 0.818, "1+1"),
    3: (0.609, 0.737, "1+2"),
    4: (0.475, 0.670, "2*2"),
    5: (0.387, 0.634, "2+3"),
    6: (0.326, 0.603, "2*3"),
    7: (0.281, 0.574, "3+4"),
    8: (0.247, 0.548, "2*4"),
    9: (0.220, 0.533, "4+5"),
    10: (0.198, 0.519, "2*5"),
}


def report(n, title):
    print(f"ACCEPTANCE {n} ({title}): PASS")


def test_criterion_1_bounds_table_reproduction(capsys):
    start = time.monotonic()
    assert main(["bounds", "10"]) == 0
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    lines = out.strip().splitlines()
    assert lines[0] == "k,lower,upper,decomposition"
    assert len(lines) == 11
    for line in lines[1:]:
        k_str, lower_str, upper_str, decomposition = line.split(",")
        k = int(k_str)
        ref_lower, ref_upper, ref_decomposition = TABLE_ROWS[k]
        assert abs(float(lower_str) - ref_lower) <= 5e-4, (k, "lower")
        assert abs(float(upper_str) - ref_upper) <= 5e-4, (k, "upper")
        assert decomposition == ref_decomposition
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "bounds table matches all 20 published entries within 5e-4")


def test_criterion_2_two_way_constant():
    target = 0.5 + 1.0 / math.pi
    assert abs(split_plan(2).ratio - target) <= 1e-12
    assert abs(circle_limit_ratio(2) - target) <= 1e-12
    assert abs(split_plan(2).ratio - circle_limit_ratio(2)) <= 1e-12
    report(2, "two-way ratio equals 1/2 + 1/pi to 1e-12")


def test_criterion_3_circle_convergence():
    start = time.monotonic()
    values = {}
    for n in (8, 12):
        closed_form = circle_ratio(n, 2)
        oracle = speedup_ratio(circle_points(n), 2)
        assert abs(closed_form - oracle) <= 1e-9
        values[n] = closed_form
    assert values[8] == pytest.approx(0.6767766952966366, abs=5e-6)
    assert values[12] == pytest.approx(0.7276709006307397, abs=5e-6)
    assert values[8] < values[12] < 0.81832
    assert time.monotonic() - start < 30.0
    report(3, "circle ratios match the exhaustive oracle and increase")


def test_criterion_4_exhaustive_arc_and_gap_checks():
    start = time.monotonic()
    for n in range(2, 13):
        for m in range(1, n + 1):
            verify_arc_optimality(n, m)
    for n in range(2, 11):
        verify_gap_fill_monotonicity(n)
    assert time.monotonic() - start < 300.0
    report(4, "arc optimality (n<=12) and gap-fill monotonicity (n<=10)")


def test_criterion_5_halving_guarantee_on_optimal_tours():
    start = time.monotonic()
    rng = random.Random(20260805)
    bound = 0.81832 + 1e-9
    for _ in range(200):
        instance = random_instance(rng, rng.randint(4, 10))
        tour = optimal_tour(instance)
        ratio = guaranteed_partition(instance, tour, 2).value / tour.length
        assert ratio <= bound
    assert time.monotonic() - start < 60.0
    report(5, "halving optimal tours never exceeds 0.81832 on 200 instances")


def test_criterion_6_short_diagonal_property():
    start = time.monotonic()
    rng = random.Random(20260806)
    for _ in range(1000):
        tour = random_simple_tour(rng, rng.randint(3, 16))
        frac = rng.uniform(0.02, 0.98)
        diagonal = cut_diagonal(tour, frac)
        x = frac * tour.length
        assert diagonal.length <= tour.length / math.pi + 1e-9
        span = (diagonal.t_q - diagonal.t_p) % tour.length
        assert abs(span - x) <= 1e-9 * tour.length
    assert time.monotonic() - start < 10.0
    report(6, "1000 fuzzed polygons: short diagonals within length/pi")


def test_criterion_7_recursive_guarantee():
    rng = random.Random(20260807)
    for k in range(2, 9):
        ratio = split_plan(k).ratio
        for _ in range(100):
            tour = random_simple_tour(rng, rng.randint(4, 24))
            result = guaranteed_partition(tour.vertices, tour, k)
            assert result.value <= ratio * tour.length + 1e-9
            covered = sorted((p.x, p.y) for b in result.partition.blocks for p in b)
            assert covered == sorted((p.x, p.y) for p in tour.vertices)
    report(7, "recursive splitting meets g(k) for k=2..8 on 100 instances each")


def test_criterion_8_oracle_cross_validation():
    rng = random.Random(20260808)
    for _ in range(100):
        instance = random_instance(rng, rng.randint(2, 8))
        assert optimal_tour(instance).length == pytest.approx(
            brute_force_tour_length(instance.points), abs=1e-9
        )
    for _ in range(40):
        instance = random_instance(rng, rng.randint(2, 8))
        values = [
            optimal_partition(instance, k).value for k in range(1, instance.n + 1)
        ]
        for wider, tighter in zip(values, values[1:]):
            assert tighter <= wider + 1e-12
    report(8, "solver matches brute force; k-way values are monotone")
