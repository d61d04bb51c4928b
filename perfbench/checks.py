"""Benchmark-side output checks, computed without importing toursplit.

Every check returns ``None`` when the output is correct and a one-line reason
otherwise.  Lengths are recomputed from coordinates; exact values are bounded
by a 2-opt tour or a cut of it; guaranteed splits are held to g(k)*L per piece
and L/pi per diagonal, with g(k) from the paper's sum and product rules.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

REL = 1e-9
INV_PI = 1.0 / math.pi


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def _within(value: float, limit: float) -> bool:
    return value <= limit * (1.0 + REL)


def closed_length(tour) -> float:
    total = 0.0
    for i, a in enumerate(tour):
        b = tour[(i + 1) % len(tour)]
        total += math.hypot(a[0] - b[0], a[1] - b[1])
    return total


def two_opt(points) -> list:
    """A nearest-neighbour tour improved by 2-opt until no move helps."""
    left = list(points[1:])
    tour = [points[0]]
    while left:
        last = tour[-1]
        nxt = min(left, key=lambda p: math.hypot(p[0] - last[0], p[1] - last[1]))
        left.remove(nxt)
        tour.append(nxt)
    n = len(tour)

    def d(a, b):
        return math.hypot(a[0] - b[0], a[1] - b[1])

    improved = n > 3
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n if i > 0 else n - 1):
                a, b = tour[i], tour[i + 1]
                c, e = tour[j], tour[(j + 1) % n]
                if d(a, c) + d(b, e) < d(a, b) + d(c, e) - 1e-12:
                    tour[i + 1 : j + 1] = reversed(tour[i + 1 : j + 1])
                    improved = True
    return tour


def cut_partition_value(points, k: int) -> float:
    """Best min-max value over cuts of the 2-opt tour into min(k, n) arcs."""
    tour = two_opt(points)
    n = len(tour)
    parts = min(k, n)
    best = math.inf
    for cuts in itertools.combinations(range(n), parts):
        worst = 0.0
        for a, b in zip(cuts, cuts[1:] + (cuts[0] + n,)):
            worst = max(worst, closed_length([tour[i % n] for i in range(a, b)]))
        best = min(best, worst)
    return best


@lru_cache(maxsize=None)
def g(k: int) -> float:
    """Best split-plan ratio: product rule g(a)g(b), sum rule for balanceable pairs."""
    if k == 1:
        return 1.0
    best = math.inf
    for a in range(2, k):
        if k % a == 0:
            best = min(best, g(a) * g(k // a))
    for a in range(1, k // 2 + 1):
        ra, rb = g(a), g(k - a)
        x = rb / (ra + rb) + (rb - ra) / (math.pi * (ra + rb))
        if 0.0 < x < 1.0:
            best = min(best, (1.0 + 2.0 * INV_PI) * ra * rb / (ra + rb))
    return best


def circle_limit(k: int) -> float:
    return 1.0 / k + math.sin(math.pi / k) / math.pi


def _key(p) -> tuple:
    return (float(p[0]), float(p[1]))


def _check_blocks(doc: dict, points, k: int, tour_is_block: bool):
    blocks = doc["blocks"]
    if not 1 <= len(blocks) <= k:
        return f"{len(blocks)} blocks for k={k}"
    seen = sorted(_key(p) for b in blocks for p in b["points"])
    if seen != sorted(_key(p) for p in points):
        return "blocks do not partition the instance"
    for b in blocks:
        if tour_is_block and sorted(map(_key, b["tour"])) != sorted(map(_key, b["points"])):
            return "block tour is not a permutation of its block"
        if not _close(closed_length(b["tour"]), b["length"]):
            return f"block length {b['length']} disagrees with its coordinates"
    if not _close(max(b["length"] for b in blocks), doc["value"]):
        return "value is not the longest block"
    return None


def check_tsp(doc: dict, points) -> str | None:
    bad = _check_blocks(doc, points, 1, True)
    if bad:
        return bad
    if not _within(doc["value"], closed_length(two_opt(points))):
        return "exact tour longer than a 2-opt tour"
    return None


def check_split_exact(doc: dict, points, k: int) -> str | None:
    bad = _check_blocks(doc, points, k, True)
    if bad:
        return bad
    if not _within(doc["value"], cut_partition_value(points, k)):
        return "exact partition worse than a cut 2-opt tour"
    return None


def check_guaranteed(doc: dict, points, k: int, tour_length: float) -> str | None:
    """A guaranteed split of a tour of length ``tour_length``."""
    bad = _check_blocks(doc, points, k, False)
    if bad:
        return bad
    for b in doc["blocks"]:
        if not _within(b["length"], g(k) * tour_length):
            return f"piece {b['length']} above g({k})*L"
    for p, q in doc["diagonals"]:
        if not _within(math.hypot(p[0] - q[0], p[1] - q[1]), tour_length * INV_PI):
            return "diagonal above L/pi"
    return None


def check_split_guaranteed(doc: dict, points, k: int) -> str | None:
    tour_length = doc["optimal_length"]
    if not _within(tour_length, closed_length(two_opt(points))):
        return "exact tour longer than a 2-opt tour"
    if not _close(doc["guarantee"], g(k)):
        return f"guarantee {doc['guarantee']} is not g({k})"
    return check_guaranteed(doc, points, k, tour_length)


def check_circle(text: str, n: int, k: int) -> str | None:
    lines = text.splitlines()
    for want in (f"arc_optimality n={n}: pass", f"gap_fill_monotonicity n={n}: pass"):
        if not any(line.startswith(want) for line in lines):
            return f"missing '{want}'"
    if f"lb_gamma {circle_limit(k):.6f}" not in lines:
        return "lb_gamma disagrees with 1/k + sin(pi/k)/pi"
    return None


def check_bounds(text: str, k_max: int) -> str | None:
    lines = text.splitlines()
    if len(lines) != k_max + 1 or lines[0] != "k,lower,upper,decomposition":
        return "bounds table has the wrong shape"
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if int(fields[0]) != k:
            return f"row {k} is labelled {fields[0]}"
        if abs(float(fields[1]) - circle_limit(k)) > 1.5e-6:
            return f"lower bound of k={k} disagrees"
        if abs(float(fields[2]) - g(k)) > 1.5e-6:
            return f"upper bound of k={k} disagrees with g(k)"
    return None


def check_output(kind: str, text: str, spec: dict) -> str | None:
    """Dispatch on the job kind; ``spec`` holds the job's inputs."""
    try:
        if kind == "tsp":
            return check_tsp(json.loads(text), spec["points"])
        if kind == "split_exact":
            return check_split_exact(json.loads(text), spec["points"], spec["k"])
        if kind == "split_guaranteed":
            return check_split_guaranteed(json.loads(text), spec["points"], spec["k"])
        if kind == "circle_verify":
            return check_circle(text, spec["n"], spec["k"])
        if kind == "bounds":
            return check_bounds(text, spec["k_max"])
        doc = json.loads(text)
        return check_guaranteed(doc, spec["points"], spec["k"], closed_length(spec["points"]))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
