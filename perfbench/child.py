"""Child-process entry points of the benchmark.

Each mode runs in a fresh interpreter that imports toursplit from the
benchmark's staged copy (``PYTHONPATH``) on the lane pinned by
``TOURSPLIT_BACKEND``:

    child.py build STAGE            compile STAGE/toursplit/_core.c in place
    child.py backend                print toursplit.SOLVER_BACKEND
    child.py parity SEED            compare the two kernel lanes
    child.py given POINTS K CALLS [--spans PATH]
                                    time CALLS guaranteed_partition calls on
                                    the given tour
    child.py cli --spans PATH -- ARGV...
                                    run toursplit.cli.main(ARGV) under the tracer

Results go to stdout as one JSON object (``cli`` prints the CLI's own output).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time


def build(stage: str) -> int:
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    # The same extension and flags as setup.py; Cython is not needed because
    # the generated C source ships with the package.
    ext = Extension(
        "toursplit._core",
        [os.path.join(stage, "toursplit", "_core.c")],
        extra_compile_args=["-O3"],
    )
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = stage
    cmd.build_temp = os.path.join(stage, ".build")
    cmd.ensure_finalized()
    cmd.run()
    return 0


def backend() -> int:
    import toursplit

    print(json.dumps({"backend": toursplit.SOLVER_BACKEND}))
    return 0


def _flat_distances(points) -> list[float]:
    return [math.hypot(a[0] - b[0], a[1] - b[1]) for a in points for b in points]


def parity(seed: str) -> int:
    """The three kernel cases of benchmarks/bench_backends.py, on seeded inputs."""
    from toursplit import _core_py

    try:
        from toursplit import _core
    except ImportError as exc:
        _core = None
        missing = str(exc)
    cases = []

    def instance(tag: str, n: int):
        rng = random.Random(f"{seed}:parity:{tag}:{n}")
        return [(rng.random(), rng.random()) for _ in range(n)]

    for n in (10, 12, 13):
        dist = _flat_distances(instance("tour", n))
        cases.append((f"shortest_cycle n={n}", "shortest_cycle", (dist, n)))
    for n in (10, 12, 13):
        dist = _flat_distances(instance("subset", n))
        cases.append((f"cycle_lengths_by_subset n={n}", "cycle_lengths_by_subset", (dist, n)))
    for n, k in ((10, 5), (11, 4), (12, 3)):
        table = _core_py.cycle_lengths_by_subset(_flat_distances(instance("partition", n)), n)
        cases.append((f"min_max_partition n={n} k={k}", "min_max_partition", (table, n, k)))
    results = []
    for label, fn, args in cases:
        expected = getattr(_core_py, fn)(*args)
        if _core is None:
            results.append({"case": label, "ok": False, "error": f"compiled lane missing: {missing}"})
            continue
        got = getattr(_core, fn)(*args)
        results.append({"case": label, "ok": got == expected})
    print(json.dumps({"cases": results}))
    return 0


def given(path: str, k: int, calls: int, spans: str | None) -> int:
    if spans:
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
    from toursplit import ClosedTour, Point, guaranteed_partition

    with open(path, encoding="utf-8") as handle:
        points = [Point(float(x), float(y)) for x, y in (line.split() for line in handle)]
    tour = ClosedTour(points)
    elapsed = []
    for _ in range(calls):
        start = time.perf_counter()
        result = guaranteed_partition(points, tour, k)
        elapsed.append(time.perf_counter() - start)
    if spans:
        tr.write(spans, path)
    doc = {
        "elapsed_s": elapsed,
        "value": result.value,
        "blocks": [
            {
                "points": [[p.x, p.y] for p in block],
                "tour": [[v.x, v.y] for v in t.vertices],
                "length": t.length,
            }
            for block, t in zip(result.partition.blocks, result.tours)
        ],
        "diagonals": [[[d.p.x, d.p.y], [d.q.x, d.q.y]] for d in result.diagonals],
    }
    print(json.dumps(doc))
    return 0


def traced_cli(spans: str, argv: list[str]) -> int:
    import tracer

    tr = tracer.Tracer()
    tracer.install(tr)
    import toursplit.cli

    try:
        return toursplit.cli.main(argv)
    finally:
        tr.write(spans, " ".join(argv))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "build":
        return build(rest[0])
    if mode == "backend":
        return backend()
    if mode == "parity":
        return parity(rest[0])
    if mode == "given":
        spans = rest[4] if len(rest) > 4 and rest[3] == "--spans" else None
        return given(rest[0], int(rest[1]), int(rest[2]), spans)
    if mode == "cli":
        if rest[0] != "--spans" or rest[2] != "--":
            raise SystemExit("usage: child.py cli --spans PATH -- ARGV...")
        return traced_cli(rest[1], rest[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
