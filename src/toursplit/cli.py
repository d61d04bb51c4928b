"""Command-line front end.

Subcommands: ``tsp`` (optimal tour), ``split`` (k-way partition, exact or
guaranteed), ``bounds`` (ratio bounds CSV), ``circle`` (circle ratios and
exhaustive verification), ``gen`` (seeded instances), ``plot`` (SVG).

Exit codes: 0 ok, 2 input error, 3 capacity exceeded, 4 verification
failure (an exhaustive check, or a split that missed its guarantee).
All randomness flows through the single --seed flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

from .circle import (
    VerificationError,
    circle_limit_ratio,
    circle_ratio,
    verify_arc_optimality,
    verify_gap_fill_monotonicity,
)
from .exact import CapacityError, Instance, SolveResult, _exact_partition, optimal_tour
from .geometry import Point
from .splitting import ChordSearchError, bounds_table, guaranteed_partition, split_plan
from .svgout import render_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4

_GEN_CHUNK = 4096  # points that gen formats and writes at a time


class InputError(Exception):
    """Bad input file, document, or argument value."""


def parse_instance_text(text: str, source: str = "<input>") -> list[Point]:
    """Parse "x y" lines; blank lines and '#' comments are ignored."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"{source}, line {lineno}: expected two numbers, got {raw!r}")
        try:
            x, y = float(fields[0]), float(fields[1])
            pt = Point(x, y)
        except ValueError as exc:
            raise InputError(f"{source}, line {lineno}: {exc}") from exc
        points.append(pt)
    if not points:
        raise InputError(f"{source}: no points found")
    return points


def format_instance(points: Sequence[Point]) -> str:
    """Serialize points in the instance file format (full float precision)."""
    return "".join(f"{p.x!r} {p.y!r}\n" for p in points)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_instance(path: str) -> Instance:
    return Instance.from_points(parse_instance_text(_read_text(path), source=path))


@contextmanager
def _solving(path: str) -> Iterator[None]:
    """Name ``path`` in the capacity and input errors its points raise."""
    try:
        yield
    except CapacityError as exc:
        raise CapacityError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_chunks(chunks: Iterable[str], out: Optional[str]) -> None:
    if out is None:
        try:
            sys.stdout.writelines(chunks)
        except BrokenPipeError:  # the reader stopped early, as `gen | head` does
            # so that the exit's flush of what stdout still buffers raises nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _write_text(text: str, out: Optional[str]) -> None:
    _write_chunks((text,), out)


def _emit_result(
    args: argparse.Namespace,
    instance: Instance,
    result: SolveResult,
    optimal_length: float,
    guarantee: Optional[float] = None,
) -> int:
    """Write the result document of ``tsp`` or ``split``.

    A ``tsp`` document is the one-block exact split's, without the keys
    ``split`` appends: ``k``, ``strategy`` and ``bound``, which is the
    guarantee times ``optimal_length`` when there is one.
    """
    import json  # only the commands that write documents pay for it

    xs = [p.x for p in instance.points]
    ys = [p.y for p in instance.points]
    doc = {
        "command": args.command,
        "input": args.input,
        "instance": {"n": instance.n, "bounding_box": [min(xs), min(ys), max(xs), max(ys)]},
        "value": result.value,
        "optimal_length": optimal_length,
        "ratio": (result.value / optimal_length) if optimal_length else None,
        "guarantee": guarantee,
        "blocks": [
            {
                "points": [[p.x, p.y] for p in block],
                "tour": [[v.x, v.y] for v in tour.vertices],
                "length": tour.length,
            }
            for block, tour in zip(result.partition.blocks, result.tours)
        ],
        "diagonals": [
            [[d.p.x, d.p.y], [d.q.x, d.q.y]] for d in result.diagonals
        ],
    }
    if args.command == "split":
        bound = None if guarantee is None else guarantee * optimal_length
        doc.update(k=args.k, strategy=args.strategy, bound=bound)
    _write_text(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_tsp(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    with _solving(args.input):
        optimal_length, result = _exact_partition(instance, 1)
    return _emit_result(args, instance, result, optimal_length)


def cmd_split(args: argparse.Namespace) -> int:
    instance = _read_instance(args.input)
    guarantee = None
    if args.strategy == "guaranteed":
        guarantee = split_plan(args.k).ratio  # the -k cap, an argument error
    with _solving(args.input):
        if guarantee is None:
            optimal_length, result = _exact_partition(instance, args.k)
        else:
            tour = optimal_tour(instance)
            optimal_length = tour.length
            result = guaranteed_partition(instance, tour, args.k)
    return _emit_result(args, instance, result, optimal_length, guarantee)


def cmd_bounds(args: argparse.Namespace) -> int:
    lines = ["k,lower,upper,decomposition"]
    for row in bounds_table(args.k_max):
        lines.append(f"{row.k},{row.lower:.6f},{row.upper:.6f},{row.decomposition}")
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_circle(args: argparse.Namespace) -> int:
    gamma = circle_ratio(args.n, args.k)
    lines = [
        f"circle n={args.n} k={args.k}",
        f"gamma_circle {gamma:.6f}",
        f"lb_gamma {circle_limit_ratio(args.k):.6f}",
    ]
    if args.verify:
        reports = [verify_arc_optimality(args.n, m) for m in range(1, args.n + 1)]
        subsets = sum(r.subsets_checked for r in reports)
        lines.append(
            f"arc_optimality n={args.n}: pass (m=1..{args.n}, {subsets} subsets)"
        )
        moves = verify_gap_fill_monotonicity(args.n)
        lines.append(f"gap_fill_monotonicity n={args.n}: pass ({moves} moves)")
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    import random

    rng = random.Random(args.seed)
    # a chunk of points at a time, so memory stays flat in -n
    sizes = (min(_GEN_CHUNK, args.n - start) for start in range(0, args.n, _GEN_CHUNK))
    chunks = (
        format_instance([Point(rng.random(), rng.random()) for _ in range(size)])
        for size in sizes
    )
    _write_chunks(chunks, args.out)
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    import json

    try:
        doc = json.loads(_read_text(args.result))
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.result}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{args.result}: JSON nested too deeply to read") from None
    try:
        svg = render_svg(doc)
    except ValueError as exc:
        raise InputError(f"{args.result}: {exc}") from exc
    _write_text(svg, args.svg)
    return EXIT_OK


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toursplit",
        description="Exact min-max multi-salesperson tours and guaranteed tour splitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tsp = sub.add_parser("tsp", help="solve one optimal tour")
    p_tsp.add_argument("input", help="instance file with 'x y' lines")
    p_tsp.add_argument("--out", help="write the result document here instead of stdout")
    p_tsp.set_defaults(func=cmd_tsp)

    p_split = sub.add_parser("split", help="partition into k tours")
    p_split.add_argument("input", help="instance file with 'x y' lines")
    p_split.add_argument("-k", type=_positive_int, required=True, help="number of salespeople")
    p_split.add_argument(
        "--strategy",
        choices=("exact", "guaranteed"),
        default="guaranteed",
        help="exhaustive oracle or the guaranteed-ratio splitter",
    )
    p_split.add_argument("--out", help="write the result document here instead of stdout")
    p_split.set_defaults(func=cmd_split)

    p_bounds = sub.add_parser("bounds", help="worst-case ratio bounds table as CSV")
    p_bounds.add_argument("k_max", type=_positive_int)
    p_bounds.add_argument("--out", help="write the CSV here instead of stdout")
    p_bounds.set_defaults(func=cmd_bounds)

    p_circle = sub.add_parser("circle", help="regular-circle ratios and verification")
    p_circle.add_argument("-n", type=_positive_int, required=True, help="number of circle points")
    p_circle.add_argument("-k", type=_positive_int, required=True, help="number of salespeople")
    p_circle.add_argument(
        "--verify",
        action="store_true",
        help="exhaustively check arc optimality and gap-fill monotonicity",
    )
    p_circle.add_argument("--out", help="write the report here instead of stdout")
    p_circle.set_defaults(func=cmd_circle)

    p_gen = sub.add_parser("gen", help="generate a seeded uniform instance")
    p_gen.add_argument("-n", type=_positive_int, required=True, help="number of points")
    p_gen.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_gen.add_argument("--out", help="write the instance here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_plot = sub.add_parser("plot", help="render a result document as SVG")
    p_plot.add_argument("result", help="result document produced by tsp or split")
    p_plot.add_argument("--svg", required=True, help="output SVG path")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (VerificationError, ChordSearchError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
