"""The public records: field names and defaults, the checks their
constructors make, read-only fields, equality, hashing, repr and pickling."""

import json
import math
import pickle

import pytest

from toursplit import (
    ArcOptimalityReport,
    BoundsRow,
    ClosedTour,
    Diagonal,
    Direction,
    Instance,
    Partition,
    PlanNode,
    Point,
    SolveResult,
)

SQUARE = (Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0))


def every_record() -> list:
    """One record of each kind, built with keyword arguments."""
    tour = ClosedTour(vertices=SQUARE)
    diagonal = Diagonal(p=SQUARE[0], q=SQUARE[2], t_p=0.0, t_q=2.0)
    partition = Partition(blocks=(SQUARE[:2], SQUARE[2:]))
    leaf = PlanNode(size=1, ratio=1.0)
    return [
        Point(x=1.0, y=2.0),
        Direction(theta=0.5),
        tour,
        diagonal,
        Instance(points=SQUARE),
        partition,
        SolveResult(partition=partition, tours=(tour,), value=4.0, diagonals=(diagonal,)),
        PlanNode(size=2, ratio=0.8, left=leaf, right=leaf, fraction=0.5, decomposition="1+1"),
        BoundsRow(k=2, lower=0.8, upper=0.9, decomposition="1+1"),
        ArcOptimalityReport(
            n=4, m=2, arc_value=1.0, min_value=1.0, min_subset=(1, 2), subsets_checked=6
        ),
    ]


def field_names(record) -> tuple[str, ...]:
    if isinstance(record, ClosedTour):
        return ("vertices", "length")
    if isinstance(record, Instance):
        return ("points",)
    return record._fields


class TestFields:
    def test_names_and_defaults(self):
        node = PlanNode(1, 1.0)
        assert (node.left, node.right, node.fraction) == (None, None, None)
        assert node.decomposition == "trivial" and node.is_leaf
        result = SolveResult(Partition((SQUARE,)), (ClosedTour(SQUARE),), 4.0)
        assert result.diagonals == ()
        assert [field_names(r) for r in every_record()] == [
            ("x", "y"),
            ("theta",),
            ("vertices", "length"),
            ("p", "q", "t_p", "t_q"),
            ("points",),
            ("blocks",),
            ("partition", "tours", "value", "diagonals"),
            ("size", "ratio", "left", "right", "fraction", "decomposition"),
            ("k", "lower", "upper", "decomposition"),
            ("n", "m", "arc_value", "min_value", "min_subset", "subsets_checked"),
        ]

    def test_tour_and_instance_take_any_points(self):
        pairs = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert ClosedTour(pairs).vertices == SQUARE
        assert ClosedTour(pairs).length == 4.0
        assert Instance(pairs).points == SQUARE

    @pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, record):
        for name in field_names(record):
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before

    @pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
        assert [getattr(copy, f) for f in field_names(record)] == [
            getattr(record, f) for f in field_names(record)
        ]


class TestChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Direction(math.inf), "direction angle must be finite"),
            (lambda: Direction(0.5)._replace(theta=math.nan), "direction angle must be finite"),
            (lambda: Point(1.0, 2.0)._replace(y=math.inf), "point coordinates must be finite"),
            (lambda: Instance(()), "an instance needs at least one point"),
            (lambda: Instance(SQUARE + SQUARE[:1]), "instance points must be distinct"),
            (lambda: Instance([(0.0, 1.0), (-0.0, 1.0)]), "instance points must be distinct"),
            (lambda: Partition(()), "a partition needs at least one block"),
            (lambda: Partition((SQUARE, ())), "partition blocks must be nonempty"),
            (lambda: Partition((SQUARE[:2], SQUARE[1:])), "partition blocks must be disjoint"),
            (lambda: Partition((SQUARE,))._make([()]), "a partition needs at least one block"),
            (lambda: ClosedTour(()), "a closed tour needs at least one vertex"),
        ],
    )
    def test_invalid_fields_raise_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_direction_replace_normalises_into_half_turn(self):
        assert Direction(0.5)._replace(theta=math.pi + 0.25).theta == (math.pi + 0.25) % math.pi
        assert Direction._make([-1.0]).theta == -1.0 % math.pi


class TestEqualityAndRepr:
    def test_tour_compares_and_hashes_by_vertices_only(self):
        tour = ClosedTour(SQUARE)
        assert tour == ClosedTour(list(SQUARE)) and hash(tour) == hash(ClosedTour(SQUARE))
        # the same curve from another start is another tour
        assert tour != ClosedTour(SQUARE[1:] + SQUARE[:1])
        assert tour != SQUARE and tour != Instance(SQUARE)
        assert len({tour, ClosedTour(SQUARE)}) == 1

    def test_instance_compares_and_hashes_by_points_only(self):
        inst = Instance(SQUARE)
        assert inst == Instance.from_points(SQUARE + SQUARE) and hash(inst) == hash(Instance(SQUARE))
        assert inst != Instance(SQUARE[::-1])
        assert inst != SQUARE and inst != ClosedTour(SQUARE)

    def test_value_records_are_tuples(self):
        p = Point(1.0, 2.0)
        assert p == (1.0, 2.0) and hash(p) == hash((1.0, 2.0))
        assert tuple(p) == (1.0, 2.0) and len(p) == 2 and p[1] == 2.0
        assert json.dumps(p) == "[1.0, 2.0]"
        assert p._asdict() == {"x": 1.0, "y": 2.0}
        assert p._replace(x=3.0) == Point(3.0, 2.0)

    def test_repr(self):
        assert repr(Point(1.0, 2.0)) == "Point(x=1.0, y=2.0)"
        assert repr(Direction(0.5)) == "Direction(theta=0.5)"
        pts = SQUARE[:2]
        assert repr(ClosedTour(pts)) == f"ClosedTour(vertices={pts!r}, length=2.0)"
        assert repr(Instance(pts)) == f"Instance(points={pts!r})"
        assert repr(PlanNode(1, 1.0)) == (
            "PlanNode(size=1, ratio=1.0, left=None, right=None, fraction=None, "
            "decomposition='trivial')"
        )
