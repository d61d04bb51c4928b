"""The public surface: every exported name, and every public method or
property of an exported class, has a caller outside the tests."""

import ast
import inspect
import re
from pathlib import Path

import toursplit

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The README's Library code block."""
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S)
    assert match, "README has no Library code block"
    return match.group(1)


class Uses(ast.NodeVisitor):
    """Names read as a Name or an attribute, outside their own definition."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._inside: list[str] = []

    def _definition(self, node) -> None:
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def _use(self, name: str) -> None:
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store):
            self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)


def perfbench_sources() -> list[str]:
    return [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]


def outside_uses() -> set[str]:
    """Names read in the package's modules, the benchmark and the README's
    Library example."""
    sources = [
        path.read_text()
        for path in sorted((ROOT / "src" / "toursplit").glob("*.py"))
        if path.name != "__init__.py"
    ]
    sources += perfbench_sources()
    sources.append(library_example())
    uses = Uses()
    for text in sources:
        uses.visit(ast.parse(text))
    return uses.names


def test_every_public_name_has_a_caller():
    unused = sorted(set(toursplit.__all__) - outside_uses())
    assert not unused, f"public names without a caller outside the tests: {unused}"


def test_every_public_member_has_a_caller():
    # perfbench's tracer wraps methods it names in string constants
    named = {
        node.value
        for text in perfbench_sources()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    read = outside_uses() | named
    unused = []
    for name in toursplit.__all__:
        cls = getattr(toursplit, name)
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            if member.startswith("_") or member in read:
                continue
            if inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)):
                unused.append(f"{name}.{member}")
    assert not unused, f"public members without a caller outside the tests: {unused}"


def test_library_example_runs_as_documented():
    names: dict = {}
    exec(library_example(), names)
    assert names["tour"].length == 4.0
    assert names["best"].value == 2.0
    assert names["ratio"] == 0.5
    halves = names["halves"]
    assert [t.length for t in halves.tours] == [3.0, 3.0]
    assert halves.diagonals[0].length == 1.0
    plan = names["plan"]
    assert round(plan.ratio, 3) == 0.603
    assert plan.decomposition == "2*3"
    assert round(names["pieces"].value, 3) == 2.673
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert [(p.x, p.y) for p in names["hull"]] == corners
    assert names["width"] == 1.0
    assert names["t"] == 1.5
    # the cut at t runs along x = 0.5
    assert [(p.x, p.y) for p in names["ends"]] == [(0.5, 1.0), (0.5, 0.0)]
