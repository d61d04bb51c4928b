"""The public surface: every exported name has a caller outside the tests."""

import ast
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


def test_every_public_name_has_a_caller():
    sources = [
        path.read_text()
        for path in sorted((ROOT / "src" / "toursplit").glob("*.py"))
        if path.name != "__init__.py"
    ]
    sources += [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    sources.append(library_example())
    uses = Uses()
    for text in sources:
        uses.visit(ast.parse(text))
    unused = sorted(set(toursplit.__all__) - uses.names)
    assert not unused, f"public names without a caller outside the tests: {unused}"
