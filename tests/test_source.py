"""Every function, class and method the package defines has a user that is
not a test: the package itself or the benchmark harness."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def defined_names(text):
    """(name, first line, last line) of every non-dunder function, class and
    method defined in a module's source, nested ones included."""
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node.name, node.lineno, node.end_lineno


def test_no_src_name_is_reached_only_from_tests():
    """A name counts as used when it appears as a whole word, not in a
    ``def``/``class`` header, in ``src/`` outside its own definition or in
    a non-test ``perfbench/*.py``. The check is textual, so a name that is
    also a common word (``sqrt`` in a comment, ``t`` as a local) passes even
    when nothing calls it."""
    modules = {p: p.read_text() for p in sorted((ROOT / "src" / "qsci").rglob("*.py"))}
    bench = "".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path, text in modules.items():
        lines = text.splitlines(keepends=True)
        others = "".join(t for p, t in modules.items() if p != path) + bench
        for name, first, last in defined_names(text):
            rest = "".join(lines[:first - 1] + lines[last:]) + others
            if not re.search(rf"(?<!def )(?<!class )\b{re.escape(name)}\b", rest):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, f"defined in src/ but used by no command: {unused}"
