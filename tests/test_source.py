"""Every function, class and method the package defines has a user that is
not a test (the package itself or the benchmark harness), such a user
passes each parameter that has a default some other value, no module
reads the process environment or holds an ``assert``, and a training step
records every differentiable op the package defines: an op that training
never records is a capability no command uses, and its gradient rule is
code that never runs. The only data-movement ops are ``reshape``,
``transpose`` and ``concat``. Each mutant of ``tests/mutants.py`` names a
snippet that occurs once in its file, its ``--only`` picks mutants by
name, and its Tier-1 runs cover pytest's ``testpaths`` with the golden
test last."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from qsci.autodiff import Tape, Tensor
from qsci.sci import initial_estimate
from qsci.training import mse_loss
from small_models import calibrated_net, small_inputs

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


def _defaulted_params(tree):
    """(key, label, index, name, default) of every parameter with a default,
    nested functions included: ``key`` is the name a call uses (the class
    name for ``__init__``) and ``index`` the parameter's position among a
    call's arguments (None for a keyword-only one), after ``self``/``cls``
    for a method."""
    owners = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(fn))
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        key = owner if fn.name == "__init__" else fn.name
        label = key if fn.name == "__init__" or not owner else f"{owner}.{fn.name}"
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = 1 if owner and not static else 0
        first = len(positional) - len(args.defaults)
        for i, (a, d) in enumerate(zip(positional[first:], args.defaults), start=first):
            yield key, label, i - skip, a.arg, d
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield key, label, None, a.arg, d


def _calls(tree):
    """(key, call) of every call: the key is the called name, or, for
    ``super().__init__`` inside a class, the name of each base class."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    supers = {id(call): [b.id for b in cls.bases if isinstance(b, ast.Name)]
              for cls in classes for call in ast.walk(cls)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
              and call.func.attr == "__init__" and isinstance(call.func.value, ast.Call)
              and getattr(call.func.value.func, "id", None) == "super"}
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        if id(call) in supers:
            for base in supers[id(call)]:
                yield base, call
        elif isinstance(call.func, ast.Name):
            yield call.func.id, call
        elif isinstance(call.func, ast.Attribute):
            yield call.func.attr, call


def _arg(call, index, name):
    """The node that ``call`` passes as parameter ``name``, at position
    ``index`` or by keyword, or None if it passes none."""
    if len(call.args) > index:
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == name), None)


def _literal(node):
    """(True, value) of a literal expression, else (False, None)."""
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False, None


def _sets(call, index, name, default) -> bool:
    """Whether ``call`` passes the parameter something other than the
    default's literal; ``*args`` and ``**kwargs`` count as setting it."""
    passed = [k.value for k in call.keywords if k.arg == name]
    if any(k.arg is None for k in call.keywords):
        return True
    if index is not None:
        for i, a in enumerate(call.args):
            if isinstance(a, ast.Starred) and i <= index:
                return True
            if i == index:
                passed.append(a)
    is_literal, value = _literal(default)
    return any(not (is_literal and _literal(a) == (True, value)) for a in passed)


def test_every_src_default_is_overridden_by_a_command():
    """A ``src/`` parameter with a default must be passed something other
    than that default, by a call in ``src/`` or in a non-test
    ``perfbench/*.py``; else the default is the only value any command uses
    and the parameter is a constant. The check is textual: calls match by
    the called name (for ``__init__``, the class name or ``super().__init__``
    inside a subclass), so a call to another function or method of the same
    name counts, and an argument counts unless it is the default's literal."""
    src = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qsci").rglob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    calls = {}
    for tree in src + bench:
        for key, call in _calls(tree):
            calls.setdefault(key, []).append(call)
    constant = [f"{label}.{name}" for tree in src
                for key, label, index, name, default in _defaulted_params(tree)
                if not any(_sets(c, index, name, default) for c in calls.get(key, ()))]
    assert not constant, f"parameters no command sets off their default: {constant}"


def test_no_src_module_reads_the_environment():
    """No ``src/`` module reads the process environment (``os.environ``,
    ``os.getenv``). A setting that the traffic never varies is a constant,
    and one that it does vary is a command-line argument or a config key,
    which a command's inputs record. The check is textual: the words
    ``environ`` and ``getenv`` appear nowhere in ``src/``."""
    readers = [f"{p.name}:{n}" for p in sorted((ROOT / "src" / "qsci").rglob("*.py"))
               for n, line in enumerate(p.read_text().splitlines(), start=1)
               if re.search(r"\b(environ|getenv)\b", line)]
    assert not readers, f"src/ lines that read the environment: {readers}"


def test_no_src_assert():
    """No ``src/`` module holds an ``assert`` statement: a guard that
    protects results is a ``raise``, because ``python -O`` strips asserts."""
    asserts = [f"{p.name}:{node.lineno}" for p in sorted((ROOT / "src" / "qsci").rglob("*.py"))
               for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.Assert)]
    assert not asserts, f"src/ asserts that python -O would strip: {asserts}"


def test_training_records_every_differentiable_op():
    """Every op name that ``src/`` passes to ``autodiff._finish`` (the
    autodiff ops and ``quantize.fake_quant``) is recorded by one taped q4
    forward plus ``mse_loss``, the step that ``train`` differentiates."""
    ops = {}
    for path in sorted((ROOT / "src" / "qsci").rglob("*.py")):
        for key, call in _calls(ast.parse(path.read_text())):
            if key == "_finish":
                is_literal, name = _literal(_arg(call, 3, "name"))
                assert is_literal, f"{path.name}:{call.lineno} passes _finish a computed op name"
                ops[name] = f"{path.name}:{call.lineno}"
    masks, clips, meas = small_inputs()
    stack = Tensor(np.concatenate([initial_estimate(m, masks) for m in meas]))
    with Tape() as tape:
        mse_loss(calibrated_net("q4").forward_stack(stack), np.stack([c.frames for c in clips]))
    recorded = {node.name for node in tape.nodes}
    unrecorded = {name: where for name, where in ops.items() if name not in recorded}
    assert {"conv3d", "fake_quant", "mse_loss"} <= set(ops)   # every module's calls were found
    assert not unrecorded, f"ops that training never records: {unrecorded}"


def test_data_movement_ops_are_reshape_transpose_concat():
    """The ops that ``src/`` records with ``_finish(..., scan=False)``, the
    data-movement ops that scan nothing, are exactly ``reshape``,
    ``transpose`` and ``concat``: any other rearrangement is a composition
    of them, whose gradient rules already exist."""
    movers = set()
    for path in sorted((ROOT / "src" / "qsci").rglob("*.py")):
        for key, call in _calls(ast.parse(path.read_text())):
            if key == "_finish" and _literal(_arg(call, 4, "scan")) == (True, False):
                movers.add(_literal(_arg(call, 3, "name"))[1])
    assert movers == {"reshape", "transpose", "concat"}


def test_each_mutant_snippet_occurs_once():
    """Every mutant of ``tests/mutants.py`` edits one snippet that occurs
    exactly once in its file, so the runner mutates the line it names."""
    import mutants

    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        assert m.snippet != m.replacement, m.name
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name


def test_only_selects_named_mutants_in_registry_order():
    """``tests/mutants.py --only`` runs the named mutants, in registry
    order, and refuses a name the registry lacks."""
    import mutants

    first, last = mutants.MUTANTS[0], mutants.MUTANTS[-1]
    assert mutants.selected(f"{last.name},{first.name}") == [first, last]
    assert mutants.selected("") == list(mutants.MUTANTS)
    with pytest.raises(ValueError, match="no_such_mutant"):
        mutants.selected(f"{first.name},no_such_mutant")


def test_mutant_runs_cover_tier1_with_the_golden_test_last(pytestconfig):
    """``tests/mutants.py`` runs every test file under pyproject's
    ``testpaths`` once, in pytest's order but for ``tests/test_golden.py``,
    which runs last, and skips in a mutated copy only the check that each
    snippet occurs once, which that copy fails by construction."""
    import mutants

    def files(path):
        path = ROOT / path
        return sorted(path.rglob("test_*.py")) if path.is_dir() else [path]

    ordered = [f for p in pytestconfig.getini("testpaths") for f in files(p)]
    paths = mutants.tier1_paths(ROOT)
    got = [f for p in paths for f in files(p)]
    golden = ROOT / mutants.GOLDEN
    assert paths[-1] == mutants.GOLDEN and got[-1] == golden
    assert got[:-1] == [f for f in ordered if f != golden]
    # the one test a mutated copy skips is the registry's own snippet check
    check = test_each_mutant_snippet_occurs_once.__name__
    assert mutants.REGISTRY_CHECK == f"tests/test_source.py::{check}"
