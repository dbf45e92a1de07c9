"""Every public name of skelact has a caller in the program.

A caller is a use in ``src/skelact`` or in a benchmark module
(``perfbench/*.py`` other than its tests). A name's own ``def`` and the
re-export in ``__init__.py`` do not count, and neither does a test: code
that only tests reach belongs in ``tests/helpers.py``. Three kinds of name
need a caller:

- a public module-level function or class: a load of its name, or an
  attribute access of it;
- a public method or property: any attribute access of its name;
- a parameter with a default, on a public function, method or
  constructor: a call of that callable's name that passes it, by keyword
  or by position, or a splat that may pass it.

A constructor is a class's own ``__init__``. A dataclass's fields are the
record it holds, filled by the JSON reader or assigned after it is built,
so they are not checked. Calls are matched by the name written at the
call, not by type: ``x.forward(training=False)`` counts for every public
``forward``, and ``cls(...)`` for no class. The benchmark is read with
``ast`` and never imported.

The same parse checks that optimizer state has one creation site: only
``autodiff._accumulate`` writes anything but None to an attribute named
``grad``, and only ``SGD.step`` writes into ``_velocity``.
"""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path
from typing import NamedTuple

import skelact

SRC = Path(skelact.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.name != "__init__.py")

# Defaulted parameters the program keeps with no caller, each with its reason.
EXEMPT_KEYWORDS = {
    # Acceptance 4 ends training early through it, and resuming a run
    # (ROADMAP item 7) stops after a chosen epoch the same way.
    ("train_loop", "stop_when"),
}


def _caller_files() -> list[Path]:
    return ([path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
            + [path for path in sorted(PERFBENCH.glob("*.py"))
               if not path.name.startswith("test_")])


class _Call(NamedTuple):
    positional: int
    keywords: frozenset[str]
    splat: bool


class _Uses(ast.NodeVisitor):
    """Loaded names, accessed attributes, and calls keyed by callee name."""

    def __init__(self):
        self.names: set[str] = set()
        self.attributes: set[str] = set()
        self.calls: dict[str, list[_Call]] = {}

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None:
            self.calls.setdefault(name, []).append(_Call(
                sum(not isinstance(arg, ast.Starred) for arg in node.args),
                frozenset(k.arg for k in node.keywords if k.arg is not None),
                any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(k.arg is None for k in node.keywords),
            ))
        self.generic_visit(node)


def _scan() -> _Uses:
    found = _Uses()
    for path in _caller_files():
        found.visit(ast.parse(path.read_text(), str(path)))
    return found


def _benchmark_traced_ops() -> set[str]:
    """The op names ``perfbench/tracer.py`` wraps, read without importing it."""
    tracer = PERFBENCH / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["OPS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"{tracer} assigns no OPS")


def _public_members(module_name: str):
    """(qualified name, object, owning class) for each public function,
    class, method and property defined in ``skelact.<module_name>``."""
    module = importlib.import_module(f"skelact.{module_name}")
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value, None
        elif inspect.isclass(value):
            yield name, value, None
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member) or isinstance(member, property):
                    yield f"{name}.{attr}", member, value


def _defaulted_parameters(value, owner) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter with a
    default; a method's position does not count ``self``."""
    parameters = list(inspect.signature(value).parameters.values())
    if owner is not None and parameters and parameters[0].name in ("self", "cls"):
        parameters = parameters[1:]
    found = []
    for position, parameter in enumerate(parameters):
        if parameter.default is inspect.Parameter.empty:
            continue
        if parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD:
            found.append((position, parameter.name))
        elif parameter.kind is inspect.Parameter.KEYWORD_ONLY:
            found.append((None, parameter.name))
    return found


def _passed(calls: list[_Call], position: int | None, name: str) -> bool:
    return any(call.splat or name in call.keywords
               or (position is not None and call.positional > position)
               for call in calls)


def _uncalled(uses: _Uses) -> list[str]:
    traced = _benchmark_traced_ops()
    missing = []
    for module in MODULES:
        for qualified, value, owner in _public_members(module):
            name = qualified.rsplit(".", 1)[-1]
            if module == "autodiff" and owner is None and name in traced:
                continue
            used = uses.attributes if owner else uses.names | uses.attributes
            if name not in used:
                missing.append(f"{module}.{qualified}")
            if isinstance(value, property) or inspect.isclass(value) and (
                    "__init__" not in vars(value) or dataclasses.is_dataclass(value)):
                continue
            for position, keyword in _defaulted_parameters(value, owner):
                if (name, keyword) in EXEMPT_KEYWORDS:
                    continue
                if not _passed(uses.calls.get(name, []), position, keyword):
                    missing.append(f"{module}.{qualified}({keyword}=)")
    return missing


def test_every_public_name_and_keyword_has_a_caller():
    uses = _scan()
    # The scan finds the modules and sees the program's own calls.
    assert {"autodiff", "cli", "keypoints", "train"} <= set(MODULES)
    assert "load_sequence" in uses.calls and "frame_count" in uses.attributes
    missing = _uncalled(uses)
    assert not missing, "no caller outside the tests: " + ", ".join(missing)



# Attribute -> the one function that gives it state, and what any other
# code may write to it: None drops a gradient buffer, and an empty
# container is an optimizer holding no velocity yet.
CREATION_SITES = {"grad": "autodiff._accumulate", "_velocity": "train.SGD.step"}
WRITTEN_ELSEWHERE = {"grad": "none", "_velocity": "empty"}


def _written(value) -> str:
    if isinstance(value, ast.Constant) and value.value is None:
        return "none"
    if isinstance(value, ast.Dict) and not value.keys or isinstance(
            value, ast.List) and not value.elts:
        return "empty"
    return "value"


class _StateWrites(ast.NodeVisitor):
    """Each write of a ``CREATION_SITES`` attribute, or into it by subscript
    or augmented assignment, as (enclosing function, attribute, what
    ``_written`` makes of the value; ``"value"`` for a write into it)."""

    def __init__(self, module: str):
        self.scope = [module]
        self.writes: list[tuple[str, str, str]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _store(self, target, value):
        if isinstance(target, (ast.Tuple, ast.List)):
            paired = (isinstance(value, (ast.Tuple, ast.List))
                      and len(value.elts) == len(target.elts))
            for index, element in enumerate(target.elts):
                self._store(element, value.elts[index] if paired else None)
            return
        if isinstance(target, ast.Subscript):
            target, value = target.value, None
        if isinstance(target, ast.Attribute) and target.attr in CREATION_SITES:
            self.writes.append((".".join(self.scope), target.attr, _written(value)))

    def visit_Assign(self, node):
        for target in node.targets:
            self._store(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._store(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._store(node.target, None)
        self.generic_visit(node)


def test_gradient_buffers_and_velocities_have_one_creation_site():
    writes = []
    for module in MODULES:
        found = _StateWrites(module)
        found.visit(ast.parse((SRC / f"{module}.py").read_text()))
        writes += found.writes
    # The scan sees both creation sites and the write that drops a buffer.
    for attribute, site in CREATION_SITES.items():
        assert (site, attribute, "value") in writes
    assert ("autodiff.Tensor.zero_grad", "grad", "none") in writes
    stray = [f"{scope} writes {kind} to {attribute}" for scope, attribute, kind in writes
             if scope != CREATION_SITES[attribute] and kind != WRITTEN_ELSEWHERE[attribute]]
    assert not stray, stray
