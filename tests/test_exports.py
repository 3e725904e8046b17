"""Every public name resolves: each name in the package's ``__all__`` and
in every module's ``__all__`` is an attribute of that module, and each
library module's names are package names with that one home.  So does
every name the sources refer to in a ``:func:``, ``:class:``, ``:meth:``
or ``:data:`` role and every double-backticked private ``_name``, so a
docstring cannot outlive the helper it names.  Each private name in
README's Layout block is defined in the module whose entry names it."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import linkdecay
from linkdecay import graph, scoring

MODULES = [linkdecay] + [importlib.import_module(f"linkdecay.{info.name}")
                         for info in pkgutil.iter_modules(linkdecay.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)


def test_each_name_has_one_public_home():
    """Each library module's public names (the CLI's aside) are package
    names bound to the same object, and each package name has one home."""
    homes = {}
    for module in MODULES[1:]:
        if module.__name__ == "linkdecay.cli":
            continue
        for name in module.__all__:
            homes.setdefault(name, []).append(module.__name__)
            assert getattr(linkdecay, name, None) is getattr(module, name), name
    assert sorted(homes) == sorted(linkdecay.__all__)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}
    assert homes["pair_features"] == ["linkdecay.graph"]
    assert scoring.pair_features is graph.pair_features


#: A role target (``~`` only shortens how it is shown) or a private name.
_ROLE = re.compile(r":(func|class|meth|data):`~?([\w.]+)`")
_PRIVATE = re.compile(r"``(_\w+)``")
_MISSING = object()


def _resolves(module, role: str, target: str) -> bool:
    """``target`` names an object: after the longest prefix that imports as
    a module (so ``linkdecay.generate`` is the module, not the function the
    package exports), else from ``module``; a method or private name may
    also be an attribute of one of ``module``'s classes."""
    parts = target.split(".")
    for k in range(len(parts), 0, -1):
        try:
            owner, rest = importlib.import_module(".".join(parts[:k])), parts[k:]
            break
        except ImportError:
            continue
    else:
        owner, rest = module, parts
    owners = [owner]
    if owner is module and len(rest) == 1 and role in ("meth", "private"):
        owners += [cls for _, cls in inspect.getmembers(module, inspect.isclass)]
    for obj in owners:
        for name in rest:
            obj = getattr(obj, name, _MISSING)
        if obj is not _MISSING:
            return True
    return False


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_name_the_sources_refer_to_resolves(module):
    text = inspect.getsource(module)
    refs = [m.groups() for m in _ROLE.finditer(text)]
    refs += [("private", name) for name in _PRIVATE.findall(text)]
    assert [ref for ref in refs if not _resolves(module, *ref)] == []


_README = Path(__file__).resolve().parent.parent / "README.md"
#: A module's entry in README's Layout block starts ``  name.py``.
_ENTRY = re.compile(r"^  (\w+)\.py\b", re.MULTILINE)
_PRIVATE_WORD = re.compile(r"(?<![\w.])(_[A-Za-z]\w*)")


def _home(module, name: str):
    """The module that defines ``module``'s attribute ``name`` (its own name
    for data, which carries no home), or ``None`` if there is no such
    attribute."""
    obj = getattr(module, name, _MISSING)
    if inspect.isfunction(obj) or inspect.isclass(obj):
        return obj.__module__
    return None if obj is _MISSING else module.__name__


def test_every_private_name_in_the_readme_layout_resolves():
    """Each ``_private`` name in a module's entry of README's Layout block
    is an attribute of that module, and the entry of the module that
    defines it names it too, so the layout can neither name a helper that
    has moved nor describe one only where it is imported."""
    text = _README.read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("```")[1]
    starts = list(_ENTRY.finditer(block))
    named = set()
    for m, end in zip(starts, [s.start() for s in starts[1:]] + [len(block)]):
        module = importlib.import_module(f"linkdecay.{m.group(1)}")
        named |= {(module.__name__, name, _home(module, name))
                  for name in _PRIVATE_WORD.findall(block[m.end():end])}
    entries = {(where, name) for where, name, _ in named}
    assert named and sorted((where, name, home) for where, name, home in named
                            if (home, name) not in entries) == []
