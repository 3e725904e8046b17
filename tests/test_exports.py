"""Every public name resolves: each name in the package's ``__all__`` and
in every module's ``__all__`` is an attribute of that module, and each
library module's names are package names with that one home.  So does
every name the sources refer to in a ``:func:``, ``:class:``, ``:meth:``
or ``:data:`` role and every double-backticked private ``_name``, so a
docstring cannot outlive the helper it names."""

import importlib
import inspect
import pkgutil
import re

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
