"""Every public name resolves: each name in the package's ``__all__`` and
in every module's ``__all__`` is an attribute of that module."""

import importlib
import pkgutil

import pytest

import linkdecay
from linkdecay import evaluation, graph, scoring

MODULES = [linkdecay] + [importlib.import_module(f"linkdecay.{info.name}")
                         for info in pkgutil.iter_modules(linkdecay.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)


def test_each_name_has_one_public_home():
    assert linkdecay.sweep is evaluation.sweep
    assert "pair_features" in graph.__all__
    assert "pair_features" not in scoring.__all__
    assert scoring.pair_features is graph.pair_features
