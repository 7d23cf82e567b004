"""The public names: every exported name resolves."""

import importlib

import pytest

MODULES = ["hoisearch", "hoisearch.subsets", "hoisearch.models", "hoisearch.search"]


@pytest.mark.parametrize("module_name", MODULES)
def test_public_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
