"""The package's public names: ``__all__`` lists each once, and every
listed name exists."""

from __future__ import annotations

import nvbmesh


def test_all_lists_each_name_once():
    assert len(nvbmesh.__all__) == len(set(nvbmesh.__all__))


def test_every_listed_name_resolves():
    missing = [n for n in nvbmesh.__all__ if not hasattr(nvbmesh, n)]
    assert not missing


def test_star_import_binds_exactly_the_listed_names():
    namespace: dict = {}
    exec("from nvbmesh import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(nvbmesh.__all__)
