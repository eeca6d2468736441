"""The package's export list: every name in ``__all__`` resolves, once, from its home module."""

from __future__ import annotations

import importlib

import pytest

import polyderive


def test_star_import_binds_exactly_all():
    # A listed name that does not resolve makes the star import raise.
    namespace: dict = {}
    exec("from polyderive import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(polyderive.__all__)


def test_all_has_no_duplicates():
    assert len(set(polyderive.__all__)) == len(polyderive.__all__)


@pytest.mark.parametrize("name", polyderive.__all__)
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"polyderive.{polyderive._HOMES[name]}")
    value = getattr(polyderive, name)
    assert value is getattr(home, name)
    defined_in = getattr(value, "__module__", "")
    if defined_in.startswith("polyderive."):  # not the Scalar alias, a typing Union
        assert defined_in == home.__name__


def test_dir_covers_all():
    assert set(polyderive.__all__) <= set(dir(polyderive))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        polyderive.no_such_name  # noqa: B018
    assert not hasattr(polyderive, "_no_such_private_name")
