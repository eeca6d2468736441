"""The package's export list: every name in ``__all__`` resolves, once."""

from __future__ import annotations

import polyderive


def test_star_import_binds_exactly_all():
    # A listed name that does not resolve makes the star import raise.
    namespace: dict = {}
    exec("from polyderive import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(polyderive.__all__)


def test_all_has_no_duplicates():
    assert len(set(polyderive.__all__)) == len(polyderive.__all__)
