"""The package's public names."""

import flipdist


def test_all_names_resolve():
    assert len(set(flipdist.__all__)) == len(flipdist.__all__)
    for name in flipdist.__all__:
        assert getattr(flipdist, name) is not None, name


def test_star_import():
    namespace: dict = {}
    exec("from flipdist import *", namespace)
    assert set(flipdist.__all__) <= set(namespace)
