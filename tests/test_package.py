"""The package's public names."""

import borescan
from borescan import unwrap


def test_every_public_name_resolves():
    names = {}
    exec("from borescan import *", names)
    assert set(borescan.__all__) <= names.keys()
    for name in borescan.__all__:
        assert getattr(borescan, name) is names[name]


def test_lazy_names_are_the_layers_own():
    from borescan import TileImage

    assert borescan.TileImage is unwrap.TileImage is TileImage


def test_unknown_name_raises_attribute_error():
    assert not hasattr(borescan, "no_such_name")
