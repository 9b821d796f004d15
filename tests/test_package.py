"""The package's public names."""

import pytest

import borescan
from borescan import unwrap


def test_every_public_name_resolves():
    names = {}
    exec("from borescan import *", names)
    assert set(borescan.__all__) <= names.keys()
    for name in borescan.__all__:
        assert getattr(borescan, name) is names[name]


def test_lazy_names_are_the_layers_own():
    from borescan import correct_tile

    assert borescan.correct_tile is unwrap.correct_tile is correct_tile


def test_the_tile_wrapper_is_gone():
    assert not hasattr(unwrap, "TileImage")
    with pytest.raises(AttributeError):
        borescan.TileImage


def test_unknown_name_raises_attribute_error():
    assert not hasattr(borescan, "no_such_name")
