"""The package's public names: ``mclab.__all__`` against what ``mclab`` binds."""

import inspect

import mclab


def test_all_matches_the_public_names_and_star_import_binds_them():
    namespace = {}
    exec("from mclab import *", namespace)
    assert len(set(mclab.__all__)) == len(mclab.__all__)
    assert set(mclab.__all__) <= namespace.keys()
    # the submodules and __version__ are reached as attributes, not exported
    bound = {
        name
        for name, value in vars(mclab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert bound == set(mclab.__all__)
