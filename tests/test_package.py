"""The package namespace resolves its public names on first use, and the
command line's option values, kept as literals so that ``--help`` loads
no numpy, are the values of the modules that define them."""

import inspect

import pytest

import identangle
from identangle import cli, fold, verify


def test_every_public_name_resolves_and_is_listed():
    listed = dir(identangle)
    for name in identangle.__all__:
        assert getattr(identangle, name) is not None
        assert name in listed, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from identangle import *", namespace)
    assert set(identangle.__all__) <= namespace.keys()


def test_every_class_and_function_comes_from_its_defining_module():
    # a name mapped to a module that only re-exports it would load that
    # module and everything it imports
    for module, names in identangle._EXPORTS.items():
        for name in names:
            value = getattr(identangle, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"identangle.{module}", name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        identangle.no_such_name


def test_cli_option_literals_match_their_modules():
    assert cli.MEASURES == fold.MEASURES
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))
    assert cli.DEFAULT_SEED == verify.DEFAULT_SEED
