"""Every name a fritpid module exports in ``__all__`` exists.

A deletion that forgets its ``__all__`` entry would otherwise break only
``from fritpid.<module> import *``, which no other test runs.
"""

import importlib
import pkgutil

import pytest

import fritpid

MODULES = sorted(
    ["fritpid", *(f"fritpid.{m.name}" for m in pkgutil.iter_modules(fritpid.__path__))]
)


def test_every_module_is_collected():
    assert {"fritpid.lti_core", "fritpid.benchlab", "fritpid.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_exist(module):
    owner = importlib.import_module(module)
    missing = [name for name in owner.__all__ if not hasattr(owner, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_the_loop_response_is_exported_by_benchlab():
    # the loop response needs l1_idfrit's Toeplitz solver, which lti_core
    # cannot import without an import cycle
    from fritpid import benchlab, lti_core

    assert "co_simulate" in benchlab.__all__
    assert "co_simulate" not in lti_core.__all__ and not hasattr(lti_core, "co_simulate")
