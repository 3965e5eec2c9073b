"""Shared fixtures."""

import sys

import pytest

import mvsim.particle


@pytest.fixture
def brownian_calls(monkeypatch):
    """Arguments of every ``generate_brownian`` call made while the test runs.

    The counting wrapper replaces the function in every ``mvsim`` module that
    holds it, so a call is counted whichever module makes it.
    """
    original = mvsim.particle.generate_brownian
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "mvsim" or name.startswith("mvsim.")) \
                and getattr(module, "generate_brownian", None) is original:
            monkeypatch.setattr(module, "generate_brownian", counting)
    return calls
