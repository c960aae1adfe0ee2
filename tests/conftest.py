from __future__ import annotations

import sys

import pytest

import rescert.cli  # noqa: F401  (loads multfn and resonator, which bind build_factor_table)
from rescert import ntcore


@pytest.fixture
def sieve_limits(monkeypatch):
    """Every build_factor_table call of the test as (module, limit), in each
    rescert module that binds the function."""
    calls = []
    real = ntcore.build_factor_table

    def recorded(module):
        def build(limit):
            calls.append((module, limit))
            return real(limit)

        return build

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "rescert" and getattr(mod, "build_factor_table", None) is real:
            monkeypatch.setattr(mod, "build_factor_table", recorded(name))
    return calls
