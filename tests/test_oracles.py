"""The oracles stay outside the package: an oracle sharing a name with
package code would either have drifted back into `src/` or be tested
against itself."""

import importlib
import inspect
import pkgutil

import oracles
import polyflip


def test_no_oracle_shares_a_name_with_the_package():
    names = set(dir(polyflip))
    for info in pkgutil.iter_modules(polyflip.__path__):
        names |= set(dir(importlib.import_module(f"polyflip.{info.name}")))
    defined = {
        name
        for name, fn in inspect.getmembers(oracles, inspect.isfunction)
        if fn.__module__ == oracles.__name__
    }
    assert {"glue_G", "interval_decompose", "width_and_blocks"} <= defined
    assert sorted(defined & names) == []
