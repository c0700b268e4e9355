"""The benchmark tracer hooks package internals by name; every name it
lists must still be defined where it looks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_member_is_defined_on_its_class():
    tracer = _tracer()
    names = [*tracer.CACHED, *tracer.METHODS]
    assert names
    for layer, cls_name, attr in names:
        cls = getattr(importlib.import_module(f"polyflip.{layer}"), cls_name)
        assert attr in cls.__dict__, f"{layer}.{cls_name}.{attr}"


def test_the_traced_order_build_keeps_its_cache_counters():
    # the tracer counts cover pairs of newly built orders by reading
    # `build_poset.cache_info()` when it installs its hooks
    build_poset = importlib.import_module("polyflip.poset").build_poset
    assert isinstance(build_poset.cache_info().misses, int)
