import sys

import pytest

import legdet.exactla


def _cache_clearers():
    """Every lru_cache in a legdet module except the CRT moduli list, the
    rule bench/run.py's cache_clearers uses."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "legdet" or name.startswith("legdet."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear) and obj is not legdet.exactla.moduli and clear not in out:
                    out.append(clear)
    return out


@pytest.fixture
def fresh_caches():
    # the tables, records, expansions and invariants a test computes under a
    # patch must not outlive it, and a cached value must not hide the patch;
    # the caches are collected before the test patches any name
    clearers = _cache_clearers()
    for clear in clearers:
        clear()
    yield
    for clear in clearers:
        clear()
