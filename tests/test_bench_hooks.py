"""Every function the traced benchmark wraps must exist in legdet, and so
must the cache it keeps.

bench/run.py replaces each (layer, fn) in its TRACED table, plus
verify.check, by a timing wrapper; a renamed function would otherwise show
up only when the benchmark is run with --trace 1.  Every run clears each
legdet cache before an op except `exactla.moduli`, which it finds by name.
run.py is loaded, not run: nothing is traced or timed here.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports euler and spans
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_traced_functions_exist(monkeypatch):
    run = load_run(monkeypatch)
    hooks = [(layer, fn) for layer, fns in run.TRACED for fn in fns]
    hooks += [("verify", "check"), ("cli", "record_to_json")]
    missing = [f"{layer}.{fn}" for layer, fn in hooks
               if not callable(getattr(importlib.import_module(f"legdet.{layer}"), fn, None))]
    assert missing == []
    moduli = importlib.import_module("legdet.exactla").moduli
    assert callable(getattr(moduli, "cache_clear", None))

