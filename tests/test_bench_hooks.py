"""Every function the traced benchmark wraps must exist in legdet, and so
must the cache it keeps.

bench/run.py replaces each (layer, fn) in its TRACED table, plus
verify.check, by a timing wrapper; a renamed function would otherwise show
up only when the benchmark is run with --trace 1.  Every run clears each
legdet cache before an op except `exactla.moduli`, which it finds by name.
run.py is loaded, not run: nothing is traced or timed here.  The last two
tests check that the hooks still see the work: the scan workload's ops come
from cli.record_to_json calls, and the traced check spans from verify.check.
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


def run_cli(capsys, *argv):
    from legdet import cli

    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_scan_calls_record_to_json_through_cli_once_per_prime(capsys, monkeypatch, tmp_path):
    # the scan workload times each op by replacing cli.record_to_json
    from legdet import cli
    from legdet.ntheory import primes_in_range

    original, seen = cli.record_to_json, []

    def counted(rec):
        seen.append(rec.p)
        return original(rec)

    monkeypatch.setattr(cli, "record_to_json", counted)
    code, _ = run_cli(capsys, "scan", "--from", "3", "--to", "30", "--ids", "T13_DPMOD4",
                      "--out", str(tmp_path / "s.jsonl"), "--jobs", "1")
    assert code == 0 and seen == primes_in_range(3, 30)


def test_verify_checks_are_seen_in_every_legdet_namespace(capsys, monkeypatch):
    # the traced run replaces verify.check wherever a legdet module holds it,
    # as bench/spans.py's Recorder.install does
    import json
    import sys

    from legdet import verify

    original, seen = verify.check, []

    def traced(cid, p=None, seed=0):
        seen.append((getattr(cid, "name", cid), p))
        return original(cid, p, seed)

    for name, mod in list(sys.modules.items()):
        if name == "legdet" or name.startswith("legdet."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, traced)
    code, out = run_cli(capsys, "verify", "--from", "3", "--to", "30", "--suite", "all", "--json")
    assert code == 0
    assert seen == [(r["id"], r["p"]) for r in json.loads(out)["results"]]
