"""BENCHMARK.json must name exactly the workloads and metrics run.py prints.

    python3 -m pytest bench/test_spec.py
"""

import json
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()


def test_setup_bound_is_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
