"""Smoke test of the benchmark itself, on shrunken (``--quick``) workloads.

Checks that the registry in ``metrics.py``/``workloads.py`` and
``BENCHMARK.json`` agree, that every declared metric is emitted under a
legal name by every workload, that the traced pass closes (layer self
times sum to its wall) and that the layer shims are gone afterwards.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.config import search_kernel_choice
from repro.errors import ConfigurationError

from bench import compare, metrics, run
from bench.trace import Tracer, _layer_table
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def compiled_kernel():
    if search_kernel_choice() == "python":
        pytest.skip("the benchmark measures the compiled kernel only")
    try:
        run.require_compiled_kernel()
    except ConfigurationError:
        pytest.skip("native kernel unavailable (no compiler?)")


def test_registry_matches_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["workloads"] == [
        {"name": name, "why": why} for name, (why, __) in WORKLOADS.items()]
    assert declared["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END]
    assert declared["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER]

    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in declared["end_to_end"] + declared["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert "setup_s" in names
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    pins = json.loads((run.ROOT / "bench" / "pins.json").read_text())
    assert set(pins) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_workload_emits_every_metric(name, compiled_kernel, tmp_path):
    traced = run.run_workload(name, seed=2, seconds=0, trace=True,
                              quick=True, scratch=tmp_path)
    # ``problems`` covers the correctness gate, traced == untraced output
    # and "layer self times sum to the traced wall within 1 %".
    assert traced["problems"] == [] and traced["correct"]
    assert list(traced["metrics"]) == [n for n, __, __ in metrics.PER_LAYER]
    assert traced["metrics"]["trace.span_count"]["value"] > 0
    if name == "paper-ntp":  # layers that do not run read 0
        assert traced["metrics"]["warehouse.knn_build_s"]["value"] == 0
        assert traced["metrics"]["checkpoint.dump_calls"]["value"] == 0
        assert traced["metrics"]["pipeline.rescued_legs"]["value"] > 0
    spans = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert spans["columns"] == ["id", "parent", "cell", "name", "start", "end"]

    for owner, attr, *__ in _layer_table(Tracer()):
        assert not hasattr(getattr(owner, attr), "_bench_name"), (owner, attr)

    # Untraced after traced: the service pass pickles 8 checkpoints, which
    # would fail on a leftover shim closure.
    plain = run.run_workload(name, seed=2, seconds=0, trace=False,
                             quick=True, scratch=tmp_path)
    assert plain["problems"] == [] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    assert list(plain["metrics"]) == [n for n, *__ in metrics.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "within bound"
    assert compare.verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower",
                           0.1)[0] == "regression"
    assert compare.verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher",
                           0.1)[0] == "regression"
    noisy = [10.0, 14.0, 7.0, 12.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [5.0, 6.0, 5.5, 5.2], "lower",
                           0.1)[0] == "better"
