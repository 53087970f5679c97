"""Tests for the parallel experiment matrix: cells, store, resume, parity.

The acceptance bar for the harness refactor: ``run_matrix`` over the
Table III scenario set with several workers must produce per-cell JSON
whose deterministic view is bit-identical to the serial harness, and a
re-invocation after deleting one cell file must recompute exactly that
cell.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import PlannerConfig, SimulationConfig
from repro.errors import ConfigurationError, WorkerLostError
from repro.experiments import harness
from repro.experiments.harness import (DEFAULT_PLANNERS, SLOW_PLANNERS,
                                       MatrixCell, execute_cell, plan_cells,
                                       run_matrix)
from repro.experiments.matrix import render_matrix_summary
from repro.experiments.store import (ResultStore, assert_unique_filenames,
                                     cell_filename)
from repro.sim.serialize import deterministic_view
from repro.workloads.datasets import all_datasets, fleet_ladder, make_mini
from repro.workloads.scenario import TAG_SKIP_SLOW_PLANNERS

#: Small but structurally faithful stand-in for the Table III grid.
SCALE = 0.18


def mini_cells(planners=("NTP", "ATP", "EATP"), n_items=30):
    return plan_cells([make_mini(n_items=n_items)], planners)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "m")
        payload = {"metrics": {"makespan": 42}}
        store.save("Syn-A--NTP", payload)
        assert store.has("Syn-A--NTP")
        assert store.load("Syn-A--NTP") == payload
        assert len(store) == 1

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("cell", {"a": 1})
        assert [p.name for p in store.cell_files()] == ["cell.json"]

    def test_delete_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("cell", {})
        store.delete("cell")
        store.delete("cell")
        assert not store.has("cell")

    def test_filenames_are_sanitised(self):
        assert cell_filename("Syn-A--NTP") == "Syn-A--NTP.json"
        assert "/" not in cell_filename("weird/../name")
        with pytest.raises(ConfigurationError):
            cell_filename("///")

    def test_stale_tmp_files_swept_on_open(self, tmp_path):
        # A crash between the temp write and the rename leaves a
        # *.json.tmp behind; opening the store cleans it up.
        root = tmp_path / "m"
        root.mkdir()
        (root / "cell.json.tmp").write_text("{half")
        (root / "done.json").write_text("{}")
        ResultStore(root)
        assert not list(root.glob("*.json.tmp"))
        assert (root / "done.json").is_file()

    def test_unique_filenames_helper(self):
        assert_unique_filenames(["a", "b", "c"])
        with pytest.raises(ConfigurationError, match="collide"):
            assert_unique_filenames(["a b", "a_b"])
        with pytest.raises(ConfigurationError, match="collide"):
            assert_unique_filenames(["a", "b", "a"])


class TestCellPlanning:
    def test_slow_planners_skipped_on_large(self):
        cells = plan_cells(all_datasets(SCALE).values(), DEFAULT_PLANNERS)
        ids = [c.cell_id for c in cells]
        assert "Real-Large--NTP" in ids
        assert "Real-Large--LEF" not in ids and "Real-Large--ILP" not in ids
        assert len(cells) == 4 * 5 - 2

    def test_fleet_ladder_runs_all_five_planners(self):
        # PR 4 unlocked the small rungs: the planning pipeline keeps
        # every planner recoverable at the 200-robot rung, and LEF/ILP
        # drain the scaled-down floor in seconds.  The PR-6 large rungs
        # (500-3000 robots, paper-true 541x302 floor) carry the
        # skip-slow-planners tag — LEF/ILP keep the paper's "too slow
        # to execute" exclusion there, like Table III's Real-Large
        # cells (see test_slow_planners_skipped_on_large).
        rungs = fleet_ladder(SCALE)
        cells = plan_cells(rungs, DEFAULT_PLANNERS)
        planners = {c.planner for c in cells}
        assert planners == set(DEFAULT_PLANNERS)
        tagged = sum(1 for spec in rungs
                     if TAG_SKIP_SLOW_PLANNERS in spec.tags)
        assert tagged == 3  # the 500/1000/3000 paper-floor rungs
        expected = (len(rungs) - tagged) * len(DEFAULT_PLANNERS) \
            + tagged * (len(DEFAULT_PLANNERS) - len(SLOW_PLANNERS))
        assert len(cells) == expected
        large = {c.planner for c in cells if c.scenario.name == "Fleet-3000"}
        assert large == set(DEFAULT_PLANNERS) - set(SLOW_PLANNERS)

    def test_duplicate_cell_ids_rejected(self):
        cells = mini_cells(planners=("NTP", "NTP"))
        with pytest.raises(ConfigurationError):
            run_matrix(cells)

    def test_colliding_sanitised_filenames_rejected(self):
        spec = make_mini(n_items=10)
        cells = [MatrixCell(scenario=spec, planner="NTP", label="a b"),
                 MatrixCell(scenario=spec, planner="NTP", label="a_b")]
        with pytest.raises(ConfigurationError):
            run_matrix(cells)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_matrix(mini_cells(), workers=-1)


class TestCellIds:
    def test_default_config_keeps_plain_id(self):
        cell = MatrixCell(scenario=make_mini(n_items=10), planner="NTP")
        assert cell.cell_id == "Mini--NTP"

    def test_non_default_config_changes_the_id(self):
        # A stored cell must never be resumed under different knobs.
        spec = make_mini(n_items=10)
        plain = MatrixCell(scenario=spec, planner="EATP")
        tuned = MatrixCell(scenario=spec, planner="EATP",
                           planner_config=PlannerConfig(knn_k=3))
        traced = MatrixCell(scenario=spec, planner="EATP",
                            sim_config=SimulationConfig(
                                record_bottleneck_trace=True))
        ids = {plain.cell_id, tuned.cell_id, traced.cell_id}
        assert len(ids) == 3
        assert all(i.startswith("Mini--EATP") for i in ids)

    def test_same_config_same_id(self):
        spec = make_mini(n_items=10)
        a = MatrixCell(scenario=spec, planner="EATP",
                       planner_config=PlannerConfig(knn_k=3))
        b = MatrixCell(scenario=spec, planner="EATP",
                       planner_config=PlannerConfig(knn_k=3))
        assert a.cell_id == b.cell_id


class TestMatrixExecution:
    def test_payload_carries_provenance(self):
        cell = mini_cells(planners=("NTP",))[0]
        payload = execute_cell(cell)
        assert payload["scenario"] == "Mini" and payload["planner"] == "NTP"
        assert payload["spec"]["items"]["generator"] == "poisson"
        assert payload["result"]["metrics"]["items_processed"] == 30
        json.dumps(payload)  # JSON-serialisable end to end

    def test_store_streams_each_cell(self, tmp_path):
        store = ResultStore(tmp_path)
        run_matrix(mini_cells(), store=store)
        assert sorted(p.stem for p in store.cell_files()) == [
            "Mini--ATP", "Mini--EATP", "Mini--NTP"]

    def test_custom_labels_key_results(self):
        spec = make_mini(n_items=20)
        cells = [MatrixCell(scenario=spec, planner="NTP", label="a"),
                 MatrixCell(scenario=spec, planner="NTP", label="b")]
        payloads = run_matrix(cells)
        assert list(payloads) == ["a", "b"]

    def test_summary_renders_makespans(self):
        payloads = run_matrix(mini_cells(planners=("NTP", "EATP")))
        out = render_matrix_summary(payloads, "T")
        assert "Mini" in out and "NTP" in out and "EATP" in out

    def test_resume_rejects_foreign_payload(self, tmp_path):
        # A stored file claiming a different cell id (a past sanitiser
        # collision) must not be silently served as this cell's result.
        cells = mini_cells(planners=("NTP",))
        store = ResultStore(tmp_path)
        store.save(cells[0].cell_id, {"cell_id": "Other--EATP"})
        with pytest.raises(ConfigurationError, match="written by"):
            run_matrix(cells, store=store)

    def test_resume_refuses_a_cell_whose_spec_changed(self, tmp_path):
        # Same cell id, another scenario under it: serving the stored
        # payload would report seed 1's makespan (502) for seed 2 (528).
        store = ResultStore(tmp_path)
        run_matrix(plan_cells([make_mini(seed=1)], ("NTP",)), store=store)
        stale = plan_cells([make_mini(seed=2)], ("NTP",))
        with pytest.raises(ConfigurationError,
                           match=r"'Mini--NTP'.*'items' differs"):
            run_matrix(stale, store=store)
        store.delete(stale[0].cell_id)
        fresh = run_matrix(stale, store=store)[stale[0].cell_id]
        assert fresh["result"]["metrics"]["makespan"] == 528

    @pytest.mark.parametrize("missing", ["cell_id", "spec"])
    def test_resume_refuses_payload_without_provenance(self, tmp_path,
                                                       missing):
        # A pre-provenance payload cannot show it is this cell's result.
        cells = mini_cells(planners=("NTP",))
        store = ResultStore(tmp_path)
        stored = run_matrix(cells, store=store)[cells[0].cell_id]
        del stored[missing]
        store.save(cells[0].cell_id, stored)
        with pytest.raises(ConfigurationError,
                           match=f"'Mini--NTP' records no '{missing}'"):
            run_matrix(cells, store=store)

    @pytest.mark.parametrize("content", ['{"cell_id": ', "", "[1, 2]",
                                         "null"])
    def test_resume_refuses_a_damaged_file(self, tmp_path, content):
        # Truncated or non-object JSON used to escape as a bare
        # JSONDecodeError or AttributeError.
        cells = mini_cells(planners=("NTP",))
        store = ResultStore(tmp_path)
        store.path(cells[0].cell_id).write_text(content, encoding="utf-8")
        with pytest.raises(ConfigurationError,
                           match="'Mini--NTP'.*delete it to recompute"):
            run_matrix(cells, store=store)


class DiesInWorker(MatrixCell):
    """A cell whose worker process exits while unpickling it."""

    def __reduce__(self):
        return os._exit, (3,)


class TestLostWorker:
    def test_a_dead_worker_is_a_typed_error_and_the_store_resumes(
            self, tmp_path):
        good = mini_cells(("NTP", "EATP"), n_items=12)
        ids = {cell.cell_id for cell in good} | {"doomed"}
        store = ResultStore(tmp_path / "m")
        with pytest.raises(WorkerLostError) as caught:
            run_matrix([DiesInWorker(good[0].scenario, "ATP",
                                     label="doomed")] + good,
                       workers=2, store=store)
        unrun = caught.value.unrun
        assert "doomed" in unrun and "doomed" in str(caught.value)
        # every cell either finished and was saved, or is named
        saved = {store.load(path.stem)["cell_id"]
                 for path in store.cell_files()}
        assert saved | set(unrun) == ids and not saved & set(unrun)
        events = []
        rerun = run_matrix(
            [MatrixCell(good[0].scenario, "ATP", label="doomed")] + good,
            workers=2, store=store,
            progress=lambda cell_id, status: events.append(
                (cell_id, status)))
        assert set(rerun) == ids
        assert sorted(c for c, s in events if s == "done") == sorted(unrun)
        assert {c for c, s in events if s == "cached"} == saved


class BreaksAtSecondSubmit:
    """A pool stand-in: the first cell runs here, the second ``submit``
    finds the pool broken (a worker that died before every cell was
    queued)."""

    def __init__(self, max_workers):
        self.submits = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == 2:
            raise BrokenProcessPool("a child process terminated abruptly")
        future = Future()
        future.set_result(fn(*args))
        return future


class TestPoolBrokenAtSubmit:
    def test_cells_left_unqueued_are_named_lost(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor",
                            BreaksAtSecondSubmit)
        cells = mini_cells(("NTP", "ATP", "EATP"), n_items=12)
        store = ResultStore(tmp_path / "m")
        with pytest.raises(WorkerLostError) as caught:
            run_matrix(cells, workers=2, store=store)
        saved = {store.load(path.stem)["cell_id"]
                 for path in store.cell_files()}
        assert saved == {cells[0].cell_id}
        assert caught.value.unrun == tuple(cell.cell_id
                                           for cell in cells[1:])


@pytest.mark.slow
class TestParallelParity:
    """The acceptance criterion, on the Table III scenario set."""

    def test_parallel_bit_identical_and_resume_recomputes_one_cell(
            self, tmp_path):
        cells = plan_cells(all_datasets(SCALE).values(), DEFAULT_PLANNERS)
        serial = run_matrix(cells, workers=0)

        store = ResultStore(tmp_path / "table3")
        parallel = run_matrix(cells, workers=4, store=store)
        assert list(parallel) == list(serial)
        for cell_id in serial:
            assert (deterministic_view(parallel[cell_id])
                    == deterministic_view(serial[cell_id])), cell_id
        # ... and the on-disk JSON round-trips to the same view.
        for cell in cells:
            on_disk = json.loads(store.path(cell.cell_id).read_text())
            assert (deterministic_view(on_disk)
                    == deterministic_view(serial[cell.cell_id]))

        # Delete one cell; a re-run recomputes exactly that cell.
        victim = "Syn-B--ATP"
        store.delete(victim)
        events = []
        rerun = run_matrix(cells, workers=4, store=store,
                           progress=lambda c, s: events.append((c, s)))
        recomputed = [c for c, s in events if s == "done"]
        assert recomputed == [victim]
        assert sum(1 for c, s in events if s == "cached") == len(cells) - 1
        assert (deterministic_view(rerun[victim])
                == deterministic_view(serial[victim]))
