"""The contract surface — 3 identity fields, 13 counters, 15 ledger
cells — is pinned once, for every leg that compares on it."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from repro.core.clock import days, hours
from repro.core.metrics import (
    CATEGORIES,
    COUNTER_FIELDS,
    LEDGER_TABLES,
    ConsistencyCounters,
)
from repro.core.protocols import TTLProtocol
from repro.core.results import diff_results, result_from_dict, result_to_dict
from repro.core.simulator import SimulatorMode, simulate
from repro.live import diff_live_vs_sim
from repro.verify import ConsistencyViolation, spec, verify_simulation

IDENTITY = ("protocol_name", "mode", "duration")
COUNTER_CELLS = tuple(f"counters.{name}" for name in COUNTER_FIELDS)
LEDGER_CELLS = tuple(
    f"bandwidth.{table}[{category}]"
    for table in LEDGER_TABLES
    for category in CATEGORIES
)


def _requests():
    return [(days(0.4 * i), "/hot") for i in range(1, 50)]


def _run(server):
    return simulate(
        server, TTLProtocol(hours(50)), _requests(),
        SimulatorMode.OPTIMIZED, end_time=days(30),
    )


def _perturb(result, cell: str, by: float = 1) -> None:
    """Change exactly one cell of ``result`` (or of a ``SpecOutcome``,
    whose counters are a dict and whose tables are attributes)."""
    if cell == "duration":
        result.duration += by
    elif cell in IDENTITY:
        setattr(result, cell, getattr(result, cell) + "?")
    elif cell.startswith("counters."):
        name = cell.partition(".")[2]
        counters = result.counters
        if isinstance(counters, dict):
            counters[name] += by
        else:
            setattr(counters, name, getattr(counters, name) + by)
    else:
        table, _, category = cell.partition(".")[2].rstrip("]").partition("[")
        holder = getattr(result, "bandwidth", result)
        getattr(holder, table)[category] += by


class TestOneAlphabet:
    def test_counter_fields_are_the_dataclass(self):
        assert COUNTER_FIELDS == tuple(
            f.name for f in dataclasses.fields(ConsistencyCounters)
        )
        assert len(COUNTER_FIELDS) == 13
        assert len(LEDGER_TABLES) * len(CATEGORIES) == 15

    def test_spec_keeps_its_own_literal_copy_and_it_agrees(self):
        assert set(spec._COUNTER_NAMES) == set(COUNTER_FIELDS)
        assert spec._CATEGORIES == CATEGORIES

    def test_merge_covers_every_field(self):
        ones = ConsistencyCounters(**{name: 1 for name in COUNTER_FIELDS})
        total = ConsistencyCounters()
        total.merge(ones)
        total.merge(ones)
        assert total == ConsistencyCounters(
            **{name: 2 for name in COUNTER_FIELDS}
        )

    @pytest.mark.parametrize("sparse", [False, True])
    def test_codec_round_trips_every_cell(self, changing_server, sparse):
        result = _run(changing_server)
        encoded = json.loads(json.dumps(result_to_dict(result, sparse=sparse)))
        rebuilt = result_from_dict(encoded)
        assert diff_results(rebuilt, result) == []
        assert result_to_dict(rebuilt) == result_to_dict(result)

    def test_sparse_form_strips_zero_cells_and_empty_tables(self):
        from repro.core.results import SimulationResult

        delta = SimulationResult("p", "optimized")
        delta.counters.invalidations_received = 1
        delta.bandwidth.charge("invalidation", 43, 0)
        encoded = result_to_dict(delta, sparse=True)
        assert encoded["counters"] == {"invalidations_received": 1}
        assert encoded["bandwidth"] == {
            "control_bytes": {"invalidation": 43},
            "exchanges": {"invalidation": 1},
        }


class TestEveryCellIsComparedByEveryLeg:
    """One table, three legs: each of the 31 cells, perturbed alone,
    is exactly one line naming it."""

    @pytest.mark.parametrize("cell", IDENTITY + COUNTER_CELLS + LEDGER_CELLS)
    def test_result_differs(self, changing_server, cell):
        result = _run(changing_server)
        other = copy.deepcopy(result)
        _perturb(other, cell)
        (line,) = diff_results(result, other, label="run")
        assert line.startswith(f"run.{cell}: fast=")
        (line,) = diff_live_vs_sim(result, other)
        assert line.startswith(f"live.{cell}: live=") and " sim=" in line

    @pytest.mark.parametrize("cell", COUNTER_CELLS + LEDGER_CELLS)
    def test_spec_leg(self, changing_server, monkeypatch, cell):
        """Leg 1, end to end: the spec's own outcome is perturbed.  (It
        predicts cells only — a ``SpecOutcome`` has no identity fields.)"""
        self._perturb_spec(monkeypatch, cell, 1)
        with pytest.raises(ConsistencyViolation) as excinfo:
            verify_simulation(
                changing_server, TTLProtocol(hours(50)), _requests(),
                SimulatorMode.OPTIMIZED, end_time=days(30),
            )
        (line,) = excinfo.value.report.divergences
        assert line.startswith(f"spec.{cell}: simulator=") and " spec=" in line

    def test_spec_leg_compares_floats_exactly(
        self, changing_server, monkeypatch
    ):
        """1e-7 of stale age was inside the old ``math.isclose`` window."""
        assert _run(changing_server).counters.stale_age_sum > 0.0
        self._perturb_spec(monkeypatch, "counters.stale_age_sum", 1e-7)
        with pytest.raises(ConsistencyViolation) as excinfo:
            verify_simulation(
                changing_server, TTLProtocol(hours(50)), _requests(),
                SimulatorMode.OPTIMIZED, end_time=days(30),
            )
        (line,) = excinfo.value.report.divergences
        assert line.startswith("spec.counters.stale_age_sum: ")

    def test_spec_alphabet_drift_is_loud(self, changing_server, monkeypatch):
        real_run = spec.SpecModel.run

        def run(self, *args, **kwargs):
            outcome = real_run(self, *args, **kwargs)
            outcome.counters["age_at_delivery"] = 0
            return outcome

        monkeypatch.setattr(spec.SpecModel, "run", run)
        with pytest.raises(TypeError, match="age_at_delivery"):
            verify_simulation(
                changing_server, TTLProtocol(hours(50)), _requests(),
                SimulatorMode.OPTIMIZED, end_time=days(30),
            )

    @staticmethod
    def _perturb_spec(monkeypatch, cell, by):
        real_run = spec.SpecModel.run

        def run(self, *args, **kwargs):
            outcome = real_run(self, *args, **kwargs)
            _perturb(outcome, cell, by)
            return outcome

        monkeypatch.setattr(spec.SpecModel, "run", run)


class TestLayering:
    def test_live_and_core_do_not_import_fastpath(self):
        """``repro.live`` once borrowed the core's own field names from
        ``repro.fastpath``; nothing under either package may again."""
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        offenders = []
        for package in ("live", "core"):
            for path in sorted((root / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                    names = []
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                        if node.module == "repro":
                            names += [f"repro.{a.name}" for a in node.names]
                    offenders += [
                        f"{path.relative_to(root)}:{node.lineno}"
                        for name in names
                        if name == "repro.fastpath"
                        or name.startswith("repro.fastpath.")
                    ]
        assert offenders == []
