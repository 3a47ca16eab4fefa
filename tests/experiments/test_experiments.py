"""Every experiment's shape checks hold at a reduced scale.

These are the reproduction's acceptance tests: each paper table/figure is
regenerated (at 25-50% workload scale to keep the suite fast) and its
qualitative claims are asserted.  The full-scale run is exercised by
``python -m repro.experiments all``.
"""

import pytest

from repro.experiments import common
from repro.experiments.registry import run_experiment

SCALE = 0.25
SEED = 0


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


@pytest.mark.parametrize(
    "experiment_id",
    ["figure1", "figure2", "figure3", "figure4", "figure5",
     "figure6", "figure7", "figure8", "table1", "table2",
     "ext-latency", "ext-dynamic", "ext-scalability", "ext-worrell",
     "ext-faults"],
)
def test_experiment_checks_pass(experiment_id):
    report = run_experiment(experiment_id, scale=SCALE, seed=SEED)
    failed = report.failed_checks()
    assert not failed, "\n".join(c.render() for c in failed)


def test_reports_render_without_error():
    report = run_experiment("figure6", scale=SCALE, seed=SEED)
    text = report.render()
    assert "figure6" in text
    assert "Alex" in text
    assert "shape checks:" in text


def test_experiment_data_is_structured():
    report = run_experiment("figure8", scale=SCALE, seed=SEED)
    assert "alex" in report.data
    assert len(report.data["alex"]["threshold_percent"]) == len(
        report.data["alex"]["server_operations"]
    )


def test_deterministic_across_runs():
    a = run_experiment("figure2", scale=SCALE, seed=SEED)
    common.clear_caches()
    b = run_experiment("figure2", scale=SCALE, seed=SEED)
    assert a.data == b.data


def test_seed_changes_data_but_not_verdict():
    a = run_experiment("table1", scale=SCALE, seed=0)
    common.clear_caches()
    b = run_experiment("table1", scale=SCALE, seed=99)
    assert a.all_passed and b.all_passed
    assert a.data["ground_truth"] != b.data["ground_truth"]
