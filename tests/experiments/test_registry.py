"""The experiment registry and CLI plumbing."""

import pytest

import repro.experiments
from repro.experiments import registry
from repro.experiments.registry import EXPERIMENTS, all_ids, run_experiment
from tests.core.test_protocol_registry import submodules


def check_experiment_modules() -> None:
    """Every module defining ``EXPERIMENT_ID`` is in ``_MODULES``, or
    ``python -m repro.experiments all`` silently skips it."""
    unregistered = [
        module.__name__
        for module in submodules(repro.experiments)
        if hasattr(module, "EXPERIMENT_ID")
        and module not in registry._MODULES
    ]
    assert not unregistered, (
        f"not in repro.experiments.registry._MODULES: {unregistered}"
    )


class TestRegistry:
    def test_every_experiment_module_is_registered(self):
        check_experiment_modules()

    def test_every_table_and_figure_registered(self):
        assert set(all_ids()) == {
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "figure6", "figure7", "figure8", "table1", "table2",
            "ext-latency", "ext-dynamic", "ext-scalability", "ext-worrell",
            "ext-faults",
        }

    def test_paper_experiments_precede_extensions(self):
        ids = all_ids()
        assert ids.index("table2") < ids.index("ext-latency")

    def test_titles_present(self):
        for title, runner in EXPERIMENTS.values():
            assert title
            assert callable(runner)

    def test_unknown_id_raises_with_listing(self):
        with pytest.raises(KeyError, match="figure2"):
            run_experiment("figure99")

    def test_run_experiment_returns_report(self):
        report = run_experiment("figure1")
        assert report.experiment_id == "figure1"
        assert report.rendered

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_stats_name_the_engine_of_a_run_without_sweeps(self, engine):
        # figure1 runs its simulations outside any sweep: no sweep's
        # record carries the engine, so the run itself must.
        from repro.fastpath import set_engine

        previous = set_engine(engine)
        try:
            report = run_experiment("figure1")
        finally:
            set_engine(previous)
        assert report.stats.engine == engine
        assert f"engine {engine}" in report.stats.render()


    @pytest.mark.parametrize("workers", [1, 2])
    def test_verified_runs_is_the_verify_runs_delta(self, workers):
        # One count of verified runs: the report's total is what the
        # ``verify.runs`` metric gained, pool workers' runs included.
        from repro.obs.registry import MetricsRegistry, installed
        from repro.verify import set_enabled

        set_enabled(True)
        registry = MetricsRegistry()
        registry.counter("verify.runs").add(3.0)  # an earlier region's
        with installed(registry):
            report = run_experiment(
                "ext-faults", scale=0.02, workers=workers
            )
        gained = registry.counter("verify.runs").value - 3.0
        assert report.stats.verified_runs == gained == 12


class TestCLI:
    def test_main_single_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "ALL CHECKS PASSED" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_scale_and_seed_flags(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2", "--scale", "0.5", "--seed", "3"]) == 0

    def test_workers_flag_single_experiment(self, capsys):
        from repro.experiments import common
        from repro.experiments.__main__ import main

        common.clear_caches()
        try:
            assert main(["figure2", "--scale", "0.02", "--workers", "2"]) == 0
        finally:
            common.clear_caches()
        out = capsys.readouterr().out
        assert "workers 2" in out
        assert "ALL CHECKS PASSED" in out

    def test_both_worker_counts_credit_the_same_simulated_requests(
            self, capsys):
        """Under ``--workers 2`` the shared sweeps run before the fan-out;
        each is credited to the first experiment that uses it, the one a
        serial run credits, so every stats line counts the same requests."""
        import re

        from repro.experiments import common
        from repro.experiments.__main__ import main

        counts = []
        for workers in ("1", "2"):
            common.clear_caches()
            try:
                main(["all", "--scale", "0.02", "--workers", workers])
            finally:
                common.clear_caches()
            counts.append(re.findall(r"^  \(.* ([\d,]+) simulated requests",
                                     capsys.readouterr().out, re.M))
        serial, parallel = counts
        assert len(serial) == len(all_ids())
        assert parallel == serial
        assert serial.count("0") < len(serial) - 3  # the shared sweeps count

    def test_help_documents_workers_env_var(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--help"])
        assert "REPRO_WORKERS" in capsys.readouterr().out
