"""Fixture tests: every RPR checker fires on a seeded-bad snippet.

Each test builds a tiny in-memory project (``ModuleInfo.from_source``
with an explicit dotted name, so scoping rules apply) containing one
deliberate violation, asserts the checker reports it, and asserts the
corrected twin stays clean.  The retired codes' classes (RPR003,
RPR004, RPR006) seed the same defects into the real objects instead,
and show the tests that replaced those checkers catching them.
"""

from __future__ import annotations

import sys
import textwrap

import pytest

from repro import experiments
from repro.core import protocols, step
from repro.core.protocols import CERNPolicyProtocol
from repro.core.simulator import SimulatorMode
from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.units import UnitFlow, UnitsChecker
from repro.lint.checkers.hygiene import HygieneChecker
from repro.lint.project import ModuleInfo, Project
from repro.obs import names
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.obs.trace import EVENT_METRICS
from repro.verify import UnsupportedProtocolError, oracle, spec
from tests.core.test_protocol_registry import check_protocol_classes
from tests.experiments.test_registry import check_experiment_modules
from tests.obs.test_names import dead_names, source_constants
from tests.verify import test_oracle
from tests.verify.test_contract_surface import (
    check_one_event_alphabet,
    event_kinds_over_the_matrix,
)


def mod(source: str, name: str, path: str = "fixture.py") -> ModuleInfo:
    return ModuleInfo.from_source(
        textwrap.dedent(source), path=path, name=name
    )


def run_module(checker, module: ModuleInfo, *extra: ModuleInfo):
    project = Project([module, *extra])
    return list(checker.check_module(module, project))


def run_project(checker, *modules: ModuleInfo):
    return list(checker.check_project(Project(list(modules))))


# -- RPR001 determinism -------------------------------------------------------


class TestDeterminism:
    checker = DeterminismChecker()

    def test_global_random_call_flagged_in_core(self):
        bad = mod(
            """
            import random

            def jitter():
                return random.random()
            """,
            name="repro.core.bad",
        )
        found = run_module(self.checker, bad)
        assert len(found) == 1
        assert found[0].code == "RPR001"
        assert "random.random()" in found[0].message

    def test_seeded_random_and_out_of_scope_clean(self):
        seeded = mod(
            """
            import random

            def jitter(seed):
                return random.Random(seed).random()
            """,
            name="repro.core.ok",
        )
        assert run_module(self.checker, seeded) == []
        # Same bad code outside the scoped packages: not this checker's
        # business (instrumentation may read clocks).
        elsewhere = mod(
            "import time\nt = time.time()\n", name="repro.runtime.stats"
        )
        assert run_module(self.checker, elsewhere) == []

    def test_unseeded_default_rng_flagged_seeded_ok(self):
        bad = mod(
            """
            import numpy as np

            def draw():
                return np.random.default_rng().random()
            """,
            name="repro.workload.bad",
        )
        found = run_module(self.checker, bad)
        assert [d.code for d in found] == ["RPR001"]
        assert "unseeded" in found[0].message

        good = mod(
            """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).random()
            """,
            name="repro.workload.ok",
        )
        assert run_module(self.checker, good) == []

    def test_legacy_numpy_global_api_flagged(self):
        bad = mod(
            "import numpy as np\nx = np.random.rand(3)\n",
            name="repro.verify.bad",
        )
        found = run_module(self.checker, bad)
        assert len(found) == 1 and "legacy global numpy RNG" in found[0].message

    def test_wall_clock_read_flagged(self):
        bad = mod(
            "import time\n\ndef stamp():\n    return time.time()\n",
            name="repro.core.clockish",
        )
        found = run_module(self.checker, bad)
        assert len(found) == 1 and "wall-clock" in found[0].message

    def test_set_iteration_flagged_sorted_ok(self):
        bad = mod(
            """
            def order(ids):
                for x in set(ids):
                    yield x
            """,
            name="repro.core.iter",
        )
        found = run_module(self.checker, bad)
        assert len(found) == 1 and "set order" in found[0].message

        good = mod(
            """
            def order(ids):
                for x in sorted(set(ids)):
                    yield x
            """,
            name="repro.core.iter",
        )
        assert run_module(self.checker, good) == []

    def test_import_from_random_flagged(self):
        bad = mod(
            "from random import shuffle\n", name="repro.workload.imports"
        )
        found = run_module(self.checker, bad)
        assert len(found) == 1 and "global-state" in found[0].message


# -- RPR002 units -------------------------------------------------------------


class TestUnits:
    checker = UnitsChecker()

    def test_infer_unit_suffixes_and_table(self):
        import ast as astmod

        flow = UnitFlow(Project([]))

        def unit_of(expr: str):
            found = flow.infer(astmod.parse(expr, mode="eval").body, {}, None)
            return found.unit if found is not None else None

        assert unit_of("total_bytes") == "bytes"
        assert unit_of("self.stale_seconds") == "seconds"
        assert unit_of("hit_count") == "count"
        assert unit_of("costs.control_message") == "bytes"
        assert unit_of("ttl") == "seconds"
        assert unit_of("mystery") is None

    def test_additive_mix_flagged(self):
        bad = mod(
            "total = body_bytes + elapsed_seconds\n", name="repro.core.mix"
        )
        found = run_project(self.checker, bad)
        assert len(found) == 1
        assert found[0].code == "RPR002"
        assert "bytes" in found[0].message and "seconds" in found[0].message

    def test_augmented_mix_and_comparison_flagged(self):
        bad = mod(
            """
            def account(ledger, stale_seconds, request_count):
                ledger.total_bytes += stale_seconds
                if stale_seconds > request_count:
                    return True
            """,
            name="repro.core.mix2",
        )
        found = run_project(self.checker, bad)
        assert len(found) == 2
        assert {"augmented" in d.message or "comparison" in d.message
                for d in found} == {True}

    def test_same_unit_and_conversions_clean(self):
        good = mod(
            """
            def account(header_bytes, body_bytes, seconds_per_byte):
                total_bytes = header_bytes + body_bytes
                transfer_seconds = total_bytes * seconds_per_byte
                return total_bytes, transfer_seconds
            """,
            name="repro.core.okunits",
        )
        assert run_project(self.checker, good) == []

    # -- PR 8 blind-spot regressions (these passed unflagged before) ---------

    def test_delay_s_suffix_in_augmented_assignment(self):
        # Blind spot 1: ``_s`` (the repo's delay_s spelling) carried no
        # unit, so this accounting bug sailed through.
        bad = mod(
            """
            def account(ledger, delay_s):
                ledger.total_bytes += delay_s
            """,
            name="repro.core.blind1",
        )
        found = run_project(self.checker, bad)
        assert len(found) == 1
        assert "augmented assignment" in found[0].message
        assert "seconds" in found[0].message

    def test_min_max_mixing_units(self):
        # Blind spot 2: min()/max() arguments were never compared.
        bad = mod(
            """
            def clamp(total_bytes, delay_s, hit_count):
                a = min(total_bytes, delay_s)
                b = max(hit_count, delay_s, 0)
                return a, b
            """,
            name="repro.core.blind2",
        )
        found = run_project(self.checker, bad)
        assert len(found) == 2
        assert all("min()" in d.message or "max()" in d.message
                   for d in found)
        assert all("meaningless" in d.message for d in found)

    def test_min_max_agreeing_units_propagate(self):
        # min() of two byte counts *is* bytes — and that unit carries
        # into the surrounding expression.
        bad = mod(
            "worst = min(header_bytes, body_bytes) + stale_seconds\n",
            name="repro.core.blind3",
        )
        found = run_project(self.checker, bad)
        assert len(found) == 1
        assert "additive arithmetic" in found[0].message

    def test_min_max_of_unknowns_is_clean(self):
        good = mod(
            "low = min(a, b)\nhigh = max(a, 0, key_thing)\n",
            name="repro.core.blind4",
        )
        assert run_project(self.checker, good) == []


# -- retired: RPR003 conformance ---------------------------------------------
#
# RPR003, RPR004 and RPR006 were checks over string literals in ASTs.
# Tests now read the real objects instead; each case below seeds the
# defect its old fixture held into those objects and shows the test
# that replaced the checker failing on it (or passing, for a clean twin).


@pytest.fixture
def seed_module(tmp_path, monkeypatch):
    """``seed(package, name, source)`` adds ``package.name`` to a real
    package for one test."""
    added = []

    def seed(package, name, source):
        (tmp_path / f"{name}.py").write_text(textwrap.dedent(source))
        monkeypatch.setattr(package, "__path__", [*package.__path__,
                                                  str(tmp_path)])
        added.append(f"{package.__name__}.{name}")

    yield seed
    for module in added:
        sys.modules.pop(module, None)
        package, _, name = module.rpartition(".")
        vars(sys.modules[package]).pop(name, None)


class TestConformance:
    def test_conforming_protocol_clean(self):
        check_protocol_classes()
        check_experiment_modules()

    def test_missing_hook_flagged(self, seed_module):
        seed_module(protocols, "half", """
            from repro.core.protocols.base import ConsistencyProtocol

            class HalfProtocol(ConsistencyProtocol):
                @property
                def name(self):
                    return "half"
        """)
        with pytest.raises(AssertionError, match="HalfProtocol.*is_fresh"):
            check_protocol_classes()

    def test_unexported_protocol_flagged(self, monkeypatch):
        monkeypatch.setattr(protocols, "__all__", [
            name for name in protocols.__all__
            if name != "CERNPolicyProtocol"
        ])
        with pytest.raises(AssertionError, match="__all__.*CERNPolicy"):
            check_protocol_classes()

    def test_missing_spec_rule_flagged(self, monkeypatch):
        # rule_for without its CERN branch: the agreement test, which
        # runs every class check_protocol_classes pins, refuses it.
        real = oracle.rule_for

        def rule_for(protocol):
            if type(protocol) is CERNPolicyProtocol:
                raise UnsupportedProtocolError("no spec rule for CERN")
            return real(protocol)

        monkeypatch.setattr(oracle, "rule_for", rule_for)
        (cern,) = [f for f in test_oracle.ALL_PROTOCOLS
                   if type(f()) is CERNPolicyProtocol]
        with pytest.raises(UnsupportedProtocolError):
            test_oracle.TestAgreement().test_simulator_matches_spec(
                test_oracle.mixed_origin(), cern, SimulatorMode.OPTIMIZED,
                True,
            )

    def test_unregistered_experiment_flagged(self, seed_module):
        seed_module(experiments, "figure9", "EXPERIMENT_ID = 'figure9'\n")
        with pytest.raises(AssertionError, match="_MODULES.*figure9"):
            check_experiment_modules()


# -- retired: RPR004 oracle exhaustiveness ------------------------------------


def _spec_events(monkeypatch, edit):
    """Make ``SpecModel.run`` return ``edit(events)`` as its events."""
    real_run = spec.SpecModel.run

    def run(self, *args, **kwargs):
        outcome = real_run(self, *args, **kwargs)
        outcome.events = edit(outcome.events)
        return outcome

    monkeypatch.setattr(spec.SpecModel, "run", run)


class TestEventExhaustiveness:
    def test_matching_alphabets_clean(self):
        check_one_event_alphabet()

    def test_undeclared_emission_flagged(self, monkeypatch):
        def hit(self, object_id, t, stale=False):
            self.counters.hits += 1
            self.on_event("stale-hit" if stale else "hit", t, object_id)

        monkeypatch.setattr(step.RequestStep, "hit", hit)
        with pytest.raises(AssertionError, match="undeclared .'stale-hit'"):
            check_one_event_alphabet()

    def test_dead_alphabet_entry_flagged(self, monkeypatch):
        monkeypatch.setattr(step, "EVENT_KINDS", (*step.EVENT_KINDS, "warp"))
        with pytest.raises(AssertionError, match="never emits .'warp'"):
            check_one_event_alphabet()

    def test_spec_missing_handler_flagged(self, monkeypatch):
        _spec_events(monkeypatch, lambda events: [
            event for event in events if event[0] != "prefetch"
        ])
        with pytest.raises(AssertionError, match="no handler for .'prefetch'"):
            check_one_event_alphabet()

    def test_both_arms_of_a_conditional_kind_are_emissions(self):
        # RequestStep.hit emits ``"stale_hit" if stale else "hit"``.
        emitted, _ = event_kinds_over_the_matrix()
        assert {"hit", "stale_hit"} <= emitted

    def test_spec_alien_event_flagged(self, monkeypatch):
        _spec_events(monkeypatch, lambda events: [*events, ("warp", 0.0, "")])
        with pytest.raises(AssertionError, match="replays undeclared .'warp'"):
            check_one_event_alphabet()


# -- RPR005 hygiene -----------------------------------------------------------


class TestHygiene:
    checker = HygieneChecker()

    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()",
                                         "dict()"])
    def test_mutable_default_flagged(self, default):
        bad = mod(
            f"def f(x, acc={default}):\n    return acc\n", name="anything"
        )
        found = run_module(self.checker, bad)
        assert len(found) == 1
        assert found[0].code == "RPR005"
        assert "mutable default" in found[0].message

    def test_none_default_clean(self):
        good = mod(
            "def f(x, acc=None):\n    acc = acc or []\n    return acc\n",
            name="anything",
        )
        assert run_module(self.checker, good) == []

    def test_shadowed_builtin_assignment_flagged(self):
        bad = mod("list = [1, 2]\n", name="anything")
        found = run_module(self.checker, bad)
        assert len(found) == 1 and "shadows the builtin" in found[0].message

    def test_shadowed_builtin_param_and_loop_flagged(self):
        bad = mod(
            """
            def f(id):
                for type in range(3):
                    pass
            """,
            name="anything",
        )
        found = run_module(self.checker, bad)
        assert sorted("id" in d.message or "type" in d.message
                      for d in found) == [True, True]

    def test_domain_names_not_flagged(self):
        good = mod(
            "size_bytes = 10\nrequest_count = 2\nentry_id = 'x'\n",
            name="anything",
        )
        assert run_module(self.checker, good) == []


# -- retired: RPR006 observability names --------------------------------------


class TestObsNames:
    def test_declared_and_live_names_clean(self):
        with obs_registry.installed(obs_registry.MetricsRegistry()) as reg:
            obs_registry.emit("cache.stores")
            obs_registry.emit("engine.tasks", 2.0)
        obs_trace.TraceSink().span("engine.task", 0.5, {"index": 3})
        assert reg.as_dict()["counters"]["engine.tasks"] == 2.0
        assert dead_names() == []

    def test_undeclared_metric_name_flagged(self):
        registry = obs_registry.MetricsRegistry()
        for create in (registry.counter, registry.gauge, registry.histogram):
            with pytest.raises(ValueError, match="'cache.storse'"):
                create("cache.storse")
        with obs_registry.installed(registry):
            with pytest.raises(ValueError, match="'cache.storse'"):
                obs_registry.emit("cache.storse")
        with pytest.raises(ValueError, match="'engine.tsak'"):
            obs_trace.TraceSink().span("engine.tsak", 0.1)

    def test_undeclared_mark_kind_flagged(self):
        sink = obs_trace.TraceSink()
        sink.mark("live.trace.send", "r0", 1.0)
        with pytest.raises(ValueError, match="'live.trace.sned'.*MARK"):
            sink.mark("live.trace.sned", "r0", 1.2)
        assert len(sink) == 1

    def test_dead_mark_entry_flagged(self, monkeypatch):
        monkeypatch.setattr(names, "TRACE_MARK_NAMES",
                            (*names.TRACE_MARK_NAMES, "live.trace.ack"))
        assert dead_names() == ["live.trace.ack"]

    def test_missing_mark_alphabet_flagged(self, monkeypatch):
        monkeypatch.delattr(names, "TRACE_MARK_NAMES")
        with pytest.raises(AttributeError, match="TRACE_MARK_NAMES"):
            dead_names()

    def test_dead_alphabet_entry_flagged(self, monkeypatch):
        monkeypatch.setattr(names, "METRIC_NAMES",
                            (*names.METRIC_NAMES, "engine.task_count"))
        assert dead_names() == ["engine.task_count"]

    def test_table_driven_names_stay_live(self):
        # The tee publishes EVENT_METRICS[kind]: its names are live
        # through the dict literal alone.
        assert set(EVENT_METRICS.values()) <= source_constants()
        assert dead_names() == []

    def test_variable_first_argument_ignored(self):
        # The check reads the value, so a name held in a variable is
        # accepted when declared — and, unlike a literal scan, refused
        # when not.
        declared, typo = "cache.stores", "cache.storse"
        registry = obs_registry.MetricsRegistry()
        registry.counter(declared).add()
        with pytest.raises(ValueError):
            registry.counter(typo)

    def test_missing_alphabet_flagged(self, monkeypatch):
        monkeypatch.delattr(names, "METRIC_NAMES")
        with pytest.raises(AttributeError, match="METRIC_NAMES"):
            dead_names()

    def test_silent_without_names_module(self):
        # Off costs nothing: with no registry installed nothing is
        # created, so nothing is checked.
        assert obs_registry.active() is None
        obs_registry.emit("cache.storse")

    def test_obs_package_in_determinism_scope(self):
        # Satellite guarantee: repro.obs itself is held to RPR001, so
        # only the audited clock shim may read wall time.
        bad = mod("import time\nt = time.perf_counter()\n",
                  name="repro.obs.registry")
        found = run_module(DeterminismChecker(), bad)
        assert len(found) == 1 and "wall-clock" in found[0].message
