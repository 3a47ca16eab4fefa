"""Fixture tests: every RPR checker fires on a seeded-bad snippet.

Each test builds a tiny in-memory project (``ModuleInfo.from_source``
with an explicit dotted name, so scoping rules apply) containing one
deliberate violation, asserts the checker reports it, and asserts the
corrected twin stays clean.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.units import UnitFlow, UnitsChecker
from repro.lint.checkers.conformance import ConformanceChecker
from repro.lint.checkers.alphabets import (
    EventExhaustivenessChecker,
    ObsNameChecker,
)
from repro.lint.checkers.hygiene import HygieneChecker
from repro.lint.project import ModuleInfo, Project


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


# -- RPR003 conformance -------------------------------------------------------


_PROTO_BASE = """
    import abc

    class ConsistencyProtocol(abc.ABC):
        @property
        @abc.abstractmethod
        def name(self): ...

        @abc.abstractmethod
        def is_fresh(self, entry, t): ...
"""

_SPEC_WITH = """
    def rule_for(protocol):
        kind = type(protocol)
        if kind is GoodProtocol:
            return object()
        return None
"""


class TestConformance:
    checker = ConformanceChecker()

    def _fixture(self, *, exported: bool, dispatched: bool,
                 with_is_fresh: bool = True):
        body = "    @property\n    def name(self):\n        return 'good'\n"
        if with_is_fresh:
            body += "    def is_fresh(self, entry, t):\n        return True\n"
        proto = mod(
            textwrap.dedent(_PROTO_BASE)
            + "\nclass GoodProtocol(ConsistencyProtocol):\n" + body,
            name="repro.core.protocols.good",
        )
        init = mod(
            "__all__ = ['GoodProtocol']\n" if exported else "__all__ = []\n",
            name="repro.core.protocols",
        )
        spec = mod(
            _SPEC_WITH if dispatched else "def rule_for(protocol):\n"
            "    return None\n",
            name="repro.verify.spec",
        )
        return proto, init, spec

    def test_conforming_protocol_clean(self):
        found = run_project(
            self.checker, *self._fixture(exported=True, dispatched=True)
        )
        assert found == []

    def test_missing_hook_flagged(self):
        found = run_project(
            self.checker,
            *self._fixture(exported=True, dispatched=True,
                           with_is_fresh=False),
        )
        assert len(found) == 1
        assert found[0].code == "RPR003"
        assert "is_fresh" in found[0].message

    def test_unexported_protocol_flagged(self):
        found = run_project(
            self.checker, *self._fixture(exported=False, dispatched=True)
        )
        assert len(found) == 1 and "__all__" in found[0].message

    def test_missing_spec_rule_flagged(self):
        found = run_project(
            self.checker, *self._fixture(exported=True, dispatched=False)
        )
        assert len(found) == 1 and "rule_for" in found[0].message

    def test_unregistered_experiment_flagged(self):
        registry = mod(
            "from repro.experiments import table1\n"
            "_MODULES = (table1,)\n",
            name="repro.experiments.registry",
        )
        orphan = mod(
            "EXPERIMENT_ID = 'figure9'\n", name="repro.experiments.figure9"
        )
        listed = mod(
            "EXPERIMENT_ID = 'table1'\n", name="repro.experiments.table1"
        )
        found = run_project(self.checker, registry, orphan, listed)
        assert len(found) == 1
        assert "figure9" in found[0].message
        assert "_MODULES" in found[0].message


# -- RPR004 oracle exhaustiveness ---------------------------------------------


def _simulator(kinds: str, emits: list) -> ModuleInfo:
    lines = [f"EVENT_KINDS: tuple = ({kinds})", "", "class Simulation:",
             "    def run(self):"]
    for k in emits:
        lines.append(f"        self.on_event({k!r}, 1.0)")
    if not emits:
        lines.append("        pass")
    return ModuleInfo.from_source(
        "\n".join(lines) + "\n", name="repro.core.step"
    )


def _spec(replays: list) -> ModuleInfo:
    lines = ["class SpecModel:", "    def run(self):", "        pass"]
    for k in replays:
        lines.append(f"    def on_{k}(self):")
        lines.append(f"        self.events.append(({k!r}, 1.0))")
    return ModuleInfo.from_source(
        "\n".join(lines) + "\n", name="repro.verify.spec"
    )


class TestEventExhaustiveness:
    checker = EventExhaustivenessChecker()

    def test_matching_alphabets_clean(self):
        sim = _simulator("'hit', 'miss'", ["hit", "miss"])
        spec = _spec(["hit", "miss"])
        assert run_project(self.checker, sim, spec) == []

    def test_undeclared_emission_flagged(self):
        sim = _simulator("'hit',", ["hit", "miss"])
        found = run_project(self.checker, sim, _spec(["hit", "miss"]))
        assert any(
            "'miss'" in d.message and "not declared" in d.message
            for d in found
        )

    def test_dead_alphabet_entry_flagged(self):
        sim = _simulator("'hit', 'miss'", ["hit"])
        found = run_project(self.checker, sim, _spec(["hit"]))
        assert any("never emits" in d.message for d in found)

    def test_spec_missing_handler_flagged(self):
        sim = _simulator("'hit', 'miss'", ["hit", "miss"])
        found = run_project(self.checker, sim, _spec(["hit"]))
        assert len(found) == 1
        assert found[0].code == "RPR004"
        assert "no handler" in found[0].message

    def test_both_arms_of_a_conditional_kind_are_emissions(self):
        step = ModuleInfo.from_source(
            "EVENT_KINDS = ('hit', 'stale_hit')\n"
            "class RequestStep:\n"
            "    def hit(self, stale):\n"
            "        self.on_event('stale_hit' if stale else 'hit', 1.0)\n",
            name="repro.core.step",
        )
        spec = _spec(["hit", "stale_hit"])
        assert run_project(self.checker, step, spec) == []

    def test_spec_alien_event_flagged(self):
        sim = _simulator("'hit',", ["hit"])
        found = run_project(self.checker, sim, _spec(["hit", "warp"]))
        assert len(found) == 1
        assert "'warp'" in found[0].message


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


# -- RPR006 observability names -----------------------------------------------


NAMES_SOURCE = """
METRIC_NAMES = ("cache.stores", "engine.tasks")
SPAN_NAMES = ("engine.task",)
TRACE_MARK_NAMES = ()
"""

MARK_NAMES_SOURCE = """
METRIC_NAMES = ("cache.stores",)
SPAN_NAMES = ()
TRACE_MARK_NAMES = ("live.trace.send", "live.trace.recv")
"""


def obs_names_module(source: str = NAMES_SOURCE) -> ModuleInfo:
    return mod(source, name="repro.obs.names",
               path="src/repro/obs/names.py")


class TestObsNames:
    checker = ObsNameChecker()

    def test_declared_and_live_names_clean(self):
        user = mod(
            """
            from repro.obs import registry as obs_metrics
            from repro.obs import trace as obs_trace

            obs_metrics.emit("cache.stores")
            obs_metrics.emit("engine.tasks", 2.0)
            obs_trace.span("engine.task", 0.5, index=3)
            """,
            name="repro.core.cache",
        )
        assert run_project(self.checker, obs_names_module(), user) == []

    def test_undeclared_metric_name_flagged(self):
        user = mod(
            'emit("cache.stores")\nemit("cache.storse")\n'
            'emit("engine.tasks")\n'
            'span("engine.task", 0.1)\nspan("engine.tsak", 0.1)\n',
            name="repro.core.cache",
        )
        found = run_project(self.checker, obs_names_module(), user)
        messages = sorted(d.message for d in found)
        assert len(found) == 2
        assert "'cache.storse'" in messages[0]
        assert "'engine.tsak'" in messages[1]

    def test_undeclared_mark_kind_flagged(self):
        user = mod(
            'emit("cache.stores")\n'
            'mark("live.trace.send", "r0", 1.0)\n'
            'mark("live.trace.recv", "r0", 1.1)\n'
            'mark("live.trace.sned", "r0", 1.2)\n',
            name="repro.live.driver",
        )
        found = run_project(
            self.checker, obs_names_module(MARK_NAMES_SOURCE), user
        )
        assert len(found) == 1
        assert "'live.trace.sned'" in found[0].message
        assert "TRACE_MARK_NAMES" in found[0].message

    def test_dead_mark_entry_flagged(self):
        user = mod(
            'emit("cache.stores")\n'
            'mark("live.trace.send", "r0", 1.0)\n',
            name="repro.live.driver",
        )
        found = run_project(
            self.checker, obs_names_module(MARK_NAMES_SOURCE), user
        )
        assert len(found) == 1
        assert "'live.trace.recv'" in found[0].message
        assert "dead alphabet" in found[0].message

    def test_missing_mark_alphabet_flagged(self):
        source = (
            'METRIC_NAMES = ("cache.stores",)\nSPAN_NAMES = ()\n'
        )
        user = mod('emit("cache.stores")\n', name="repro.core.cache")
        found = run_project(
            self.checker, obs_names_module(source), user
        )
        assert len(found) == 1
        assert "TRACE_MARK_NAMES" in found[0].message

    def test_dead_alphabet_entry_flagged(self):
        user = mod('emit("cache.stores")\nspan("engine.task", 0.1)\n',
                   name="repro.core.cache")
        found = run_project(self.checker, obs_names_module(), user)
        assert len(found) == 1
        assert "'engine.tasks'" in found[0].message
        assert "dead alphabet" in found[0].message

    def test_table_driven_names_stay_live(self):
        # Names emitted through a variable stay live via the dict
        # literal holding them (the EVENT_METRICS pattern in trace.py).
        user = mod(
            """
            TABLE = {"evt": "engine.tasks"}
            def tee(kind):
                emit(TABLE[kind])
            emit("cache.stores")
            span("engine.task", 0.1)
            """,
            name="repro.obs.trace",
        )
        assert run_project(self.checker, obs_names_module(), user) == []

    def test_variable_first_argument_ignored(self):
        user = mod(
            'name = "anything"\nemit(name)\nspan(name, 0.2)\n'
            'emit("cache.stores")\nemit("engine.tasks")\n'
            'span("engine.task", 0.1)\n',
            name="repro.core.cache",
        )
        assert run_project(self.checker, obs_names_module(), user) == []

    def test_missing_alphabet_flagged(self):
        user = mod('emit("cache.stores")\n', name="repro.core.cache")
        found = run_project(
            self.checker, obs_names_module("x = 1\n"), user
        )
        assert len(found) == 1
        assert "METRIC_NAMES" in found[0].message

    def test_silent_without_names_module(self):
        user = mod('emit("cache.storse")\n', name="repro.core.cache")
        assert run_project(self.checker, user) == []

    def test_obs_package_in_determinism_scope(self):
        # Satellite guarantee: repro.obs itself is held to RPR001, so
        # only the audited clock shim may read wall time.
        bad = mod("import time\nt = time.perf_counter()\n",
                  name="repro.obs.registry")
        found = run_module(DeterminismChecker(), bad)
        assert len(found) == 1 and "wall-clock" in found[0].message
