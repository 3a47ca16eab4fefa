"""Fixture tests: every RPR checker fires on a seeded-bad snippet.

Each test builds a tiny in-memory project (``ModuleInfo.from_source``
with an explicit dotted name, so scoping rules apply) containing one
deliberate violation, asserts the checker reports it, and asserts the
corrected twin stays clean.  The retired codes' classes (RPR001,
RPR003, RPR004, RPR005, RPR006) seed the same defects into the real
objects instead, and show the checks that replaced those checkers
catching them.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import experiments
from repro.core import protocols, step
from repro.core.protocols import CERNPolicyProtocol
from repro.core.simulator import SimulatorMode
from repro.lint.checkers.units import UnitFlow, UnitsChecker
from repro.lint.project import ModuleInfo, Project
from repro.obs import clock as obs_clock
from repro.obs import names
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.obs.trace import EVENT_METRICS
from repro.verify import UnsupportedProtocolError, oracle, spec
from tests.core.test_protocol_registry import check_protocol_classes
from tests.experiments.test_registry import check_experiment_modules
from tests.obs.test_names import dead_names, source_constants
from tests.test_loaded_code import (
    entropy_globals,
    mutable_defaults,
    shadowed_builtins,
)
from tests.verify import test_oracle
from tests.verify.test_contract_surface import (
    check_one_event_alphabet,
    event_kinds_over_the_matrix,
)


def mod(source: str, name: str, path: str = "fixture.py") -> ModuleInfo:
    return ModuleInfo.from_source(
        textwrap.dedent(source), path=path, name=name
    )


def run_project(checker, *modules: ModuleInfo):
    return list(checker.check_project(Project(list(modules))))


@pytest.fixture
def seed_module(tmp_path, monkeypatch):
    """``seed(package, name, source)`` adds ``package.name`` to a real
    package for one test and returns it imported."""
    added = []

    def seed(package, name, source):
        (tmp_path / f"{name}.py").write_text(textwrap.dedent(source))
        monkeypatch.setattr(package, "__path__", [*package.__path__,
                                                  str(tmp_path)])
        added.append(f"{package.__name__}.{name}")
        return importlib.import_module(added[-1])

    yield seed
    for module in added:
        sys.modules.pop(module, None)
        package, _, name = module.rpartition(".")
        vars(sys.modules[package]).pop(name, None)


# -- retired: RPR001 determinism ---------------------------------------------
#
# Each former fixture is planted in a real scoped package.  The namespace
# rule (tests/test_loaded_code.py) refuses a bound entropy module or
# function, the tripwire (tests/conftest.py) an entropy call, and set
# order shows as counters that move with PYTHONHASHSEED.

#: One bounded-LRU Alex run per order, with ``Cache.preload_from``
#: walking ``ORDER(server.histories())``: the preload order decides
#: which quarter of the population the LRU keeps.
HASH_ORDER_RUN = """
import inspect, textwrap
from repro.core import Cache, SimulatorMode, cache, simulate
from repro.core.protocols import AlexProtocol
from repro.workload import MicrosoftProxyWorkload

source = textwrap.dedent(inspect.getsource(Cache.preload_from))
planted = source.replace(
    "for oid, history in server.histories().items():",
    "for oid in ORDER(server.histories()):\\n"
    "        history = server.histories()[oid]")
assert planted != source
workload = MicrosoftProxyWorkload(
    sites=5, files_per_site=40, requests=3000, seed=0).build()
population = sum(h.obj.size for h in workload.histories if h.obj.cacheable)
for order in ("set", "sorted"):
    namespace = {}
    exec(planted.replace("ORDER", order), vars(cache), namespace)
    Cache.preload_from = namespace["preload_from"]
    result = simulate(
        workload.server(), AlexProtocol.from_percent(20), workload.requests,
        SimulatorMode.OPTIMIZED, cache=Cache(capacity_bytes=population // 4),
        preload=True, end_time=workload.duration)
    print(order, result.counters)
"""


def hash_order_counters(hash_seed: str) -> dict[str, str]:
    """``HASH_ORDER_RUN``'s counters per order under one hash seed."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", HASH_ORDER_RUN], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    return dict(line.split(" ", 1) for line in out.splitlines())


class TestDeterminism:
    def test_global_random_call_flagged_in_core(self, seed_module):
        bad = seed_module(repro.core, "bad", """
            import random

            def jitter():
                return random.random()
        """)
        assert entropy_globals(bad) == [
            "repro.core.bad.random is the random module"]

    def test_seeded_random_and_out_of_scope_clean(self, seed_module):
        # Stricter than the AST rule: the scoped packages draw from numpy
        # Generators and repro.faults' counter RNG only, so a seeded
        # random.Random is refused too.
        seeded = seed_module(repro.core, "ok", """
            import random

            def jitter(seed):
                return random.Random(seed).random()
        """)
        assert entropy_globals(seeded) != []
        # The same binding outside the scoped packages is allowed
        # (instrumentation may read clocks).
        elsewhere = seed_module(repro.runtime, "clocked",
                                "import time\nt = time.time()\n")
        assert entropy_globals(elsewhere) == []

    def test_unseeded_default_rng_flagged_seeded_ok(self, seed_module):
        bad = seed_module(repro.workload, "bad", """
            import numpy as np

            def draw():
                return np.random.default_rng().random()
        """)
        with pytest.raises(AssertionError,
                           match="repro.workload.bad called numpy.random"):
            bad.draw()

        good = seed_module(repro.workload, "ok", """
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).random()
        """)
        assert good.draw(3) == np.random.default_rng(3).random()
        np.random.default_rng().random()  # out of scope: this module

    def test_legacy_numpy_global_api_flagged(self, seed_module):
        with pytest.raises(AssertionError, match="numpy.random.rand"):
            seed_module(repro.verify, "bad",
                        "import numpy as np\nx = np.random.rand(3)\n")

    def test_ambient_entropy_call_flagged(self, seed_module):
        bad = seed_module(repro.workload, "token", """
            import os

            def token():
                return os.urandom(4)
        """)
        with pytest.raises(AssertionError, match="os.urandom"):
            bad.token()
        assert len(os.urandom(4)) == 4  # out of scope: this module

    def test_wall_clock_read_flagged(self, seed_module):
        bad = seed_module(repro.core, "clockish", """
            import time

            def stamp():
                return time.time()
        """)
        assert entropy_globals(bad) == [
            "repro.core.clockish.time is the time module"]

    def test_set_iteration_flagged_sorted_ok(self):
        # Hash seeds 1 and 2 order these object ids differently (2 and
        # 3 happen not to), so the pair is pinned.
        one, two = hash_order_counters("1"), hash_order_counters("2")
        assert one["set"] != two["set"]
        assert one["sorted"] == two["sorted"]

    def test_import_from_random_flagged(self, seed_module):
        bad = seed_module(repro.workload, "imports",
                          "from random import shuffle\n")
        assert entropy_globals(bad) == [
            "repro.workload.imports.shuffle is random.Random.shuffle"]


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


# -- retired: RPR005 hygiene --------------------------------------------------


def shadowed(module) -> list[str]:
    """The builtin names ``shadowed_builtins`` reports for ``module``."""
    return re.findall(r"binds '(\w+)'", "\n".join(shadowed_builtins(module)))


class TestHygiene:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()",
                                         "dict()"])
    def test_mutable_default_flagged(self, default, seed_module):
        bad = seed_module(repro.core, "bad",
                          f"def f(x, acc={default}):\n    return acc\n")
        (found,) = mutable_defaults(bad)
        assert found.startswith("repro.core.bad.f() defaults to a shared")

    def test_none_default_clean(self, seed_module):
        good = seed_module(repro.core, "ok", """
            def f(x, acc=None):
                acc = acc or []
                return acc
        """)
        assert mutable_defaults(good) == shadowed_builtins(good) == []

    def test_shadowed_builtin_assignment_flagged(self, seed_module):
        bad = seed_module(repro.core, "bad", "list = [1, 2]\n")
        assert shadowed(bad) == ["list"]

    def test_shadowed_builtin_param_and_loop_flagged(self, seed_module):
        bad = seed_module(repro.core, "bad", """
            def f(id):
                for type in range(3):
                    pass
        """)
        assert shadowed(bad) == ["id", "type"]

    def test_loaded_code_variants_flagged(self, seed_module):
        # Forms the AST rule listed node type by node type.
        bad = seed_module(repro.core, "bad", """
            class Box:
                def put(self, *, into={}):
                    try:
                        return [len for len in into]
                    except KeyError as hash:
                        return hash
        """)
        assert mutable_defaults(bad) == [
            "repro.core.bad.Box.put() defaults to a shared dict"]
        assert sorted(shadowed(bad)) == ["hash", "len"]

    def test_domain_names_not_flagged(self, seed_module):
        good = seed_module(repro.core, "ok", """
            size_bytes = 10
            request_count = 2
            entry_id = 'x'

            def set(): pass

            class type: pass
        """)
        assert mutable_defaults(good) == shadowed_builtins(good) == []


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

    def test_obs_package_in_determinism_scope(self, monkeypatch):
        # repro.obs itself is held to RPR001's scope: only the audited
        # clock shim may bind time.
        assert entropy_globals(obs_clock) == entropy_globals(
            obs_registry) == []
        monkeypatch.setattr(obs_registry, "time", time, raising=False)
        monkeypatch.setattr(obs_registry, "perf_counter", time.perf_counter,
                            raising=False)
        assert entropy_globals(obs_registry) == [
            "repro.obs.registry.time is the time module",
            "repro.obs.registry.perf_counter is time.perf_counter"]
