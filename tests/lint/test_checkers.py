"""The retired lint codes' fixtures, planted in real code.

Every code the linter had is retired (docs/DEVELOPING.md, "Retired"
sections).  Each former fixture keeps its test id here: its defect is
seeded into the real objects, a real module or a real function, and the
check that replaced the checker is shown catching it — or passing, for
a clean twin.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import experiments
from repro.core import protocols, simulator, step
from repro.core.clock import days, hours
from repro.core.protocols import (
    CERNPolicyProtocol,
    InvalidationProtocol,
    TTLProtocol,
)
from repro.core.simulator import SimulatorMode
from repro.fastpath import specialise
from repro.faults import FaultPlan
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
from tests.lint.conftest import oracle_cell
from tests.verify import test_oracle
from tests.verify.test_contract_surface import (
    check_one_event_alphabet,
    event_kinds_over_the_matrix,
)


def cern():
    """CERN as the oracle's agreement matrix builds it: the Last-Modified
    fraction, a default TTL, and the max-TTL clamp."""
    return CERNPolicyProtocol(0.1, hours(1), max_ttl=days(2))


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


# -- retired: RPR002 units ---------------------------------------------------
#
# Each former fixture's mix is planted at a real site of repro.core or
# repro.fastpath, and one small oracle cell fails on it: the SpecModel
# leg (``spec.*``) and the fast-vs-reference leg (``fastpath.*``) diff
# all 13 counters and 15 ledger cells exactly.


class TestUnits:
    def test_additive_mix_flagged(self, plant):
        # body_bytes + elapsed_seconds: a 200's body charged with the
        # seconds since the copy was last validated added on.
        plant(step.RequestStep, "validated",
              "charge(VALIDATION_200, control, body)",
              "charge(VALIDATION_200, control, body + t - entry.validated_at)")
        assert "spec.bandwidth.body_bytes[validation_200]" in oracle_cell(
            TTLProtocol(hours(24)))

    def test_augmented_mix_and_comparison_flagged(self, plant):
        # total_bytes += stale_seconds: the copy's age (seconds) added to
        # the byte cell of the GET that fetched it.  And stale_seconds >
        # request_count: the copy's version (a count of modifications)
        # compared with the seconds since it was validated.  Each plant
        # moves its own cells.
        plant(step.RequestStep, "fetched",
              "self.counters.full_retrievals += 1",
              "self.counters.full_retrievals += 1\n"
              "self.bandwidth.body_bytes[FULL_RETRIEVAL] += "
              "t - result.last_modified")
        plant(simulator.Simulation, "step",
              "stale = entry.version < schedule.version_at(t)",
              "stale = entry.version < t - entry.validated_at")
        assert {"spec.bandwidth.body_bytes[full_retrieval]",
                "fastpath.bandwidth.body_bytes[full_retrieval]",
                "spec.counters.stale_hits",
                "fastpath.counters.stale_hits"} <= oracle_cell(
            TTLProtocol(hours(24)))

    def test_same_unit_and_conversions_clean(self, plant):
        # header_bytes + body_bytes, and seconds = fraction * seconds
        # written the other way round: the same values.
        plant(step.RequestStep, "fetched",
              "self.bandwidth.charge(FULL_RETRIEVAL, control, body)",
              "total_bytes = control + body\n"
              "self.bandwidth.charge(FULL_RETRIEVAL, control, "
              "total_bytes - control)")
        plant(CERNPolicyProtocol, "_derive_expiry",
              "ttl = self.lm_fraction * age", "ttl = age * self.lm_fraction")
        assert oracle_cell(TTLProtocol(hours(24))) == set()
        assert oracle_cell(cern()) == set()

    def test_delay_s_suffix_in_augmented_assignment(self, plant):
        # total_bytes += delay_s: a delayed notice's delay (seconds)
        # added to the invalidation byte cell when it arrives.
        plant(step.RequestStep, "fault",
              "if kind == DELIVER:",
              "if kind == DELIVER:\n"
              "    delay_s = action.time - action.mod_time\n"
              "    self.bandwidth.control_bytes[INVALIDATION] += delay_s")
        assert "spec.bandwidth.control_bytes[invalidation]" in oracle_cell(
            InvalidationProtocol(), FaultPlan(delay=hours(2), seed=4))

    def test_min_max_mixing_units(self, plant, plant_kernel):
        # min(seconds, bytes): CERN's max-TTL clamp against the body size.
        # The fast path cannot lower entry.size, so it keeps the kernel
        # it specialised from the shipped clamp before the plant.
        specialise.specialise(CERNPolicyProtocol)
        plant(CERNPolicyProtocol, "_derive_expiry",
              "ttl = min(ttl, self.max_ttl)", "ttl = min(ttl, entry.size)")
        # max(count, seconds, 0): the kernel charges the invalidation
        # body cell the larger of the notice count and the run's length.
        plant_kernel("(INVALIDATION, ex_inv, control_message, 0)",
                     "(INVALIDATION, ex_inv, control_message, "
                     "max(ex_inv, horizon - st, 0))")
        assert {"spec.counters.hits", "fastpath.counters.hits"} <= (
            oracle_cell(cern()))
        assert oracle_cell(InvalidationProtocol()) == {
            "fastpath.bandwidth.body_bytes[invalidation]"}

    def test_min_max_agreeing_units_propagate(self, plant_kernel):
        # min(bytes, bytes) is bytes, and bytes + seconds is a mix: the
        # kernel adds a body's size to each stale hit's age.
        plant_kernel("stale_age_sum += age_stale",
                     "stale_age_sum += min(sizes[i], full_control) + "
                     "age_stale")
        assert oracle_cell(TTLProtocol(hours(24))) == {
            "fastpath.counters.stale_age_sum"}

    def test_min_max_of_unknowns_is_clean(self, plant):
        # min() of two seconds values, arguments swapped: the same clamp.
        plant(CERNPolicyProtocol, "_derive_expiry",
              "ttl = min(ttl, self.max_ttl)", "ttl = min(self.max_ttl, ttl)")
        assert oracle_cell(cern()) == set()


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
