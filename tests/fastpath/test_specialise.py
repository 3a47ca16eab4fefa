"""Adding a protocol is one class; what cannot be lowered is a reason.

Every protocol here is defined in this file only — nothing under
``src/`` knows them.  The ones inside the specialiser's subset must
reach the fast path and replay byte-identically to the reference run
*of the same class*; each one outside it must be refused with a reason
string, never run on a partially specialised kernel.
"""

from __future__ import annotations

import inspect
import linecache
import math
import re
import traceback

import pytest

from repro.core.clock import hours
from repro.core.protocols import (
    AlexProtocol,
    InvalidationProtocol,
    PollEveryRequestProtocol,
    TTLProtocol,
)
from repro.core.simulator import Simulation, SimulatorMode, simulate
from repro.fastpath import (
    UnsupportedFastPathError,
    compile_protocol,
    diff_events,
    diff_metrics,
    diff_results,
    engine_simulate,
    fast_simulate,
    set_engine,
    unsupported_reason,
)
from repro.fastpath import specialise as specialiser
from repro.obs import registry as obs_registry

from .test_identity import PLANS


class SoftTTL(TTLProtocol):
    """Soft-TTL-shaped: a copy that changed within the last TTL before
    its validation is trusted for a fraction of the TTL only."""

    def __init__(self, ttl: float, soft_fraction: float) -> None:
        super().__init__(ttl)
        self.soft_fraction = float(soft_fraction)

    def is_fresh(self, entry, now):
        if entry.validated_at - entry.last_modified < self.ttl:
            return (now - entry.validated_at) < self.soft_fraction * self.ttl
        return super().is_fresh(entry, now)


class SloppyTTL(TTLProtocol):
    """Serves anything it holds: the subclass's rule, not its parent's."""

    def is_fresh(self, entry, now):
        return True


class StampedInvalidation(InvalidationProtocol):
    """Eager callbacks plus a stamp ``is_fresh`` reads: the push must run
    ``on_stored`` or the copy it delivers expires on the old stamp."""

    def __init__(self, window: float) -> None:
        super().__init__(eager=True)
        self.window = float(window)

    def is_fresh(self, entry, now):
        return entry.valid and now < entry.expires_at

    def on_stored(self, entry, now):
        entry.expires_at = now + self.window


LOCAL_PROTOCOLS = [
    ("soft-ttl", lambda: SoftTTL(hours(24), 0.25)),
    ("sloppy-ttl", lambda: SloppyTTL(hours(1))),
    ("stamped-eager", lambda: StampedInvalidation(hours(12))),
]

LOCAL_PLANS = [
    (name, plan) for name, plan in PLANS
    if name in ("no-plan", "loss+retries", "crashes")
]


def compare(workload, make_protocol, mode, *, charge, preload, faults=None,
            kinds=None):
    """Fast vs reference — results, events, metrics — for one class."""
    server = workload.server()
    ref_events: list = []
    with obs_registry.installed(obs_registry.MetricsRegistry()) as ref_metrics:
        reference = Simulation(
            server, make_protocol(), mode, preload=preload,
            charge_per_modification=charge, faults=faults,
            observer=lambda kind, t, oid: ref_events.append((kind, t, oid)),
        ).run(workload.requests, end_time=workload.duration)
    fast_events: list = []
    with obs_registry.installed(obs_registry.MetricsRegistry()) as fast_metrics:
        fast = fast_simulate(
            server, make_protocol(), workload.requests, mode,
            preload=preload, charge_per_modification=charge,
            end_time=workload.duration, faults=faults,
            observer=lambda kind, t, oid: fast_events.append((kind, t, oid)),
        )
    if kinds is not None:
        kinds.update(kind for kind, _, _ in fast_events)
    return (
        diff_results(fast, reference)
        + diff_events(fast_events, ref_events)
        + diff_metrics(fast_metrics.as_dict(), ref_metrics.as_dict())
    )


class TestOneClass:
    @pytest.mark.parametrize(
        "name,make_protocol", LOCAL_PROTOCOLS,
        ids=[n for n, _ in LOCAL_PROTOCOLS],
    )
    def test_runs_on_the_fast_engine(self, mixed_workload, name, make_protocol):
        set_engine("fast")
        assert unsupported_reason(make_protocol()) is None
        with obs_registry.installed(obs_registry.MetricsRegistry()) as reg:
            engine_simulate(
                mixed_workload.server(), make_protocol(),
                mixed_workload.requests, end_time=mixed_workload.duration,
            )
        assert reg.counter("engine.fastpath_runs").value == 1.0
        assert reg.counter("engine.fastpath_fallbacks").value == 0.0

    @pytest.mark.parametrize(
        "name,make_protocol", LOCAL_PROTOCOLS,
        ids=[n for n, _ in LOCAL_PROTOCOLS],
    )
    @pytest.mark.parametrize("plan_name,plan", LOCAL_PLANS,
                             ids=[n for n, _ in LOCAL_PLANS])
    @pytest.mark.parametrize("mode", list(SimulatorMode),
                             ids=[m.value for m in SimulatorMode])
    @pytest.mark.parametrize("charge", [True, False],
                             ids=["per-mod", "per-inval"])
    @pytest.mark.parametrize("preload", [True, False],
                             ids=["preload", "cold"])
    def test_identical_to_its_own_reference_run(
        self, mixed_workload, workload, name, make_protocol, plan_name, plan,
        mode, charge, preload,
    ):
        for population in (mixed_workload, workload):
            assert compare(
                population, make_protocol, mode, charge=charge,
                preload=preload, faults=plan,
            ) == []

    def test_the_subclass_rule_is_the_one_that_runs(self, workload):
        # Not its parent's: a TTL kernel would revalidate after an hour.
        fast = fast_simulate(
            workload.server(), SloppyTTL(hours(1)), workload.requests,
            end_time=workload.duration,
        )
        assert fast.counters.validations == 0
        assert fast.counters.stale_hits > 0

    def test_the_eager_push_restamps(self, workload):
        """The push stores, so it runs ``on_stored``: the pushed copy
        lives ``window`` from the push, not from the store before it."""
        kinds: set = set()
        for charge in (True, False):
            assert compare(
                workload, lambda: StampedInvalidation(hours(12)),
                SimulatorMode.OPTIMIZED, charge=charge,
                preload=True, kinds=kinds,
            ) == []
        # Pushes happened, and copies outlived their stamp afterwards.
        assert {"prefetch", "validation_304"} <= kinds


class WritesSelf(TTLProtocol):
    def is_fresh(self, entry, now):
        self.last_asked = now
        return super().is_fresh(entry, now)


class TunesOnValidation(TTLProtocol):
    def on_validation_result(self, entry, now, was_modified):
        pass


class Loops(TTLProtocol):
    def is_fresh(self, entry, now):
        for _ in range(2):
            pass
        return super().is_fresh(entry, now)


class CallsOut(TTLProtocol):
    def is_fresh(self, entry, now):
        return math.isfinite(now) and super().is_fresh(entry, now)


class ReadsSize(TTLProtocol):
    def is_fresh(self, entry, now):
        return entry.size < 1000


class NeverStamped(PollEveryRequestProtocol):
    def is_fresh(self, entry, now):
        if entry.expires_at is None:
            return False
        return now < entry.expires_at


class SometimesStamped(NeverStamped):
    def on_stored(self, entry, now):
        if entry.server_expires is not None:
            entry.expires_at = entry.server_expires


_EXEC_SCOPE: dict = {"TTLProtocol": TTLProtocol}
exec(
    "class ExecBuilt(TTLProtocol):\n"
    "    def is_fresh(self, entry, now):\n"
    "        return True\n",
    _EXEC_SCOPE,
)

REFUSED = [
    (lambda: WritesSelf(hours(1)), "uses `self.last_asked = now`"),
    (lambda: TunesOnValidation(hours(1)), "overrides on_validation_result"),
    (lambda: Loops(hours(1)), "uses `for _ in range(2):`"),
    (lambda: CallsOut(hours(1)), "math.isfinite(now)"),
    (lambda: ReadsSize(hours(1)), "entry.size, which has no state array"),
    (NeverStamped, "on_stored does not stamp on every path"),
    (SometimesStamped, "on_stored does not stamp on every path"),
    (lambda: _EXEC_SCOPE["ExecBuilt"](hours(1)), "source of is_fresh is not"),
]


class TestRefusals:
    @pytest.mark.parametrize(
        "make_protocol,detail", REFUSED,
        ids=[type(make()).__name__ for make, _ in REFUSED],
    )
    def test_refused_with_a_reason_and_run_on_the_reference(
        self, mixed_workload, make_protocol, detail
    ):
        name = type(make_protocol()).__name__
        reason = unsupported_reason(make_protocol())
        assert reason.startswith(f"protocol {name} has no compiled kernel (")
        assert detail in reason
        # Never a partially specialised kernel: nothing to run at all.
        assert compile_protocol(make_protocol()) is None
        assert isinstance(
            specialiser.specialise(type(make_protocol())), str)
        server = mixed_workload.server()
        with pytest.raises(UnsupportedFastPathError, match="no compiled"):
            fast_simulate(server, make_protocol(), mixed_workload.requests)
        set_engine("fast")
        with obs_registry.installed(obs_registry.MetricsRegistry()) as reg:
            dispatched = engine_simulate(
                server, make_protocol(), mixed_workload.requests,
                end_time=mixed_workload.duration,
            )
        expected = simulate(
            server, make_protocol(), mixed_workload.requests,
            end_time=mixed_workload.duration,
        )
        assert diff_results(dispatched, expected) == []
        assert reg.counter("engine.fastpath_fallbacks").value == 1.0
        assert reg.counter("engine.fastpath_runs").value == 0.0

    def test_what_varies_per_instance_is_checked_per_instance(self):
        # The kernel is per class; an instance it would misrepresent is
        # refused, its siblings are not.
        odd = TTLProtocol(hours(1))
        odd.ttl = "1h"
        assert "self.ttl is not a number" in unsupported_reason(odd)
        listening = TTLProtocol(hours(1))
        listening.wants_invalidations = True
        assert "wants_invalidations differs" in unsupported_reason(listening)
        assert unsupported_reason(TTLProtocol(hours(1))) is None


class TestGeneratedCode:
    def test_the_filled_in_source_is_what_tools_show(self, workload):
        kernel = compile_protocol(AlexProtocol.from_percent(10))[0]
        filename = kernel.__code__.co_filename
        assert filename == (
            "<repro.fastpath kernel repro.core.protocols.alex.AlexProtocol>"
        )
        linecache.checkcache()  # a pseudo-file must survive the sweep
        assert filename in linecache.cache
        source = inspect.getsource(kernel)
        assert "fresh = t - validated_at[i] < p0 * _age_0" in source
        assert not re.search(r"^ *(\w+ = )?(is_fresh|on_stored)\(", source, re.M)
        # A traceback through the kernel quotes the generated line.
        try:
            fast_simulate(
                workload.server(), AlexProtocol.from_percent(10),
                workload.requests, end_time=0.0,
            )
        except ValueError:
            rendered = traceback.format_exc()
        assert f'File "{filename}"' in rendered
        assert "raise ValueError(" in rendered

    def test_one_kernel_per_class_parameters_per_run(self, monkeypatch):
        built = []
        real_build = specialiser.build

        def counting_build(cls, source=None):
            built.append(cls)
            return real_build(cls, source)

        monkeypatch.setattr(specialiser, "build", counting_build)
        specialiser._KERNELS.pop(AlexProtocol, None)
        sweep = [
            compile_protocol(AlexProtocol.from_percent(5 * k))
            for k in range(21)
        ]
        assert built == [AlexProtocol]
        assert len({id(kind) for kind, *_ in sweep}) == 1
        assert [p0 for _, p0, *_ in sweep] == [
            5 * k / 100.0 for k in range(21)
        ]
