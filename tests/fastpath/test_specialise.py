"""Adding a protocol is one class; what cannot be lowered is a reason.

Every protocol here is defined in this file only — nothing under
``src/`` knows them.  The ones inside the specialiser's subset must
reach the fast path and replay byte-identically to the reference run
*of the same class*; each one outside it must be refused with a reason
string, never run on a partially specialised kernel.
"""

from __future__ import annotations

import dis
import inspect
import linecache
import math
import re
import traceback

import pytest

from repro.core.cache import Cache
from repro.core.clock import hours
from repro.core.replacement import FIFOPolicy
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    ExpiresTTLProtocol,
    InvalidationProtocol,
    LeasedInvalidationProtocol,
    PollEveryRequestProtocol,
    SelfTuningProtocol,
    TTLProtocol,
)
from repro.core.simulator import Simulation, SimulatorMode, simulate
from repro.faults import FaultPlan
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
from repro.obs import trace as obs_trace

from .test_identity import PLANS, cache_state


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


class ListeningTTL(TTLProtocol):
    """A TTL that takes the server's feed: a hit keeps an invalidated copy,
    which may be stale."""

    wants_invalidations = True


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


class TunesOnValidation(TTLProtocol):
    """A per-type TTL doubled by every 304 and reset by every 200: state
    shared across the objects of a type, as ``SelfTuningProtocol`` keeps."""

    def __init__(self, ttl: float) -> None:
        super().__init__(ttl)
        self.ttls: dict[str, float] = {}
        self.checks: dict[str, list[int]] = {}

    def is_fresh(self, entry, now):
        return (now - entry.validated_at) < self.ttls.get(entry.file_type,
                                                          self.ttl)

    def on_validation_result(self, entry, now, was_modified):
        if was_modified:
            self.ttls[entry.file_type] = self.ttl
        else:
            self.ttls[entry.file_type] = 2 * self._ttl_of(entry.file_type)
        counts = self.checks.setdefault(entry.file_type, [0, 0])
        counts[1 if was_modified else 0] += 1

    def _ttl_of(self, file_type):
        return self.ttls.get(file_type, self.ttl)


LOCAL_PROTOCOLS = [
    ("soft-ttl", lambda: SoftTTL(hours(24), 0.25)),
    ("sloppy-ttl", lambda: SloppyTTL(hours(1))),
    ("stamped-eager", lambda: StampedInvalidation(hours(12))),
    ("tunes-on-validation", lambda: TunesOnValidation(hours(2))),
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


class KeysByVersion(TunesOnValidation):
    def on_validation_result(self, entry, now, was_modified):
        self.ttls[entry.version] = self.ttl


class ComparesFileType(TTLProtocol):
    def is_fresh(self, entry, now):
        return entry.file_type == "gif"


class TableAndValue(TunesOnValidation):
    def on_validation_result(self, entry, now, was_modified):
        if not self.ttls:
            self.ttls[entry.file_type] = self.ttl


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
    (lambda: KeysByVersion(hours(1)),
     "indexes self.ttls by `entry.version`, not entry.file_type"),
    (lambda: ComparesFileType(hours(1)),
     "uses entry.file_type other than as a per-type table key"),
    (lambda: TableAndValue(hours(1)),
     "uses self.ttls both as a per-type table and as a value"),
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
            with pytest.raises(UnsupportedFastPathError) as refused:
                engine_simulate(
                    server, make_protocol(), mixed_workload.requests,
                    end_time=mixed_workload.duration,
                )
        assert reason in str(refused.value)
        assert reg.counter("engine.fastpath_runs").value == 0.0
        dispatched = engine_simulate(
            server, make_protocol(), mixed_workload.requests,
            end_time=mixed_workload.duration, engine="reference",
        )
        expected = simulate(
            server, make_protocol(), mixed_workload.requests,
            end_time=mixed_workload.duration,
        )
        assert diff_results(dispatched, expected) == []

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


def names(variant):
    """Every name one of the variant's instructions loads or stores."""
    return {i.argval for i in dis.get_instructions(variant)}


@pytest.fixture
def ran(monkeypatch):
    """The variants ``run_kernel`` ran from now on, in call order."""
    variants = []
    choose = specialiser._Kernel.__call__

    def spy(kernel, *facts):
        variants.append(choose(kernel, *facts))
        return variants[-1]

    monkeypatch.setattr(specialiser._Kernel, "__call__", spy)
    return variants


class TestGeneratedCode:
    def test_the_filled_in_source_is_what_tools_show(self, workload, ran):
        fast_simulate(workload.server(), AlexProtocol.from_percent(10),
                      workload.requests, end_time=workload.duration)
        (variant,) = ran
        filename = variant.__code__.co_filename
        assert filename == (
            "<repro.fastpath kernel repro.core.protocols.alex.AlexProtocol>"
        )
        linecache.checkcache()  # a pseudo-file must survive the sweep
        assert filename in linecache.cache
        source = inspect.getsource(variant)
        assert "fresh = t - validated_at[i] < p0 * _age_0" in source
        assert linecache.getlines(filename)[0].endswith(
            "'observed': False, 'delivers': False, 'skips': False, "
            "'steps': False}\n")
        assert not re.search(r"^ *(\w+ = )?(is_fresh|on_stored|fresh_until)\(",
                             source, re.M)
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
        fast_simulate(workload.server(), AlexProtocol.from_percent(10),
                      workload.requests, end_time=workload.duration,
                      observer=lambda *event: None)
        assert ran[-1].__code__.co_filename == (
            "<repro.fastpath kernel repro.core.protocols.alex.AlexProtocol, "
            "observed>")

    def test_a_constant_hole_that_is_off_is_not_compiled(self):
        """The unbounded, non-adaptive kernels carry no trace of the
        replacement order or the third hole, and an unobserved run that
        delivers nothing none of the event calls or the action cursor:
        not in their source (no dead ``if False:`` block), not in one
        instruction."""
        extra = {"touch", "evict", "order", "used_bytes", "fetched_at",
                 "stored", "t0", "p3"}
        run = {"notify", "pending", "act_times", "slot"}

        for cls in (AlexProtocol, TTLProtocol, InvalidationProtocol):
            kernel = specialiser.specialise(cls)[0]
            for observed, scheduled in ((False, False), (True, True)):
                variant = kernel(observed, scheduled, False)
                assert not names(variant) & extra
                assert "if False" not in inspect.getsource(variant)
            if not cls.wants_invalidations:
                assert not names(kernel(False, False, False)) & run
        assert run <= names(
            specialiser.specialise(TTLProtocol)[0](True, True, False))
        lru, fifo = (specialiser.specialise(AlexProtocol, replacement)[0](
                     False, False, False) for replacement in ("lru", "fifo"))
        assert {"touch", "evict", "fetched_at"} <= names(lru) & names(fifo)
        # Only recency order moves an entry on a lookup.
        lookup = "Cache.lookup under LRU"
        assert lookup in inspect.getsource(lru)
        assert lookup not in inspect.getsource(fifo)
        # A stepping LRU run reads its order off the stream: no walk.
        stepping = specialiser.specialise(AlexProtocol, "lru")[0](
            False, False, False, True)
        assert "lru_residency" in names(stepping)
        assert not names(stepping) & {"touch", "evict", "used_bytes"}
        assert {"t0", "t1", "p3", "p4"} <= names(
            specialiser.specialise(SelfTuningProtocol)[0](False, False, False))

    def test_the_feed_steps_by_lane(self):
        """A stepping run that takes the server's feed counts it by lane
        (``seen``, ``gap``), one under a fault schedule applies it by lane
        (``cursor``, ``cut``), and neither calls an observer; one that
        takes neither, and a walking one that takes the feed, load none of
        those names.  No stepping variant compiles the walk's action
        cursor."""
        by_lane = {"seen", "gap", "rows"}
        walk = {"pending", "act_times", "slot"}
        kernel = specialiser.specialise(InvalidationProtocol)[0]
        stepping = kernel(False, False, False, True)
        assert stepping.__code__.co_filename.endswith(", delivering, stepping>")
        assert by_lane | {"view", "lanes", "cursor", "cut"} <= names(stepping)
        assert "notify" not in names(stepping)
        assert not names(kernel(False, False, False)) & (by_lane | {"cut"})
        lean = specialiser.specialise(TTLProtocol)[0](False, False, False, True)
        assert lean.__code__.co_filename.endswith("TTLProtocol, stepping>")
        assert not names(lean) & (by_lane | {"cut"})
        for cls in (InvalidationProtocol, LeasedInvalidationProtocol, TTLProtocol):
            for scheduled in (False, True):
                variant = specialiser.specialise(cls)[0](
                    False, scheduled, False, True)
                assert variant.__code__.co_filename.endswith(", stepping>")
                assert not names(variant) & walk
        faulted = specialiser.specialise(TTLProtocol)[0](False, True, False, True)
        assert {"cursor", "cut", "rows"} <= names(faulted)
        assert not names(faulted) & {"seen", "gap", "notify"}

    @pytest.mark.parametrize("make", [
        lambda: TTLProtocol(hours(24)), lambda: AlexProtocol.from_percent(10),
        CERNPolicyProtocol,
    ], ids=["ttl", "alex", "cern"])
    def test_the_call_chooses_the_variant(self, workload, ran, make):
        """What ``run_kernel`` runs: an unobserved run with no plan loads
        neither the observer nor the action cursor; an observer — a trace
        sink's tee included — brings ``notify`` back, a plan the cursor."""
        def run(**options):
            fast_simulate(workload.server(), make(), workload.requests,
                          end_time=workload.duration, **options)
            return names(ran[-1])

        assert not run() & {"notify", "pending", "act_times", "slot"}
        assert "notify" in run(observer=lambda *event: None)
        with obs_trace.installed(obs_trace.TraceSink()):
            assert "notify" in run()
        delivering = run(faults=FaultPlan(cache_crashes=(hours(30),)))
        assert {"pending", "act_times", "slot"} <= delivering
        assert "notify" not in delivering

    def test_one_kernel_per_class_parameters_per_run(
            self, monkeypatch, workload):
        built = []
        real_build = specialiser.build

        def counting_build(cls, *args):
            built.append(cls)
            return real_build(cls, *args)

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
        # The sweep itself compiles the one variant its runs ask for.
        kind = sweep[0][0]
        for k in range(21):
            fast_simulate(workload.server(), AlexProtocol.from_percent(5 * k),
                          workload.requests, end_time=workload.duration)
        assert built == [AlexProtocol]
        assert list(kind.variants) == [(False, False, False, False)]


class FreshFrom(TTLProtocol):
    def is_fresh(self, entry, now):
        return now >= entry.validated_at + self.ttl


class NotBefore(TTLProtocol):
    def is_fresh(self, entry, now):
        return not (now < entry.validated_at + self.ttl)


class CountsDown(TTLProtocol):
    def is_fresh(self, entry, now):
        return (entry.validated_at - now) < self.ttl


class Outside(TTLProtocol):
    def is_fresh(self, entry, now):
        return (now < entry.validated_at + self.ttl
                or now > entry.validated_at + 2 * self.ttl)


class BranchesOnNow(TTLProtocol):
    def is_fresh(self, entry, now):
        if now - entry.validated_at < self.ttl:
            return True
        return False


#: Shipped rules whose ``is_fresh`` is proved monotone in ``now``.
PROVED = [TTLProtocol, ExpiresTTLProtocol, AlexProtocol, CERNPolicyProtocol,
          PollEveryRequestProtocol, InvalidationProtocol, SoftTTL, SloppyTTL]

#: Classes the specialiser compiles but whose runs do not skip, and why.
NOT_PROVED = [
    (FreshFrom, "returns `now >= validated_at[i] + p0`"),
    (NotBefore, "returns `not now < validated_at[i] + p0`"),
    (CountsDown, "returns `validated_at[i] - now < p0`"),
    (Outside, "returns `now < validated_at[i] + p0 or now > "),
    (BranchesOnNow, "branches on now: `now - validated_at[i] < p0`"),
    (LeasedInvalidationProtocol, "returns `valid[i] and now - validated_at"),
    (SelfTuningProtocol, "writes a per-type table"),
]


class TestMonotoneProof:
    @pytest.mark.parametrize("cls", PROVED, ids=[c.__name__ for c in PROVED])
    def test_every_shipped_rule_proves(self, cls):
        assert specialiser.specialise(cls)[0].unskippable is None

    @pytest.mark.parametrize("cls,detail", NOT_PROVED,
                             ids=[c.__name__ for c, _ in NOT_PROVED])
    def test_refused_with_a_reason_and_run_on_the_lean_variant(
        self, quiet_workload, ran, cls, detail
    ):
        workload = quiet_workload
        kernel = specialiser.specialise(cls)[0]
        assert kernel.unskippable.startswith(
            "is_fresh is not monotone in now: " if cls is not SelfTuningProtocol
            else "a method writes")
        assert detail in kernel.unskippable
        make = cls if cls is SelfTuningProtocol else lambda: cls(hours(6))
        fast = fast_simulate(workload.server(), make(), workload.requests,
                             end_time=workload.duration)
        assert ", skipping" not in ran[-1].__code__.co_filename
        assert "jt" not in names(ran[-1])
        assert diff_results(fast, simulate(
            workload.server(), make(), workload.requests,
            end_time=workload.duration)) == []


class TestSkipVariant:
    @pytest.mark.parametrize("make", [
        lambda: TTLProtocol(hours(24)), lambda: AlexProtocol.from_percent(10),
        CERNPolicyProtocol,
    ], ids=["ttl", "alex", "cern"])
    def test_a_lean_run_skips_its_hit_runs(self, quiet_workload, ran, make):
        """Unobserved, no plan, no registry, a stream that changes rarely:
        the skipping variant; an observer, a plan or a registry each bring
        the per-request loop back."""
        workload = quiet_workload
        def run(**options):
            return fast_simulate(workload.server(), make(), workload.requests,
                                 end_time=workload.duration, **options)

        skipping = run()
        assert ran[-1].__code__.co_filename.endswith(", skipping>")
        assert {"jt", "ends", "ages"} <= names(ran[-1])
        for options in ({"observer": lambda *event: None},
                        {"faults": FaultPlan(cache_crashes=(hours(30),))}):
            run(**options)
            assert "jt" not in names(ran[-1])
        with obs_registry.installed(obs_registry.MetricsRegistry()):
            batched = run()
        assert "jt" not in names(ran[-1])
        assert diff_results(skipping, batched) == []

    def test_a_stream_that_changes_often_walks(self, workload, ran):
        """One origin change per ten requests or more: runs of hits are
        short, and the run walks every request."""
        fast_simulate(workload.server(), AlexProtocol.from_percent(10),
                      workload.requests, end_time=workload.duration)
        assert "jt" not in names(ran[-1])


class Divides(AlexProtocol):
    """Alex's rule as a quotient."""

    def is_fresh(self, entry, now):
        age = entry.validated_at - entry.last_modified
        if age <= 0.0:
            return False
        return (now - entry.validated_at) / age < self.threshold


class PerTypeTTL(TTLProtocol):
    """A TTL per file type, read and never written."""

    def __init__(self, ttl):
        super().__init__(ttl)
        self.ttls = {"html": ttl / 2}

    def is_fresh(self, entry, now):
        return (now - entry.validated_at) < self.ttls.get(entry.file_type,
                                                          self.ttl)


class NumberAnd(TTLProtocol):
    """``and`` over a number: on lanes ``&`` would not be its value."""

    def is_fresh(self, entry, now):
        return entry.validated_at and now - entry.validated_at < self.ttl


class MaybeStamped(TTLProtocol):
    """A stamp that is None when the TTL is zero."""

    def is_fresh(self, entry, now):
        return now < entry.expires_at

    def on_stored(self, entry, now):
        entry.expires_at = now + self.ttl if self.ttl > 0 else None


#: Shipped rules whose methods vectorise.
STEPPED = [TTLProtocol, ExpiresTTLProtocol, AlexProtocol, CERNPolicyProtocol,
           PollEveryRequestProtocol]

#: Classes the specialiser compiles but whose runs do not step, and why.
NOT_STEPPED = [
    (lambda: Divides.from_percent(10),
     "divides: `(now - validated_at[lanes]) / _age_0`"),
    (lambda: PerTypeTTL(hours(6)), "keeps a per-type table: `t0.get("),
    (lambda: MaybeStamped(hours(6)), "stamps entry.expires_at with "
     "`now + p0 if p0 > 0 else None`, which may be None"),
    (lambda: NumberAnd(hours(6)), "uses `validated_at[lanes] and now - "
     "validated_at[lanes] < p0` on every lane"),
]


class TestLockstepLowering:
    @pytest.mark.parametrize("cls", STEPPED, ids=[c.__name__ for c in STEPPED])
    def test_every_shipped_rule_vectorises(self, cls):
        assert specialiser.specialise(cls)[0].unsteppable is None

    @pytest.mark.parametrize("make,detail", NOT_STEPPED,
                             ids=[type(make()).__name__ for make, _ in NOT_STEPPED])
    def test_refused_with_a_reason_and_run_on_the_scalar_variant(
        self, flat_workload, ran, make, detail
    ):
        workload = flat_workload
        kernel = specialiser.specialise(type(make()))[0]
        assert kernel.unsteppable.startswith("its methods do not vectorise: ")
        assert detail in kernel.unsteppable
        fast = fast_simulate(workload.server(), make(), workload.requests,
                             end_time=workload.duration)
        assert ran[-1].__code__.co_filename.endswith(f"{type(make()).__name__}>")
        assert diff_results(fast, simulate(
            workload.server(), make(), workload.requests,
            end_time=workload.duration)) == []

    @pytest.mark.parametrize("make", [
        lambda: TTLProtocol(hours(24)), lambda: AlexProtocol.from_percent(10),
        CERNPolicyProtocol, InvalidationProtocol,
    ], ids=["ttl", "alex", "cern", "invalidation"])
    def test_a_lean_run_over_a_flat_stream_steps(self, flat_workload, ran, make):
        """Unobserved, no registry, a stream that changes often and needs
        few steps: the lockstep variant, the server's own feed and a
        fault plan included; an observer or a registry each bring the
        per-request loop back."""
        workload = flat_workload
        def run(**options):
            return fast_simulate(workload.server(), make(), workload.requests,
                                 end_time=workload.duration, **options)

        def reference(**options):
            return simulate(workload.server(), make(), workload.requests,
                            end_time=workload.duration, **options)

        stepping = run()
        assert ran[-1].__code__.co_filename.endswith(", stepping>")
        assert {"view", "lanes", "ages"} <= names(ran[-1])
        crash = {"faults": FaultPlan(cache_crashes=(hours(30),))}
        assert diff_results(run(**crash), reference(**crash)) == []
        assert ran[-1].__code__.co_filename.endswith(", delivering, stepping>")
        run(observer=lambda *event: None)
        assert "lanes" not in names(ran[-1])
        with obs_registry.installed(obs_registry.MetricsRegistry()):
            batched = run()
        assert "lanes" not in names(ran[-1])
        assert diff_results(stepping, batched) == []
        assert diff_results(stepping, reference()) == []

    @pytest.mark.parametrize("make", [
        lambda: InvalidationProtocol(eager=True),
        lambda: LeasedInvalidationProtocol(hours(12)),
    ], ids=["eager", "leased"])
    def test_a_push_and_a_lease_step(self, flat_workload, ran, make):
        """The eager push steps on the feed, each lane keeping its last
        push's store; a lease's ``and`` over two truth values is ``&`` on
        lanes, and it steps.  Both agree with the reference."""
        workload = flat_workload
        assert specialiser.specialise(type(make()))[0].unsteppable is None
        fast = fast_simulate(workload.server(), make(), workload.requests,
                             end_time=workload.duration)
        assert ran[-1].__code__.co_filename.endswith(
            f"{type(make()).__name__}, delivering, stepping>")
        assert diff_results(fast, simulate(
            workload.server(), make(), workload.requests,
            end_time=workload.duration)) == []

    @pytest.mark.parametrize("make,options", [
        (InvalidationProtocol, lambda: {"observer": lambda *event: None}),
        (InvalidationProtocol, lambda: {"cache": Cache()}),
        (InvalidationProtocol, lambda: {"cache": Cache(500_000)}),
        (SelfTuningProtocol, dict),
        (lambda: InvalidationProtocol(eager=True), dict),
    ], ids=["observed", "cache", "lru", "selftuning", "eager"])
    def test_under_a_plan_a_lean_run_steps_and_these_walk(
            self, flat_workload, ran, make, options):
        """Under a lossy, retrying plan over a dense Worrell stream a lean
        run steps its objects in lockstep; an observed run, one that keeps
        a caller's ``Cache`` (an LRU one too: a crash or a delivery in a
        lane's gap is not the stream's), a tuning protocol and the eager
        push walk.  Each agrees with the reference."""
        workload = flat_workload
        plan = FaultPlan(loss_rate=0.2, retries=3, backoff=300.0, seed=1)

        def run(simulator, make, **extra):
            return simulator(workload.server(), make(), workload.requests,
                             end_time=workload.duration, faults=plan, **extra)

        lean = run(fast_simulate, InvalidationProtocol)
        assert ran[-1].__code__.co_filename.endswith(", delivering, stepping>")
        assert diff_results(lean, run(simulate, InvalidationProtocol)) == []
        walked = run(fast_simulate, make, **options())
        assert "stepping" not in ran[-1].__code__.co_filename
        reference = {k: v for k, v in options().items() if k != "observer"}
        assert diff_results(walked, run(simulate, make, **reference)) == []

    @pytest.mark.parametrize("make,options,ending", [
        (lambda: InvalidationProtocol(eager=True), dict,
         ", delivering, stepping>"),
        (lambda: AlexProtocol.from_percent(10),
         lambda: {"cache": Cache(1_000_000)},
         ", keeping a lru cache, stepping>"),
        (lambda: TTLProtocol(hours(24)), lambda: {"cache": Cache(1_000_000)},
         ", keeping a lru cache, stepping>"),
    ], ids=["eager", "lru-alex", "lru-ttl"])
    def test_a_push_and_an_lru_cache_step(self, flat_workload, ran, make,
                                          options, ending):
        """Over a dense Worrell stream with no plan, the eager push steps
        on the feed, and a kept LRU cache on the stream's own residency:
        the result and the caller's ``Cache`` are the reference's."""
        workload = flat_workload
        fast_options, reference_options = options(), options()
        fast = fast_simulate(workload.server(), make(), workload.requests,
                             end_time=workload.duration, **fast_options)
        assert ran[-1].__code__.co_filename.endswith(ending)
        assert diff_results(fast, simulate(
            workload.server(), make(), workload.requests,
            end_time=workload.duration, **reference_options)) == []
        if "cache" in fast_options:
            assert fast_options["cache"].evictions > 0
            assert cache_state(fast_options["cache"]) == cache_state(
                reference_options["cache"])

    @pytest.mark.parametrize("make,options", [
        (lambda: InvalidationProtocol(eager=True),
         lambda: {"observer": lambda *event: None}),
        (lambda: AlexProtocol.from_percent(10),
         lambda: {"cache": Cache(1_000_000, FIFOPolicy())}),
        (InvalidationProtocol, lambda: {"cache": Cache(1_000_000)}),
        (SelfTuningProtocol, dict),
        (lambda: AlexProtocol.from_percent(10), lambda: {"registry": True}),
    ], ids=["eager-observed", "fifo", "lru-feed", "selftuning", "registry"])
    def test_without_a_plan_these_walk(self, flat_workload, ran, make,
                                       options):
        """With no plan over the same stream these walk: the eager push
        with an observer, a FIFO cache (its order is the protocol's
        stores), an LRU cache under the feed (a notice could meet an
        evicted copy in a lane's gap), a tuning protocol and a run under an
        active metrics registry.  Each agrees with the reference."""
        workload = flat_workload

        def run(simulator, **extra):
            registry = obs_registry.MetricsRegistry() if extra.pop(
                "registry", False) else None
            with obs_registry.installed(registry):
                return simulator(workload.server(), make(), workload.requests,
                                 end_time=workload.duration, **extra)

        walked = run(fast_simulate, **options())
        assert "stepping" not in ran[-1].__code__.co_filename
        reference = {k: v for k, v in options().items() if k != "observer"}
        assert diff_results(walked, run(simulate, **reference)) == []

    def test_a_stream_that_needs_many_steps_walks(self, workload, ran):
        """40 objects share 3,000 requests: each step would interpret
        fewer than 200 of them, and the run walks every request."""
        fast_simulate(workload.server(), AlexProtocol.from_percent(10),
                      workload.requests, end_time=workload.duration)
        assert ran[-1].__code__.co_filename.endswith("AlexProtocol>")
