"""The oracle under fault injection: both replays must still agree.

A :class:`~repro.faults.FaultPlan` is configuration, like the cost
model: the simulator and the spec each compile their own schedule from
their own view of the feed and replay it independently.  Any drift in
the charging rules, the generation guard, or the fault event stream is
a divergence.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.clock import days, hours
from repro.core.protocols import (
    InvalidationProtocol,
    LeasedInvalidationProtocol,
    TTLProtocol,
)
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode
from repro.faults import DowntimeWindow, FaultPlan
from repro.fastpath import dispatch as fastpath_dispatch
from repro.fastpath import kernels, specialise
from repro.verify import (
    ConsistencyViolation,
    checked_simulate,
    oracle,
    set_enabled,
    verify_simulation,
)
from repro.verify.spec import rule_for
from tests.conftest import make_history


@pytest.fixture
def changing_server() -> OriginServer:
    return OriginServer(
        [
            make_history("/static", size=1000),
            make_history("/hot", size=500,
                         changes=(days(1), days(2), days(3), days(5))),
            make_history("/warm", size=800, changes=(days(2), days(6))),
        ]
    )


def requests() -> list[tuple[float, str]]:
    ids = ["/static", "/hot", "/warm"]
    return sorted(
        (days(d) + 400.0 * i, ids[(i + int(2 * d)) % len(ids)])
        for d in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5)
        for i in range(4)
    )


PLANS = (
    FaultPlan(),
    FaultPlan(loss_rate=0.5, seed=1),
    FaultPlan(loss_rate=0.5, retries=3, backoff=hours(1), seed=1),
    FaultPlan(loss_rate=0.3, delay=hours(2), retries=1, seed=4,
              downtime=(DowntimeWindow(start=days(2), length=hours(12)),),
              cache_crashes=(days(4),)),
)

PROTOCOLS = (
    lambda: InvalidationProtocol(),
    lambda: InvalidationProtocol(eager=True),
    lambda: LeasedInvalidationProtocol(hours(24)),
    lambda: LeasedInvalidationProtocol(hours(24), eager=True),
    lambda: TTLProtocol(hours(10)),
)


class TestAgreementUnderFaults:
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: repr(p)[:60])
    @pytest.mark.parametrize("factory", PROTOCOLS, ids=lambda f: f().name)
    @pytest.mark.parametrize("per_modification", [True, False])
    def test_simulator_matches_spec(
        self, changing_server, plan, factory, per_modification
    ):
        result, report = verify_simulation(
            changing_server, factory(), requests(),
            SimulatorMode.OPTIMIZED, end_time=days(8),
            charge_per_modification=per_modification, faults=plan,
        )
        assert report.ok

    def test_base_mode_agrees_too(self, changing_server):
        _, report = verify_simulation(
            changing_server, InvalidationProtocol(), requests(),
            SimulatorMode.BASE, end_time=days(8),
            faults=FaultPlan(loss_rate=0.4, retries=2, seed=9),
        )
        assert report.ok


class TestFastPathLeg:
    """Leg 3 under faults: the kernel replays the plan's own schedule
    and is held to the reference result, event and metric for metric."""

    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: repr(p)[:60])
    @pytest.mark.parametrize("factory", PROTOCOLS, ids=lambda f: f().name)
    def test_leg_three_replays_the_plan(
        self, changing_server, plan, factory, monkeypatch
    ):
        replayed = []

        def spy(*args, **kwargs):
            replayed.append(kwargs["faults"])
            return fastpath_dispatch.fast_simulate(*args, **kwargs)

        monkeypatch.setattr(oracle, "fast_simulate", spy)
        _, report = verify_simulation(
            changing_server, factory(), requests(),
            SimulatorMode.OPTIMIZED, end_time=days(8), faults=plan,
        )
        assert report.ok
        assert replayed == [plan]

    def test_dropped_lost_attempt_charge_is_a_fastpath_divergence(
        self, changing_server
    ):
        """Mutation: a kernel that sends lost attempts for free.  The
        simulator and the spec still agree, so every divergence is leg
        3's, labelled ``fastpath.*``."""
        source = inspect.getsource(kernels.run_kernel)
        charge = "ex_inv += 1\n                            if act == ATTEMPT_LOST:"
        assert source.count(charge) == 1
        # Specialised from the mutated template, in place of the memoised
        # kernel; dropped afterwards so the next run builds the real one.
        specialise._KERNELS[InvalidationProtocol] = specialise.build(
            InvalidationProtocol,
            source.replace(
                charge, charge.replace("+= 1", "+= act != ATTEMPT_LOST")
            ),
        )
        try:
            plan = FaultPlan(loss_rate=0.5, retries=3, backoff=hours(1), seed=1)
            with pytest.raises(ConsistencyViolation) as excinfo:
                verify_simulation(
                    changing_server, InvalidationProtocol(), requests(),
                    SimulatorMode.OPTIMIZED, end_time=days(8), faults=plan,
                )
            divergences = excinfo.value.report.divergences
            assert all(line.startswith("fastpath.") for line in divergences)
            assert any(
                line.startswith("fastpath.counters.server_invalidations_sent")
                for line in divergences
            )
            assert any(
                line.startswith("fastpath.bandwidth.control_bytes[invalidation]")
                for line in divergences
            )
            # The fault-free charge is untouched: without a plan the mutant
            # is indistinguishable.
            _, report = verify_simulation(
                changing_server, InvalidationProtocol(), requests(),
                SimulatorMode.OPTIMIZED, end_time=days(8),
            )
            assert report.ok
        finally:
            del specialise._KERNELS[InvalidationProtocol]


class TestLeasedRule:
    def test_leased_protocol_has_a_spec_rule(self):
        rule = rule_for(LeasedInvalidationProtocol(hours(24)))
        assert rule.wants_feed

    def test_leased_verifies_without_faults(self, changing_server):
        _, report = verify_simulation(
            changing_server, LeasedInvalidationProtocol(hours(12)),
            requests(), SimulatorMode.OPTIMIZED, end_time=days(8),
        )
        assert report.ok


class TestCheckedSimulateForwarding:
    def test_faults_forwarded_when_oracle_disabled(self, changing_server):
        set_enabled(False)
        lossy = checked_simulate(
            changing_server, InvalidationProtocol(), requests(),
            end_time=days(8), faults=FaultPlan(loss_rate=1.0),
        )
        clean = checked_simulate(
            changing_server, InvalidationProtocol(), requests(),
            end_time=days(8),
        )
        assert lossy.counters.stale_hits > clean.counters.stale_hits == 0

    def test_faults_forwarded_under_force(self, changing_server):
        result = checked_simulate(
            changing_server, InvalidationProtocol(), requests(),
            end_time=days(8), faults=FaultPlan(loss_rate=1.0), force=True,
        )
        assert result.counters.stale_hits > 0
