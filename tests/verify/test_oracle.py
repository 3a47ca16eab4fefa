"""The differential oracle: agreement, divergence detection, gating."""

from __future__ import annotations

import pytest

from repro.core.clock import days, hours
from repro.core.costs import MessageCosts
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
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode, simulate
from repro.obs import registry as obs_registry
from repro.verify import (
    ConsistencyViolation,
    UnsupportedProtocolError,
    checked_simulate,
    is_enabled,
    set_enabled,
    verify_simulation,
)
from tests.conftest import make_history


def mixed_origin() -> OriginServer:
    """Static, changing, Expires-stamped, and dynamic objects together."""
    return OriginServer(
        [
            make_history("/static", size=1000),
            make_history("/hot", size=500,
                         changes=(days(1), days(2), days(2), days(5))),
            make_history("/news", size=800, expires_after=hours(6),
                         changes=(days(3),)),
            make_history("/gif", size=2000, file_type="gif",
                         changes=(days(4),)),
            make_history("/cgi", size=300, file_type="cgi", cacheable=False),
        ]
    )


@pytest.fixture
def mixed_server() -> OriginServer:
    return mixed_origin()


def mixed_requests() -> list[tuple[float, str]]:
    ids = ["/static", "/hot", "/news", "/gif", "/cgi"]
    return sorted(
        (days(d) + 300.0 * i, ids[(i + int(d)) % len(ids)])
        for d in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5)
        for i in range(5)
    )


#: Every concrete protocol class, at least once: the agreement test is
#: the "has a spec rule" check, and tests/core/test_protocol_registry.py
#: pins the classes these build to the ones the package defines.
ALL_PROTOCOLS = (
    lambda: TTLProtocol(hours(24)),
    lambda: TTLProtocol(0.0),
    lambda: ExpiresTTLProtocol(hours(24)),
    lambda: AlexProtocol.from_percent(10),
    lambda: InvalidationProtocol(),
    lambda: InvalidationProtocol(eager=True),
    lambda: LeasedInvalidationProtocol(hours(24)),
    lambda: PollEveryRequestProtocol(),
    lambda: CERNPolicyProtocol(0.1, hours(1), max_ttl=days(2)),
    lambda: SelfTuningProtocol(),
)


class TestAgreement:
    @pytest.mark.parametrize("factory", ALL_PROTOCOLS,
                             ids=lambda f: f().name)
    @pytest.mark.parametrize("mode", list(SimulatorMode))
    @pytest.mark.parametrize("per_modification", [True, False])
    def test_simulator_matches_spec(
        self, mixed_server, factory, mode, per_modification
    ):
        result, report = verify_simulation(
            mixed_server, factory(), mixed_requests(), mode,
            end_time=days(8), charge_per_modification=per_modification,
        )
        assert report.ok
        assert report.counters_checked == 13
        # Every request emits exactly one event; invalidation feeds add
        # invalidation/prefetch events on top.
        assert report.events_checked >= result.counters.requests

    def test_matches_plain_simulate(self, mixed_server):
        """The oracle's simulator leg is the production simulator."""
        result, _ = verify_simulation(
            mixed_server, AlexProtocol.from_percent(10), mixed_requests(),
            SimulatorMode.OPTIMIZED, end_time=days(8),
        )
        plain = simulate(
            mixed_server, AlexProtocol.from_percent(10), mixed_requests(),
            SimulatorMode.OPTIMIZED, end_time=days(8),
        )
        assert result.summary() == plain.summary()


class TestDivergenceDetection:
    def test_seeded_cost_bug_is_caught(self, mixed_server, monkeypatch):
        """A 304 that leaks one body byte must trip the ledger diff."""
        monkeypatch.setattr(
            MessageCosts, "validation_not_modified",
            lambda self: (2 * self.control_message, 1),
        )
        with pytest.raises(ConsistencyViolation) as excinfo:
            verify_simulation(
                mixed_server, TTLProtocol(0.0), mixed_requests(),
                SimulatorMode.OPTIMIZED, end_time=days(8),
            )
        assert any(
            "body_bytes[validation_304]" in d
            for d in excinfo.value.report.divergences
        )

    def test_seeded_freshness_bug_is_caught(self, monkeypatch):
        """An off-by-one freshness boundary must trip the event diff."""
        server = OriginServer([make_history("/f", size=100)])
        monkeypatch.setattr(
            TTLProtocol, "is_fresh",
            lambda self, entry, now: (now - entry.validated_at) <= self.ttl,
        )
        # Second request lands exactly at the TTL boundary: the buggy
        # simulator serves a hit, the spec demands a validation.
        with pytest.raises(ConsistencyViolation) as excinfo:
            verify_simulation(
                server, TTLProtocol(100.0), [(50.0, "/f"), (100.0, "/f")],
                SimulatorMode.OPTIMIZED,
            )
        assert any("event" in d for d in excinfo.value.report.divergences)

    def test_violation_message_names_protocol_and_mode(
        self, mixed_server, monkeypatch
    ):
        monkeypatch.setattr(
            MessageCosts, "validation_not_modified",
            lambda self: (2 * self.control_message, 1),
        )
        with pytest.raises(ConsistencyViolation, match="ttl.*optimized"):
            verify_simulation(
                mixed_server, TTLProtocol(0.0), mixed_requests(),
                SimulatorMode.OPTIMIZED, end_time=days(8),
            )


class TestAdaptiveFastPathLeg:
    """The self-tuning protocol is compiled, so leg 3 replays it — from
    the state the reference run started with, not the one it left."""

    def spied(self, monkeypatch, perturb=None):
        import repro.verify.oracle as oracle_module

        started = []
        real = oracle_module.fast_simulate

        def spy(server, protocol, *args, **kwargs):
            started.append(protocol.state_snapshot())
            if perturb is not None:
                perturb(protocol)
            return real(server, protocol, *args, **kwargs)

        monkeypatch.setattr(oracle_module, "fast_simulate", spy)
        return started

    def test_self_tuning_runs_three_legs(self, mixed_server, monkeypatch):
        started = self.spied(monkeypatch)
        protocol = SelfTuningProtocol()
        _, report = verify_simulation(
            mixed_server, protocol, mixed_requests(), end_time=days(8),
        )
        assert report.ok
        assert started == [{"thresholds": {}, "history": {}}]
        # The reference run learned; the replay matched what it learned.
        assert protocol.history and protocol.snapshot()

    def test_a_perturbed_kernel_is_caught(self, mixed_server, monkeypatch):
        def perturb(protocol):
            protocol.decrease_factor = 0.75

        self.spied(monkeypatch, perturb)
        with pytest.raises(ConsistencyViolation) as excinfo:
            verify_simulation(
                mixed_server, SelfTuningProtocol(), mixed_requests(),
                end_time=days(8),
            )
        divergences = excinfo.value.report.divergences
        assert divergences
        assert all(line.startswith("fastpath.") for line in divergences)
        assert any(line.startswith("fastpath.protocol_state: ")
                   for line in divergences)


class TestGating:
    def test_unsupported_protocol_raises_on_explicit_verify(self, mixed_server):
        class CustomProtocol(TTLProtocol):
            pass

        with pytest.raises(UnsupportedProtocolError):
            verify_simulation(
                mixed_server, CustomProtocol(hours(1)), mixed_requests(),
            )

    def test_checked_simulate_falls_back_for_unsupported(self, mixed_server):
        class CustomProtocol(TTLProtocol):
            pass

        result = checked_simulate(
            mixed_server, CustomProtocol(hours(1)), mixed_requests(),
            end_time=days(8), force=True,
        )
        plain = simulate(
            mixed_server, TTLProtocol(hours(1)), mixed_requests(),
            end_time=days(8),
        )
        assert result.summary()["total_mb"] == plain.summary()["total_mb"]

    def test_checked_simulate_disabled_skips_oracle(
        self, mixed_server, monkeypatch
    ):
        """With verification off, even a seeded bug goes unnoticed."""
        monkeypatch.setattr(
            MessageCosts, "validation_not_modified",
            lambda self: (2 * self.control_message, 1),
        )
        assert not is_enabled()
        checked_simulate(
            mixed_server, TTLProtocol(0.0), mixed_requests(),
            end_time=days(8),
        )  # does not raise

    def test_checked_simulate_force_runs_oracle(
        self, mixed_server, monkeypatch
    ):
        monkeypatch.setattr(
            MessageCosts, "validation_not_modified",
            lambda self: (2 * self.control_message, 1),
        )
        with pytest.raises(ConsistencyViolation):
            checked_simulate(
                mixed_server, TTLProtocol(0.0), mixed_requests(),
                end_time=days(8), force=True,
            )

    def test_set_enabled_roundtrip(self, monkeypatch):
        import os

        monkeypatch.setattr("repro.verify.oracle._enabled", False)
        monkeypatch.setenv("REPRO_VERIFY", "0")
        set_enabled(True)
        assert is_enabled()
        assert os.environ["REPRO_VERIFY"] == "1"
        set_enabled(False)
        assert not is_enabled()
        assert os.environ["REPRO_VERIFY"] == "0"

    def test_reference_simulation_is_constructed_once(
        self, mixed_server, monkeypatch
    ):
        # The metrics clause's expectation is what the primary reference
        # run published into its scope — not a second reference run.
        import repro.verify.oracle as oracle_module

        built = []

        class Counted(oracle_module.Simulation):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(oracle_module, "Simulation", Counted)
        _, report = verify_simulation(
            mixed_server, TTLProtocol(hours(24)), mixed_requests(),
            end_time=days(8),
        )
        assert report.ok and len(built) == 1

    def test_verified_counter_increments(self, mixed_server):
        # ``verify.runs`` is the one count of verified runs: whatever
        # scope the check ran in holds exactly one more.
        with obs_registry.scoped() as scope:
            verify_simulation(
                mixed_server, TTLProtocol(hours(24)), mixed_requests(),
                end_time=days(8),
            )
        assert scope.counter("verify.runs").value == 1.0
