"""Socket-level chaos: the differential oracle under injected faults.

The :class:`~repro.live.chaos.ChaosRelay` drops, resets, truncates,
dribbles, and delays real exchanges on both hops, and the retry layer
(driver-side ``X-Repro-Seq`` replay, proxy-side idempotent upstream
fetches) must absorb every injected fault without perturbing a single
counter, ledger cell, or per-object event — the chaotic live run still
equals the fault-free simulation *exactly*.

Also pins the deterministic machinery itself: the ``--chaos`` grammar,
the seeded draw, and the per-key progress guarantee.
"""

import pytest

from tests.live.test_differential import (
    _CHAOS,
    _FACTORIES,
    _REQUESTS,
    _histories,
    check_cell,
)
from repro.core.server import OriginServer
from repro.live import live_vs_sim, parse_chaos
from repro.live.chaos import WireFaultPlan

#: Three qualitatively distinct plans (the acceptance floor): pure
#: request loss, delay plus reply truncation, and post-commit resets
#: with dribbled delivery.
_PLANS = ("loss", "delay-truncate", "reset-dribble")


class TestChaoticDifferential:
    @pytest.mark.parametrize("plan_name", _PLANS)
    @pytest.mark.parametrize(
        "protocol", ["alex", "invalidation-eager", "leased", "selftuning"]
    )
    def test_faulted_wire_matches_sim_exactly(self, plan_name, protocol):
        check_cell(protocol, chaos=plan_name, connections=2, keepalive=True)

    def test_faulted_wire_under_a_fault_plan(self):
        """Socket chaos on both hops *and* an invalidation fault plan:
        the seq-id replay and the one-key fault schedule compose."""
        check_cell(
            "leased", chaos="reset-dribble", faults="loss-retries",
            connections=2, keepalive=True,
        )

    def test_null_plan_is_plain_replay(self):
        plan = parse_chaos("seed=9")
        assert plan.is_null
        _, _, report = live_vs_sim(
            OriginServer(_histories()), _FACTORIES["ttl"], _REQUESTS,
            end_time=120.0, chaos=plan,
        )
        assert report.ok


class TestParseChaos:
    def test_full_grammar(self):
        plan = parse_chaos(
            "loss=0.1,reset=0.2,truncate=0.3,dribble=0.4,delay=0.5,"
            "seed=6,cap=7"
        )
        assert plan == WireFaultPlan(
            loss_rate=0.1, reset_rate=0.2, truncate_rate=0.3,
            dribble_rate=0.4, delay=0.5, seed=6, max_consecutive=7,
        )

    def test_unknown_field_is_named(self):
        with pytest.raises(ValueError, match="unknown --chaos field 'wat'"):
            parse_chaos("wat=1")

    def test_bad_value_is_named(self):
        with pytest.raises(ValueError, match="bad value.*'loss'"):
            parse_chaos("loss=high")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match="loss_rate"):
            parse_chaos("loss=1.5")

    def test_empty_spec_is_null(self):
        assert parse_chaos("").is_null


class TestDeterminism:
    def test_draws_are_pure(self):
        plan = parse_chaos("loss=0.5,seed=42")
        first = [
            plan.draw("client", f"r{i}", attempt, "loss")
            for i in range(20) for attempt in range(3)
        ]
        second = [
            plan.draw("client", f"r{i}", attempt, "loss")
            for i in range(20) for attempt in range(3)
        ]
        assert first == second

    def test_labels_decorrelate_the_hops(self):
        plan = parse_chaos("loss=0.5,seed=42")
        client = [plan.draw("client", f"r{i}", 0, "loss") for i in range(50)]
        upstream = [
            plan.draw("upstream", f"r{i}", 0, "loss") for i in range(50)
        ]
        assert client != upstream

    def test_max_attempts_covers_the_fault_cap(self):
        plan = parse_chaos("loss=1.0,cap=4")
        assert plan.max_attempts == 6

    def test_fault_cap_is_consecutive_not_lifetime(self):
        """A clean pass-through resets the per-key fault budget: keys
        reused across many exchanges (the seq-less control start line)
        must stay fault-eligible for the relay's whole lifetime."""
        import asyncio

        from repro.live.chaos import ChaosRelay

        plan = WireFaultPlan(loss_rate=1.0, max_consecutive=2, seed=0)
        relay = ChaosRelay("127.0.0.1", 1, plan, "client")

        async def decide_six():
            return [await relay._decide("k") for _ in range(6)]

        fates = [decision.loss for decision in asyncio.run(decide_six())]
        # cap faults, one forced-clean pass, then the budget renews —
        # not fault-starved forever after the first two injections.
        assert fates == [True, True, False, True, True, False]

    def test_two_identical_runs_inject_identically(self):
        results = []
        for _ in range(2):
            _, _, report = live_vs_sim(
                OriginServer(_histories()), _FACTORIES["invalidation"],
                _REQUESTS, end_time=120.0, connections=2, keepalive=True,
                chaos=parse_chaos(_CHAOS["loss"]),
            )
            results.append(report.events_checked)
        assert results[0] == results[1]
