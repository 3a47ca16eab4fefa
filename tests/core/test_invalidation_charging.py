"""Section 4.1 invalidation charging: flag semantics + hierarchy parity.

The paper says "the invalidation protocol sends an invalidation message
every time that a file changes" — the ``charge_per_modification`` flag
makes that reading explicit, and ``False`` gives the transition-only
accounting a holder-tracking server (the hierarchy) would do.  These are
the regression tests for routing the single-cache delivery loop through
:meth:`Cache.invalidate`: both paths must agree on the same feed.
"""

import pytest

from repro.core.clock import days
from repro.core.hierarchy import drive_workload
from repro.core.metrics import INVALIDATION
from repro.core.protocols import InvalidationProtocol
from repro.core.server import OriginServer
from repro.core.simulator import simulate
from tests.conftest import make_history


def burst_server() -> OriginServer:
    """One object, three modifications between the two requests."""
    return OriginServer(
        [make_history("/hot", size=1000,
                      changes=(days(1), days(2), days(3)))]
    )


REQUESTS = [(days(0.5), "/hot"), (days(4), "/hot")]


class TestChargePerModification:
    def test_true_charges_every_modification_of_resident_entry(self):
        result = simulate(
            burst_server(), InvalidationProtocol(), REQUESTS,
            charge_per_modification=True,
        )
        assert result.counters.invalidations_received == 3
        assert result.bandwidth.exchanges[INVALIDATION] == 3

    def test_false_charges_only_valid_to_invalid_transitions(self):
        result = simulate(
            burst_server(), InvalidationProtocol(), REQUESTS,
            charge_per_modification=False,
        )
        # The day-1 change flips the preloaded valid entry; days 2-3 find
        # it already invalid and go uncharged.
        assert result.counters.invalidations_received == 1
        assert result.bandwidth.exchanges[INVALIDATION] == 1

    def test_revalidation_rearms_transition_charging(self):
        requests = [
            (days(0.5), "/hot"), (days(1.5), "/hot"), (days(4), "/hot")
        ]
        result = simulate(
            burst_server(), InvalidationProtocol(), requests,
            charge_per_modification=False,
        )
        # Day 1 flips valid→invalid (charged); the day-1.5 request
        # revalidates; day 2 flips again (charged); day 3 is uncharged.
        assert result.counters.invalidations_received == 2

    def test_non_resident_modifications_never_charged(self):
        server = OriginServer(
            [
                make_history("/seen", size=100, changes=(days(1),)),
                make_history("/ghost", size=100,
                             changes=(days(1), days(2))),
            ]
        )
        result = simulate(
            server, InvalidationProtocol(),
            [(days(0.5), "/seen"), (days(3), "/seen")],
            preload=False, charge_per_modification=True,
        )
        # /ghost was never fetched, so its two changes cost nothing even
        # under per-modification charging.
        assert result.counters.invalidations_received == 1

    def test_entry_state_identical_under_both_policies(self):
        """The flag changes accounting only — never cache state."""
        for flag in (True, False):
            result = simulate(
                burst_server(), InvalidationProtocol(), REQUESTS,
                charge_per_modification=flag,
            )
            # Day-4 request always finds the entry invalid → validates.
            assert result.counters.validations == 1
            assert result.counters.stale_hits == 0


class TestHierarchyParity:
    """Single cache and hierarchy root must account the same feed alike."""

    def _server(self) -> OriginServer:
        # Bursts of changes between requests make the two §4.1 policies
        # actually disagree (three notices vs one for the day-1 burst).
        return OriginServer(
            [
                make_history("/a", size=1000,
                             changes=(days(1), days(1.2), days(1.4),
                                      days(3))),
                make_history("/b", size=2000,
                             changes=(days(2), days(2.1))),
            ]
        )

    def _requests(self) -> list[tuple[float, str]]:
        return sorted(
            (days(d), oid)
            for d in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5)
            for oid in ("/a", "/b")
        )

    @pytest.mark.parametrize("per_modification", [True, False])
    def test_root_link_matches_single_cache(self, per_modification):
        single = simulate(
            self._server(), InvalidationProtocol(), self._requests(),
            end_time=days(7), charge_per_modification=per_modification,
        )
        sim = drive_workload(
            self._server(), InvalidationProtocol, self._requests(),
            fan_out=1, deliver_invalidations=True,
            charge_per_modification=per_modification, end_time=days(7),
        )
        # With one leaf, every request drives the root exactly like the
        # flattened model drives its one cache, so the origin→root notice
        # accounting must match the single-cache ledger on the same feed.
        assert (
            sim.root.uplink.exchanges[INVALIDATION]
            == single.bandwidth.exchanges[INVALIDATION]
        )
        assert (
            sim.root.counters.invalidations_received
            == single.counters.invalidations_received
        )

    def test_policies_differ_on_repeat_modifications(self):
        """Sanity: the two policies disagree on this feed (so the parity
        test above is not vacuous)."""
        per_mod = drive_workload(
            self._server(), InvalidationProtocol, self._requests(),
            fan_out=1, deliver_invalidations=True,
            charge_per_modification=True, end_time=days(7),
        )
        transition = drive_workload(
            self._server(), InvalidationProtocol, self._requests(),
            fan_out=1, deliver_invalidations=True,
            charge_per_modification=False, end_time=days(7),
        )
        assert (
            per_mod.root.uplink.exchanges[INVALIDATION]
            > transition.root.uplink.exchanges[INVALIDATION]
        )

    def test_modifications_before_the_preload_are_not_charged(self):
        """Preloaded copies already reflect changes at or before the
        preload instant; neither model may deliver (or charge) them."""
        server = OriginServer(
            [make_history("/old", size=1000, created=-100.0,
                          changes=(-50.0, -10.0))]
        )
        requests = [(days(1), "/old"), (days(2), "/old")]
        single = simulate(server, InvalidationProtocol(), requests)
        sim = drive_workload(
            server, InvalidationProtocol, requests,
            deliver_invalidations=True, charge_per_modification=True,
        )
        assert single.bandwidth.exchanges[INVALIDATION] == 0
        for node in (sim.root, *sim.leaves.values()):
            assert node.uplink.exchanges[INVALIDATION] == 0, node.name
            assert node.counters.invalidations_received == 0, node.name
        assert sim.root.counters.server_invalidations_sent == 0
