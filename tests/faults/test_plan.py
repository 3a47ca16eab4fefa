"""FaultPlan compilation: the schedule is the contract both replays share."""

import pytest

from repro.faults import (
    ATTEMPT_LOST,
    ATTEMPT_SENT,
    CRASH,
    DELIVER,
    DROP,
    DowntimeWindow,
    FaultPlan,
)

FEED = ((10.0, "/a"), (20.0, "/b"))


class TestValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan(loss_rate=-0.1)
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan(loss_rate=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            FaultPlan(delay=-1.0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            FaultPlan(retries=-1)

    def test_bad_backoff_rejected_when_retrying(self):
        with pytest.raises(ValueError, match="backoff"):
            FaultPlan(retries=2, backoff=0.0)

    def test_downtime_window_needs_positive_length(self):
        with pytest.raises(ValueError, match="length"):
            DowntimeWindow(start=0.0, length=0.0)

    def test_is_null(self):
        assert FaultPlan().is_null
        assert FaultPlan(retries=3).is_null  # retries alone inject nothing
        assert not FaultPlan(loss_rate=0.1).is_null
        assert not FaultPlan(delay=1.0).is_null
        assert not FaultPlan(cache_crashes=(5.0,)).is_null

    def test_list_valued_fields_become_tuples(self):
        # A plan is a value: the fast path memoises schedules by plan,
        # so a list-built plan must hash and equal its tuple twin.
        window = DowntimeWindow(start=5.0, length=10.0)
        listed = FaultPlan(cache_crashes=[30.0, 15.0], downtime=[window])
        tupled = FaultPlan(cache_crashes=(30.0, 15.0), downtime=(window,))
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert listed.cache_crashes == (30.0, 15.0)
        assert listed.downtime == (window,)
        assert listed.compile(FEED) == tupled.compile(FEED)


class TestCompile:
    def test_null_plan_is_sent_plus_deliver_pairs(self):
        actions = FaultPlan().compile(FEED)
        assert [a.kind for a in actions] == [
            ATTEMPT_SENT, DELIVER, ATTEMPT_SENT, DELIVER,
        ]
        assert [a.time for a in actions] == [10.0, 10.0, 20.0, 20.0]
        assert [a.object_id for a in actions] == ["/a", "/a", "/b", "/b"]

    def test_certain_loss_without_retries_drops(self):
        actions = FaultPlan(loss_rate=1.0).compile(FEED)
        assert [a.kind for a in actions] == [
            ATTEMPT_LOST, DROP, ATTEMPT_LOST, DROP,
        ]

    def test_retry_backoff_schedule(self):
        # Attempt k leaves at mod_time + backoff * (2**k - 1).
        plan = FaultPlan(loss_rate=1.0, retries=2, backoff=100.0)
        actions = plan.compile(((10.0, "/a"),))
        assert [(a.kind, a.time, a.attempt) for a in actions] == [
            (ATTEMPT_LOST, 10.0, 0),
            (ATTEMPT_LOST, 110.0, 1),
            (ATTEMPT_LOST, 310.0, 2),
            (DROP, 310.0, 2),
        ]

    def test_delivery_is_delayed(self):
        actions = FaultPlan(delay=5.0).compile(((10.0, "/a"),))
        assert [(a.kind, a.time) for a in actions] == [
            (ATTEMPT_SENT, 10.0), (DELIVER, 15.0),
        ]

    def test_downtime_abandons_the_notice(self):
        plan = FaultPlan(downtime=(DowntimeWindow(start=5.0, length=10.0),))
        actions = plan.compile(FEED)
        # /a's send at t=10 falls inside [5, 15): dropped, no retry.
        # /b's send at t=20 is after the window: delivered.
        assert [(a.kind, a.object_id) for a in actions] == [
            (DROP, "/a"), (ATTEMPT_SENT, "/b"), (DELIVER, "/b"),
        ]

    def test_downtime_window_is_half_open(self):
        window = DowntimeWindow(start=5.0, length=10.0)
        assert window.covers(5.0)
        assert window.covers(14.999)
        assert not window.covers(15.0)
        assert not window.covers(4.999)

    def test_retry_can_escape_downtime(self):
        # First attempt lands in the outage... and is abandoned outright:
        # the server loses its pending-notification state.
        plan = FaultPlan(
            downtime=(DowntimeWindow(start=5.0, length=10.0),),
            retries=3, backoff=100.0,
        )
        actions = plan.compile(((10.0, "/a"),))
        assert [a.kind for a in actions] == [DROP]

    def test_modifications_before_start_skipped(self):
        actions = FaultPlan().compile(FEED, start_time=10.0)
        assert [a.object_id for a in actions] == ["/b", "/b"]

    def test_crashes_compiled_even_with_empty_feed(self):
        actions = FaultPlan(cache_crashes=(30.0, 15.0)).compile(())
        assert [(a.kind, a.time) for a in actions] == [
            (CRASH, 15.0), (CRASH, 30.0),
        ]
        assert all(a.object_id == "" for a in actions)

    def test_crash_sorts_after_same_time_delivery(self):
        actions = FaultPlan(cache_crashes=(10.0,)).compile(((10.0, "/a"),))
        assert [a.kind for a in actions] == [ATTEMPT_SENT, DELIVER, CRASH]

    def test_crash_at_or_before_start_skipped(self):
        actions = FaultPlan(cache_crashes=(5.0,)).compile((), start_time=5.0)
        assert actions == ()

    def test_compile_is_deterministic(self):
        plan = FaultPlan(loss_rate=0.5, retries=2, seed=9)
        feed = tuple((float(i), f"/o{i % 3}") for i in range(1, 50))
        assert plan.compile(feed) == plan.compile(feed)

    def test_seed_changes_the_draws(self):
        feed = tuple((float(i), "/a") for i in range(1, 200))
        a = FaultPlan(loss_rate=0.5, seed=1).compile(feed)
        b = FaultPlan(loss_rate=0.5, seed=2).compile(feed)
        assert a != b

    def test_schedule_is_time_sorted(self):
        plan = FaultPlan(
            loss_rate=0.3, retries=3, backoff=500.0, delay=50.0,
            cache_crashes=(25.0, 90.0), seed=4,
        )
        feed = tuple((float(10 * i), f"/o{i}") for i in range(1, 12))
        times = [a.time for a in plan.compile(feed)]
        assert times == sorted(times)
