"""The BU daily-sampling methodology (Table 2)."""

import pytest

from repro.core.clock import DAY, days
from repro.trace.sampler import DailySampler
from repro.workload.boston import BU_WINDOW, BostonPopulation
from tests.conftest import make_history


class TestSampling:
    def test_one_sample_per_day(self):
        sampler = DailySampler([make_history("/a")], window=days(10))
        samples = sampler.run()
        assert [s.day for s in samples] == list(range(1, 11))

    def test_change_lands_on_right_day(self):
        sampler = DailySampler(
            [make_history("/a", changes=(days(2.5),))], window=days(5)
        )
        samples = sampler.run()
        assert samples[2].day == 3
        assert samples[2].changed == {"/a"}
        assert all(not s.changed for s in samples if s.day != 3)

    def test_same_day_changes_collapse(self):
        """Day granularity masks multiple changes in one day."""
        sampler = DailySampler(
            [make_history("/a", changes=(days(2.1), days(2.5), days(2.9)))],
            window=days(5),
        )
        samples = sampler.run()
        counts = sampler.observed_change_days(samples)
        assert counts["/a"] == 1

    def test_changes_on_distinct_days_all_seen(self):
        sampler = DailySampler(
            [make_history("/a", changes=(days(1.5), days(3.5)))],
            window=days(5),
        )
        counts = sampler.observed_change_days(sampler.run())
        assert counts["/a"] == 2

    def test_window_shorter_than_a_day_rejected(self):
        with pytest.raises(ValueError):
            DailySampler([], window=0.5 * DAY)

    def test_masking_loss(self):
        sampler = DailySampler(
            [make_history("/a", changes=(days(2.1), days(2.5), days(2.9)))],
            window=days(5),
        )
        loss = sampler.masking_loss(sampler.run())
        assert loss == pytest.approx(2 / 3)

    def test_masking_loss_zero_when_no_changes(self):
        sampler = DailySampler([make_history("/a")], window=days(5))
        assert sampler.masking_loss(sampler.run()) == 0.0


class TestEstimators:
    def test_never_changed_file_gets_window_lifespan(self):
        """The paper's conservative bias: unchanged files are assumed to
        have changed exactly once, capping life-spans at the window."""
        sampler = DailySampler([make_history("/a")], window=days(100))
        estimates = sampler.estimate_lifespans(sampler.run())
        est = estimates["html"]
        assert est.median_lifespan_days == 100.0
        assert est.avg_age_days == 100.0

    def test_changed_file_lifespan(self):
        sampler = DailySampler(
            [make_history("/a", changes=(days(10.5), days(50.5)))],
            window=days(100),
        )
        est = sampler.estimate_lifespans(sampler.run())["html"]
        assert est.median_lifespan_days == 50.0        # 100 / 2 changes
        assert est.avg_age_days == pytest.approx(49.0)  # last change day 51

    def test_per_type_grouping(self):
        sampler = DailySampler(
            [
                make_history("/a", file_type="gif"),
                make_history("/b", file_type="html",
                             changes=(days(5.5),)),
            ],
            window=days(10),
        )
        estimates = sampler.estimate_lifespans(sampler.run())
        assert set(estimates) == {"gif", "html"}
        assert estimates["gif"].files == 1
        assert estimates["html"].observed_change_days == 1

    def test_last_observed_change(self):
        sampler = DailySampler(
            [make_history("/a", changes=(days(1.5), days(7.5)))],
            window=days(10),
        )
        last = sampler.last_observed_change(sampler.run())
        assert last["/a"] == 8

    def test_frequent_changes_short_lifespan(self):
        changes = tuple(days(d + 0.5) for d in range(0, 100, 2))
        sampler = DailySampler(
            [make_history("/hot", changes=changes)], window=days(100)
        )
        est = sampler.estimate_lifespans(sampler.run())["html"]
        assert est.median_lifespan_days == pytest.approx(2.0)


def _per_day(sampler):
    """Day by day, every file's changes in ``((d - 1) * DAY, d * DAY]``
    counted by its schedule: the log as the sampler once derived it."""
    return [
        frozenset(h.object_id for h in sampler.histories
                  if h.schedule.changes_in((day - 1) * DAY, day * DAY) > 0)
        for day in range(1, sampler.days + 1)
    ]


class TestBucketedOnce:
    """``run`` puts each change into its day once; the log is the one the
    per-day count over every (day, file) pair gives."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_bu_population(self, seed):
        sampler = DailySampler(
            BostonPopulation(files=600, seed=seed + 1).build(), BU_WINDOW)
        assert [s.changed for s in sampler.run()] == _per_day(sampler)

    def test_changes_at_day_bounds_and_at_zero(self):
        bounds = (0.0, DAY, 2 * DAY, days(3), 5 * DAY, days(5) + 1e-9)
        sampler = DailySampler([
            make_history("/bounds", changes=bounds),
            make_history("/zero", changes=(0.0,)),
            make_history("/before", changes=(-DAY, -1e-9)),
            make_history("/after", changes=(days(5.5), days(6))),
            make_history("/last", changes=(5 * DAY,)),
        ], window=days(5.5))
        samples = sampler.run()
        assert [s.changed for s in samples] == _per_day(sampler)
        # A change exactly at a day's end is that day's; at 0, no day's.
        assert [sorted(s.changed) for s in samples] == [
            ["/bounds"], ["/bounds"], ["/bounds"], [], ["/bounds", "/last"]]
