"""Result containers, merging, and Figure-6-style averaging."""

import pytest

from repro.core.metrics import FULL_RETRIEVAL
from repro.core.results import SimulationResult, average_results, merge_results


def make_result(name="alex(10%)", mode="optimized", requests=10, misses=2,
                stale=1, body_bytes=1_000_000, ops=5) -> SimulationResult:
    result = SimulationResult(protocol_name=name, mode=mode)
    result.counters.requests = requests
    result.counters.misses = misses
    result.counters.hits = requests - misses
    result.counters.stale_hits = stale
    result.counters.server_gets = ops
    result.bandwidth.charge(FULL_RETRIEVAL, 0, body_bytes)
    result.duration = 100.0
    return result


class TestSimulationResult:
    def test_derived_metrics(self):
        result = make_result()
        assert result.total_megabytes == 1.0
        assert result.miss_rate == 0.2
        assert result.stale_hit_rate == 0.1
        assert result.server_operations == 5

    def test_summary_keys(self):
        summary = make_result().summary()
        assert set(summary) == {
            "total_mb", "miss_rate", "stale_hit_rate",
            "server_operations", "requests", "mean_round_trips",
        }


class TestMergeResults:
    def test_sums_counters_and_bytes(self):
        merged = merge_results([make_result(), make_result(requests=20,
                                                           misses=5)])
        assert merged.counters.requests == 30
        assert merged.counters.misses == 7
        assert merged.total_megabytes == 2.0

    def test_keeps_max_duration(self):
        a, b = make_result(), make_result()
        b.duration = 500.0
        assert merge_results([a, b]).duration == 500.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_results([])

    def test_mixed_protocols_rejected(self):
        with pytest.raises(ValueError):
            merge_results([make_result("alex(1%)"), make_result("ttl(5h)")])

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValueError):
            merge_results([make_result(mode="base"),
                           make_result(mode="optimized")])


class TestAverageResults:
    def test_equal_weighting(self):
        avg = average_results(
            [make_result(body_bytes=1_000_000),
             make_result(body_bytes=3_000_000)]
        )
        assert avg["total_mb"] == 2.0

    def test_rates_averaged_as_rates(self):
        # 20% and 50% miss rates average to 35% regardless of volumes.
        a = make_result(requests=10, misses=2)
        b = make_result(requests=100, misses=50)
        avg = average_results([a, b])
        assert avg["miss_rate"] == pytest.approx(0.35)

    def test_single_result_identity(self):
        result = make_result()
        assert average_results([result]) == result.summary()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_results([])

    def test_folds_left_to_right_on_every_python(self):
        # Naively, 1e16 + 1.0 is 1e16 and the 1.0 is gone; builtin sum()
        # on 3.12 compensates and keeps it.  Both CI legs must agree.
        results = [make_result(ops=10**16), make_result(ops=1),
                   make_result(ops=-10**16)]
        assert average_results(results)["server_operations"] == 0.0

    def test_one_summary_per_result(self, monkeypatch):
        calls = []
        summary = SimulationResult.summary

        def counting(result):
            calls.append(result)
            return summary(result)

        monkeypatch.setattr(SimulationResult, "summary", counting)
        results = [make_result(), make_result(requests=20)]
        average_results(results)
        assert calls == results
