"""The metrics registry: primitives, dumps, scopes and the exact merge."""

from __future__ import annotations

import pytest

from repro.obs import names
from repro.obs.registry import (
    SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active,
    emit,
    install,
    installed,
    observe,
    scoped,
    set_gauge,
)


class TestPrimitives:
    def test_counter_accumulates(self):
        counter = Counter("cache.stores")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_gauge_last_write_wins(self):
        gauge = Gauge("sweep.grid_points")
        gauge.set(3)
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_histogram_buckets_by_upper_bound(self):
        hist = Histogram("x", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1e6):
            hist.observe(value)
        # bounds are inclusive upper edges; 1e6 overflows.
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.total == pytest.approx(0.5 + 1.0 + 5.0 + 100.0 + 1e6)

    def test_histogram_bounds_fixed_by_name(self):
        by_name = Histogram("sim.transfer_bytes")
        assert by_name.bounds == names.HISTOGRAM_BINS["sim.transfer_bytes"]
        fallback = Histogram("something.unlisted")
        assert fallback.bounds == names.DEFAULT_BINS

    def test_log_bins_shape(self):
        assert names.log_bins(1.0, 100.0, per_decade=1) == (1.0, 10.0, 100.0)
        bins = names.log_bins(1.0, 1.0e6)
        assert bins[0] == 1.0
        assert bins[-1] >= 1.0e6
        assert list(bins) == sorted(bins)

    def test_log_bins_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            names.log_bins(0.0, 10.0)
        with pytest.raises(ValueError):
            names.log_bins(10.0, 1.0)
        with pytest.raises(ValueError):
            names.log_bins(1.0, 10.0, per_decade=0)


class TestModuleHandle:
    def test_disabled_by_default(self):
        assert active() is None
        emit("cache.stores")  # all three are cheap no-ops
        observe("sim.transfer_bytes", 10.0)
        set_gauge("sweep.grid_points", 4.0)

    def test_installed_scopes_and_restores(self):
        registry = MetricsRegistry()
        with installed(registry):
            assert active() is registry
            emit("cache.stores", 2.0)
            observe("sim.transfer_bytes", 10.0)
            set_gauge("sweep.grid_points", 4.0)
        assert active() is None
        dump = registry.as_dict()
        assert dump["counters"]["cache.stores"] == 2.0
        assert dump["gauges"]["sweep.grid_points"] == 4.0
        assert dump["histograms"]["sim.transfer_bytes"]["count"] == 1

    def test_install_returns_previous(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        assert install(first) is None
        assert install(second) is first
        assert install(None) is second


class TestDump:
    def test_schema_and_sorted_keys(self):
        registry = MetricsRegistry()
        registry.counter("server.gets").add()
        registry.counter("cache.stores").add()
        dump = registry.as_dict()
        assert dump["schema"] == SCHEMA
        assert list(dump["counters"]) == ["cache.stores", "server.gets"]


class TestCaptureMerge:
    """scoped/payload/merge — a region's telemetry is what its scope holds."""

    def test_delta_drops_zero_increments(self):
        ambient = MetricsRegistry()
        ambient.counter("engine.tasks").add(4.0)  # published before the region
        with installed(ambient), scoped() as scope:
            emit("cache.stores", 3.0)
        assert scope.payload()["counters"] == {"cache.stores": 3.0}
        assert ambient.as_dict()["counters"] == {
            "cache.stores": 3.0, "engine.tasks": 4.0,
        }

    def test_delta_reports_changed_and_new_gauges_only(self):
        # A region's gauges are the ones it *set*: re-setting the value
        # an earlier region left behind is still this region's write
        # (comparing values dropped it, and a parallel run's last write
        # then depended on which worker ran which task).
        ambient = MetricsRegistry()
        ambient.gauge("sweep.grid_points").set(5.0)
        with installed(ambient), scoped() as untouched:
            pass
        assert untouched.payload()["gauges"] == {}
        with installed(ambient), scoped() as scope:
            set_gauge("sweep.grid_points", 5.0)  # unchanged value
        assert scope.payload()["gauges"] == {"sweep.grid_points": 5.0}

    def test_merged_registry_matches_direct_publication(self):
        direct = MetricsRegistry()
        for value in (10.0, 2000.0, 10.0):
            direct.histogram("sim.transfer_bytes").observe(value)
        direct.counter("cache.stores").add(3.0)
        direct.gauge("sweep.grid_points").set(2.0)

        parent = MetricsRegistry()
        worker = MetricsRegistry()  # what a task's fresh scope is
        for value in (10.0, 2000.0, 10.0):
            worker.histogram("sim.transfer_bytes").observe(value)
        worker.counter("cache.stores").add(3.0)
        worker.gauge("sweep.grid_points").set(2.0)
        parent.merge(worker.payload())

        assert parent.as_dict() == direct.as_dict()

    def test_merge_rejects_bin_mismatch(self):
        parent = MetricsRegistry()
        parent.histogram("sim.transfer_bytes").observe(1.0)
        payload = {
            "counters": {},
            "gauges": {},
            "histograms": {
                "sim.transfer_bytes": ((1.0, 2.0), [1, 0, 0], 1.0, 1)
            },
        }
        with pytest.raises(ValueError, match="bin mismatch"):
            parent.merge(payload)


class TestScoped:
    """``scoped()``: capture by construction, fold by the exact merge."""

    @staticmethod
    def publish():
        emit("cache.stores", 2.0)
        set_gauge("sweep.grid_points", 5.0)
        # 1e16 + 1 + 1 rounds differently grouped than summed in order:
        # only an exact fold reproduces the direct total.
        for value in (1.0, 1e16, 1.0):
            observe("sim.transfer_bytes", value)

    def direct(self):
        registry = MetricsRegistry()
        registry.gauge("sweep.grid_points").set(5.0)  # about to be re-set
        with installed(registry):
            observe("sim.transfer_bytes", 1.0)
            self.publish()
        return registry

    def test_ambient_equals_direct_publication(self):
        ambient = MetricsRegistry()
        ambient.gauge("sweep.grid_points").set(5.0)
        with installed(ambient):
            observe("sim.transfer_bytes", 1.0)
            with scoped() as scope:
                assert active() is scope
                self.publish()
            assert active() is ambient
        assert ambient.as_dict() == self.direct().as_dict()
        assert scope.as_dict()["counters"] == {"cache.stores": 2.0}

    def test_nested_scopes_fold_outward(self):
        ambient = MetricsRegistry()
        ambient.gauge("sweep.grid_points").set(5.0)
        with installed(ambient):
            observe("sim.transfer_bytes", 1.0)
            with scoped() as outer:
                emit("cache.stores")
                with scoped() as inner:
                    emit("cache.stores")
                    set_gauge("sweep.grid_points", 5.0)
                    for value in (1.0, 1e16, 1.0):
                        observe("sim.transfer_bytes", value)
        assert inner.counter("cache.stores").value == 1.0
        assert outer.counter("cache.stores").value == 2.0
        assert outer.as_dict()["gauges"] == {"sweep.grid_points": 5.0}
        assert ambient.as_dict() == self.direct().as_dict()

    def test_collects_with_no_ambient_registry(self):
        assert active() is None
        with scoped() as scope:
            self.publish()
        assert active() is None
        assert scope.counter("cache.stores").value == 2.0
        assert scope.histogram("sim.transfer_bytes").count == 3

    def test_exception_still_folds_what_was_published(self):
        ambient = MetricsRegistry()
        with installed(ambient):
            with pytest.raises(RuntimeError):
                with scoped():
                    emit("cache.stores", 2.0)
                    raise RuntimeError("task failed")
            assert active() is ambient
        assert ambient.as_dict()["counters"] == {"cache.stores": 2.0}
