"""Profiling hooks: phase timers, the protocol wrapper, reporting."""

from __future__ import annotations

import re

from repro.core.clock import hours
from repro.core.protocols import TTLProtocol
from repro.core.simulator import SimulatorMode, simulate
from repro.obs import profile
from repro.workload.worrell import WorrellWorkload


class TestPhaseTimers:
    def test_phase_noop_when_disabled(self):
        with profile.phase("harvest"):
            pass
        assert profile.phase_breakdown() == []

    def test_phase_accumulates_when_enabled(self):
        profile.enable()
        with profile.phase("harvest"):
            pass
        with profile.phase("harvest"):
            pass
        rows = profile.phase_breakdown()
        assert [name for name, _ in rows] == ["harvest"]
        assert rows[0][1] >= 0.0

    def test_breakdown_orders_known_phases(self):
        profile.add_phase("harvest", 2.0)
        profile.add_phase("fork", 1.0)
        profile.add_phase("custom", 9.0)  # extras trail in sorted order
        assert profile.phase_breakdown() == [
            ("fork", 1.0), ("harvest", 2.0), ("custom", 9.0)
        ]

    def test_reset_keeps_enabled_flag(self):
        profile.enable()
        profile.add_phase("serial", 1.0)
        profile.reset()
        assert profile.phase_breakdown() == []
        assert profile.is_enabled()


class TestCaptureMerge:
    def test_delta_and_merge_are_additive(self):
        # The worker side: reset the forked copy, run, ship the totals.
        profile.add_phase("harvest", 1.0)  # an earlier task's leftovers
        profile.reset()
        profile.add_phase("harvest", 0.5)
        profile.add_hook("TTLProtocol.is_fresh", 0.25)
        payload = profile.snapshot()
        assert payload["phases"] == {"harvest": 0.5}
        assert payload["hook_calls"] == {"TTLProtocol.is_fresh": 1}
        # The parent side: totals add.
        profile.add_phase("harvest", 1.0)
        profile.add_hook("TTLProtocol.is_fresh", 0.25)
        profile.merge(payload)
        assert dict(profile.phase_breakdown())["harvest"] == 2.0
        assert profile.hook_table()[0][1] == 3  # 1 + 1 real, 1 merged


class TestProfiledProtocol:
    def test_transparent_to_the_simulation(self):
        workload = WorrellWorkload(files=10, requests=300, seed=5).build()
        plain = simulate(
            workload.server(), TTLProtocol(hours(10)), workload.requests,
            SimulatorMode.OPTIMIZED, end_time=workload.duration,
        )
        profiled = simulate(
            workload.server(),
            profile.ProfiledProtocol(TTLProtocol(hours(10))),
            workload.requests,
            SimulatorMode.OPTIMIZED, end_time=workload.duration,
        )
        assert profiled.counters == plain.counters
        assert profiled.bandwidth == plain.bandwidth
        assert profiled.protocol_name == plain.protocol_name

    def test_hooks_keyed_by_wrapped_class(self):
        wrapped = profile.ProfiledProtocol(TTLProtocol(hours(1)))
        assert wrapped.name == TTLProtocol(hours(1)).name
        assert wrapped.wants_invalidations == (
            TTLProtocol(hours(1)).wants_invalidations
        )
        workload = WorrellWorkload(files=10, requests=200, seed=5).build()
        simulate(
            workload.server(), wrapped, workload.requests,
            SimulatorMode.OPTIMIZED, end_time=workload.duration,
        )
        hooks = {name for name, _, _ in profile.hook_table()}
        assert "TTLProtocol.is_fresh" in hooks
        assert "TTLProtocol.on_stored" in hooks

    def test_attribute_delegation(self):
        inner = TTLProtocol(hours(2))
        wrapped = profile.ProfiledProtocol(inner)
        assert wrapped.ttl == inner.ttl
        assert "ProfiledProtocol" in repr(wrapped)


class TestReport:
    def test_render_report_shape(self):
        profile.add_phase("fork", 0.1)
        profile.add_phase("harvest", 0.9)
        # Longer than any engine phase name, and nested inside harvest.
        profile.add_phase("fastpath.simulate", 0.8)
        profile.add_hook("AlexProtocol.is_fresh", 0.5)
        text = profile.render_report(total_wall=2.0)
        assert "engine phase breakdown:" in text
        assert "fork" in text and "harvest" in text
        assert "total wall" in text
        assert "AlexProtocol.is_fresh" in text
        assert "1 calls" in text
        breakdown = text.split("\n\n")[0].splitlines()
        # Every data row ends its seconds column at one offset, whatever
        # the length of the phase name.
        seconds_end = [
            match.end()
            for match in (re.search(r"\d\.\d{4}s", line) for line in breakdown)
            if match is not None
        ]
        assert len(seconds_end) == 4  # fork, harvest, nested, total wall
        assert len(set(seconds_end)) == 1
        # The nested phase is indented under "of which" and its share
        # is not a top-level one: those sum to at most 100 %.
        of_which = breakdown.index("  of which:")
        assert breakdown[of_which + 1].startswith("    fastpath.simulate")
        top_shares = [
            float(line.split()[-1].rstrip("%"))
            for line in breakdown[1:of_which]
        ]
        assert sum(top_shares) <= 100.0

    def test_render_report_empty_hints(self):
        text = profile.render_report()
        assert "no phases recorded" in text
        assert "no hooks timed" in text
