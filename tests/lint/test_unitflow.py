"""Retired RPR002: a unit carried through locals, returns and calls.

The linter propagated units from names through locals, helper returns
and call arguments.  The oracle needs no propagation: however a seconds
value reaches a byte cell, the cell differs from the spec's and the
fast path's.  Each former fixture's shape is planted at a real site of
``repro.core`` or ``repro.fastpath`` and caught by one small oracle cell
(:func:`tests.lint.conftest.oracle_cell`).
"""

from repro.core import server, step
from repro.core.clock import days, hours
from repro.core.protocols import InvalidationProtocol, TTLProtocol
from repro.fastpath import arrays
from repro.faults import FaultPlan
from repro.obs import registry
from tests.lint.conftest import oracle_cell
from tests.verify.test_oracle import ALL_PROTOCOLS


class TestReturnPropagation:
    def test_unit_flows_through_local_and_return(self, plant):
        # CacheEntry.age returns validated_at - last_modified (seconds);
        # the 304's body local takes it on.
        plant(step.RequestStep, "validated", "validation_not_modified()",
              "validation_not_modified()\nbody += entry.age")
        assert "spec.bandwidth.body_bytes[validation_304]" in oracle_cell(
            TTLProtocol(hours(24)))

    def test_chain_of_helpers(self, plant):
        # age_at -> last_modified_at -> version_at: seconds two helpers
        # deep, added to the size every reply carries.
        plant(server.OriginServer, "get", "size=obj.size,",
              "size=obj.size + history.schedule.age_at(t),")
        assert {"spec.bandwidth.body_bytes[full_retrieval]",
                "spec.bandwidth.body_bytes[validation_200]"} <= oracle_cell(
            TTLProtocol(hours(24)))

    def test_cross_module_propagation(self, plant):
        # repro.fastpath subtracting what a repro.core helper returns:
        # the compiled sizes lose each object's age.  Only the fast path
        # reads them, so only its leg diverges.
        plant(arrays, "_compile", "sizes.append(obj.size)",
              "sizes.append(obj.size - history.schedule.age_at(0.0))")
        cells = oracle_cell(TTLProtocol(hours(24)))
        assert "fastpath.bandwidth.body_bytes[full_retrieval]" in cells
        assert all(cell.startswith("fastpath.") for cell in cells)

    def test_mixed_returns_stay_unknown(self, plant):
        # The oracle sees what runs, as the linter saw what it could
        # infer: a mix on the cache-crash branch passes a plan that
        # never crashes the cache, and fails one that does.
        plant(step.RequestStep, "fault", "self.cache.clear()",
              "self.cache.clear()\n"
              "self.bandwidth.body_bytes[INVALIDATION] += action.time")
        assert oracle_cell(InvalidationProtocol(),
                           FaultPlan(delay=hours(2), seed=4)) == set()
        assert "spec.bandwidth.body_bytes[invalidation]" in oracle_cell(
            InvalidationProtocol(), FaultPlan(cache_crashes=(days(3),)))


class TestLocalPropagation:
    def test_local_alias_mixes(self, plant):
        # An eager push's time, through a local, into its body bytes.
        plant(step.RequestStep, "prefetched",
              "self.bandwidth.charge(PREFETCH, control, body)",
              "window = t\n"
              "self.bandwidth.charge(PREFETCH, control, window + body)")
        assert "spec.bandwidth.body_bytes[prefetch]" in oracle_cell(
            InvalidationProtocol(eager=True))

    def test_reassignment_clears_unit(self, plant):
        plant(step.RequestStep, "prefetched",
              "self.bandwidth.charge(PREFETCH, control, body)",
              "window = t\n"
              "window = 0\n"
              "self.bandwidth.charge(PREFETCH, control, window + body)")
        assert oracle_cell(InvalidationProtocol(eager=True)) == set()


class TestCallArguments:
    def test_wrong_unit_argument_flagged(self, plant):
        # A time where full_retrieval's body_size goes, positionally.
        plant(step.RequestStep, "fetched", "full_retrieval(result.size)",
              "full_retrieval(t)")
        assert "spec.bandwidth.body_bytes[full_retrieval]" in oracle_cell(
            TTLProtocol(hours(24)))

    def test_keyword_argument_checked(self, plant):
        plant(step.RequestStep, "validated", "validation_modified(reply.size)",
              "validation_modified(body_size=t - entry.validated_at)")
        assert "spec.bandwidth.body_bytes[validation_200]" in oracle_cell(
            TTLProtocol(hours(24)))

    def test_matching_unit_argument_clean(self, plant):
        plant(step.RequestStep, "fetched", "full_retrieval(result.size)",
              "full_retrieval(body_size=result.size)")
        assert oracle_cell(TTLProtocol(hours(24))) == set()


class TestDeduplicationAndScope:
    def test_rpr002_visible_mixes_are_not_duplicated(self, plant):
        # One plant, one cell per leg: body_bytes + elapsed_seconds in
        # the 200's charge moves its body cell and nothing else.
        plant(step.RequestStep, "validated",
              "charge(VALIDATION_200, control, body)",
              "charge(VALIDATION_200, control, body + t - entry.validated_at)")
        assert oracle_cell(TTLProtocol(hours(24))) == {
            "spec.bandwidth.body_bytes[validation_200]",
            "fastpath.bandwidth.body_bytes[validation_200]"}

    def test_out_of_scope_module_not_checked(self, plant):
        # A mix in repro.obs (each histogram's sum takes its sample count
        # on) is telemetry both engines publish through: no cell and no
        # dump differs, as the linter did not propagate there either.
        plant(registry.Histogram, "observe",
              "_accumulate(self.partials, value)",
              "_accumulate(self.partials, value + self.count)")
        assert oracle_cell(TTLProtocol(hours(24))) == set()

    def test_shipped_tree_is_clean(self):
        assert {factory().name: oracle_cell(factory())
                for factory in ALL_PROTOCOLS} == {
                    factory().name: set() for factory in ALL_PROTOCOLS}
