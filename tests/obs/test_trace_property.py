"""Property-based trace-schema round-trip: JSONL write → load → merge.

The live leg's observability rests on three per-role ``repro.trace/1``
files surviving the disk round trip *exactly* and merging into one
``repro.trace/2`` timeline with ids and ordering intact.  Hypothesis
drives arbitrary record sequences (events, spans, marks, in any
interleaving) through:

* :func:`repro.obs.trace.write_jsonl` → :func:`~repro.obs.trace.load_jsonl`
  — lossless, header ``proc`` included;
* a mid-write kill (the file truncated at an arbitrary byte) — the
  torn-line-tolerant loader must return a clean *prefix* of the
  records, mirroring the live journal's torn-line tests;
* :func:`repro.obs.timeline.merge` over three role files — every
  record present exactly once, stamped with its role, trace ids
  untouched, and the timeline ordered by ``clk`` (unclocked records
  first) with per-role file order preserved among ties.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import names, timeline
from repro.obs import trace as obs_trace

#: JSON-safe strings (no surrogates; utf-8 encodable).
_names = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
    min_size=0,
    max_size=20,
)
#: The sink records only declared span names and mark kinds.
_span_names = st.sampled_from(names.SPAN_NAMES)
_mark_kinds = st.sampled_from(names.TRACE_MARK_NAMES)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_meta = st.dictionaries(
    st.text(alphabet="abcdefgh.", min_size=1, max_size=8),
    st.one_of(_names, _floats, st.integers(-10, 10), st.none()),
    max_size=3,
)


@st.composite
def records(draw) -> dict:
    """One record in any of the three shapes, via the sink API."""
    shape = draw(st.sampled_from(["event", "span", "mark"]))
    sink = obs_trace.TraceSink()
    if shape == "event":
        sink.event(draw(_names), draw(_floats), draw(_names))
    elif shape == "span":
        meta = draw(st.one_of(st.none(), _meta))
        sink.span(draw(_span_names), draw(_floats), meta)
    else:
        trace_id = draw(st.one_of(st.none(), _names))
        sink.mark(draw(_mark_kinds), trace_id, draw(_floats), **draw(_meta))
    return sink.records[0]


def _fill(sink: obs_trace.TraceSink, items: list[dict]) -> None:
    sink.records.extend(dict(record) for record in items)


class TestRoundTrip:
    @given(
        items=st.lists(records(), max_size=20),
        proc=st.one_of(st.none(), st.sampled_from(["driver", "proxy", "x"])),
    )
    @settings(max_examples=60, deadline=None)
    def test_write_then_load_is_lossless(self, tmp_path_factory, items, proc):
        path = tmp_path_factory.mktemp("trace") / "t.jsonl"
        sink = obs_trace.TraceSink(proc=proc)
        _fill(sink, items)
        lines = obs_trace.write_jsonl(sink, path)
        assert lines == len(items) + 1  # records + header
        header, loaded = obs_trace.load_jsonl(path)
        assert header.get("schema") == obs_trace.SCHEMA
        assert header.get("proc") == proc
        assert loaded == sink.records

    @given(
        items=st.lists(records(), min_size=1, max_size=12),
        cut=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_torn_tail_yields_a_clean_prefix(self, tmp_path_factory, items,
                                             cut):
        """Truncating anywhere after the header loses at most a suffix."""
        path = tmp_path_factory.mktemp("trace") / "t.jsonl"
        sink = obs_trace.TraceSink(proc="proxy")
        _fill(sink, items)
        obs_trace.write_jsonl(sink, path)
        raw = path.read_bytes()
        header_end = raw.index(b"\n") + 1
        torn = raw[: header_end + cut % max(1, len(raw) - header_end + 1)]
        path.write_bytes(torn)
        _, loaded = obs_trace.load_jsonl(path)
        assert loaded == sink.records[: len(loaded)]  # a prefix, in order


class TestMergeProperties:
    @given(
        per_role=st.fixed_dictionaries({
            "driver": st.lists(records(), max_size=10),
            "proxy": st.lists(records(), max_size=10),
            "origin": st.lists(records(), max_size=10),
        }),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_preserves_ids_and_orders_by_clk(self, tmp_path_factory,
                                                   per_role):
        base = tmp_path_factory.mktemp("trace") / "TRACE.jsonl"
        paths = timeline.role_trace_paths(base)
        for role, items in per_role.items():
            sink = obs_trace.TraceSink(proc=role)
            _fill(sink, items)
            obs_trace.write_jsonl(sink, paths[role])
        merged = timeline.merge(base)

        assert merged["schema"] == timeline.SCHEMA
        assert set(merged["roles"]) == {"driver", "proxy", "origin"}

        # Exactly-once: stripping the proc stamp recovers each role's
        # records as a multiset (the sort may legitimately reorder a
        # role's records relative to its file when clks interleave).
        for role, items in per_role.items():
            survived = sorted(
                json.dumps(
                    {k: v for k, v in record.items() if k != "proc"},
                    sort_keys=True,
                )
                for record in merged["records"]
                if record["proc"] == role
            )
            assert survived == sorted(
                json.dumps(record, sort_keys=True) for record in items
            )

        # Ordering: clk is non-decreasing, unclocked records first.
        keys = [
            -math.inf if timeline._clk(record) is None
            else timeline._clk(record)
            for record in merged["records"]
        ]
        assert keys == sorted(keys)

        # Trace ids survive untouched (the merge key must never warp).
        merged_ids = sorted(
            record["trace"]
            for record in merged["records"]
            if record["type"] == "mark" and record["trace"] is not None
        )
        original_ids = sorted(
            record["trace"]
            for items in per_role.values()
            for record in items
            if record["type"] == "mark" and record["trace"] is not None
        )
        assert merged_ids == original_ids
