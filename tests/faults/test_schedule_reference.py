"""``FaultPlan.columns`` against a literal per-line reference (hypothesis).

The simulator, the spec model and the fast kernel all replay the one
schedule ``columns`` builds, so no differential leg can see a mistake in
it.  This file is its independent check: :func:`reference_columns` is the
row loop ``columns`` used to be — one notice at a time, one attempt at a
time, the scalar :meth:`FaultPlan.server_down` / :meth:`attempt_lost`
draws, one stable sort on time — and the property requires the array
implementation to return the same columns: same values, same element
types, same signed zeros.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    ATTEMPT_LOST,
    ATTEMPT_SENT,
    CRASH,
    DELIVER,
    DROP,
    ActionColumns,
    DowntimeWindow,
    FaultPlan,
)


def reference_columns(plan, feed_times, feed_keys, crash_key, start_time=0.0):
    """The schedule, built row by row."""
    rows = []
    for index, mod_time in enumerate(feed_times):
        if mod_time <= start_time:
            continue
        key = feed_keys[index]
        for attempt in range(plan.retries + 1):
            send_time = mod_time + plan.backoff * float((1 << attempt) - 1)
            if plan.server_down(send_time):
                rows.append((send_time, DROP, key, mod_time, attempt))
                break
            if plan.attempt_lost(index, attempt):
                rows.append((send_time, ATTEMPT_LOST, key, mod_time, attempt))
                if attempt == plan.retries:
                    rows.append((send_time, DROP, key, mod_time, attempt))
                continue
            rows.append((send_time, ATTEMPT_SENT, key, mod_time, attempt))
            rows.append(
                (send_time + plan.delay, DELIVER, key, mod_time, attempt)
            )
            break
    for crash_time in plan.cache_crashes:
        if crash_time > start_time:
            rows.append(
                (float(crash_time), CRASH, crash_key, float(crash_time), 0)
            )
    rows.sort(key=itemgetter(0))
    if not rows:
        return ActionColumns((), (), (), (), ())
    return ActionColumns(*zip(*rows))


def assert_same_columns(got, want):
    for name in ("times", "kinds", "keys", "mod_times", "attempts"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert type(mine) is tuple, name
        assert mine == theirs, name
        assert [type(v) for v in mine] == [type(v) for v in theirs], name
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(mine) == repr(theirs), name


#: Integer-valued times on a small grid, so that duplicates, window
#: edges, backoff sends and crash/delivery ties coincide exactly.
grid = st.integers(min_value=-40, max_value=400).map(float)
times = st.one_of(
    grid,
    st.floats(min_value=-50.0, max_value=500.0, allow_nan=False),
    st.just(-0.0),
)


@st.composite
def schedules(draw):
    feed = draw(st.lists(times, max_size=40))
    if draw(st.booleans()):
        feed.sort()
    starts = st.one_of(st.just(0.0), grid)
    if feed:
        starts = st.one_of(starts, st.sampled_from(feed))
    start_time = draw(starts)
    delay = draw(st.one_of(st.just(0.0), grid.map(abs), times.map(abs)))
    retries = draw(st.integers(min_value=0, max_value=4))
    backoff = draw(st.one_of(
        st.sampled_from([1.0, 10.0, 50.0]),
        st.floats(min_value=0.5, max_value=200.0),
    ))
    # Window edges sit on feed times and on backoff sends, so the
    # half-open end is hit as well as the closed start.
    anchors = st.sampled_from(feed) if feed else grid
    edges = st.one_of(grid, anchors, anchors.map(lambda t: t + backoff))
    windows = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(edges)
        if draw(st.booleans()):
            end = draw(edges)
            length = end - start
        else:
            length = draw(st.floats(min_value=0.5, max_value=300.0))
        if length > 0.0:
            windows.append(DowntimeWindow(start=start, length=length))
    crash_times = st.one_of(
        grid, anchors, anchors.map(lambda t: t + delay))
    crashes = draw(st.lists(crash_times, max_size=4))
    loss = draw(st.one_of(
        st.just(0.0), st.just(1.0),
        st.floats(min_value=0.0, max_value=1.0,
                  exclude_min=True, exclude_max=True),
    ))
    plan = FaultPlan(
        loss_rate=loss, delay=delay, downtime=tuple(windows),
        cache_crashes=tuple(crashes), retries=retries, backoff=backoff,
        seed=draw(st.integers(min_value=-(2**63), max_value=2**64 - 1)),
    )
    return plan, feed, start_time


@settings(max_examples=400, deadline=None)
@given(schedule=schedules(), by_index=st.booleans())
@example(
    schedule=(FaultPlan(cache_crashes=(10.0,)), [10.0], 0.0), by_index=True)
@example(
    schedule=(FaultPlan(
        downtime=(DowntimeWindow(start=5.0, length=5.0),),
        loss_rate=1.0, retries=2, backoff=5.0,
    ), [0.0, 5.0, 10.0, -0.0], -1.0), by_index=False)
def test_columns_equal_the_row_loop(schedule, by_index):
    plan, feed, start_time = schedule
    if by_index:
        keys, crash_key = list(range(len(feed))), -1
    else:
        keys, crash_key = [f"/o{i % 5}" for i in range(len(feed))], ""
    assert_same_columns(
        plan.columns(feed, keys, crash_key, start_time),
        reference_columns(plan, feed, keys, crash_key, start_time),
    )


@settings(max_examples=200, deadline=None)
@given(schedule=schedules(), retries=st.integers(min_value=0, max_value=4),
       backoff=st.floats(min_value=0.5, max_value=200.0),
       seed=st.integers(min_value=0, max_value=2**32))
@example(schedule=(FaultPlan(retries=0), [5.0, -0.0, 7.0], -1.0), retries=3,
         backoff=300.0, seed=0)
def test_plans_with_one_schedule_key_resolve_alike(schedule, retries, backoff,
                                                   seed):
    """At loss rate 0 the columns do not depend on ``retries`` or
    ``backoff`` (nor, where nothing is drawn, on ``seed``): every plan whose
    ``schedule_key`` equals another's resolves any feed as it does."""
    plan, feed, start_time = schedule
    twin = replace(plan, retries=retries, backoff=backoff, seed=seed)
    if plan.loss_rate == 0.0:
        assert twin.schedule_key == plan.schedule_key
    if twin.schedule_key != plan.schedule_key:
        return
    keys = list(range(len(feed)))
    got = twin.columns(feed, keys, -1, start_time)
    want = plan.columns(feed, keys, -1, start_time)
    assert_same_columns(got, want)
    for name in ("lines", "codes", "at"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name


def test_mod_times_are_the_feeds_own_floats():
    feed = [float(t) * 1.5 for t in range(1, 200)]
    plan = FaultPlan(loss_rate=0.5, retries=2, seed=3)
    columns = plan.columns(feed, list(range(len(feed))), -1)
    assert all(
        value is feed[key]
        for value, key in zip(columns.mod_times, columns.keys)
    )
