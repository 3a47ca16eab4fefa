"""The request transition, pinned where it is written.

One table drives :class:`repro.core.step.RequestStep` the way its three
adapters do — ``begin``, the exchange the step asks for answered from a
script, then ``hit`` / ``fetched`` / ``validated`` — over the product of
entry state x simulator mode x scripted origin reply, and pins for each
row the counter deltas, the one ledger cell charged, and the event
emitted.  A second table does the same for invalidation delivery.
"""

import pytest

from repro.core.cache import Cache
from repro.core.costs import DEFAULT_COSTS
from repro.core.metrics import (
    FULL_RETRIEVAL,
    INVALIDATION,
    PREFETCH,
    VALIDATION_200,
    VALIDATION_304,
    BandwidthLedger,
    ConsistencyCounters,
)
from repro.core.protocols import InvalidationProtocol, TTLProtocol
from repro.core.server import FetchResult, NotModified
from repro.core.step import EVENT_KINDS, RequestStep, SimulatorMode
from repro.faults.plan import (
    ATTEMPT_LOST,
    ATTEMPT_SENT,
    CRASH,
    DELIVER,
    DROP,
    FaultAction,
)
from repro.fastpath.contract import COUNTER_FIELDS

BASE, OPTIMIZED = SimulatorMode.BASE, SimulatorMode.OPTIMIZED
SIZE = 1000
HELD = FetchResult(version=0, last_modified=-50.0, size=SIZE)
NEWER = FetchResult(version=1, last_modified=12.0, size=SIZE)


def make_step(protocol, mode=OPTIMIZED, per_modification=True):
    events = []
    step = RequestStep(
        Cache(), protocol, mode, DEFAULT_COSTS, per_modification,
        ConsistencyCounters(), BandwidthLedger(),
        lambda kind, t, oid: events.append((kind, t, oid)),
    )
    return step, events


def nonzero(counters):
    return {
        name: getattr(counters, name)
        for name in COUNTER_FIELDS
        if getattr(counters, name)
    }


def charged(ledger):
    return {
        category: (ledger.control_bytes[category], ledger.body_bytes[category])
        for category, n in ledger.exchanges.items()
        if n
    }


# (entry state, mode, scripted reply) -> (exchange asked for, counter
# deltas besides ``requests``, ledger cell (control, body), event,
# version resident afterwards or None).  The scripted reply is the
# origin's answer *if* asked: "304" = unchanged, "200" = a newer version,
# "no-store" = a newer version the origin marks uncacheable.
MISS = ("get", {"misses": 1, "full_retrievals": 1},
        (FULL_RETRIEVAL, (86, SIZE)), "miss")
DYNAMIC = MISS[:3] + ("dynamic_fetch",)
HIT = ("none", {"hits": 1}, None, "hit")
V304 = ("ims", {"validations": 1, "validations_not_modified": 1, "hits": 1},
        (VALIDATION_304, (86, 0)), "validation_304")
V200 = ("ims", {"validations": 1, "misses": 1},
        (VALIDATION_200, (86, SIZE)), "validation_200")
ROWS = [
    ("absent", BASE, "304", MISS + (0,)),
    ("absent", BASE, "200", MISS + (1,)),
    ("absent", BASE, "no-store", DYNAMIC + (None,)),
    ("absent", OPTIMIZED, "304", MISS + (0,)),
    ("absent", OPTIMIZED, "200", MISS + (1,)),
    ("absent", OPTIMIZED, "no-store", DYNAMIC + (None,)),
    ("fresh", BASE, "304", HIT + (0,)),
    ("fresh", BASE, "200", HIT + (0,)),
    ("fresh", BASE, "no-store", HIT + (0,)),
    ("fresh", OPTIMIZED, "304", HIT + (0,)),
    ("fresh", OPTIMIZED, "200", HIT + (0,)),
    ("fresh", OPTIMIZED, "no-store", HIT + (0,)),
    # Base mode refetches an expired entry even when nothing changed.
    ("expired", BASE, "304", MISS + (0,)),
    ("expired", BASE, "200", MISS + (1,)),
    ("expired", BASE, "no-store", DYNAMIC + (0,)),
    ("expired", OPTIMIZED, "304", V304 + (0,)),
    ("expired", OPTIMIZED, "200", V200 + (1,)),
    # A conditional reply carries no cacheability: a resident entry was
    # cacheable when it was stored, so this settles like any 200.
    ("expired", OPTIMIZED, "no-store", V200 + (1,)),
]


@pytest.mark.parametrize(
    "state,mode,reply,expected", ROWS,
    ids=[f"{s}-{m.value}-{r}" for s, m, r, _ in ROWS],
)
def test_request_transition(state, mode, reply, expected):
    asked, deltas, cell, kind, resident = expected
    step, events = make_step(TTLProtocol(10.0), mode)
    if state != "absent":
        step.store("/f", "html", HELD, 0.0)
    t = 5.0 if state == "fresh" else 20.0
    result = HELD if reply == "304" else NEWER

    entry, fresh = step.begin("/f", t)
    if entry is None:
        exchange = "get"
        served = step.fetched("/f", t, "html", result, reply != "no-store")
    elif fresh:
        exchange = "none"
        step.hit("/f", t)
        served = entry
    else:
        exchange = "ims"
        served = step.validated(
            entry, t, NotModified() if reply == "304" else result
        )

    assert exchange == asked
    assert nonzero(step.counters) == {"requests": 1, **deltas}
    assert charged(step.bandwidth) == ({} if cell is None else dict([cell]))
    assert events == [(kind, t, "/f")]
    held = step.cache.peek("/f")
    assert (held.version if held is not None else None) == resident
    assert served.version == (resident if kind != "dynamic_fetch" else 1)
    if kind in ("miss", "validation_304", "validation_200"):
        assert held is served and held.validated_at == t and held.valid
        assert held.expires_at == t + 10.0


def test_stale_ground_truth_only_selects_the_event_kind():
    step, events = make_step(TTLProtocol(10.0))
    step.store("/f", "html", HELD, 0.0)
    step.begin("/f", 1.0)
    step.hit("/f", 1.0, stale=True)
    assert events == [("stale_hit", 1.0, "/f")]
    assert nonzero(step.counters) == {"requests": 1, "hits": 1}


def test_a_304_restamps_the_expires_header():
    step, _ = make_step(TTLProtocol(10.0))
    entry = step.store("/f", "html", HELD, 0.0)
    step.begin("/f", 20.0)
    step.validated(entry, 20.0, NotModified(expires=99.0))
    assert entry.server_expires == 99.0


def action(kind, attempt=0, time=7.0, mod_time=5.0):
    object_id = "" if kind == CRASH else "/f"
    return FaultAction(time, kind, object_id, mod_time, attempt)


NOTICE = (INVALIDATION, (43, 0))
SENT = {"server_invalidations_sent": 1}
RECEIVED = {"invalidations_received": 1}
# (what is delivered, entry valid beforehand, per-modification charging)
# -> (counter deltas, ledger cell, events, entry valid afterwards).
DELIVERY_ROWS = [
    ("line", True, True, ({**SENT, **RECEIVED}, NOTICE,
                          [("invalidation", 5.0, "/f")], False)),
    ("line", False, True, ({**SENT, **RECEIVED}, NOTICE,
                           [("invalidation", 5.0, "/f")], False)),
    ("line", False, False, ({}, None, [], False)),
    (action(ATTEMPT_SENT), True, False, (SENT, NOTICE, [], True)),
    (action(ATTEMPT_SENT), False, False, ({}, None, [], False)),
    (action(ATTEMPT_LOST), True, False,
     (SENT, NOTICE, [("fault_invalidation_lost", 7.0, "/f")], True)),
    (action(DROP), True, True,
     ({}, None, [("fault_invalidation_dropped", 7.0, "/f")], True)),
    (action(DROP), False, True, ({}, None, [], False)),
    (action(DELIVER), True, False,
     (RECEIVED, None, [("invalidation", 7.0, "/f")], False)),
    (action(DELIVER, attempt=2), True, False,
     (RECEIVED, None, [("fault_invalidation_recovered", 7.0, "/f"),
                       ("invalidation", 7.0, "/f")], False)),
    # A delayed notice the held copy already reflects changes nothing.
    (action(DELIVER, mod_time=-60.0), True, False, ({}, None, [], True)),
    (action(CRASH), True, True,
     ({}, None, [("fault_cache_crash", 7.0, "")], None)),
]


@pytest.mark.parametrize("what,valid,per_modification,expected", DELIVERY_ROWS)
def test_invalidation_delivery(what, valid, per_modification, expected):
    deltas, cell, emitted, valid_after = expected
    step, events = make_step(
        InvalidationProtocol(), per_modification=per_modification
    )
    step.store("/f", "html", HELD, 0.0).valid = valid
    if what == "line":
        push = step.deliver(5.0, "/f")
    else:
        push = step.fault(what)
    assert not push
    assert nonzero(step.counters) == deltas
    assert charged(step.bandwidth) == ({} if cell is None else dict([cell]))
    assert events == emitted
    held = step.cache.peek("/f")
    assert (held.valid if held is not None else None) == valid_after


def test_absent_objects_are_never_notified():
    step, events = make_step(InvalidationProtocol())
    assert not step.deliver(5.0, "/ghost")
    assert not step.fault(action(DELIVER))
    assert nonzero(step.counters) == {} and events == []


@pytest.mark.parametrize("faulted", [False, True])
def test_eager_delivery_asks_for_the_push(faulted):
    step, events = make_step(InvalidationProtocol(eager=True))
    step.store("/f", "html", HELD, 0.0)
    if faulted:
        assert not step.fault(action(ATTEMPT_SENT, time=12.0, mod_time=12.0))
        assert step.fault(action(DELIVER, time=12.0, mod_time=12.0))
    else:
        assert step.deliver(12.0, "/f")
    step.prefetched("/f", 12.0, "html", NEWER)
    assert nonzero(step.counters) == {**SENT, **RECEIVED, "prefetches": 1}
    assert charged(step.bandwidth) == dict([NOTICE, (PREFETCH, (86, SIZE))])
    assert events == [("invalidation", 12.0, "/f"), ("prefetch", 12.0, "/f")]
    held = step.cache.peek("/f")
    assert held.version == 1 and held.valid


def test_every_declared_kind_is_pinned_here():
    """The tables above cover the whole alphabet."""
    pinned = {row[3][3] for row in ROWS} | {"stale_hit", "prefetch"}
    pinned |= {kind for row in DELIVERY_ROWS for kind, _, _ in row[3][2]}
    assert pinned == set(EVENT_KINDS)
