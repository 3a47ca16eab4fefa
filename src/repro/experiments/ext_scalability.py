"""Extension: invalidation's scaling problem as caches multiply.

Section 1.0's case against invalidation protocols is operational:
"Servers must keep track of where their objects are currently cached,
introducing scalability problems or necessitating hierarchical caching."

This experiment quantifies the claim.  The HCS client population is
partitioned across N independent proxy caches (N = 1..16), each serving
its own clients against the same origin.  Under the invalidation
protocol the origin must notify *every* cache of *every* change, so its
notification load grows linearly with N regardless of traffic; under
Alex the origin only ever answers the queries caches choose to send, and
each cache's query schedule is driven by its own (shrinking) request
share.  The measured curves show origin load growing ~N-fold for
invalidation while Alex stays within a small factor of its single-cache
load — the paper's scalability argument, in numbers.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np

from repro.analysis.plots import Series, ascii_chart
from repro.analysis.report import ExperimentReport, ShapeCheck, format_table
from repro.core.protocols import AlexProtocol, InvalidationProtocol
from repro.core.results import merge_results
from repro.core.simulator import SimulatorMode
from repro.verify import checked_simulate
from repro.workload.campus import HCS, CampusWorkload

EXPERIMENT_ID = "ext-scalability"
TITLE = "Extension: origin server load vs number of caches (Section 1 claim)"

CACHE_COUNTS = (1, 2, 4, 8, 16)


def _partitioned_runs(workload, hashes, n_caches: int):
    """Run N independent caches over a client-partitioned request stream,
    once under invalidation and once under Alex(10%).

    Every cache is preloaded (each serves its own client community, as
    the paper's single-cache runs assume) and sees only its partition's
    requests (``hashes``, each request's client hash, modulo N); each
    protocol's merged result reports origin-side totals.
    """
    server = workload.server()
    pick = workload.requests.__getitem__
    shard_of = hashes % n_caches
    shards = [
        list(map(pick, np.flatnonzero(shard_of == shard).tolist()))
        for shard in range(n_caches)
    ]
    # The caches are fully independent, so each shard runs start-to-end
    # on its own (oracle-checkable) simulation; the interleaving of the
    # original stream does not affect any per-cache outcome.  Both
    # protocols run on a shard back to back, so the second reuses its
    # encoding (repro.fastpath.arrays.encode_requests).
    inval, alex = [], []
    for shard_requests in shards:
        for results, protocol in ((inval, InvalidationProtocol()),
                                  (alex, AlexProtocol.from_percent(10))):
            results.append(checked_simulate(
                server, protocol, shard_requests,
                SimulatorMode.OPTIMIZED, end_time=workload.duration,
            ))
    return merge_results(inval), merge_results(alex)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentReport:
    """Measure origin load as the cache population grows."""
    workload = CampusWorkload(HCS, seed=seed + 2, request_scale=scale).build()
    hashes = np.array([crc32(host.encode()) for host in workload.clients])

    rows = []
    inval_ops, alex_ops = [], []
    for n in CACHE_COUNTS:
        inval, alex = _partitioned_runs(workload, hashes, n)
        inval_ops.append(float(inval.server_operations))
        alex_ops.append(float(alex.server_operations))
        rows.append(
            (
                n,
                inval.server_operations,
                inval.counters.server_invalidations_sent,
                alex.server_operations,
                f"{100 * alex.stale_hit_rate:.2f}%",
            )
        )

    table = format_table(
        ("caches", "invalidation ops", "of which notices",
         "alex(10%) ops", "alex stale"),
        rows,
        title="Origin-side load, HCS clients partitioned across N caches:",
    )
    chart = ascii_chart(
        [
            Series("invalidation", list(CACHE_COUNTS), inval_ops, glyph="o"),
            Series("alex(10%)", list(CACHE_COUNTS), alex_ops, glyph="*"),
        ],
        title="Origin server operations vs cache count",
        xlabel="number of caches",
        ylabel="server operations",
        log_y=True,
    )

    inval_growth = inval_ops[-1] / inval_ops[0]
    alex_growth = alex_ops[-1] / alex_ops[0]
    n_growth = CACHE_COUNTS[-1] / CACHE_COUNTS[0]
    checks = [
        ShapeCheck(
            "invalidation-load-grows-roughly-linearly-with-caches",
            inval_growth > 0.5 * n_growth,
            f"{inval_ops[0]:.0f} ops at 1 cache -> {inval_ops[-1]:.0f} at "
            f"{CACHE_COUNTS[-1]} ({inval_growth:.1f}x for {n_growth:.0f}x "
            "caches)",
        ),
        ShapeCheck(
            "alex-load-grows-much-slower",
            alex_growth < inval_growth / 2,
            f"Alex grows {alex_growth:.1f}x vs invalidation's "
            f"{inval_growth:.1f}x over the same fan-out",
        ),
        ShapeCheck(
            "notices-are-the-majority-at-scale",
            rows[-1][2] > 0.5 * rows[-1][1],
            f"at {CACHE_COUNTS[-1]} caches, {rows[-1][2]} of "
            f"{rows[-1][1]} invalidation ops are callback notices",
        ),
        ShapeCheck(
            "callback-bookkeeping-is-exactly-linear-in-caches",
            rows[-1][2] == CACHE_COUNTS[-1] * rows[0][2],
            f"notices: {rows[0][2]} at 1 cache -> {rows[-1][2]} at "
            f"{CACHE_COUNTS[-1]} — one per change per registered cache, "
            "independent of traffic (the Section 1 bookkeeping cost)",
        ),
    ]
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rendered=f"{table}\n\n{chart}",
        checks=checks,
        data={
            "cache_counts": list(CACHE_COUNTS),
            "invalidation_ops": inval_ops,
            "alex_ops": alex_ops,
        },
    )
