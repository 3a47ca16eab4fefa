"""Byte pins for workload synthesis: the campus builder and Table 2.

The digests were taken before the builders drew their per-element values
as arrays.  A change that moves one byte of a synthesized workload — one
float, one size, one client host, one type (``np.int64`` for ``int``
shows in ``repr``) — fails here, not only in a benchmark's pinned
reports.  :class:`TestBroadcastDrawIsTheScalarLoop` names the numpy
property the array draws rely on, so a numpy release that breaks it
fails by name.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import ext_dynamic, table2
from repro.workload.campus import DAS, FAS, HCS, CampusWorkload


def workload_digest(workload) -> str:
    """sha256 over the ``repr`` of everything a workload holds."""
    digest = hashlib.sha256()
    for history in workload.histories:
        schedule = history.schedule
        digest.update(
            repr((history.obj, schedule.created, schedule.times)).encode()
        )
    digest.update(repr(workload.requests).encode())
    digest.update(repr(workload.clients).encode())
    digest.update(repr((workload.duration, workload.name)).encode())
    return digest.hexdigest()


#: (server, seed, request_scale, dynamic_fraction) -> workload_digest.
CAMPUS_DIGESTS = {
    ("DAS", 0, 0.025, 0.0):
        "29bc34fa137915b8b36bb013e41008b0b6fd5f8c3f386962734d6b799828b20a",
    ("DAS", 0, 0.025, 0.1):
        "7fa9c8fc26c3f56a041edf1608306f78e66f2bd566fcec618da8a0e7a8e12e51",
    ("DAS", 0, 0.25, 0.0):
        "ffd5f4b2b44b0aeb070f02d9d7b89a0ae438450c863d8ec88077ab0e4d60a0f4",
    ("DAS", 0, 0.25, 0.1):
        "9d918a4de68792e6fff043ebcb53ccc84124c61d687973e5e8efa80934a6de2b",
    ("DAS", 1, 0.025, 0.0):
        "06b2c7a67e8a1307166e2268c95e875de72c89d412365a46b45080cec3ac4722",
    ("DAS", 1, 0.025, 0.1):
        "3df1cda6c7be8e7bead1bc3abc50d0a6a46340229b79ae518e6aea516a3b7474",
    ("DAS", 1, 0.25, 0.0):
        "27991e49abc3b4574eac012faa6fc6ec8771d21f2e002e127467d4905b3988ab",
    ("DAS", 1, 0.25, 0.1):
        "8900d9e7ed6650843ff937e0136b33cbe5d14d9f3d7c89ca3add0f814f851a12",
    ("FAS", 0, 0.025, 0.0):
        "a1adad40ddc0088639d8eda6b160c60c2c712e253963527806508c83b7cf52df",
    ("FAS", 0, 0.025, 0.1):
        "133e1f25943d447d7bde435e56def5cbe3fd3ae9c5a11f25d2ffa72b91f44873",
    ("FAS", 0, 0.25, 0.0):
        "ff754bdf51d31de9483a9381a04e4d7ceb4582802df24a1ca9331687cd453ec1",
    ("FAS", 0, 0.25, 0.1):
        "b48641425a8760b5a20b36ca9211a630c175a770cbedb29e370aabc2a2423605",
    ("FAS", 1, 0.025, 0.0):
        "9cd8184f140fce8a0dbfb2c79fc7aafac0cfcb4e97802b5937cd1c4b09179e56",
    ("FAS", 1, 0.025, 0.1):
        "5b38431494320e392195ef97ba630b2f2cd55869459f19d3262f29021c44cfce",
    ("FAS", 1, 0.25, 0.0):
        "86405ab16d34bdd4774892c9afba1ff5a0f6ce3b56120e6b701a68e402c92c99",
    ("FAS", 1, 0.25, 0.1):
        "adc22298fc8193f527f8af2152ee4f12194e4f4d22ddef31cef0c75f8834b354",
    ("HCS", 0, 0.025, 0.0):
        "3cef4d8e018b2d8a7486ed4a97ede33f44b5d38c78caefe7b96196aee6d7973f",
    ("HCS", 0, 0.025, 0.1):
        "276583e3467dc7d0ddd7b64ea4f6d3d59e81284eecd3a88e2a8c4a2ce1a1666d",
    ("HCS", 0, 0.25, 0.0):
        "7bf9cb36f93df12dadc0c24676bd0d8a520b0bba11d025ce8d7ca8ef138cdf8a",
    ("HCS", 0, 0.25, 0.1):
        "afdd3f5aba4c9582ce697b661563e6210c74c4e59ce831c42cb15ade6f1d2928",
    ("HCS", 1, 0.025, 0.0):
        "ba2319ded2e975bb9972d79b6d4bc5de9a43e580ab98cd33999aeb0aa88299e5",
    ("HCS", 1, 0.025, 0.1):
        "c93d05ecf14fb14b2a40baca299aceb958f1da26d11b8b7446e2c2e2620d3028",
    ("HCS", 1, 0.25, 0.0):
        "fdab8736937a44748e7467e7c059e1557793c236d6fad036f9fede820dd31375",
    ("HCS", 1, 0.25, 0.1):
        "c77d2d128b394a62bbe8c36b3778b4cdf8d43935d40a3c77e85dd5b46aac4696",
}


@pytest.mark.parametrize(
    "server,seed,scale,dynamic",
    sorted(CAMPUS_DIGESTS),
    ids=lambda v: str(v),
)
def test_campus_build_is_pinned(server, seed, scale, dynamic):
    spec = {"DAS": DAS, "FAS": FAS, "HCS": HCS}[server]
    workload = CampusWorkload(
        spec, seed=seed, request_scale=scale, dynamic_fraction=dynamic
    ).build()
    assert workload_digest(workload) == CAMPUS_DIGESTS[
        server, seed, scale, dynamic]


def workload_fields(workload) -> tuple:
    """Everything a workload holds, comparable with ``==`` (a schedule
    compares by identity, so by its creation and change times here)."""
    return ([(h.obj, h.schedule.created, h.schedule.times)
             for h in workload.histories],
            workload.requests, workload.clients, workload.duration,
            workload.name)


@pytest.mark.parametrize("spec,seed", [(HCS, 1), (HCS, 3), (DAS, 2)],
                         ids=["HCS-1", "HCS-3", "DAS-2"])
def test_build_fractions_yields_each_fractions_build(spec, seed):
    """The split builder gives, per fraction, ``build()``'s workload field
    for field; the positive fractions share one draw."""
    builder = CampusWorkload(spec, seed=seed, request_scale=0.1)
    built = list(builder.build_fractions(ext_dynamic.FRACTIONS))
    assert len(built) == len(ext_dynamic.FRACTIONS)
    for fraction, workload in zip(ext_dynamic.FRACTIONS, built):
        expected = CampusWorkload(spec, seed=seed, request_scale=0.1,
                                  dynamic_fraction=fraction).build()
        assert workload_fields(workload) == workload_fields(expected)
        assert workload_digest(workload) == workload_digest(expected)
    shared = [w for f, w in zip(ext_dynamic.FRACTIONS, built) if f > 0]
    assert all(w.histories[0] is shared[0].histories[0] for w in shared)
    assert built[0].histories[0] is not shared[0].histories[0]


TABLE2_RENDERED = (
    "6d1af1fe076f0096ee4468bfe7f0837d08b06452c86111b95b5b1e9636380dd1")
TABLE2_DATA = (
    "756ec1671afd86835a033a380bd4bf66eec84410cbe4fb6ee3cd30d5decd2c8f")


def test_table2_is_pinned():
    report = table2.run(0.25, 0)
    assert hashlib.sha256(report.rendered.encode()).hexdigest() == (
        TABLE2_RENDERED)
    assert hashlib.sha256(repr(report.data).encode()).hexdigest() == (
        TABLE2_DATA)


class TestBroadcastDrawIsTheScalarLoop:
    """One array draw consumes the bit stream exactly as the per-element
    scalar calls it replaced, value for value."""

    HIGHS = np.array([97, 41, 41, 97, 1, 2, 97, 41] * 25)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_integers_with_array_high(self, seed):
        scalar = np.random.default_rng(seed)
        loop = [int(scalar.integers(int(h))) for h in self.HIGHS]
        rng = np.random.default_rng(seed)
        assert rng.integers(0, self.HIGHS).tolist() == loop
        # ...and leaves the generator where the loop left it.
        assert rng.random() == scalar.random()

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_lognormal_with_array_mean(self, seed):
        means = np.log([7791.0, 4786.0, 21608.0, 6000.0] * 50) - 0.32
        scalar = np.random.default_rng(seed)
        loop = [float(scalar.lognormal(mean=m, sigma=0.8)) for m in means]
        rng = np.random.default_rng(seed)
        assert rng.lognormal(means, 0.8).tolist() == loop
        assert rng.random() == scalar.random()
