"""Workload generation: every synthetic input the reproduction needs.

* :class:`WorrellWorkload` — the flat-lifetime, uniform-access workload
  of the base/optimized simulators (Figures 2-5).
* :class:`CampusWorkload` / :func:`build_campus_workloads` — synthetic
  DAS/FAS/HCS traces matching Table 1 (Figures 6-8).
* :class:`BostonPopulation` — the BU modification-log population behind
  Table 2's life-spans.
* :class:`FileTypeModel` — the Table 2 type mix/size/age registry.
* Building blocks: :class:`ZipfSampler`, bimodal change-time generators,
  and the Bestavros popularity↔mutability selector.
"""

from repro.workload.base import Workload, sorted_request_times
from repro.workload.bestavros import choose_mutable_files, expected_stale_exposure
from repro.workload.bimodal import (
    burst_change_times,
    mixed_change_times,
    stable_change_times,
)
from repro.workload.boston import BU_WINDOW, BostonPopulation
from repro.workload.campus import (
    CAMPUS_SERVERS,
    DAS,
    FAS,
    HCS,
    VERY_MUTABLE_CHANGES,
    CampusServerSpec,
    CampusWorkload,
    build_campus_workloads,
)
from repro.workload.filetypes import (
    DEFAULT_AGE_DAYS,
    TABLE2_TYPES,
    FileTypeModel,
    FileTypeSpec,
)
from repro.workload.microsoft import MicrosoftProxyWorkload
from repro.workload.worrell import WorrellWorkload
from repro.workload.zipf import ZipfSampler, zipf_weights

__all__ = [
    "BU_WINDOW",
    "CAMPUS_SERVERS",
    "DAS",
    "DEFAULT_AGE_DAYS",
    "FAS",
    "HCS",
    "TABLE2_TYPES",
    "VERY_MUTABLE_CHANGES",
    "BostonPopulation",
    "CampusServerSpec",
    "CampusWorkload",
    "FileTypeModel",
    "FileTypeSpec",
    "MicrosoftProxyWorkload",
    "Workload",
    "WorrellWorkload",
    "ZipfSampler",
    "build_campus_workloads",
    "burst_change_times",
    "choose_mutable_files",
    "expected_stale_exposure",
    "mixed_change_times",
    "sorted_request_times",
    "stable_change_times",
    "zipf_weights",
]
