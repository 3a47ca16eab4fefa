"""Name-based protocol construction, shared by every entry point.

Every CLI subcommand that takes ``--protocol NAME --parameter X``
builds its protocol from that pair here, so a name accepted by one is
accepted by all.  (The live crash-restart child,
:mod:`repro.live.standalone`, is *not* a client: it receives its
parent's protocol instance, not a name.)
"""

from __future__ import annotations

from repro.core.clock import hours
from repro.core.protocols.adaptive import SelfTuningProtocol
from repro.core.protocols.alex import AlexProtocol
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.protocols.cern import CERNPolicyProtocol
from repro.core.protocols.invalidation import (
    InvalidationProtocol,
    LeasedInvalidationProtocol,
)
from repro.core.protocols.polling import PollEveryRequestProtocol
from repro.core.protocols.ttl import TTLProtocol

#: Protocol names accepted by :func:`build_protocol`, in display order.
PROTOCOLS = (
    "alex", "ttl", "invalidation", "leased", "poll", "cern", "selftuning",
)


def build_protocol(name: str, parameter: float) -> ConsistencyProtocol:
    """Construct a protocol from its CLI name and parameter.

    The parameter means: Alex — update threshold in percent; TTL — hours;
    leased — the lease term in hours; CERN — the Last-Modified fraction;
    self-tuning — the initial threshold in percent.  Invalidation and
    poll ignore it.

    Raises:
        ValueError: for an unknown protocol name.
    """
    key = name.lower()
    if key == "alex":
        return AlexProtocol.from_percent(parameter)
    if key == "ttl":
        return TTLProtocol(hours(parameter))
    if key == "invalidation":
        return InvalidationProtocol()
    if key == "leased":
        return LeasedInvalidationProtocol(hours(parameter))
    if key == "poll":
        return PollEveryRequestProtocol()
    if key == "cern":
        return CERNPolicyProtocol(lm_fraction=parameter / 100.0)
    if key == "selftuning":
        return SelfTuningProtocol(initial_threshold=parameter / 100.0)
    raise ValueError(
        f"unknown protocol {name!r}; choose from {', '.join(PROTOCOLS)}"
    )


__all__ = ["PROTOCOLS", "build_protocol"]
