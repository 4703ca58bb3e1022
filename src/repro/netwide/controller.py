"""The central controller for network-wide heavy hitters.

Merges per-NMP reports into the globally minimal ``q`` packet samples.
Duplicate observations of one packet (it traversed several NMPs) carry
identical (record, hash) pairs and collapse during the merge, so the
result is a uniform ``q``-sample of the *distinct* packets that crossed
the network.  Flow frequencies are then estimated from the sample:

    N̂ = (q − 1) / h_q                 (total distinct packets, KMV)
    f̂(flow) = (#sample packets of flow / q) · N̂

Heavy hitters are flows with ``f̂ ≥ (θ − ε)·N̂`` — the ε margin makes
false negatives unlikely, as in the original paper.

The merge math is exposed twice: :class:`Controller` wraps live
:class:`~repro.netwide.nmp.MeasurementPoint` objects (the offline
simulation path), while the module-level ``*_from_reports`` functions
take raw report entry lists — ``((flow, packet_id), hash)`` pairs —
which is what arrives over the wire in a real deployment.  The fleet
coordinator (:mod:`repro.fleet`) runs the same functions against
reports pulled from live daemons, so the offline simulation and the
distributed system share one implementation of the §6 network-wide
scheme.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # the coordinator imports this module; nmp loads repro.apps
    from repro.netwide.nmp import MeasurementPoint

#: One report entry: ((flow, packet_id), hash value).
Entry = Tuple[Tuple[int, int], float]


# ----------------------------------------------------------------------
# The merge math over raw report entry lists (the wire shape).
# ----------------------------------------------------------------------

def merge_reports_from_entries(
    reports: Iterable[Sequence[Entry]], q: int
) -> List[Entry]:
    """Globally minimal ``q`` samples across raw reports, deduplicated
    by record identity (identical duplicates overwrite)."""
    best: Dict[Tuple[int, int], float] = {}
    for entries in reports:
        for record, value in entries:
            best[record] = value
    merged = sorted(best.items(), key=lambda p: p[1])
    return merged[:q]


def estimate_total_from_sample(sample: List[Entry], q: int) -> float:
    """KMV estimate of the number of distinct packets network-wide."""
    if len(sample) < q:
        return float(len(sample))
    return (q - 1) / sample[-1][1]


def flow_estimates_from_reports(
    reports: Iterable[Sequence[Entry]], q: int
) -> Dict[int, float]:
    """Per-flow packet-count estimates from the merged sample."""
    sample = merge_reports_from_entries(reports, q)
    if not sample:
        return {}
    total = estimate_total_from_sample(sample, q)
    counts = Counter(flow for (flow, _pkt), _v in sample)
    scale = total / len(sample)
    return {flow: count * scale for flow, count in counts.items()}


def heavy_hitters_from_reports(
    reports: Iterable[Sequence[Entry]],
    q: int,
    theta: float,
    epsilon: float = 0.0,
) -> List[Tuple[int, float]]:
    """Flows estimated to exceed ``(θ − ε)`` of the total traffic,
    computed directly from raw report entry lists.

    Returns (flow, estimated packet count), heaviest first.
    """
    if not 0.0 < theta <= 1.0:
        raise ConfigurationError(f"theta must be in (0, 1], got {theta}")
    reports = [list(entries) for entries in reports]
    sample = merge_reports_from_entries(reports, q)
    if not sample:
        return []
    total = estimate_total_from_sample(sample, q)
    estimates = flow_estimates_from_reports(reports, q)
    cutoff = (theta - epsilon) * total
    heavy = [
        (flow, est) for flow, est in estimates.items() if est >= cutoff
    ]
    heavy.sort(key=lambda p: p[1], reverse=True)
    return heavy


# ----------------------------------------------------------------------
# The NMP-object wrapper (simulation path).
# ----------------------------------------------------------------------

class Controller:
    """Aggregates NMP reports and answers heavy-hitter queries."""

    def __init__(self, q: int) -> None:
        if q < 2:
            raise ConfigurationError(f"q must be >= 2, got {q}")
        self.q = q

    def merge_reports(
        self, nmps: Iterable[MeasurementPoint]
    ) -> List[Entry]:
        """Globally minimal q samples across all NMPs (deduplicated)."""
        return merge_reports_from_entries(
            (nmp.report() for nmp in nmps), self.q
        )

    def estimate_total(self, sample: List[Entry]) -> float:
        """KMV estimate of the number of distinct packets network-wide."""
        return estimate_total_from_sample(sample, self.q)

    def flow_estimates(
        self, nmps: Iterable[MeasurementPoint]
    ) -> Dict[int, float]:
        """Per-flow packet-count estimates from the merged sample."""
        return flow_estimates_from_reports(
            [nmp.report() for nmp in nmps], self.q
        )

    def heavy_hitters(
        self,
        nmps: Iterable[MeasurementPoint],
        theta: float,
        epsilon: float = 0.0,
    ) -> List[Tuple[int, float]]:
        """Flows estimated to exceed ``(θ − ε)`` of the total traffic.

        Returns (flow, estimated packet count), heaviest first.
        """
        return heavy_hitters_from_reports(
            [nmp.report() for nmp in nmps], self.q, theta, epsilon
        )
