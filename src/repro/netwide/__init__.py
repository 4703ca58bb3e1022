"""Network-wide, routing-oblivious heavy hitters (§2.6, §4.3.4).

Reimplementation of the scheme of Ben Basat, Einziger, Moraney & Raz
(ANCS 2018): every packet carries a hashed identifier; each Network
Measurement Point (NMP) keeps the ``q`` packets with the *minimal* hash
values it has seen; a central controller merges the NMP reports into
the globally minimal ``q`` packets — a uniform packet sample with no
double counting even when packets traverse several NMPs — and derives
the heavy hitter flows from it.

The package also provides the Theorem-8 sliding-window variant (built
on the slack-window q-MAX) and a topology simulation (networkx) that
routes packets across NMPs to exercise the de-duplication property.

Exports resolve lazily (PEP 562): ``from repro.netwide import X``
imports only the module that defines ``X``.  The daemon imports
:mod:`repro.netwide.wire` and the fleet coordinator
:mod:`repro.netwide.controller`; neither may pull in networkx, which
only the topology simulation uses.
"""

from repro._compat import lazy_exports

_EXPORTS = {
    "MeasurementPoint": "repro.netwide.nmp",
    "Controller": "repro.netwide.controller",
    "merge_reports_from_entries": "repro.netwide.controller",
    "estimate_total_from_sample": "repro.netwide.controller",
    "flow_estimates_from_reports": "repro.netwide.controller",
    "heavy_hitters_from_reports": "repro.netwide.controller",
    "NetworkTopology": "repro.netwide.topology",
    "NetworkSimulation": "repro.netwide.simulation",
    "SlidingMeasurementPoint": "repro.netwide.sliding",
    "SlidingController": "repro.netwide.sliding",
    "SlidingNetworkSimulation": "repro.netwide.sliding_simulation",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
