"""Traffic substrate: packet model, trace generators, and pcap IO.

The paper evaluates on CAIDA'16, CAIDA'18, UNIV1 and the P1-ARC cache
trace — none of which can ship with this repository.  This package
provides synthetic generators whose *relevant statistics* (flow-size
skew, flow counts, packet-size mixture, access locality) are calibrated
to published characterisations of those traces, as documented in
DESIGN.md §2.  It also includes from-scratch IPv4/TCP/UDP header
encoding and pcap file IO so generated traces can be exported to and
re-imported from standard tooling.

Exports resolve lazily (PEP 562): ``from repro.traffic import X``
imports only the module that defines ``X``.  The daemon imports
:mod:`repro.traffic.netflow`, which must not execute the trace
generators or the pcap and header codecs.
"""

from repro._compat import lazy_exports

_EXPORTS = {
    "Packet": "repro.traffic.packet",
    "flow_key": "repro.traffic.packet",
    "src_dst_key": "repro.traffic.packet",
    "TraceProfile": "repro.traffic.synthetic",
    "CAIDA16": "repro.traffic.synthetic",
    "CAIDA18": "repro.traffic.synthetic",
    "UNIV1": "repro.traffic.synthetic",
    "PROFILES": "repro.traffic.synthetic",
    "generate_packets": "repro.traffic.synthetic",
    "generate_value_stream": "repro.traffic.synthetic",
    "zipf_weights": "repro.traffic.synthetic",
    "generate_cache_trace": "repro.traffic.cache_trace",
    "read_pcap": "repro.traffic.pcap",
    "write_pcap": "repro.traffic.pcap",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
