"""Stream reservation semantics: SR classes, bandwidth accounting, latency guarantee."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .engine import NS_PER_S
from .frames import WIRE_OVERHEAD_BYTES, SrpMessage, StreamId

US = 1_000


class SrClass(NamedTuple):
    name: str
    pcp: int
    per_hop_max_latency_ns: int


CLASS_A = SrClass("A", pcp=6, per_hop_max_latency_ns=250_000)
# Class B is modeled but unused by the shipped scenarios; its per-hop bound is a
# placeholder since only the Class A 250 us figure is standardized per hop.
CLASS_B = SrClass("B", pcp=5, per_hop_max_latency_ns=1_000_000)

SR_CLASSES = {"A": CLASS_A, "B": CLASS_B}

# share of a port's rate that reservations may take, in thousandths
ADMISSION_PERMILLE = 750


def reserved_bps(max_frame_bytes: int, interval_ns: int) -> int:
    """Reserved bandwidth for one stream, counting per-frame wire overhead,
    rounded up so that it covers the stream's rate."""
    if max_frame_bytes <= 0:
        raise ValueError("reservation frame size must be positive")
    if interval_ns <= 0:
        raise ValueError("reservation interval must be positive")
    return -(-(max_frame_bytes + WIRE_OVERHEAD_BYTES) * 8 * NS_PER_S // interval_ns)


def analytic_guarantee(sr_class: SrClass, scheduled_ports: int) -> int:
    """Worst-case end-to-end latency bound: per-hop bound times scheduled ports."""
    if scheduled_ports < 1:
        raise ValueError("need at least one scheduled port")
    return sr_class.per_hop_max_latency_ns * scheduled_ports


def admit(port, advertise: SrpMessage) -> Optional[str]:
    """Admission control on an egress port for the stream a talker advertise
    describes; on success raises the idle slope of its SR class's queue.

    The limit is `ADMISSION_PERMILLE` thousandths of the port rate, compared
    in integers. Returns None when admitted, the reason otherwise; a rejection
    is also counted on the port, and fails the run's guarantee check. A stream
    admitted on a port is listed in its `reserved_streams` until `release`.
    """
    new_bps = reserved_bps(advertise.max_frame_bytes, advertise.interval_ns)
    if 1000 * (port.total_reserved_bps + new_bps) > ADMISSION_PERMILLE * port.rate_bps:
        port.reservations_rejected += 1
        return f"would exceed {ADMISSION_PERMILLE / 10:g}% of {port.rate_bps} bit/s"
    port.add_reservation(SR_CLASSES[advertise.sr_class].pcp, new_bps)
    port.reserved_streams[advertise.stream_id] = advertise
    return None


def release(port, stream_id: StreamId) -> None:
    """Undo the `admit` of a stream on a port, if it was admitted there:
    lower the idle slope of its SR class's queue by what was reserved."""
    advertise = port.reserved_streams.pop(stream_id, None)
    if advertise is not None:
        port.add_reservation(SR_CLASSES[advertise.sr_class].pcp,
                             -reserved_bps(advertise.max_frame_bytes, advertise.interval_ns))
