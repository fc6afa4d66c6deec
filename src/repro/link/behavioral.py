"""Token-level behavioural link models for NoC-scale simulation.

The gate-level assemblies in :mod:`repro.link.assemblies` are the ground
truth, but simulating a 4×4 mesh with gate-level links would burn
millions of events per microsecond.  :class:`BehavioralLinkParams`
captures what a switch-to-switch link looks like from the outside:

* ``latency_cycles`` — acceptance-to-delivery latency of one flit in
  switch clock cycles (pipeline fill for I1; domain crossing + serial
  transfer for I2/I3);
* ``rate_flits_per_cycle`` — sustained throughput cap (1.0 for I1; the
  serial ceiling divided by the clock rate for I2/I3, saturating at 1);
* ``capacity_flits`` — tokens in flight (the paper's 8: two 4-deep
  interface FIFOs; for I1, one per pipeline buffer);
* ``wire_count`` — physical wires, for the cost reporting.

Parameters are *derived from the same technology constants* as the
gate-level circuits, and the derivation is cross-checked against
gate-level measurements in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..tech.technology import Technology
from .assemblies import LinkConfig


@dataclass(frozen=True)
class BehavioralLinkParams:
    """Externally observable behaviour of one link implementation."""

    kind: str
    latency_cycles: int
    rate_flits_per_cycle: float
    capacity_flits: int
    wire_count: int
    serial_ceiling_mflits: float

    def __post_init__(self) -> None:
        if self.latency_cycles < 1:
            raise ValueError("latency must be at least one cycle")
        if not (0.0 < self.rate_flits_per_cycle <= 1.0):
            raise ValueError("rate must be in (0, 1] flits/cycle")
        if self.capacity_flits < 1:
            raise ValueError("capacity must be positive")


def derive_link_params(
    tech: Technology,
    kind: str,
    freq_mhz: float,
    config: Optional[LinkConfig] = None,
) -> BehavioralLinkParams:
    """Compute behavioural parameters for ``kind`` at ``freq_mhz``.

    Latency accounting (cross-checked against gate-level runs):

    * I1 — one cycle per pipeline buffer plus the output register.
    * I2/I3 — one cycle to enter the synch→asynch FIFO, the serial
      cycle delay of one word, and 2.5 cycles for the two-flip-flop
      synchronizer plus read-out on the receiving side.
    """
    from ..analysis.timing import (
        per_transfer_cycle_delay,
        per_word_cycle_delay,
    )

    config = config or LinkConfig()
    kind = kind.upper()
    period_ns = 1e3 / freq_mhz
    n_slices = config.width // config.slice_width

    if kind == "I1":
        return BehavioralLinkParams(
            kind="I1",
            latency_cycles=config.n_buffers + 1,
            rate_flits_per_cycle=1.0,
            capacity_flits=config.n_buffers,
            wire_count=config.width,
            serial_ceiling_mflits=freq_mhz,
        )

    if kind == "I2":
        est = per_transfer_cycle_delay(
            tech.handshake, n_slices, config.n_buffers
        )
    elif kind == "I3":
        est = per_word_cycle_delay(
            tech.handshake, n_slices, config.n_buffers,
            config.inverters_per_station,
        )
    else:
        raise ValueError(f"unknown link kind {kind!r}")

    serial_ns = est.cycle_delay_ns
    latency_ns = period_ns + serial_ns + 2.5 * period_ns
    latency_cycles = max(1, round(latency_ns / period_ns))
    rate = min(1.0, (1e3 / serial_ns) / freq_mhz)
    return BehavioralLinkParams(
        kind=kind,
        latency_cycles=latency_cycles,
        rate_flits_per_cycle=rate,
        capacity_flits=2 * config.fifo_depth,
        wire_count=config.slice_width + 2,
        serial_ceiling_mflits=est.mflits,
    )


class TokenLink:
    """Cycle-driven FIFO link used by the NoC simulator.

    Flits enter with :meth:`try_send` (respecting rate and capacity) and
    emerge from :meth:`deliverable` after ``latency_cycles``.  The
    receiving switch pops them with :meth:`pop`; undelivered flits apply
    backpressure through the capacity bound.

    Credit accrual is *batchable*: per-cycle accrual clamps at
    ``1.0 + rate``, so an idle link's credit is a pure function of how
    many cycles have elapsed since its last send, and it saturates after
    at most ``ceil(cap / rate)`` steps.  :meth:`accrue_to` replays
    exactly the per-cycle ``min(credit + rate, cap)`` updates (the same
    float operations in the same order, so results stay bit-identical)
    but stops early once the clamp is reached — the NoC switch calls it
    just before each send attempt on a link, instead of touching every
    link every cycle.  ``_accruals`` counts how many
    per-cycle accruals have been applied since construction.
    """

    def __init__(self, params: BehavioralLinkParams, name: str = "link") -> None:
        self.params = params
        self.name = name
        self._in_flight: list[tuple[int, object]] = []  # (ready_cycle, flit)
        self._rate_credit = 0.0
        self._rate = params.rate_flits_per_cycle
        self._credit_cap = 1.0 + self._rate
        self._accruals = 0
        #: accrue_to calls that applied work (accruals / batches gives
        #: the mean catch-up batch size the lazy-accrual scheme earns)
        self._accrual_batches = 0
        self.flits_sent = 0
        self.flits_delivered = 0

    def begin_cycle(self) -> None:
        """Accrue rate credit for this cycle (call once per cycle)."""
        self.accrue_to(self._accruals + 1)

    def accrue_to(self, n_accruals: int) -> None:
        """Apply per-cycle credit accruals until ``n_accruals`` are done.

        Equivalent to calling :meth:`begin_cycle` the missing number of
        times; the loop exits as soon as the credit clamps at the cap,
        which bounds the work for long-idle links.
        """
        done = self._accruals
        if n_accruals <= done:
            return
        self._accrual_batches += 1
        credit = self._rate_credit
        cap = self._credit_cap
        if credit != cap:
            rate = self._rate
            steps = n_accruals - done
            while steps and credit != cap:
                credit = min(credit + rate, cap)
                steps -= 1
            self._rate_credit = credit
        self._accruals = n_accruals

    def can_send(self) -> bool:
        return (
            self._rate_credit >= 1.0
            and len(self._in_flight) < self.params.capacity_flits
        )

    def try_send(self, flit: object, now_cycle: int) -> bool:
        """Accept a flit if the link has rate credit and space."""
        if not self.can_send():
            return False
        self._rate_credit -= 1.0
        self._in_flight.append(
            (now_cycle + self.params.latency_cycles, flit)
        )
        self.flits_sent += 1
        return True

    def deliverable(self, now_cycle: int) -> bool:
        """True if the head flit has completed its traversal."""
        return bool(self._in_flight) and self._in_flight[0][0] <= now_cycle

    @property
    def next_deliverable_cycle(self) -> Optional[int]:
        """Cycle the head flit matures at, or None for an empty link.

        The network's active-link set uses this to turn the seed's
        per-cycle ``begin_cycle``/``deliverable`` polling of *every*
        link into a single integer comparison on in-flight links only.
        """
        in_flight = self._in_flight
        return in_flight[0][0] if in_flight else None

    def peek(self) -> object:
        return self._in_flight[0][1]

    def pop(self, now_cycle: int) -> object:
        if not self.deliverable(now_cycle):
            raise RuntimeError(f"{self.name}: no deliverable flit")
        _ready, flit = self._in_flight.pop(0)
        self.flits_delivered += 1
        return flit

    @property
    def occupancy(self) -> int:
        return len(self._in_flight)
