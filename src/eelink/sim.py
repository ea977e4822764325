"""Slot-level Monte Carlo simulation of the gated link with a FIFO buffer.

Per slot: draw a channel gain, serve the Shannon rate if the gain clears the
threshold (otherwise idle), and update the queue with a constant-rate
arrival. The queue recursion is solved in closed form (reflected random
walk) and walked in fixed blocks of slots, each a handful of vector
operations that carry the walk and its running minimum into the next block.
A run allocates three block-length buffers once and every block reuses
them: the draws, whose first part takes the gains and then, in place, the
step, its partial sums and the queue (at m = 2 the two uniforms behind
each gain fill the rest); the running minimum, one fmin scan seeded with
the carried one; and the slot flags, transmitting, then busy, then past
each delay bound. The arithmetic is branch-free: an idle slot's gain is
zeroed, so it serves log2(1) = 0 bits. So a run needs O(block) memory
whatever its length, and is fully deterministic for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass

from .analysis import METHOD_EXACT, QosSpec, effective_capacity
from .channel import SystemParams, draw_buffer_size, sample_gains
from .errors import DomainError, QueueOverflowError, _is_integer, _real, _require_finite

QUEUE_GUARD_BITS = 1e12
# Slots per block of the simulator's pass: a run holds a few arrays of this
# length at a time, whatever its num_slots.
_BLOCK_SLOTS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: link constants, load, threshold, length, seed."""

    params: SystemParams
    arrival_rate: float
    gamma0: float
    num_slots: int
    seed: int
    delay_bound: float | None = None
    warmup_slots: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.params, SystemParams):
            raise DomainError(f"params must be a SystemParams, got {self.params!r}")
        _require_finite(self)
        for name in ("num_slots", "seed", "warmup_slots"):
            value = getattr(self, name)
            if not _is_integer(value) and not (name == "warmup_slots" and value is None):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            # int(): a numpy int8 would overflow in _walk's arithmetic.
            object.__setattr__(self, name, value if value is None else int(value))
        if self.arrival_rate <= 0.0:
            raise DomainError("arrival_rate must be positive")
        if self.gamma0 < 0.0:
            raise DomainError("gamma0 must be nonnegative")
        if self.num_slots < 1:
            raise DomainError("num_slots must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.delay_bound is not None and self.delay_bound <= 0.0:
            raise DomainError("delay_bound must be positive when given")
        if self.warmup_slots is not None and not 0 <= self.warmup_slots < self.num_slots:
            raise DomainError("warmup_slots must lie in [0, num_slots)")

    def resolved_warmup(self) -> int:
        if self.warmup_slots is not None:
            return self.warmup_slots
        return int(0.05 * self.num_slots)


@dataclass(frozen=True)
class SimReport:
    """Post-warmup statistics of one run."""

    empirical_ee: float
    p_tr_hat: float
    p_idle_hat: float
    p_b_hat: float
    delay_outage_hat: float | None
    mean_queue: float
    max_queue: float
    mean_power: float
    slots_run: int
    seed: int


@dataclass(frozen=True)
class CurvePoint:
    """One row of an EE-versus-threshold curve; report is None when the
    stability guard aborted the run."""

    gamma0: float
    report: SimReport | None
    unstable: bool


@dataclass(frozen=True)
class _Tally:
    """Post-warmup sums of one pass: slot count, transmitting and busy
    slots, delay-outage slots per bound, and the queue's sum and maximum."""

    slots: int
    transmitted: int
    busy: int
    outages: tuple[int, ...]
    queue_sum: float
    queue_max: float


def _outage_cut(bound: float, arrival_rate: float) -> float:
    """The least float q with q / arrival_rate > bound.

    Correctly rounded division is nondecreasing in q, so for every q
    q >= cut exactly when q / arrival_rate > bound. Nonnegative floats sort
    as their bit patterns do, so a bisection over the patterns from 0.0 to
    inf (whose wait passes every bound) finds the cut in 63 steps, however
    coarse the rounding near a subnormal bound; it is inf when no finite q
    qualifies.
    """
    lo, hi = 0, 0x7FF0000000000000  # the bit patterns of 0.0 and inf
    while lo < hi:
        mid = (lo + hi) // 2
        if _from_bits(mid) / arrival_rate > bound:
            hi = mid
        else:
            lo = mid + 1
    return _from_bits(lo)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _walk(config: SimConfig, delay_bounds: tuple[float, ...]) -> _Tally:
    """Simulate config.num_slots slots in blocks of _BLOCK_SLOTS and tally
    the post-warmup statistics, counting outages for every delay bound.

    Raises QueueOverflowError at the first slot whose backlog passes the
    stability guard, and DomainError when the arrivals per slot, the
    service or their running sum pass the float range.
    """
    import numpy as np

    p = config.params
    rng = np.random.default_rng(config.seed)
    snr = p.mean_snr
    rate_scale = p.slot_duration * p.bandwidth
    arrival = config.arrival_rate * p.slot_duration
    if not math.isfinite(arrival):
        raise DomainError(
            f"the arrivals per slot, arrival_rate * slot_duration = "
            f"{config.arrival_rate} * {p.slot_duration}, pass the float range"
        )
    warmup = config.resolved_warmup()
    # Fluid FIFO: the newest bit waits q / arrival_rate seconds, which
    # passes bound d exactly when q reaches the cut.
    cuts = [_outage_cut(d, config.arrival_rate) for d in delay_bounds]
    # The three held buffers of the module docstring.
    size = min(_BLOCK_SLOTS, config.num_slots)
    draw_buf = np.empty(draw_buffer_size(p, size))
    low_buf, flag_buf = np.empty(size), np.empty(size, dtype=bool)
    # Lindley recursion q[n] = max(q[n-1] + a - s[n], 0) with q[0] = 0 has
    # the closed form q[n] = S[n] - min(0, min_{k<=n} S[k]). Each block
    # carries S and min(0, min S) over from the one before, so its partial
    # sums are the same sequential sums as one cumsum over every slot.
    path_end = 0.0
    low = 0.0
    transmitted = busy = 0
    outages = [0] * len(delay_bounds)
    queue_sum = queue_max = 0.0
    # A step or partial sum past the float range stays non-finite in every
    # later partial sum (no step is +inf or NaN), so the check on each
    # block's path_end below catches it; numpy's warnings on the way add
    # nothing to that error.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, config.num_slots, _BLOCK_SLOTS):
            n = min(_BLOCK_SLOTS, config.num_slots - start)
            path = sample_gains(p, rng, n, out=draw_buf)
            transmit = np.greater_equal(path, config.gamma0, out=flag_buf[:n])
            skip = max(warmup - start, 0)
            if skip < n:
                transmitted += int(np.count_nonzero(transmit[skip:]))
            # Step a - s[n], branch-free: an idle slot's gain is zeroed, so it
            # serves log2(1) = 0 bits and its step is exactly a.
            path *= transmit
            path *= snr
            path += 1.0
            np.log2(path, out=path)
            path *= rate_scale
            np.subtract(arrival, path, out=path)
            path[0] += path_end
            np.cumsum(path, out=path)
            path_end = float(path[-1])
            if not math.isfinite(path_end):
                raise DomainError(
                    f"the per-slot service or the queue's running sum passes the float "
                    f"range by slot {start + n - 1}"
                )
            # One scan seeded with the carried minimum: path[0] holds
            # min(S[0], low) while it runs. The partial sums are finite
            # here, so fmin and minimum give the same bits.
            head = path[0]
            path[0] = min(head, low)
            running_min = np.fmin.accumulate(path, out=low_buf[:n])
            path[0] = head
            low = float(running_min[-1])
            block_queue = np.subtract(path, running_min, out=path)
            top = float(block_queue.max())
            if top > QUEUE_GUARD_BITS:
                first = start + int(np.argmax(block_queue > QUEUE_GUARD_BITS))
                raise QueueOverflowError(
                    f"queue exceeded {QUEUE_GUARD_BITS:.0e} bits at slot {first}; "
                    "arrival rate exceeds the gated capacity"
                )
            if skip >= n:
                continue
            q = block_queue[skip:]
            flags = flag_buf[skip:n]
            busy += int(np.count_nonzero(np.greater(q, 0.0, out=flags)))
            for i, cut in enumerate(cuts):
                outages[i] += int(np.count_nonzero(np.greater_equal(q, cut, out=flags)))
            queue_sum += float(q.sum())
            queue_max = max(queue_max, top if skip == 0 else float(q.max()))
    return _Tally(
        slots=config.num_slots - warmup,
        transmitted=transmitted,
        busy=busy,
        outages=tuple(outages),
        queue_sum=queue_sum,
        queue_max=queue_max,
    )


def run(config: SimConfig) -> SimReport:
    """Simulate the configured number of slots and report statistics.

    The slots are walked in fixed blocks, so memory stays O(block) however
    long the run; the report is the same as one pass over whole arrays,
    except that mean_queue sums block by block. Aborts with
    QueueOverflowError when the backlog passes the stability guard, which
    indicates an arrival rate beyond the gated capacity.
    """
    bounds = () if config.delay_bound is None else (config.delay_bound,)
    tally = _walk(config, bounds)
    n = tally.slots
    p_tr_hat = tally.transmitted / n
    # The per-slot power is two-valued, so this mean is exact (and exactly
    # circuit + tx power when every slot transmits).
    p = config.params
    mean_power = p.circuit_power + p.tx_power * p_tr_hat + p.idle_power * (1.0 - p_tr_hat)
    if mean_power == 0.0:
        raise DomainError(
            "mean power is 0 W: no circuit or idle power, and no slot transmitted, "
            "so the energy efficiency is undefined"
        )
    report = SimReport(
        empirical_ee=config.arrival_rate / mean_power,
        p_tr_hat=p_tr_hat,
        p_idle_hat=1.0 - p_tr_hat,
        p_b_hat=tally.busy / n,
        delay_outage_hat=tally.outages[0] / n if bounds else None,
        mean_queue=tally.queue_sum / n,
        max_queue=tally.queue_max,
        mean_power=mean_power,
        slots_run=config.num_slots,
        seed=config.seed,
    )
    # Kept on the frozen config for improvement_vs_baseline; not a field, so
    # equality, hashing and dataclasses.replace ignore it.
    object.__setattr__(config, "_report", report)
    return report


def improvement_vs_baseline(config: SimConfig) -> float:
    """Relative EE gain of the configured threshold over a zero threshold.

    One gated pass suffices. Every gain clears a zero threshold, so the
    baseline's mean power is exactly circuit + tx power and its EE is
    arrival_rate over that; and a zero threshold serves at least as much in
    every slot, so its queue passes the guard only if the gated run's does,
    which raises QueueOverflowError here.

    The gated EE is read from the report run left on this config object,
    or from run(config) when there is none, so a call after run makes no
    pass. Another config object, even an equal one, makes its own run.
    """
    p = config.params
    baseline_ee = config.arrival_rate / (p.circuit_power + p.tx_power)
    report = getattr(config, "_report", None) or run(config)
    return (report.empirical_ee - baseline_ee) / baseline_ee


def ee_vs_threshold_curve(
    config: SimConfig,
    gamma0_values: list[float],
    qos: QosSpec,
) -> list[CurvePoint]:
    """One simulated report per threshold, same seed per row.

    Rows whose arrival rate exceeds the effective capacity under qos are
    flagged unstable rather than dropped. A row aborted by the stability
    guard keeps its flag with report None.
    """
    points: list[CurvePoint] = []
    for g in gamma0_values:
        unstable = config.arrival_rate > effective_capacity(config.params, qos, g, METHOD_EXACT)
        row = dataclasses.replace(config, gamma0=g)
        try:
            report = run(row)
        except QueueOverflowError:
            report = None
            unstable = True
        points.append(CurvePoint(gamma0=g, report=report, unstable=unstable))
    return points


def delay_outage_curve(
    config: SimConfig,
    delay_bounds: list[float],
) -> list[tuple[float, float]]:
    """Measured delay-outage frequency for several delay bounds, all counted
    on one sample path (config's own delay_bound is ignored, and SimConfig
    checks each bound as it would a delay_bound). A bound of None, which
    SimConfig takes as no bound, raises DomainError."""
    bounds = tuple(
        dataclasses.replace(config, delay_bound=_real(d, "delay_bound")).delay_bound
        for d in delay_bounds
    )
    tally = _walk(config, bounds)
    return [(d, count / tally.slots) for d, count in zip(delay_bounds, tally.outages)]
