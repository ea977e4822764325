"""Slot-level Monte Carlo simulation of the gated link with a FIFO buffer.

Per slot: draw a channel gain, serve the Shannon rate if the gain clears the
threshold (otherwise idle), and update the queue with a constant-rate
arrival. The queue recursion is solved in closed form (reflected random
walk) and walked in fixed blocks of slots, each a handful of vector
operations that carry the walk and its running minimum into the next block.
Each block's arithmetic runs in place in two buffers reused across blocks,
and is branch-free: an idle slot's gain is zeroed, so it serves log2(1) = 0
bits. So a run needs O(block) memory whatever its length, and is fully
deterministic for a fixed seed.

improvement_vs_baseline needs only the share of transmitting slots. It
skips the queue whenever the bits that arrive over the whole run are at
most half the stability guard: the backlog never exceeds them, so the guard
cannot fire, and the same gains are drawn and counted, so the result is the
same float as with the queue. Every completed walk leaves its count behind,
keyed by what decides it, so a call after run on an equal config makes no
pass at all.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .analysis import METHOD_EXACT, QosSpec, effective_capacity, mean_service_rate
from .channel import SystemParams, sample_gains
from .errors import DomainError, QueueOverflowError, _require_finite

QUEUE_GUARD_BITS = 1e12
# Slots per block of the simulator's pass: a run holds a few arrays of this
# length at a time, whatever its num_slots.
_BLOCK_SLOTS = 1 << 16
# The transmitting-slot count of the last walk that completed, as
# (_count_key(config), count); None before the first. One tuple, replaced
# whole, so a reader never sees a key beside another walk's count.
_last_count: tuple[tuple, int] | None = None


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
        import numbers  # here, not at import: numpy loads it anyway for a run

        _require_finite(self)
        for name in ("num_slots", "seed", "warmup_slots"):
            value = getattr(self, name)
            if name == "warmup_slots" and value is None:
                continue
            # bool is an Integral too, but seed=True is a slip, not seed 1.
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
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
    slots, delay-outage slots per bound, and the queue's sum and maximum.
    A pass that skips the queue leaves its fields (busy onward) at 0."""

    slots: int
    transmitted: int
    busy: int
    outages: tuple[int, ...]
    queue_sum: float
    queue_max: float


def _count_key(config: SimConfig) -> tuple:
    """Everything that decides a walk's transmitting-slot count: the gain
    law (params), the gain stream (seed, num_slots), the counted slots
    (warmup) and the threshold. The load and the delay bound do not."""
    return (config.params, config.seed, config.num_slots, config.resolved_warmup(), config.gamma0)


def _walk(config: SimConfig, delay_bounds: tuple[float, ...], queue: bool = True) -> _Tally:
    """Simulate config.num_slots slots in blocks of _BLOCK_SLOTS and tally
    the post-warmup statistics, counting outages for every delay bound.

    Raises QueueOverflowError at the first slot whose backlog passes the
    stability guard. With queue=False only the gains are drawn and the
    transmitting slots counted: no queue, no guard. A walk that completes
    records its count in _last_count.
    """
    global _last_count
    import numpy as np

    p = config.params
    rng = np.random.default_rng(config.seed)
    snr = p.mean_snr
    rate_scale = p.slot_duration * p.bandwidth
    arrival = config.arrival_rate * p.slot_duration
    warmup = config.resolved_warmup()
    # Two buffers serve every block: the step, then its partial sums, then
    # the queue, in one; the running minimum, then the waits, in the other.
    size = min(_BLOCK_SLOTS, config.num_slots) if queue else 0
    path_buf, low_buf = np.empty(size), np.empty(size)
    # Lindley recursion q[n] = max(q[n-1] + a - s[n], 0) with q[0] = 0 has
    # the closed form q[n] = S[n] - min(0, min_{k<=n} S[k]). Each block
    # carries S and min(0, min S) over from the one before, so its partial
    # sums are the same sequential sums as one cumsum over every slot.
    path_end = 0.0
    low = 0.0
    transmitted = busy = 0
    outages = [0] * len(delay_bounds)
    queue_sum = queue_max = 0.0
    for start in range(0, config.num_slots, _BLOCK_SLOTS):
        gains = sample_gains(p, rng, min(_BLOCK_SLOTS, config.num_slots - start))
        transmit = gains >= config.gamma0
        skip = max(warmup - start, 0)
        if skip < gains.size:
            transmitted += int(np.count_nonzero(transmit[skip:]))
        if not queue:
            continue
        # Step a - s[n], branch-free: an idle slot's gain is zeroed, so it
        # serves log2(1) = 0 bits and its step is exactly a.
        path = np.multiply(gains, transmit, out=path_buf[: gains.size])
        path *= snr
        path += 1.0
        np.log2(path, out=path)
        path *= rate_scale
        np.subtract(arrival, path, out=path)
        path[0] += path_end
        np.cumsum(path, out=path)
        running_min = np.minimum.accumulate(path, out=low_buf[: gains.size])
        np.minimum(running_min, low, out=running_min)
        path_end, low = float(path[-1]), float(running_min[-1])
        block_queue = np.subtract(path, running_min, out=path)
        if block_queue.max() > QUEUE_GUARD_BITS:
            first = start + int(np.argmax(block_queue > QUEUE_GUARD_BITS))
            raise QueueOverflowError(
                f"queue exceeded {QUEUE_GUARD_BITS:.0e} bits at slot {first}; "
                "arrival rate exceeds the gated capacity"
            )
        if skip >= gains.size:
            continue
        q = block_queue[skip:]
        busy += int(np.count_nonzero(q > 0.0))
        if delay_bounds:
            # Fluid FIFO: the newest bit waits q / arrival_rate seconds.
            waits = np.divide(q, config.arrival_rate, out=running_min[skip:])
            for i, d in enumerate(delay_bounds):
                outages[i] += int(np.count_nonzero(waits > d))
        queue_sum += float(q.sum())
        queue_max = max(queue_max, float(q.max()))
    _last_count = (_count_key(config), transmitted)
    return _Tally(
        slots=config.num_slots - warmup,
        transmitted=transmitted,
        busy=busy,
        outages=tuple(outages),
        queue_sum=queue_sum,
        queue_max=queue_max,
    )


def _mean_power(p: SystemParams, p_tr_hat: float) -> float:
    """Mean power from the transmitting share of slots. The per-slot power
    is two-valued, so this mean is exact (and exactly circuit + tx power
    when every slot transmits). Raises DomainError when it is 0 W."""
    mean_power = p.circuit_power + p.tx_power * p_tr_hat + p.idle_power * (1.0 - p_tr_hat)
    if mean_power == 0.0:
        raise DomainError(
            "mean power is 0 W: no circuit or idle power, and no slot transmitted, "
            "so the energy efficiency is undefined"
        )
    return mean_power


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
    mean_power = _mean_power(config.params, p_tr_hat)
    return SimReport(
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


def improvement_vs_baseline(config: SimConfig) -> float:
    """Relative EE gain of the configured threshold over a zero threshold.

    One gated pass suffices. Every gain clears a zero threshold, so the
    baseline's mean power is exactly circuit + tx power and its EE is
    arrival_rate over that; and a zero threshold serves at least as much in
    every slot, so its queue passes the guard only if the gated run's does,
    which raises QueueOverflowError here.

    The gain needs only the share of transmitting slots, and the queue is
    walked only to honour that guard. The backlog never exceeds the bits
    that arrived, so when arrival_rate * slot_duration * num_slots is at
    most half of QUEUE_GUARD_BITS (the other half is room for rounding) the
    guard cannot fire, and the pass only draws the same gains and counts
    the transmitting slots. After run (or any walk) on a config that differs
    at most in arrival_rate or delay_bound, that count is already known and
    no pass is made. The result is the same float as run's, bit for bit.
    """
    p = config.params
    baseline_ee = config.arrival_rate / (p.circuit_power + p.tx_power)
    arrived_bits = config.arrival_rate * p.slot_duration * config.num_slots
    if arrived_bits <= QUEUE_GUARD_BITS / 2:
        last = _last_count
        if last is not None and last[0] == _count_key(config):
            transmitted = last[1]
        else:
            transmitted = _walk(config, (), queue=False).transmitted
        p_tr_hat = transmitted / (config.num_slots - config.resolved_warmup())
        ee = config.arrival_rate / _mean_power(p, p_tr_hat)
    else:
        ee = run(config).empirical_ee
    return (ee - baseline_ee) / baseline_ee


def ee_vs_threshold_curve(
    config: SimConfig,
    gamma0_values: list[float],
    qos: QosSpec | None = None,
) -> list[CurvePoint]:
    """One simulated report per threshold, same seed per row.

    Rows whose arrival rate exceeds the sustainable rate are flagged
    unstable rather than dropped; the sustainable rate is the effective
    capacity when a QoS requirement is given, otherwise the mean service
    rate. A row aborted by the stability guard keeps its flag with report
    None.
    """
    points: list[CurvePoint] = []
    for g in gamma0_values:
        if qos is not None:
            sustainable = effective_capacity(config.params, qos, g, METHOD_EXACT)
        else:
            sustainable = mean_service_rate(config.params, g)
        unstable = config.arrival_rate > sustainable
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
    on one sample path (config's own delay_bound is ignored)."""
    for d in delay_bounds:
        # NaN fails every comparison, so the range check alone lets it in.
        if not math.isfinite(d):
            raise DomainError(f"delay_bound must be finite, got {d}")
        if d <= 0.0:
            raise DomainError("delay bounds must be positive")
    tally = _walk(config, tuple(delay_bounds))
    return [(d, count / tally.slots) for d, count in zip(delay_bounds, tally.outages)]
