"""Slot-level Monte Carlo simulation of the gated link with a FIFO buffer.

Per slot: draw a channel gain, serve the Shannon rate if the gain clears the
threshold (otherwise idle), and update the queue with a constant-rate
arrival. The queue recursion is solved in closed form (reflected random
walk) and walked in fixed blocks of slots, each a handful of vector
operations that carry the walk and its running minimum into the next block.
So a run needs O(block) memory whatever its length, and is fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .analysis import METHOD_CLOSED, QosSpec, effective_capacity, mean_service_rate
from .channel import SystemParams, sample_gains
from .errors import DomainError, QueueOverflowError, _require_finite

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
        _require_finite(self)
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


def _walk(config: SimConfig, delay_bounds: tuple[float, ...]) -> _Tally:
    """Simulate config.num_slots slots in blocks of _BLOCK_SLOTS and tally
    the post-warmup statistics, counting outages for every delay bound.

    Raises QueueOverflowError at the first slot whose backlog passes the
    stability guard.
    """
    import numpy as np

    p = config.params
    rng = np.random.default_rng(config.seed)
    snr = p.mean_snr
    rate_scale = p.slot_duration * p.bandwidth
    arrival = config.arrival_rate * p.slot_duration
    warmup = config.resolved_warmup()
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
        path = arrival - np.where(transmit, rate_scale * np.log2(1.0 + snr * gains), 0.0)
        path[0] += path_end
        np.cumsum(path, out=path)
        running_min = np.minimum.accumulate(path)
        np.minimum(running_min, low, out=running_min)
        path_end, low = float(path[-1]), float(running_min[-1])
        queue = np.subtract(path, running_min, out=path)
        if queue.max() > QUEUE_GUARD_BITS:
            first = start + int(np.argmax(queue > QUEUE_GUARD_BITS))
            raise QueueOverflowError(
                f"queue exceeded {QUEUE_GUARD_BITS:.0e} bits at slot {first}; "
                "arrival rate exceeds the gated capacity"
            )
        skip = max(warmup - start, 0)
        if skip >= queue.size:
            continue
        q = queue[skip:]
        transmitted += int(np.count_nonzero(transmit[skip:]))
        busy += int(np.count_nonzero(q > 0.0))
        if delay_bounds:
            # Fluid FIFO: the newest bit waits q / arrival_rate seconds.
            waits = q / config.arrival_rate
            for i, d in enumerate(delay_bounds):
                outages[i] += int(np.count_nonzero(waits > d))
        queue_sum += float(q.sum())
        queue_max = max(queue_max, float(q.max()))
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
    p = config.params
    bounds = () if config.delay_bound is None else (config.delay_bound,)
    tally = _walk(config, bounds)
    n = tally.slots
    p_tr_hat = tally.transmitted / n
    p_idle_hat = 1.0 - p_tr_hat
    # Power from mode counts: the per-slot power is two-valued, so this mean
    # is exact (and exactly circuit + tx power when gamma0 = 0).
    mean_power = p.circuit_power + p.tx_power * p_tr_hat + p.idle_power * p_idle_hat
    if mean_power == 0.0:
        raise DomainError(
            "mean power is 0 W: no circuit or idle power, and no slot transmitted, "
            "so the energy efficiency is undefined"
        )
    return SimReport(
        empirical_ee=config.arrival_rate / mean_power,
        p_tr_hat=p_tr_hat,
        p_idle_hat=p_idle_hat,
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

    One gated run suffices. Every gain clears a zero threshold, so the
    baseline's mean power is exactly circuit + tx power and its EE is
    arrival_rate over that; and a zero threshold serves at least as much in
    every slot, so its queue passes the guard only if the gated run's does,
    which raises QueueOverflowError here.
    """
    baseline_ee = config.arrival_rate / (config.params.circuit_power + config.params.tx_power)
    return (run(config).empirical_ee - baseline_ee) / baseline_ee


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
            sustainable = effective_capacity(config.params, qos, g, METHOD_CLOSED)
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
        if d <= 0.0:
            raise DomainError("delay bounds must be positive")
    tally = _walk(config, tuple(delay_bounds))
    return [(d, count / tally.slots) for d, count in zip(delay_bounds, tally.outages)]
