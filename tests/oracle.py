"""One-draw-at-a-time twin of the draw pipeline and the simulators.

``clockcheck`` draws in numpy blocks.  This module does the same work one
raw draw at a time, in the most direct form, and the tests require the two
to agree bit for bit: one generator step on a Python int (``mix64``), the
unit-lattice map of one word, each fault model and each transform on one
float, the window rejection-rescale, the simulators built on them,
Welford's summary one value at a time, the two-sample KS statistic in
its two-``searchsorted`` form, and event-CSV rows with ``repr`` of each
time.  It also holds the single-run check that
the package leaves out on purpose (``fitted_exponential_check``).
Every simulator here also takes a hand-made draw source (any object with
``next()`` and ``raw_draws``): the seam for degenerate, hand-checkable
streams.

Only modules are imported from ``clockcheck``, never its layer functions by
name, so that the benchmark tracer's binding check stays clean.
"""

import csv
import io
from typing import NamedTuple

import numpy as np

from clockcheck import detector, report, rng, stats, transforms
from clockcheck.process import StreamMode, Trajectory

_TOP = 1.0 - 2.0**-53
_ABOVE_HALF = 0.5 + 2.0**-53
_TINY = 5e-324
_MAX_CONSECUTIVE_REJECTS = 1_000_000


def mix64(z):
    """One generator step on a 64-bit word.

    Advances by the Weyl increment, then applies the output scrambler.  The
    increment is what defines stream position; the xor/multiply cascade only
    whitens the output.  Pure function: equal inputs give equal outputs.
    """
    rng._check_u64(z, "z")
    z = (int(z) + rng.GOLDEN) & rng.MASK64
    z = ((z ^ (z >> 30)) * rng._MULT1) & rng.MASK64
    z = ((z ^ (z >> 27)) * rng._MULT2) & rng.MASK64
    return z ^ (z >> 31)


def unit_from_word(word):
    """The unit sample of one output word, on the half-offset 53-bit lattice."""
    u = ((word >> 11) + 0.5) * 2.0**-53
    if u == 0.5:  # lattice cell k = 2**52, folded by ties-to-even
        return 0.5 + 2.0**-53
    if u == 1.0:  # lattice cell k = 2**53 - 1, folded by ties-to-even
        return 1.0 - 2.0**-53
    return u


def next_unit(gs):
    """Draw one unit sample; return ``(u, advanced_state)``.

    ``u`` lies strictly inside (0, 1) and is never exactly 0.5, so
    ``-log(u)`` is always finite and positive.
    """
    return unit_from_word(mix64(gs.state)), gs.advanced(1)


def power_scalar(x, inv_gamma):
    # np.power rather than math.pow: the two differ in the last ulp, and the
    # block path runs the array kernel.
    y = float(np.power(np.float64(x), np.float64(inv_gamma)))
    return _TOP if y >= 1.0 else _TINY if y <= 0.0 else y


def transform_scalar(transform, x):
    """``transform`` applied to one float strictly inside (0, 1).

    Off the grid of multiples of 2**-53 an image can round onto 1.0, or onto
    1/2 under rotate_half; it is snapped back inside, never onto 1/2.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie strictly inside (0, 1), got {x}")
    if isinstance(transform, transforms.Compose):
        for part in transform.parts:
            x = transform_scalar(part, x)
        return x
    if isinstance(transform, transforms.Reflect):
        y = 1.0 - x
        return _TOP if y >= 1.0 else y
    if isinstance(transform, transforms.RotateHalf):
        if x == 0.5:
            raise ValueError("rotate_half is undefined at exactly 0.5")
        if x > 0.5:
            return x - 0.5  # Sterbenz: exact for x in (1/2, 1)
        y = x + 0.5
        if y == 0.5:  # x below 2**-54 rounds the sum down to 1/2 itself
            return _ABOVE_HALF
        return _TOP if y >= 1.0 else y
    raise TypeError(f"unknown transform: {transform!r}")


def draw_with_fault(model, gs):
    """One sample through ``model``: ``(u, new_state, rejected_candidates)``."""
    if isinstance(model, rng.LowThinning):
        rejected = 0
        while True:
            x, gs = next_unit(gs)
            if x >= model.c:
                return x, gs, rejected
            r, gs = next_unit(gs)
            if r >= model.q:
                return x, gs, rejected
            rejected += 1
    u, gs = next_unit(gs)
    if isinstance(model, rng.PowerBias):
        u = power_scalar(u, 1.0 / model.gamma)
    return u, gs, 0


def exp_increment(u, rate):
    """Exponential waiting time ``-log(u) / rate`` through the numpy log kernel."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie strictly inside (0, 1), got {u}")
    if not (np.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    return float(-np.log(np.float64(u)) / np.float64(rate))


def rejection_rescale(window, draw):
    """Draw until a sample lands strictly inside ``window``: ``(rescaled, discards)``."""
    discards = 0
    while True:
        x = draw()
        if window.a < x < window.b:
            y = (x - window.a) / window.width
            return (_TOP if y >= 1.0 else _TINY if y <= 0.0 else y), discards
        discards += 1
        if discards >= _MAX_CONSECUTIVE_REJECTS:
            raise RuntimeError(
                f"window ({window.a}, {window.b}) rejected {discards} consecutive "
                "draws; the upstream pipeline never lands inside it"
            )


def welford(samples):
    """Welford's mean and unbiased variance, one Python float at a time:
    ``stats.summarize`` must give these bits."""
    xs = np.asarray(samples, dtype=np.float64).ravel().tolist()
    mean = m2 = 0.0
    for k, x in enumerate(xs, 1):
        delta = x - mean
        mean += delta / k
        m2 += delta * (x - mean)
    n = len(xs)
    return stats.SampleSummary(n=n, mean=mean, variance=m2 / (n - 1) if n >= 2 else None)


def ks_two_sample_statistic(a, b):
    """The two-sample KS statistic by two ``searchsorted`` passes over the
    sorted samples: ``stats.ks_two_sample`` must give these bits."""
    xa = np.sort(np.asarray(a, dtype=np.float64).ravel())
    xb = np.sort(np.asarray(b, dtype=np.float64).ravel())
    return max(_ks_side(xa, xb), _ks_side(xb, xa))


def _ks_side(x, y):
    """max |F_x - F_y| over the points of sorted ``x``, against sorted ``y``.

    Both empirical cdfs are right-continuous steps, so at a run of equal
    values in ``x`` only its last point matters: there ``F_x`` is the run's
    end over ``x.size``.
    """
    ends = np.flatnonzero(np.append(x[1:] != x[:-1], True))
    f = np.add(ends, 1, dtype=np.float64) / x.size
    f -= np.searchsorted(y, x[ends], side="right") / y.size
    return float(np.abs(f).max())


class SourceStream:
    """One ``(seed, stream_id)`` substream behind a fault model."""

    def __init__(self, seed, stream_id, model=rng.IDEAL):
        self.model = model
        self.gs = rng.substream(seed, stream_id)
        self.fault_discards = 0

    def next(self):
        u, self.gs, rejected = draw_with_fault(self.model, self.gs)
        self.fault_discards += rejected
        return u

    @property
    def raw_draws(self):
        return self.gs.draw_count


class PipelineSource(SourceStream):
    """The fault -> transform -> window pipeline on one substream."""

    def __init__(self, seed, stream_id, fault=rng.IDEAL, transform=None, window=None):
        super().__init__(seed, stream_id, fault)
        self.transform = transform
        self.window = window
        self.window_discards = 0

    def _pre_window(self):
        u = super().next()
        return u if self.transform is None else transform_scalar(self.transform, u)

    def next(self):
        if self.window is None:
            return self._pre_window()
        y, discarded = rejection_rescale(self.window, self._pre_window)
        self.window_discards += discarded
        return y


class Event(NamedTuple):
    """One clock tick: when, which clock, and the stream's draw count at emission."""

    time: float
    mark: int
    draw_index: int


def events_csv_text(traj):
    """An events CSV as ``csv.writer`` writes it, one ``writerow`` per event."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(report.EVENTS_HEADER)
    for t, m, d in zip(traj.times.tolist(), traj.marks.tolist(), traj.draw_indices.tolist()):
        writer.writerow([repr(t), m, d])
    return buf.getvalue()


def event_rows(times, marks, draws):
    """Event-CSV rows, one ``%r,%d,%d`` per event: ``repr`` of each time, the
    definition the writer's vectorised float formatting must meet."""
    return b"".join(b"%r,%d,%d\r\n" % row
                    for row in zip(np.asarray(times, dtype=np.float64).tolist(),
                                   np.asarray(marks).tolist(), np.asarray(draws).tolist()))


def _trajectory(events, n_clocks, total_draws):
    return Trajectory(
        times=np.array([e.time for e in events], dtype=np.float64),
        marks=np.array([e.mark for e in events], dtype=np.int64),
        draw_indices=np.array([e.draw_index for e in events], dtype=np.int64),
        total_draws=total_draws,
        n_clocks=n_clocks,
    )


def merge(parts, *, n_clocks=None, total_draws=None):
    """Time-sorted merge of per-clock event lists, ties broken by ascending mark.

    Without ``total_draws`` the total is each part's last draw index summed,
    which misses the draws behind suppressed events.
    """
    for part in parts:
        if any(b.time < a.time for a, b in zip(part, part[1:])):
            raise RuntimeError("unsorted per-clock event list")
    events = sorted(e for part in parts for e in part)
    if n_clocks is None:
        n_clocks = max((e.mark + 1 for e in events), default=1)
    if total_draws is None:
        total_draws = sum(part[-1].draw_index for part in parts if part)
    return _trajectory(events, n_clocks, total_draws)


def simulate_serial(cfg, source=None):
    if source is None:
        source = PipelineSource(cfg.seed, rng.SERIAL_STREAM, cfg.fault, cfg.transform,
                                cfg.fix_window)
    n = cfg.n_clocks
    events, t = [], 0.0
    while True:
        t_next = t + exp_increment(source.next(), float(n))
        if t_next > cfg.horizon:
            return _trajectory(events, n, source.raw_draws)
        mark = min(int(source.next() * n), n - 1)
        events.append(Event(t_next, mark, source.raw_draws))
        t = t_next


def simulate_parallel(cfg, source_factory=None):
    """Per-clock mode: one stream per clock.  Per-worker mode: each worker's
    clocks take one tick each per round, ascending id, off the worker's stream.

    ``source_factory`` maps the stream owner (clock or worker index) to a
    draw source.
    """
    per_worker = cfg.stream_mode is StreamMode.PER_WORKER
    if source_factory is None:
        stream_id = rng.worker_stream if per_worker else rng.clock_stream

        def source_factory(owner):
            return PipelineSource(cfg.seed, stream_id(owner), cfg.fault, cfg.transform,
                                  cfg.fix_window)

    if per_worker:
        owners = [[i for i in range(cfg.n_clocks) if cfg.mapping[i] == w]
                  for w in range(cfg.workers)]
    else:
        owners = [[i] for i in range(cfg.n_clocks)]
    parts = [[] for _ in range(cfg.n_clocks)]
    total = 0
    for owner, clocks in enumerate(owners):
        if not clocks:
            continue
        source = source_factory(owner)
        now = dict.fromkeys(clocks, 0.0)
        alive = list(clocks)
        while alive:
            for i in tuple(alive):
                t_next = now[i] + exp_increment(source.next(), 1.0)
                if t_next > cfg.horizon:
                    alive.remove(i)
                    continue
                now[i] = t_next
                parts[i].append(Event(t_next, i, source.raw_draws))
        total += source.raw_draws
    return merge(parts, n_clocks=cfg.n_clocks, total_draws=total)


def shuffle_mapping(n_clocks, workers, seed):
    """Blocks over a Fisher–Yates permutation, one mapping-stream draw per swap."""
    perm = list(range(n_clocks))
    gs = rng.substream(seed, rng.MAPPING_STREAM)
    for i in range(n_clocks - 1, 0, -1):
        u, gs = next_unit(gs)
        j = min(int(u * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    mapping = [0] * n_clocks
    for position, clock in enumerate(perm):
        mapping[clock] = position * workers // n_clocks
    return tuple(mapping)


def fix_evaluation(fault, window, n, alpha, seed):
    """``detector.fix_evaluation`` with its draws taken one at a time."""
    before, _ = _fix_phase(fault, None, n, alpha, seed)
    after, discard_rate = _fix_phase(fault, window, n, alpha, seed)
    return detector.FixReport(before=before, after=after, discard_rate=discard_rate)


def _fix_phase(fault, window, n, alpha, seed):
    pipe = PipelineSource(seed, rng.SERIAL_STREAM, fault, None, window)
    uniform = np.array([pipe.next() for _ in range(n)])
    arm_raw = -np.log(np.array([pipe.next() for _ in range(n)]))
    reflect = transforms.Reflect()
    arm_reflected = -np.log(np.array([transform_scalar(reflect, pipe.next())
                                      for _ in range(n)]))
    ks = stats.ks_one_sample(uniform, stats.uniform_cdf)
    ab = detector._ab_verdict(arm_raw, arm_reflected, alpha)
    evidence = (detector.Evidence("uniform_ks", ks.statistic, ks.p_value),) + ab.evidence
    discards = pipe.fault_discards + pipe.window_discards
    return detector.Verdict.from_evidence(evidence, alpha), discards / (discards + 3 * n)


def fitted_exponential_check(traj, alpha):
    """The serial blind spot: KS of inter-event times vs their own fitted law.

    The reference exponential takes its rate from the sample mean, which is
    all a run without a comparison partner can do — and a source bias that
    only rescales time (e.g. a power bias) survives this check untouched.
    The package has no such check: a lone run cannot be trusted, which is
    why clockcheck compares two.
    """
    gaps = traj.inter_event_times()
    if gaps.size < stats.MIN_KS_N:
        raise ValueError("fitted_exponential_check requires a nonempty trajectory "
                         f"with >= {stats.MIN_KS_N} events")
    rate = 1.0 / float(np.mean(gaps))
    res = stats.ks_one_sample(gaps, lambda x: stats.exponential_cdf(x, rate))
    return detector.Verdict.from_evidence(
        [detector.Evidence("fitted_exponential_ks", res.statistic, res.p_value)], alpha
    )
