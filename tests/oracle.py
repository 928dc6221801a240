"""One-draw-at-a-time twin of the draw pipeline and the simulators.

``clockcheck`` draws in numpy blocks.  This module does the same work one
raw draw at a time, in the most direct form, and the tests require the two
to agree bit for bit.  Every simulator here also takes a hand-made draw
source (any object with ``next()`` and ``raw_draws``): the seam for
degenerate, hand-checkable streams.

Only modules are imported from ``clockcheck``, never its layer functions by
name, so that the benchmark tracer's binding check stays clean.
"""

import numpy as np

from clockcheck import detector, rng, stats, transforms
from clockcheck.process import Event, StreamMode, Trajectory

_TOP = 1.0 - 2.0**-53
_TINY = 5e-324
_MAX_CONSECUTIVE_REJECTS = 1_000_000


def power_scalar(x, inv_gamma):
    # np.power rather than math.pow: the two differ in the last ulp, and the
    # block path runs the array kernel.
    y = float(np.power(np.float64(x), np.float64(inv_gamma)))
    return _TOP if y >= 1.0 else _TINY if y <= 0.0 else y


def draw_with_fault(model, gs):
    """One sample through ``model``: ``(u, new_state, rejected_candidates)``."""
    if isinstance(model, rng.LowThinning):
        rejected = 0
        while True:
            x, gs = rng.next_unit(gs)
            if x >= model.c:
                return x, gs, rejected
            r, gs = rng.next_unit(gs)
            if r >= model.q:
                return x, gs, rejected
            rejected += 1
    u, gs = rng.next_unit(gs)
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
        return u if self.transform is None else self.transform(u)

    def next(self):
        if self.window is None:
            return self._pre_window()
        y, discarded = rejection_rescale(self.window, self._pre_window)
        self.window_discards += discarded
        return y


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
    arm_reflected = -np.log(np.array([reflect(pipe.next()) for _ in range(n)]))
    ks = stats.ks_one_sample(uniform, stats.uniform_cdf)
    ab = detector._ab_verdict(arm_raw, arm_reflected, alpha)
    evidence = (detector.Evidence("uniform_ks", ks.statistic, ks.p_value),) + ab.evidence
    discards = pipe.fault_discards + pipe.window_discards
    return detector.Verdict.from_evidence(evidence, alpha), discards / (discards + 3 * n)
