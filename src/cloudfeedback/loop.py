"""Discrete measure-and-kick feedback loop.

The physical loop alternates free harmonic rotation with instantaneous
events: a Gaussian measurement of the cm with per-shot resolution sigma0,
then a rigid shift of the cloud by -zeta0 * X_m.  Event rate gamma ties the
discrete parameters to the continuous ones via sigma = sigma0/sqrt(gamma),
zeta = zeta0*gamma.

Measurement, kick and back-action act on the collective pair (X_tot, P_tot)
only, and that pair is a harmonic oscillator of mass N m at every N, so the
loop filters the pair alone.  In it the measured row is h = (1, 0), the kick
direction s = (1, 0) and the back-action direction u = (0, 1).  Everything
is Gaussian: the conditional covariance follows a deterministic Kalman
recursion and only the conditional means are stochastic.  Trajectory i
always draws from its own stream (spawn key = trajectory index), so results
do not depend on how the draws are blocked.  The K streams are the same
spawn children as numpy's SeedSequence gives, seeded in one vectorized pass,
and their draws are stored event-major (_Streams).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, MinResolution, SingularLyapunov, TimescaleViolation,
                     check_budget, sig)
from .moments import MomentGrid, project_collective, start_moments
from .scales import TrapConfig

# bound on the floats one batch keeps in each draw buffer (8 MB)
_DRAW_FLOATS = 2**20
# a poisson chunk steps enough events to fill (events, trajectories) arrays
# of this many floats, and at least 4, which spreads numpy's per-call cost
# at large K
_CHUNK_FLOATS = 2**12
# a refill passes draws to the event-major buffer through a tile of at most
# this many floats (512 KB); it holds as many whole blocks as fit, since
# every call to a trajectory's Generator has a fixed cost
_TILE_FLOATS = 2**16
# NumPy's SeedSequence hash (O'Neill's seed_seq_fe; NEP 19): the multipliers
# of its hashmix, of generate_state and of mix, all in 32-bit arithmetic
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


@dataclass(frozen=True)
class LoopConfig:
    gamma: float            # event rate
    sigma0: float           # per-shot measurement resolution
    zeta0: float            # per-shot kick gain
    schedule: str = "regular"
    rng_seed: int = 0
    trajectories: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be finite and > 0, got {self.gamma!r}")
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ConfigError(f"sigma0 must be finite and > 0, got {self.sigma0!r}")
        if not (math.isfinite(self.zeta0) and self.zeta0 >= 0):
            raise ConfigError(f"zeta0 must be finite and >= 0, got {self.zeta0!r}")
        if self.schedule not in ("regular", "poisson"):
            raise ConfigError(f"schedule must be regular or poisson, got {self.schedule!r}")
        if not self.trajectories >= 1:
            raise ConfigError(f"trajectories must be >= 1, got {sig(self.trajectories)}")
        check_budget("trajectories", self.trajectories, "trajectories")
        if not (0 <= int(self.rng_seed) < 2**64):
            raise ConfigError(f"rng_seed must fit in 64 bits, got {sig(int(self.rng_seed))}")


class _Pair(NamedTuple):
    """Filter state of (X_tot, P_tot) for a batch of trajectories.

    x and p hold the conditional means, one per trajectory; xx, xp and pp the
    conditional covariance, either one value the batch shares or one per
    trajectory.
    """

    x: np.ndarray
    p: np.ndarray
    xx: float | np.ndarray
    xp: float | np.ndarray
    pp: float | np.ndarray


def _rotation(trap: TrapConfig, dt, out=(None,) * 9) -> tuple:
    """Free evolution R = [[c, a], [-b, c]] of the pair over dt, as the
    products the kernel uses: (c, a, b, c^2, 2ca, a^2, c^2 - ab, b^2, 2cb).

    dt is one time or an array of them; out, nine arrays of its shape to
    write the products to.
    """
    mw = trap.atom_count * trap.mass * trap.trap_freq
    c, a, b, cc, ca2, aa, ccab, bb, cb2 = out
    c = np.cos(trap.trap_freq * dt, c)
    sn = np.sin(trap.trap_freq * dt)
    a, b, cc, c2 = np.divide(sn, mw, a), np.multiply(mw, sn, b), np.multiply(c, c, cc), 2.0 * c
    return (c, a, b, cc, np.multiply(c2, a, ca2), np.multiply(a, a, aa),
            np.subtract(cc, a * b, ccab), np.multiply(b, b, bb), np.multiply(c2, b, cb2))


def _rotate(st: _Pair, rot: tuple, out=None) -> _Pair:
    """The pair after the free evolution rot: the means in out = (x, p, scratch,
    scratch), four arrays apart from st's (fresh ones if None), the covariance
    as values.  No ufunc writes over its own operand: on one-element arrays
    numpy's overlap check for that costs more than the arithmetic."""
    c, a, b, cc, ca2, aa, ccab, bb, cb2 = rot
    if out is None:
        out = [np.empty(np.broadcast(st.x, st.p, c).shape) for _ in range(4)]
    x, p, u, v = out
    np.add(np.multiply(c, st.x, u), np.multiply(a, st.p, v), x)
    np.subtract(np.multiply(c, st.p, v), np.multiply(b, st.x, u), p)
    return _Pair(x, p, cc * st.xx + ca2 * st.xp + aa * st.pp,
                 c * (a * st.pp - b * st.xx) + ccab * st.xp,
                 bb * st.xx - cb2 * st.xp + cc * st.pp)


def _filter_event(st: _Pair, rot: tuple, z, sigma0: float, zeta0: float, hbar: float,
                  out: _Pair | None = None, work=None) -> tuple[_Pair, np.ndarray]:
    """One loop event for a batch: rotate by rot, measure X, kick, back-action.

    The outcome is x_m = X + sqrt(Var X + sigma0^2) z for standard normal z.
    The pair is conditioned on it (Doherty & Jacobs, PRA 60:2700, 1999), X is
    kicked by -zeta0 x_m, and Var P gains hbar^2/(4 sigma0^2).  That increment
    is the exact unconditional effect of the Gaussian position channel and
    keeps the filter closed without sampling a momentum kick.  Returns the
    new state and the outcomes.

    The covariance half needs no outcome, so a shared one runs in floats.
    out, the pair written to, keeps the means from allocating: arrays x and
    p (st's may be reused) and xx, xp, pp, arrays or None for a shared
    covariance, which then comes back as values.  work is four arrays of the
    means' shape; the outcomes returned are work[3].
    """
    if out is None:
        shape = np.broadcast(*st, z, *rot).shape
        out = _Pair(np.empty(shape), np.empty(shape), None, None, None)
        work = [np.empty(shape) for _ in range(4)]
    x, p, e, x_m = work
    _, _, xx, xp, pp = _rotate(st, rot, work)
    innov = xx + sigma0**2
    gx, gp = xx / innov, xp / innov
    np.multiply(math.sqrt(innov) if isinstance(innov, float) else np.sqrt(innov), z, e)
    np.add(p, np.multiply(gp, e, x_m), out.p)  # st is read: out may be st
    np.add(x, np.multiply(gx, e, x_m), p)  # x + gx e
    np.add(x, e, x_m)  # the outcome
    np.subtract(p, np.multiply(zeta0, x_m, x), out.x)  # x + gx e - zeta0 x_m
    cov = (xx - gx * xx, xp - gx * xp, pp - gp * xp + hbar**2 / (4.0 * sigma0**2))
    if out.xx is not None:
        for dst, value in zip(out[2:], cov):
            dst[...] = value
        cov = out[2:]
    return _Pair(out.x, out.p, *cov), x_m


def _check_stable(trap: TrapConfig, cfg: LoopConfig) -> float:
    """Spectral radius of the event-to-event mean map R (I - zeta0 s h^T).

    R has determinant one, so the map has trace cos(omega/gamma)(2 - zeta0)
    and determinant 1 - zeta0; at zeta0 = 0 the radius is exactly 1.  Raises
    ConfigError above 1, where the means grow without bound.
    """
    tr = math.cos(trap.trap_freq / cfg.gamma) * (2.0 - cfg.zeta0)
    det = 1.0 - cfg.zeta0
    disc = tr * tr - 4.0 * det
    radius = math.sqrt(det) if disc < 0.0 else 0.5 * (abs(tr) + math.sqrt(disc))
    if radius > 1.0:
        raise ConfigError(
            f"zeta0 {cfg.zeta0!r} makes the loop unstable: the mean map has "
            f"spectral radius {radius!r} > 1")
    return radius


def stationary_discrete(trap: TrapConfig, cfg: LoopConfig) -> np.ndarray:
    """Fixed point of the unconditional (X_tot, P_tot) covariance just after an event.

    That is where `run_ensemble` records, so its late var_X approaches the
    [0, 0] entry.  Over one period the covariance maps as S -> A S A^T + Q,
    and both are read off the filter kernel: A is its mean map without
    noise, Q its output from a sharp state at the origin (the conditional
    covariance plus the response of the means to a unit innovation).  With
    S read row by row, the fixed point solves (I - A kron A) vec S = vec Q.
    """
    if _check_stable(trap, cfg) >= 1.0:
        raise SingularLyapunov("no stationary loop state: the mean map has spectral radius 1")
    a, q = _period_map(trap, cfg)
    s = np.linalg.solve(np.eye(4) - np.kron(a, a), q.reshape(4)).reshape(2, 2)
    return 0.5 * (s + s.T)


def _period_map(trap: TrapConfig, cfg: LoopConfig) -> tuple[np.ndarray, np.ndarray]:
    """(A, Q) of the covariance's map over one period, S -> A S A^T + Q."""
    rot = _rotation(trap, 1.0 / cfg.gamma)
    basis = _Pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.0, 0.0)
    unit, _ = _filter_event(basis, rot, 0.0, cfg.sigma0, cfg.zeta0, trap.hbar)
    noise, _ = _filter_event(_Pair(0.0, 0.0, 0.0, 0.0, 0.0), rot, 1.0,
                             cfg.sigma0, cfg.zeta0, trap.hbar)
    w = np.array([noise.x, noise.p])
    q = np.array([[noise.xx, noise.xp], [noise.xp, noise.pp]]) + np.outer(w, w)
    return np.array([unit.x, unit.p]), q


@dataclass(frozen=True)
class LoopTrajectory:
    times: np.ndarray
    mean_X: np.ndarray
    var_X: np.ndarray
    mean_P: np.ndarray
    var_P: np.ndarray
    n_events: np.ndarray
    config: LoopConfig
    trap: TrapConfig
    spectral_radius: float  # of the event-to-event mean map; <= 1
    traj_events: int        # trajectory-events stepped, lockstep overrun included
    draws: int              # random numbers drawn, over every stream and method
    draws_unread: int       # of those, the ones no stepped event read


def _spawn_states(seed: int, k: int) -> np.ndarray:
    """PCG64 seeds of the first k spawn children of seed, (k, 4) uint64.

    Row i equals SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4,
    np.uint64) for seed < 2^64 and k <= 2^32.  The child's entropy is the
    seed's two 32-bit words padded with zeros to the pool of four, then i;
    the pool mixed from the seed is shared, and only the mixing of i in and
    the output hash run on uint32 arrays over all k children at once.
    numpy's unsigned arithmetic wraps modulo 2^32 as the C code does.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _WORD
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    seed_words = np.array([[seed & _WORD], [seed >> 32], [0], [0]], dtype=np.uint32)
    pool = [hashmix(word) for word in seed_words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    spawn = np.arange(k, dtype=np.uint32)
    pool = [mix(word, hashmix(spawn)) for word in pool]
    const = _INIT_B
    out = np.empty((k, 8), dtype=np.uint64)
    for j in range(8):
        value = pool[j % 4] ^ const
        const = const * _MULT_B & _WORD
        value = value * const
        out[:, j] = value ^ value >> 16
    # little-endian pairs of 32-bit words, as generate_state views them
    return out[:, 0::2] | out[:, 1::2] << 32


class _Streams:
    """Per-trajectory random streams, read a block of events at a time.

    Trajectory i owns the stream of spawn child i of the seed, the PCG64 that
    SeedSequence(entropy=seed, spawn_key=(i,)) seeds; the K seeds are
    expanded in one pass (_spawn_states).  A refill draws one block per
    trajectory from each named Generator method in turn (say
    standard_exponential, then standard_normal), so the numbers a trajectory
    sees do not depend on the batch, and with a single method they equal
    one long draw.  The buffer is event-major, (methods, block, K), so that
    an event reads one contiguous row.  The draws reach it through a
    trajectory-major tile of at most _TILE_FLOATS floats: trajectories draw
    into its rows, whole blocks where they fit, and the tile is copied in
    transposed.  At K = 1 the two layouts coincide.  drawn counts the
    numbers drawn so far.
    """

    def __init__(self, seed: int, k: int, block: int, methods: tuple[str, ...]):
        # numpy.random costs milliseconds to import, so only a loop run loads it
        from numpy.random import PCG64, Generator
        from numpy.random.bit_generator import ISeedSequence

        class Seeded(ISeedSequence):
            """Hands PCG64 the state words computed for it."""

            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                return self.words  # PCG64 asks for its four uint64 words

        rngs = [Generator(PCG64(Seeded(words))) for words in _spawn_states(int(seed), k)]
        self._draws = [[getattr(rng, method) for rng in rngs] for method in methods]
        self._buf = np.empty((len(methods), block, k))
        rows = min(k, max(1, _TILE_FLOATS // block))
        self._tile = np.empty((rows, min(block, _TILE_FLOATS // rows)))
        self._rows = list(self._tile)  # a whole-width tile's rows, made once
        self.drawn = self._refills = self._last = 0

    def blocks(self, live=None):
        """Refill the streams and yield the buffer, (methods, block, k), forever.

        live, if given, is called before each refill for the indices of the
        streams to refill; the others keep their old draws.  Each refill
        overwrites the array the previous one yielded.
        """
        k = self._buf.shape[2]
        rows, width = self._tile.shape
        while True:
            refill = list(range(k)) if live is None else live().tolist()
            self._refills, self._last = self._refills + 1, len(refill)
            self.drawn += len(refill) * len(self._draws) * len(self._buf[0])
            for g0 in range(0, len(refill), rows):
                group = refill[g0:g0 + rows]
                cols = (slice(group[0], group[-1] + 1)
                        if group[-1] - group[0] == len(group) - 1 else group)
                for draws, out in zip(self._draws, self._buf):
                    for c0 in range(0, len(out), width):
                        tile = self._tile[:len(group), :len(out) - c0]
                        for row, i in zip(self._rows if tile.shape[1] == width else tile, group):
                            draws[i](out=row)
                        out[c0:c0 + width, cols] = tile.T
            yield self._buf

    def unread(self, stepped: int) -> int:
        """Numbers drawn that `stepped` events left unread: every refill but the
        last is read whole, and a stream left out of one reads no new draws."""
        methods, block, _ = self._buf.shape
        return self._last * methods * (self._refills * block - stepped)


def _moments(k: int, sx, sxx, vx, sp, spp, vp) -> tuple:
    """(mean X, Var X, mean P, Var P) from ensemble sums of the means and their
    squares and the mean conditional variances: variance plus spread of means."""
    mx, mp = sx / k, sp / k
    return mx, vx + (sxx / k - mx**2), mp, vp + (spp / k - mp**2)


def _ensemble_moments(st: _Pair) -> tuple:
    """Moments of a batch whose covariance the batch shares (scalar xx and pp)."""
    return _moments(st.x.shape[0], st.x.sum(), (st.x**2).sum(), st.xx,
                    st.p.sum(), (st.p**2).sum(), st.pp)


def _edges_before(t: np.ndarray, step: float, count: int) -> np.ndarray:
    """Number of record edges g * step (g = 1..count) strictly before each t.

    ceil(t / step) - 1 is off by at most one from the count under rounding;
    comparing with the edge times themselves settles it exactly.
    """
    q = np.clip(np.ceil(t / step) - 1.0, 0.0, count)
    q += (q < count) & ((q + 1.0) * step < t)
    q -= (q > 0.0) & (q * step >= t)
    return q.astype(np.intp)


def _record_edges(sums: np.ndarray, step: float, t: np.ndarray, hist: np.ndarray,
                  fired: int, trap: TrapConfig) -> None:
    """Add to sums the record of every edge a chunk of poisson states covers.

    hist[:, r] is the state after the event at t[r] (r = 0 is the last event
    of the previous chunk), valid on [t[r], t[r + 1]); the edges inside are
    recorded from it rotated to each edge.  An event exactly on an edge thus
    counts before that edge's record.  Row r follows fired + r events.
    Column e of sums holds, for the edge (e + 1) * step, the ensemble sums of
    x, x^2, Var X, p, p^2, Var P and the event count.
    """
    g = _edges_before(t, step, sums.shape[1])
    n = np.diff(g, axis=0)
    cells = np.flatnonzero(n)
    if cells.size == 0:
        return
    count = n.ravel()[cells]
    first = g[:-1].ravel()[cells]
    cell = np.repeat(cells, count)
    edge = np.arange(cell.size) + np.repeat(first - (np.cumsum(count) - count), count)
    r, i = np.divmod(cell, t.shape[1])
    st = _rotate(_Pair(*hist[:, r, i]), _rotation(trap, (edge + 1) * step - t[r, i]))
    lo = int(first.min())
    edge -= lo
    span = slice(lo, lo + int(edge.max()) + 1)
    for acc, w in zip(sums, (st.x, st.x**2, st.xx, st.p, st.p**2, st.pp, fired + r)):
        acc[span] += np.bincount(edge, weights=w)


def plan_run(cfg: LoopConfig, trap: TrapConfig, t_max: float,
             record_stride: int = 1) -> tuple[int, float]:
    """(events per trajectory, spectral radius) of a run, checked before any state.

    round(t_max * gamma) and K times it are checked against the events budgets.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ConfigError(f"t_max must be finite and > 0, got {t_max!r}")
    if record_stride < 1:
        raise ConfigError(f"record_stride must be >= 1, got {sig(record_stride)}")
    # an overflowing product stays inf, which the budget refuses, not round()
    n_events = t_max * cfg.gamma
    n_events = round(n_events) if math.isfinite(n_events) else n_events
    if n_events < 1:
        raise ConfigError("t_max shorter than one loop period")
    check_budget("events", n_events, "t_max * gamma")
    check_budget("traj_events", cfg.trajectories * n_events,
                 f"{sig(cfg.trajectories)} trajectories x {sig(n_events)} events")
    return n_events, _check_stable(trap, cfg)


def run_ensemble(init: MomentGrid, cfg: LoopConfig, trap: TrapConfig,
                 t_max: float, record_stride: int = 1) -> LoopTrajectory:
    """Ensemble-averaged loop trajectory recorded every record_stride events.

    Records are taken just after the event at t = k/gamma (the first event
    fires at 1/gamma).  For the regular schedule the conditional covariance
    path is outcome-independent and shared; for the poisson schedule each
    trajectory carries its own covariance and the grid still sits at the
    mean event spacing.  Poisson trajectories run in event lockstep: the
    j-th event of every trajectory is stepped at once, in chunks of events
    whose times come from one cumulative sum, until every trajectory is past
    the last record edge; the edges each chunk covers are then recorded
    together.  Both loops step the means in preallocated arrays, so no
    event allocates one; the poisson states go straight into the chunk's
    history.  The run is first checked by plan_run, and init must be one
    instant of the trap's moments (ConfigError otherwise).
    """
    n_events, radius = plan_run(cfg, trap, t_max, record_stride)
    # any stride past the last event records the start alone, as n_events + 1
    # does, and record_stride / gamma stays in the float range
    record_stride = min(record_stride, n_events + 1)
    start_moments(init, trap.atom_count)
    if cfg.gamma < 20.0 * trap.trap_freq:
        warnings.warn(
            TimescaleViolation(
                f"gamma {cfg.gamma!r} below 20 omega: loop is not fast "
                "relative to the trap"
            )
        )
    k = cfg.trajectories
    (mean0,), (cov0,) = project_collective(init)
    if cfg.sigma0 < 1e-7 * math.sqrt(max(cov0[0, 0], 0.0)):
        raise MinResolution(
            f"sigma0 {cfg.sigma0!r} below machine-meaningful resolution for "
            f"variance {cov0[0, 0]!r}")

    block = max(16, min(n_events, _DRAW_FLOATS // k))
    physics = (cfg.sigma0, cfg.zeta0, trap.hbar)
    work = [np.empty(k) for _ in range(4)]
    rows = n_events // record_stride + 1
    rec = np.empty((rows, 4))
    if cfg.schedule == "regular":
        st = _Pair(np.full(k, mean0[0]), np.full(k, mean0[1]),
                   float(cov0[0, 0]), float(cov0[0, 1]), float(cov0[1, 1]))
        # the means step in place, the shared covariance in floats
        out = _Pair(st.x, st.p, None, None, None)
        rec[0] = _ensemble_moments(st)
        rot = tuple(map(float, _rotation(trap, 1.0 / cfg.gamma)))
        # one method's draws are one long stream however they are blocked, so
        # the refills split the events evenly: less than an event each unread
        refills = -(-n_events // block)
        streams = _Streams(cfg.rng_seed, k, -(-n_events // refills), ("standard_normal",))
        draws = (z for (zs,) in streams.blocks() for z in zs)
        for ev, z in zip(range(n_events), draws):
            st, _ = _filter_event(st, rot, z, *physics, out, work)
            if (ev + 1) % record_stride == 0:
                rec[(ev + 1) // record_stride] = _ensemble_moments(st)
        events = np.arange(rows, dtype=float) * record_stride
        stepped = n_events
    else:
        # edge g >= 1 sits at g * step and fills rec[g]
        step = record_stride / cfg.gamma
        t_end = (rows - 1) * step
        sums = np.zeros((7, rows - 1))
        chunk = min(block, max(4, _CHUNK_FLOATS // k))
        # t[0] and hist[:, 0]: time of and state after the last event stepped;
        # event j reads the views of hist[:, j - 1] and writes those of hist[:, j],
        # with the rotation of rots[:, j - 1]
        t = np.zeros((chunk + 1, k))
        hist = np.empty((5, chunk + 1, k))
        hist[:, 0] = np.array([mean0[0], mean0[1], cov0[0, 0], cov0[0, 1], cov0[1, 1]])[:, None]
        states = [_Pair(*col) for col in zip(*hist)]
        rots = np.empty((9, chunk, k))
        rot_rows = list(zip(*rots))
        st = states[0]
        rec[0] = _ensemble_moments(st._replace(xx=np.mean(st.xx), pp=np.mean(st.pp)))
        stepped = 0
        # a trajectory already past the last edge is never recorded again,
        # so its stream is not refilled: stale draws only feed its overrun
        streams = _Streams(cfg.rng_seed, k, block, ("standard_exponential", "standard_normal"))
        # event gaps in units of the mean spacing 1/gamma
        chunks = ((gaps[c0:c0 + chunk], zs[c0:c0 + chunk])
                  for gaps, zs in streams.blocks(lambda: np.flatnonzero(t[0] <= t_end))
                  for c0 in range(0, block, chunk))
        for gaps, zs in chunks:
            c = len(gaps)
            tc = t[:c + 1]
            np.divide(gaps, cfg.gamma, out=tc[1:])
            np.cumsum(tc, axis=0, out=tc)
            past = np.flatnonzero(tc[1:].min(axis=1) > t_end)
            steps = int(past[0]) if past.size else c
            _rotation(trap, np.diff(tc[:steps + 1], axis=0), rots[:, :steps])
            for st, new, rot_j, z in zip(states, states[1:steps + 1], rot_rows, zs):
                _filter_event(st, rot_j, z, *physics, new, work)
            kept = steps + 1 if past.size else c
            _record_edges(sums, step, tc[:kept + 1], hist[:, :kept], stepped, trap)
            stepped += steps
            if past.size:
                break
            t[0], hist[:, 0] = tc[c], hist[:, c]
        sx, sxx, vx, sp, spp, vp, fired = sums
        rec[1:] = np.column_stack(_moments(k, sx, sxx, vx / k, sp, spp, vp / k))
        events = np.concatenate(([0.0], fired / k))

    return LoopTrajectory(
        times=np.arange(rows) * (record_stride / cfg.gamma),
        mean_X=rec[:, 0], var_X=rec[:, 1], mean_P=rec[:, 2], var_P=rec[:, 3],
        n_events=events, config=cfg, trap=trap, spectral_radius=radius,
        traj_events=k * stepped, draws=streams.drawn, draws_unread=streams.unread(stepped),
    )
