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
do not depend on how the draws are blocked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .errors import ConfigError, MinResolution, SingularLyapunov, TimescaleViolation
from .moments import JointMoments, project_collective
from .scales import FeedbackConfig, TrapConfig

# bound on the floats one batch keeps in each draw buffer (8 MB)
_DRAW_FLOATS = 2**20


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
        if self.trajectories < 1:
            raise ConfigError(f"trajectories must be >= 1, got {self.trajectories!r}")
        if not (0 <= int(self.rng_seed) < 2**64):
            raise ConfigError(f"rng_seed must fit in 64 bits, got {self.rng_seed!r}")

    def continuous_equivalent(self) -> FeedbackConfig:
        return FeedbackConfig(
            shift_rate=self.zeta0 * self.gamma,
            meas_resolution=self.sigma0 / math.sqrt(self.gamma),
        )


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


def _rotation(trap: TrapConfig, dt) -> tuple:
    """Entries (c, a, b) of the pair's free evolution R = [[c, a], [-b, c]].

    dt is one time or an array of them, one per trajectory.
    """
    mw = trap.atom_count * trap.mass * trap.trap_freq
    sn = np.sin(trap.trap_freq * dt)
    return np.cos(trap.trap_freq * dt), sn / mw, mw * sn


def _rotate(st: _Pair, rot: tuple) -> _Pair:
    c, a, b = rot
    return _Pair(c * st.x + a * st.p, c * st.p - b * st.x,
                 c * c * st.xx + 2.0 * c * a * st.xp + a * a * st.pp,
                 c * (a * st.pp - b * st.xx) + (c * c - a * b) * st.xp,
                 b * b * st.xx - 2.0 * c * b * st.xp + c * c * st.pp)


def _filter_event(st: _Pair, rot: tuple, z, sigma0: float, zeta0: float,
                  hbar: float) -> tuple[_Pair, np.ndarray]:
    """One loop event for a batch: rotate by rot, measure X, kick, back-action.

    The outcome is x_m = X + sqrt(Var X + sigma0^2) z for standard normal z.
    The pair is conditioned on it (Doherty & Jacobs, PRA 60:2700, 1999), X is
    kicked by -zeta0 x_m, and Var P gains hbar^2/(4 sigma0^2).  That increment
    is the exact unconditional effect of the Gaussian position channel and
    keeps the filter closed without sampling a momentum kick.  Returns the
    new state and the outcomes.
    """
    x, p, xx, xp, pp = _rotate(st, rot)
    innov = xx + sigma0**2
    e = np.sqrt(innov) * z
    x_m = x + e
    gx, gp = xx / innov, xp / innov
    return _Pair(x + gx * e - zeta0 * x_m, p + gp * e,
                 xx - gx * xx, xp - gx * xp,
                 pp - gp * xp + hbar**2 / (4.0 * sigma0**2)), x_m


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
    covariance plus the response of the means to a unit innovation).
    """
    if _check_stable(trap, cfg) >= 1.0:
        raise SingularLyapunov("no stationary loop state: the mean map has spectral radius 1")
    rot = _rotation(trap, 1.0 / cfg.gamma)
    basis = _Pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.0, 0.0)
    unit, _ = _filter_event(basis, rot, 0.0, cfg.sigma0, cfg.zeta0, trap.hbar)
    noise, _ = _filter_event(_Pair(0.0, 0.0, 0.0, 0.0, 0.0), rot, 1.0,
                             cfg.sigma0, cfg.zeta0, trap.hbar)
    w = np.array([noise.x, noise.p])
    q = np.array([[noise.xx, noise.xp], [noise.xp, noise.pp]]) + np.outer(w, w)
    s = solve_discrete_lyapunov(np.array([unit.x, unit.p]), q)
    return 0.5 * (s + s.T)


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

    def summary(self) -> dict:
        return {
            "gamma": self.config.gamma,
            "sigma0": self.config.sigma0,
            "zeta0": self.config.zeta0,
            "K": self.config.trajectories,
            "seed": int(self.config.rng_seed),
        }


class _Streams:
    """Per-trajectory random streams, read `block` events at a time.

    Trajectory i owns the stream with spawn key i.  A refill fills one block
    from each named Generator method in turn (standard_normal,
    standard_exponential), so the numbers a trajectory sees do not depend on
    the batch, and with a single method they equal one long draw.  Read a
    batch either in lockstep or with `take`, not both.
    """

    def __init__(self, seed: int, k: int, block: int, methods: tuple[str, ...]):
        self._rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(i,)))
            for i in range(k)
        ]
        self._methods = methods
        self._buf = np.empty((len(methods), k, block))
        self._used = np.full(k, block)

    def _refill(self, idx):
        for i in idx:
            for buf, method in zip(self._buf, self._methods):
                getattr(self._rngs[i], method)(out=buf[i])

    def lockstep(self):
        """Draws for the whole batch, event after event, each (methods, k)."""
        while True:
            self._refill(range(len(self._rngs)))
            for j in range(self._buf.shape[2]):
                yield self._buf[:, :, j]

    def take(self, idx: np.ndarray) -> np.ndarray:
        """Next draw of each method for trajectories idx, shape (methods, len(idx))."""
        stale = idx[self._used[idx] == self._buf.shape[2]]
        self._refill(stale)
        self._used[stale] = 0
        used = self._used[idx]
        self._used[idx] = used + 1
        return self._buf[:, idx, used]


def _ensemble_moments(st: _Pair) -> tuple:
    """(mean X, Var X, mean P, Var P): conditional variance plus spread of means."""
    k = st.x.shape[0]
    mx, mp = st.x.sum() / k, st.p.sum() / k
    return (mx, np.mean(st.xx) + ((st.x**2).sum() / k - mx**2),
            mp, np.mean(st.pp) + ((st.p**2).sum() / k - mp**2))


def run_ensemble(init: JointMoments, cfg: LoopConfig, trap: TrapConfig,
                 t_max: float, record_stride: int = 1) -> LoopTrajectory:
    """Ensemble-averaged loop trajectory recorded every record_stride events.

    Records are taken just after the event at t = k/gamma (the first event
    fires at 1/gamma).  For the regular schedule the conditional covariance
    path is outcome-independent and shared; for the poisson schedule each
    trajectory carries its own covariance and the grid still sits at the
    mean event spacing.
    """
    if t_max <= 0:
        raise ConfigError(f"t_max must be > 0, got {t_max!r}")
    if record_stride < 1:
        raise ConfigError(f"record_stride must be >= 1, got {record_stride!r}")
    if init.n != trap.atom_count:
        raise ConfigError(f"initial moments have n={init.n}, trap has {trap.atom_count}")
    if cfg.gamma < 20.0 * trap.trap_freq:
        warnings.warn(
            TimescaleViolation(
                f"gamma {cfg.gamma!r} below 20 omega: loop is not fast "
                "relative to the trap"
            )
        )
    n_events = int(round(t_max * cfg.gamma))
    if n_events < 1:
        raise ConfigError("t_max shorter than one loop period")
    _check_stable(trap, cfg)
    mean0, cov0 = project_collective(init)
    if cfg.sigma0 < 1e-7 * math.sqrt(max(cov0[0, 0], 0.0)):
        raise MinResolution(
            f"sigma0 {cfg.sigma0!r} below machine-meaningful resolution for "
            f"variance {cov0[0, 0]!r}")

    k = cfg.trajectories
    shared = cfg.schedule == "regular"
    st = _Pair(np.full(k, mean0[0]), np.full(k, mean0[1]),
               *(v if shared else np.full(k, v) for v in (cov0[0, 0], cov0[0, 1], cov0[1, 1])))
    block = max(16, min(n_events, _DRAW_FLOATS // k))
    physics = (cfg.sigma0, cfg.zeta0, trap.hbar)
    records = [_ensemble_moments(st)]
    if shared:
        rot = _rotation(trap, 1.0 / cfg.gamma)
        draws = _Streams(cfg.rng_seed, k, block, ("standard_normal",)).lockstep()
        for ev, (z,) in zip(range(n_events), draws):
            st, _ = _filter_event(st, rot, z, *physics)
            if (ev + 1) % record_stride == 0:
                records.append(_ensemble_moments(st))
        events = np.arange(len(records), dtype=float) * record_stride
    else:
        # event gaps in units of the mean spacing 1/gamma
        draws = _Streams(cfg.rng_seed, k, block, ("standard_exponential", "standard_normal"))
        gaps, z = draws.take(np.arange(k))
        t_next = gaps / cfg.gamma
        t_last = np.zeros(k)
        fired = np.zeros(k)
        counts = [0.0]
        dt_grid = record_stride / cfg.gamma
        for g in range(1, n_events // record_stride + 1):
            t_edge = g * dt_grid
            while True:
                idx = np.flatnonzero(t_next <= t_edge)
                if idx.size == 0:
                    break
                sub, _ = _filter_event(_Pair(*(f[idx] for f in st)),
                                       _rotation(trap, t_next[idx] - t_last[idx]),
                                       z[idx], *physics)
                for field, value in zip(st, sub):
                    field[idx] = value
                t_last[idx] = t_next[idx]
                fired[idx] += 1.0
                gaps, z[idx] = draws.take(idx)
                t_next[idx] += gaps / cfg.gamma
            records.append(_ensemble_moments(_rotate(st, _rotation(trap, t_edge - t_last))))
            counts.append(fired.sum() / k)
        events = np.array(counts)

    rec = np.array(records)
    return LoopTrajectory(
        times=np.arange(len(records)) * (record_stride / cfg.gamma),
        mean_X=rec[:, 0], var_X=rec[:, 1], mean_P=rec[:, 2], var_P=rec[:, 3],
        n_events=events, config=cfg, trap=trap,
    )


# ---------------------------------------------------------------------------
# Fock-space Kraus backend (N <= 2 cross-checks against the dense oracle)


def kraus_measure(rho: np.ndarray, x_hat: np.ndarray, x_m: float,
                  sigma0: float) -> np.ndarray:
    """rho -> E rho E / Tr, E = exp(-(X-x_m)^2 / (4 sigma0^2))."""
    vals, vecs = np.linalg.eigh(x_hat)
    e = vecs @ np.diag(np.exp(-((vals - x_m) ** 2) / (4.0 * sigma0**2))) @ vecs.conj().T
    out = e @ rho @ e
    tr = np.trace(out).real
    if tr <= 0:
        raise MinResolution(f"measurement weight underflow at x_m={x_m!r}")
    return out / tr


def kraus_kick(rho: np.ndarray, p_hat: np.ndarray, x_m: float, zeta0: float,
               hbar: float) -> np.ndarray:
    """Displace every position by -zeta0*x_m: U = exp(i zeta0 x_m P / hbar)."""
    vals, vecs = np.linalg.eigh(p_hat)
    phase = np.exp(1j * zeta0 * x_m * vals / hbar)
    unitary = vecs @ np.diag(phase) @ vecs.conj().T
    return unitary @ rho @ unitary.conj().T


def kraus_sample(rho: np.ndarray, x_hat: np.ndarray, sigma0: float,
                 rng: np.random.Generator) -> float:
    """Outcome from the Gaussian mixture over the X-spectrum of rho."""
    vals, vecs = np.linalg.eigh(x_hat)
    weights = np.einsum("ji,jk,ki->i", vecs.conj(), rho, vecs).real
    weights = np.clip(weights, 0.0, None)
    weights /= weights.sum()
    pick = rng.choice(len(vals), p=weights)
    return float(rng.normal(vals[pick], sigma0))
