import math

import numpy as np
import pytest

from cloudfeedback.errors import ConfigError, NonPositiveRate, ZeroShiftRate
from cloudfeedback.scales import (
    FeedbackConfig,
    RegimeKind,
    TrapConfig,
    classify_regime,
    continuous_limit_params,
    derive_scales,
)


def test_single_atom_sql_minimum():
    # zeta*sigma^2 = hbar/(2 m omega) puts eta at 1, where DXs touches dX0
    trap = TrapConfig(atom_count=1)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(0.5))
    s = derive_scales(trap, fb)
    assert s.eta == pytest.approx(1.0, rel=1e-14)
    assert s.DXs == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert s.DXs == pytest.approx(s.dX0, rel=1e-14)


def test_two_atom_ground_spreads():
    trap = TrapConfig(atom_count=2)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=1.0)
    s = derive_scales(trap, fb)
    assert s.dX0 == pytest.approx(0.5, abs=1e-15)
    assert s.dx0 == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_stationary_spread_at_eta_four():
    # direct substitution: DXs = 0.5*sqrt((4 + 1/4)/2)
    trap = TrapConfig(atom_count=2)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=0.25)  # eta = 0.25/(1*0.0625) = 4
    s = derive_scales(trap, fb)
    assert s.eta == pytest.approx(4.0, rel=1e-13)
    assert s.DXs == pytest.approx(0.7288689868556626, rel=1e-12)


def test_eta_inversion_symmetry():
    rng = np.random.default_rng(7)
    trap = TrapConfig(atom_count=3)
    dX0sq = 1.0 / (2 * 3)
    for eta in 10.0 ** rng.uniform(-5, 5, size=40):
        fb_a = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(dX0sq / eta))
        fb_b = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(dX0sq * eta))
        a, b = derive_scales(trap, fb_a), derive_scales(trap, fb_b)
        assert a.DXs == pytest.approx(b.DXs, rel=1e-12)


def test_sql_is_a_minimum_at_eta_one():
    trap = TrapConfig(atom_count=2)
    dX0sq = 0.25

    def dxs(eta):
        fb = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(dX0sq / eta))
        return derive_scales(trap, fb).DXs

    assert dxs(1.0) == pytest.approx(0.5, rel=1e-13)
    for eta in (0.3, 0.9, 1.1, 7.0):
        assert dxs(eta) > dxs(1.0)
    # gradient changes sign across eta = 1
    h = 1e-6
    assert dxs(1.0 - h) - dxs(1.0) > 0
    assert dxs(1.0 + h) - dxs(1.0) > 0


def test_regime_interval_endpoints_n2():
    r = classify_regime(2, 1.0)
    assert r.kind is RegimeKind.QS_THRESHOLD_ABOVE
    assert r.eta_low == pytest.approx(2 - math.sqrt(3), rel=1e-14)
    assert r.eta_high == pytest.approx(2 + math.sqrt(3), rel=1e-14)
    assert classify_regime(2, 4.0).kind is RegimeKind.SCHWARZ_THRESHOLD_ABOVE
    assert classify_regime(2, r.eta_high).kind is RegimeKind.BOUNDARY


def test_regime_single_atom_degenerate():
    assert classify_regime(1, 1.0).kind is RegimeKind.BOUNDARY
    for eta in (0.5, 2.0, 17.0):
        assert classify_regime(1, eta).kind is RegimeKind.SCHWARZ_THRESHOLD_ABOVE


def test_boundary_consistency_with_thresholds():
    # at eta = N + sqrt(N^2-1), eta + 1/eta = 2N exactly, so DXs = dx0
    for n in (2, 3, 10, 100):
        trap = TrapConfig(atom_count=n)
        eta = n + math.sqrt(n * n - 1.0)
        dX0sq = 1.0 / (2 * n)
        fb = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(dX0sq / eta))
        s = derive_scales(trap, fb)
        assert abs(s.DXs - s.dx0) <= 1e-10 * s.dx0


def test_classification_matches_direct_comparison():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        n = int(rng.integers(1, 1_000_001))
        eta = 10.0 ** rng.uniform(-6, 6)
        trap = TrapConfig(atom_count=n)
        dX0sq = 1.0 / (2 * n)
        fb = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(dX0sq / eta))
        s = derive_scales(trap, fb)
        r = classify_regime(n, s.eta)
        if r.kind is RegimeKind.BOUNDARY:
            continue  # random draws essentially never land on the endpoints
        assert (r.kind is RegimeKind.QS_THRESHOLD_ABOVE) == (s.DXs <= s.dx0)


def test_continuous_limit_map():
    assert continuous_limit_params(100.0, 1.0, 0.01) == pytest.approx((0.1, 1.0))
    assert continuous_limit_params(1.0, 0.3, 0.2) == (0.3, 0.2)


def test_error_paths():
    trap = TrapConfig(atom_count=1)
    with pytest.raises(ZeroShiftRate):
        derive_scales(trap, FeedbackConfig(shift_rate=0.0, meas_resolution=1.0))
    with pytest.raises(NonPositiveRate):
        continuous_limit_params(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        TrapConfig(atom_count=0)
    with pytest.raises(ConfigError):
        TrapConfig(atom_count=2, mass=-1.0)
    with pytest.raises(ConfigError, match="float range"):
        TrapConfig(atom_count=2, trap_freq=1e300)  # m omega^2 overflows
    with pytest.raises(ConfigError):
        FeedbackConfig(shift_rate=1.0, meas_resolution=0.0)


def test_infinite_resolution_allowed():
    fb = FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf)
    assert fb.meas_resolution == math.inf
