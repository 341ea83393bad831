"""Minimum-selection combiner: stage probabilities, output CDF, simulation."""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy import special

from ordstat import apps, exact_exp, rules
from ordstat.apps import MsGscConfig, msgsc_output_cdf, msgsc_stage_probability
from ordstat.errors import DomainError, IntegrationWarning
from ordstat.exact_exp import pdf_sum_all

BIG = 200.0


def cfg(L=3, gt=1.0, gb=1.0, **kw):
    return MsGscConfig(L, gt, gb, **kw)


def test_config_validation():
    with pytest.raises(DomainError):
        MsGscConfig(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        MsGscConfig(3, 0.0, 1.0)
    with pytest.raises(DomainError):
        MsGscConfig(3, 1.0, -2.0)
    for gt, gb in [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            MsGscConfig(3, gt, gb)
    with pytest.raises(TypeError):
        MsGscConfig(3, 1.0, 1.0, m=2)   # the stage is an argument
    with pytest.raises(DomainError):
        MsGscConfig(3, 1.0, 1.0, below_threshold="drop")


def test_stage_needs_m():
    with pytest.raises(TypeError):
        msgsc_stage_probability(cfg(), 2.0)
    for m in (0, 4):
        with pytest.raises(DomainError):
            msgsc_stage_probability(cfg(), 2.0, m)


def test_stage_one_closed_form():
    c = cfg(L=4, gt=0.8, gb=1.3)
    for x in (1.0, 2.0, 5.0):
        want = apps._cdf_max(c, x) - apps._cdf_max(c, 0.8)
        assert msgsc_stage_probability(c, x, m=1) == pytest.approx(want,
                                                                   rel=1e-12)
    assert msgsc_stage_probability(c, 0.8, m=1) == 0.0


def test_stage_output_confined_to_window():
    # Stage m >= 2 stops exactly when the threshold is crossed, so the
    # output cannot exceed gamma_T times m/(m-1).
    c = cfg(L=4, gt=1.0)
    m = 3
    cap = c.gamma_T * m / (m - 1)
    full = msgsc_stage_probability(c, BIG, m=m)
    assert msgsc_stage_probability(c, cap, m=m) == pytest.approx(full,
                                                                 rel=1e-9)


def _stage_mp(L, gt, gb, x, m):
    # The stage-m event over (v, w), v the rank-m branch and w the sum of
    # the m-1 larger ones: w < gt <= v + w < x and (m-1)*v <= w.  Given v,
    # the m-1 larger branches exceed it by i.i.d. exponentials, so w -
    # (m-1)*v is Erlang(m-1) and the joint density follows from the
    # density of the rank-m order statistic.
    a = 1 / mpmath.mpf(gb)
    c = (mpmath.factorial(L) * a ** m / (mpmath.factorial(m - 1)
         * mpmath.factorial(L - m) * mpmath.factorial(m - 2)))

    def f(v, w):
        return (c * (-mpmath.expm1(-a * v)) ** (L - m)
                * (w - (m - 1) * v) ** (m - 2) * mpmath.exp(-a * (v + w)))

    def inner(w):
        return mpmath.quad(lambda v: f(v, w),
                           [gt - w, min(x - w, w / (m - 1))],
                           method="gauss-legendre")

    lo, kink = mpmath.mpf(gt) * (m - 1) / m, mpmath.mpf(x) * (m - 1) / m
    pts = [lo, *([kink] if lo < kink < gt else []), mpmath.mpf(gt)]
    return mpmath.quad(inner, pts, method="gauss-legendre")


@pytest.mark.parametrize("L,m", [(3, 2), (3, 3),
                                 *((6, m) for m in range(2, 7))])
@pytest.mark.parametrize("side", ["below_cap", "above_cap"])
def test_stage_matches_mpmath(L, m, side):
    # The output of stage m stays below gt*m/(m-1); x on either side of it.
    gt, gb = 1.0, 1.3
    cap = gt * m / (m - 1)
    x = 0.5 * (gt + cap) if side == "below_cap" else 1.5 * cap
    with mpmath.workdps(20):
        want = float(_stage_mp(L, gt, gb, x, m))
    got = msgsc_stage_probability(cfg(L=L, gt=gt, gb=gb), x, m=m)
    assert got == pytest.approx(want, rel=1e-9)


def test_stage_rule_warns_at_its_cap(monkeypatch):
    c = cfg(L=16, gt=8.0)
    want = msgsc_stage_probability(c, 10.0, m=8)
    monkeypatch.setattr(rules, "_MAX_NODES", 8)
    with pytest.warns(IntegrationWarning, match="did not converge"):
        got = msgsc_stage_probability(c, 10.0, m=8)
    assert got == pytest.approx(want, rel=1e-3)


def test_law_of_total_probability():
    for L, gt in [(2, 0.5), (3, 1.0), (4, 2.0), (16, 8.0)]:
        c = cfg(L=L, gt=gt)
        shortfall = pdf_sum_all(L, 1.0).cdf(gt)
        stages = sum(msgsc_stage_probability(c, BIG, m=m)
                     for m in range(1, L + 1))
        assert stages + shortfall == pytest.approx(1.0, abs=1e-9)


def test_output_cdf_reaches_one_and_is_monotone():
    for conv in ("sum", "outage"):
        c = cfg(L=3, gt=1.5, below_threshold=conv)
        grid = np.linspace(0.05, 25.0, 120)
        vals = [msgsc_output_cdf(c, x) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)
        assert msgsc_output_cdf(c, -1.0) == 0.0


def test_conventions_agree_above_threshold():
    gt = 1.2
    cs = cfg(L=3, gt=gt, below_threshold="sum")
    co = cfg(L=3, gt=gt, below_threshold="outage")
    for x in (1.3, 2.0, 4.0):
        assert msgsc_output_cdf(cs, x) == pytest.approx(
            msgsc_output_cdf(co, x), rel=1e-12)


def test_below_threshold_conventions():
    gt = 2.0
    c = cfg(L=3, gt=gt, below_threshold="outage")
    shortfall = pdf_sum_all(3, 1.0).cdf(gt)
    for x in (0.3, 1.0, 1.9):
        assert msgsc_output_cdf(c, x) == pytest.approx(shortfall, rel=1e-12)
    c2 = cfg(L=3, gt=gt, below_threshold="sum")
    for x in (0.3, 1.0, 1.9):
        assert msgsc_output_cdf(c2, x) == pytest.approx(
            pdf_sum_all(3, 1.0).cdf(x), rel=1e-12)


def test_vanishing_threshold_recovers_best_branch():
    c = cfg(L=3, gt=1e-7)
    for x in (0.5, 1.0, 2.5):
        assert msgsc_output_cdf(c, x) == pytest.approx(
            apps._cdf_max(c, x), abs=1e-4)


def test_simulation_matches_cdf():
    n = 200_000
    for conv in ("sum", "outage"):
        c = cfg(L=3, gt=1.0, below_threshold=conv)
        out = apps.simulate_output(c, n, seed=17)
        for x in (0.6, 1.2, 2.0, 4.0):
            p = msgsc_output_cdf(c, x)
            phat = np.mean(out < x)
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(phat - p) <= 4.0 * se


def test_simulation_deterministic():
    c = cfg()
    a = apps.simulate_output(c, 1000, seed=5)
    b = apps.simulate_output(c, 1000, seed=5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("convention", ["sum", "outage"])
@pytest.mark.parametrize("L", [4, 8, 16])
def test_grids_match_scipy_erlang_cdf(monkeypatch, L, convention):
    # The Erlang CDF sums positive terms; scipy's regularized incomplete
    # gamma gives the same output CDF to 1e-14.
    c = cfg(L, gt=1.5, below_threshold=convention)
    xs = np.linspace(0.05, 3.0 * L, 12).tolist()
    got = [msgsc_output_cdf(c, x) for x in xs]
    monkeypatch.setattr(exact_exp.ErlangSum, "cdf", lambda self, x: (
        0.0 if x <= 0 else float(special.gammainc(self.K, x / self.gamma_bar))))
    want = [msgsc_output_cdf(c, x) for x in xs]
    assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("convention", ["sum", "outage"])
@pytest.mark.parametrize("L", [1, 2, 4, 16])
def test_arrays_match_scalar_calls(L, convention):
    # An array of x integrates each stage as one rule with a row per
    # element; each row keeps its scalar value bit for bit.
    gt = 0.4 * L
    c = cfg(L, gt=gt, below_threshold=convention)
    caps = [gt * m / (m - 1) for m in range(2, L + 1)]
    x = np.array([-1.0, 0.0, 0.3 * gt, gt, *caps, 1.01 * gt, 2.5 * gt,
                  40.0 * L])
    stages = [functools.partial(msgsc_stage_probability, c, m=m)
              for m in range(1, L + 1)]
    for f in [functools.partial(msgsc_output_cdf, c), *stages]:
        got = f(x)
        assert got.shape == x.shape
        want = [f(v) for v in x.tolist()]
        assert all(type(v) is float for v in want)
        np.testing.assert_array_equal(got, np.array(want))
        assert f(np.array([])).shape == (0,)
        np.testing.assert_array_equal(f(x.reshape(1, -1, 1))[0, :, 0], got)
    # Nothing stops at or below the threshold.
    assert all(np.all(f(x[:4]) == 0.0) for f in stages)
    assert msgsc_output_cdf(c, x[:2]).tolist() == [0.0, 0.0]
