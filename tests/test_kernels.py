"""Nested ordered-region integrals: closed kernel powers against brute force."""

import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from ordstat import kernels
from ordstat.distributions import CustomDistribution, Exponential, HalfNormal
from ordstat.errors import ConvergenceError, DomainError
from ordstat.kernels import (FIVE_ORDERINGS, ORIGINAL_ORDERING,
                             NestedIntegralSpec, reorder_check)

DISTS = [Exponential(1.1), HalfNormal(0.8)]

FAMILIES = (
    ("im", kernels.im_closed, kernels.im_bruteforce,
     dict(gamma_upper=2.3)),
    ("iprime", kernels.iprime_closed, kernels.iprime_bruteforce,
     dict(gamma_lower=0.6)),
    ("idoubleprime", kernels.idoubleprime_closed,
     kernels.idoubleprime_bruteforce, dict(gamma_lower=0.4, gamma_upper=2.6)),
    # An ascending chain to infinity: every level is semi-infinite.
    ("idoubleprime-unbounded", kernels.idoubleprime_closed,
     kernels.idoubleprime_bruteforce,
     dict(gamma_lower=0.4, gamma_upper=math.inf)),
)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
@pytest.mark.parametrize("fam,closed,brute,bounds", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_closed_equals_bruteforce(dist, fam, closed, brute, bounds, depth):
    spec = NestedIntegralSpec(depth=depth, lam=-0.35, **bounds)
    want = closed(dist, spec)
    got = brute(dist, spec)
    assert got == pytest.approx(want, rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
@pytest.mark.parametrize("fam,closed,brute,bounds", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_closed_equals_bruteforce_complex(dist, fam, closed, brute, bounds,
                                          depth):
    spec = NestedIntegralSpec(depth=depth, lam=complex(-0.3, 0.9), **bounds)
    want = closed(dist, spec)
    got = brute(dist, spec)
    assert got == pytest.approx(want, rel=1e-7, abs=1e-12)


def test_depth_zero_is_one():
    dist = Exponential(1.0)
    for _, closed, _, bounds in FAMILIES:
        assert closed(dist, NestedIntegralSpec(depth=0, **bounds)) == 1.0


def test_im_unbounded_is_total_kernel_power():
    dist = Exponential(1.0)
    spec = NestedIntegralSpec(depth=3, lam=-0.5, gamma_upper=math.inf)
    want = dist.kernel_c(math.inf, -0.5) ** 3 / math.factorial(3)
    assert kernels.im_closed(dist, spec) == pytest.approx(want, rel=1e-12)
    assert kernels.im_bruteforce(dist, spec) == pytest.approx(want, rel=1e-7)


def test_iprime_depth1_stays_literal():
    # Depth-1 chains must not shortcut through the interval kernel, or the
    # check would compare the kernel against itself.
    dist = Exponential(1.0)
    spec = NestedIntegralSpec(depth=1, lam=0.2, gamma_lower=0.7)
    got = kernels.iprime_bruteforce(dist, spec)
    assert got == pytest.approx(kernels.iprime_closed(dist, spec), rel=1e-9)


def _raise(*args, **kwargs):
    raise AssertionError("a closed-form kernel was called")


ORACLE_SPECS = [(brute, bounds) for _, _, brute, bounds in FAMILIES] + [
    (kernels.im_bruteforce, dict(gamma_upper=math.inf))]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_oracles_do_not_use_c_or_e(monkeypatch, dist):
    # The oracles check c^d/d! and e^d/d!, so they must not compute either.
    monkeypatch.setattr(type(dist), "kernel_c", _raise)
    monkeypatch.setattr(type(dist), "kernel_e", _raise)
    lam = complex(-0.3, 0.9)
    for brute, bounds in ORACLE_SPECS:
        for depth in (1, 3):
            assert np.isfinite(brute(dist, NestedIntegralSpec(
                depth=depth, lam=lam, **bounds)))
    for bounds in ((0.3, 2.4), (0.5, math.inf)):
        assert np.isfinite(reorder_check(dist, (2, 4, 1, 3), bounds, lam))


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_depth1_chain_uses_no_kernel(monkeypatch, dist):
    for name in ("kernel_c", "kernel_e", "kernel_mu"):
        monkeypatch.setattr(type(dist), name, _raise)
    for brute, bounds in ORACLE_SPECS:
        assert np.isfinite(brute(dist, NestedIntegralSpec(
            depth=1, lam=-0.35, **bounds)))


def test_unresolved_weight_warns():
    # A unit step: with the jump at 1 off the interval's midpoint, the n/2n
    # difference of a polynomial rule decays only algebraically.
    step = CustomDistribution(
        pdf=lambda x: np.where((x >= 0) & (x < 1), 1.0, 0.0),
        cdf=lambda x: np.clip(x, 0.0, 1.0), mean=0.5, abscissa=math.inf,
        name="unit-step")
    spec = NestedIntegralSpec(depth=1, gamma_lower=0.3, gamma_upper=1.9)
    with pytest.warns(IntegrationWarning):
        got = kernels.idoubleprime_bruteforce(step, spec)
    assert got == pytest.approx(0.7, abs=1e-2)


def test_non_finite_rule_raises():
    # max() over a report would drop a NaN silently, so the rule refuses it.
    broken = CustomDistribution(
        pdf=lambda x: np.where(x < 1.0, 1.0, np.nan),
        cdf=lambda x: np.clip(x, 0.0, 1.0), mean=0.5, abscissa=math.inf,
        name="nan-tail")
    spec = NestedIntegralSpec(depth=1, gamma_lower=0.3, gamma_upper=1.9)
    with pytest.raises(ConvergenceError):
        kernels.idoubleprime_bruteforce(broken, spec)


def test_brute_depth_cap():
    dist = Exponential(1.0)
    spec = NestedIntegralSpec(depth=5, gamma_upper=1.0)
    with pytest.raises(DomainError):
        kernels.im_bruteforce(dist, spec)


def test_spec_validation():
    with pytest.raises(DomainError):
        NestedIntegralSpec(depth=-1)
    dist = Exponential(1.0)
    with pytest.raises(DomainError):
        kernels.im_closed(dist, NestedIntegralSpec(depth=2, gamma_lower=1.0))
    with pytest.raises(DomainError):
        kernels.iprime_closed(dist, NestedIntegralSpec(depth=2, gamma_upper=1.0))
    with pytest.raises(DomainError):
        kernels.idoubleprime_closed(
            dist, NestedIntegralSpec(depth=2, gamma_lower=2.0, gamma_upper=1.0))


def test_divergent_tail_raises():
    dist = Exponential(1.0)   # abscissa 1.0
    spec = NestedIntegralSpec(depth=2, lam=1.5, gamma_lower=0.5)
    with pytest.raises(DomainError):
        kernels.iprime_bruteforce(dist, spec)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
@pytest.mark.parametrize("order", FIVE_ORDERINGS + (ORIGINAL_ORDERING,))
def test_reorder_orders_agree_finite(dist, order):
    ref = reorder_check(dist, ORIGINAL_ORDERING, (0.3, 2.4), lam=-0.25)
    got = reorder_check(dist, order, (0.3, 2.4), lam=-0.25)
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("order", FIVE_ORDERINGS)
def test_reorder_orders_agree_unbounded(order):
    dist = Exponential(0.9)
    ref = reorder_check(dist, ORIGINAL_ORDERING, (0.5, math.inf), lam=-0.3)
    got = reorder_check(dist, order, (0.5, math.inf), lam=-0.3)
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("dist,lam", [(HalfNormal(0.8), -0.3),
                                      (Exponential(0.9), complex(-0.3, 0.7))],
                         ids=["halfnormal", "complex"])
def test_reorder_unbounded_matches_kernel_power(dist, lam):
    # Each order has up to three semi-infinite levels; every one of them
    # gives mu(0.5, inf)^4 / 4!, the volume of the ordered region.
    want = dist.kernel_mu(0.5, math.inf, lam) ** 4 / 24
    for order in FIVE_ORDERINGS + (ORIGINAL_ORDERING,):
        got = reorder_check(dist, order, (0.5, math.inf), lam)
        assert got == pytest.approx(want, rel=1e-9)


def test_reorder_rejects_bad_order():
    dist = Exponential(1.0)
    with pytest.raises(DomainError):
        reorder_check(dist, (1, 2, 3), (0.0, 1.0))
    with pytest.raises(DomainError):
        reorder_check(dist, (1, 2, 3, 3), (0.0, 1.0))
    with pytest.raises(DomainError):
        reorder_check(dist, ORIGINAL_ORDERING, (1.0, 0.5))
