"""Source distributions: closed kernels against their defining integrals."""

import math

import numpy as np
import pytest
from scipy import integrate

from ordstat.distributions import (CustomDistribution, Exponential,
                                   HalfNormal)
from ordstat.errors import DomainError

DISTS = [Exponential(1.3), Exponential(0.4), HalfNormal(0.9)]
LAMS = [0.0, -0.7, 0.31, complex(-0.2, 1.1), complex(0.25, -0.8)]


def quad_kernel(dist, lo, hi, lam):
    lam = complex(lam)

    def part(trig):
        f = lambda x: dist.pdf1(x) * math.exp(lam.real * x) * trig(lam.imag * x)
        val, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12,
                                limit=300)
        return val

    return complex(part(math.cos), part(math.sin))


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
@pytest.mark.parametrize("lam", LAMS)
def test_kernel_c_matches_quadrature(dist, lam):
    gamma = 1.4 * dist.mean
    got = complex(dist.kernel_c(gamma, lam))
    want = quad_kernel(dist, 0.0, gamma, lam)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
@pytest.mark.parametrize("lam", [0.0, -0.7, complex(-0.2, 1.1)])
def test_kernel_e_matches_quadrature(dist, lam):
    gamma = 0.8 * dist.mean
    got = complex(dist.kernel_e(gamma, lam))
    want = quad_kernel(dist, gamma, 60.0 * dist.mean, lam)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
@pytest.mark.parametrize("lam", LAMS)
def test_kernel_mu_is_c_difference(dist, lam):
    ga, gb = 0.3 * dist.mean, 2.1 * dist.mean
    got = complex(dist.kernel_mu(ga, gb, lam))
    want = complex(dist.kernel_c(gb, lam)) - complex(dist.kernel_c(ga, lam))
    assert got == pytest.approx(want, rel=1e-11, abs=1e-14)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_kernel_c_inf_plus_nothing(dist):
    # c(inf) splits as c(gamma) + e(gamma) for any gamma.
    lam = -0.4
    gamma = 1.7 * dist.mean
    total = dist.kernel_c(math.inf, lam)
    assert dist.kernel_c(gamma, lam) + dist.kernel_e(gamma, lam) \
        == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_real_lambda_returns_real(dist):
    for v in (dist.kernel_c(1.0, -0.5), dist.kernel_e(1.0, -0.5),
              dist.kernel_mu(0.2, 1.0, 0.0), dist.kernel_c(1.0, complex(0.3, 0.0))):
        assert isinstance(v, float)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_density_mass_and_mean(dist):
    mass, _ = integrate.quad(dist.pdf1, 0.0, 60.0 * dist.mean, limit=200)
    mean, _ = integrate.quad(lambda x: x * dist.pdf1(x), 0.0,
                             60.0 * dist.mean, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert mean == pytest.approx(dist.mean, rel=1e-9)


def test_halfnormal_mean_value():
    sigma = 0.9
    assert HalfNormal(sigma).mean == pytest.approx(
        sigma * math.sqrt(2.0 / math.pi))


def test_custom_distribution_replicates_exponential_kernels():
    rate = 1.0 / 1.3
    ref = Exponential(1.3)
    custom = CustomDistribution(
        pdf=lambda x: np.where(x >= 0, rate * np.exp(-rate * x), 0.0),
        cdf=lambda x: np.where(x >= 0, -np.expm1(-rate * x), 0.0),
        mean=1.3, abscissa=rate, name="exp-as-custom")
    for lam in (0.0, -0.4, complex(0.2, 0.9)):
        assert complex(custom.kernel_c(1.1, lam)) == pytest.approx(
            complex(ref.kernel_c(1.1, lam)), rel=1e-9)
        assert complex(custom.kernel_e(1.1, lam)) == pytest.approx(
            complex(ref.kernel_e(1.1, lam)), rel=1e-8)


@pytest.mark.parametrize("dist", [Exponential(1.3), HalfNormal(0.9)],
                         ids=lambda d: d.name)
@pytest.mark.parametrize("lam", [-0.7, 0.31, complex(-0.2, 1.1),
                                 complex(0.25, -0.8)])
@pytest.mark.parametrize("upper", ["finite", "inf"])
def test_array_kernel_mu_matches_scalar(dist, lam, upper):
    a = np.array([0.0, 0.3, 1.1, 2.5])
    b = a + np.array([0.4, 1.7, 0.2, 3.0]) if upper == "finite" else math.inf
    got = dist.kernel_mu(a, b, lam)
    assert got.shape == a.shape
    assert np.iscomplexobj(got) == isinstance(lam, complex)
    for ai, bi, gi in zip(a, np.broadcast_to(b, a.shape), got):
        assert gi == pytest.approx(dist.kernel_mu(ai, bi, lam), rel=1e-14)


def _exp_as_custom():
    rate = 1.0 / 1.3
    return CustomDistribution(
        pdf=lambda x: np.where(x >= 0, rate * np.exp(-rate * x), 0.0),
        cdf=lambda x: np.where(x >= 0, -np.expm1(-rate * x), 0.0),
        mean=1.3, abscissa=rate, name="exp-as-custom")


@pytest.mark.parametrize("dist", [Exponential(1.3), HalfNormal(0.9),
                                  _exp_as_custom()], ids=lambda d: d.name)
@pytest.mark.parametrize("lam", [
    np.array([[-0.7, 0.0], [0.31, -2.5]]),
    np.array([complex(-0.2, 1.1), complex(0.25, -0.8), complex(0.3, 0.0),
              complex(-1.5, 40.0)]),
], ids=["real", "complex"])
@pytest.mark.parametrize("gamma", [1.1, math.inf])
def test_array_kernel_c_matches_scalar(dist, lam, gamma):
    # The Bromwich inversion of T1 evaluates c(inf, -s) on a node array.
    got = dist.kernel_c(gamma, lam)
    assert got.shape == lam.shape
    assert np.iscomplexobj(got) == np.iscomplexobj(lam)
    want = [dist.kernel_c(gamma, v) for v in lam.ravel().tolist()]
    if isinstance(dist, CustomDistribution):
        assert got.ravel().tolist() == want
    else:
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0)


def test_custom_array_kernel_mu_loops_over_nodes():
    rate = 1.0 / 1.3
    custom = CustomDistribution(
        pdf=lambda x: np.where(x >= 0, rate * np.exp(-rate * x), 0.0),
        cdf=lambda x: np.where(x >= 0, -np.expm1(-rate * x), 0.0),
        mean=1.3, abscissa=rate, name="exp-as-custom")
    a = np.array([0.2, 0.9])
    got = custom.kernel_mu(a, 1.6, -0.4)
    assert list(got) == [custom.kernel_mu(x, 1.6, -0.4) for x in a]
    with pytest.raises(DomainError):
        custom.kernel_mu(a, 0.5, -0.4)


def test_custom_kernels_integrate_through_the_module_attribute(monkeypatch):
    # perfbench's tracer counts quadratures by replacing the module's
    # ``integrate``; every quadrature of a custom kernel must go through it.
    from ordstat import distributions

    calls = []

    class Counting:
        def quad(self, *args, **kwargs):
            calls.append(kwargs.get("weight"))
            return integrate.quad(*args, **kwargs)

    monkeypatch.setattr(distributions, "integrate", Counting())
    rate = 1.0 / 1.3
    custom = CustomDistribution(
        pdf=lambda x: np.where(x >= 0, rate * np.exp(-rate * x), 0.0),
        cdf=lambda x: np.where(x >= 0, -np.expm1(-rate * x), 0.0),
        mean=1.3, abscissa=rate, name="exp-as-custom")
    custom.kernel_c(1.1, -0.4)
    custom.kernel_mu(0.2, 1.1, complex(0.2, 0.9))
    custom.kernel_e(1.1, complex(0.2, 0.9))
    assert calls == [None, None, None, "cos", "sin"]


def test_tail_kernel_divergence_guard():
    dist = Exponential(2.0)   # abscissa 0.5
    with pytest.raises(DomainError):
        dist.kernel_e(1.0, 0.5)
    with pytest.raises(DomainError):
        dist.kernel_e(1.0, complex(0.9, 1.0))
    # HalfNormal MGF is entire: any real part converges.
    assert HalfNormal(1.0).kernel_e(1.0, 5.0) > 0


def test_sampling_moments():
    rng = np.random.default_rng(1234)
    for dist in DISTS:
        x = dist.sample(rng, 200_000)
        assert x.min() >= 0.0
        assert x.mean() == pytest.approx(dist.mean, rel=0.02)


@pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf])
def test_constructor_domain_errors(bad):
    with pytest.raises(DomainError):
        Exponential(bad)
    with pytest.raises(DomainError):
        HalfNormal(bad)
    with pytest.raises(DomainError):
        CustomDistribution(pdf=np.exp, cdf=np.exp, mean=bad, abscissa=1.0)
