"""Source distributions: closed kernels against their defining integrals."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ordstat._special import erf
from ordstat.distributions import (CustomDistribution, Exponential,
                                   HalfNormal)
from ordstat.errors import DomainError

DISTS = [Exponential(1.3), Exponential(0.4), HalfNormal(0.9)]
LAMS = [0.0, -0.7, 0.31, complex(-0.2, 1.1), complex(0.25, -0.8)]


def _exp_as_custom():
    rate = 1.0 / 1.3
    return CustomDistribution(
        pdf=lambda x: np.where(x >= 0, rate * np.exp(-rate * x), 0.0),
        cdf=lambda x: np.where(x >= 0, -np.expm1(-rate * x), 0.0),
        mean=1.3, abscissa=rate, name="exp-as-custom")


def _halfnormal_as_custom():
    sigma = 0.9
    c = math.sqrt(2.0 / math.pi) / sigma
    return CustomDistribution(
        pdf=lambda x: np.where(x >= 0, c * np.exp(-x * x / (2 * sigma ** 2)),
                               0.0),
        cdf=lambda x: erf(np.maximum(x, 0.0) / (sigma * math.sqrt(2))),
        mean=HalfNormal(sigma).mean, abscissa=math.inf,
        name="halfnormal-as-custom")


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


@pytest.mark.parametrize("dist", DISTS + [_exp_as_custom()],
                         ids=lambda d: d.name)
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
    ref = Exponential(1.3)
    custom = _exp_as_custom()
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


def test_custom_array_kernel_mu_matches_scalar():
    custom = _exp_as_custom()
    a = np.array([0.2, 0.9])
    got = custom.kernel_mu(a, 1.6, -0.4)
    assert list(got) == [custom.kernel_mu(x, 1.6, -0.4) for x in a]
    with pytest.raises(DomainError):
        custom.kernel_mu(a, 0.5, -0.4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ref, custom", [
    (Exponential(1.3), _exp_as_custom()),
    (HalfNormal(0.9), _halfnormal_as_custom()),
], ids=["exponential", "halfnormal"])
@pytest.mark.parametrize("kernel, gamma", [
    ("kernel_c", 0.7), ("kernel_c", 3.0), ("kernel_c", math.inf),
    ("kernel_e", 0.0), ("kernel_e", 0.7), ("kernel_e", 3.0),
])
def test_custom_kernels_match_closed_forms(ref, custom, kernel, gamma):
    # Finite upper limits (c below inf) and infinite ones (c(inf), e), on
    # Bromwich-like lam: real parts from -5 to 0.6 of the abscissa (to 0.6
    # for the half-normal, whose abscissa is infinite), |Im| up to 300.
    re = np.linspace(-5.0, 0.6 * min(ref.abscissa, 1.0), 7)
    im = np.array([0.0, 0.3, -1.0, 4.0, -30.0, 100.0, 300.0])
    lam = (re[:, None] + 1j * im).ravel()
    got = getattr(custom, kernel)(gamma, lam)
    want = getattr(ref, kernel)(gamma, lam)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error")
def test_custom_kernel_e_at_infinity_is_zero():
    custom = _exp_as_custom()
    assert custom.kernel_e(math.inf, -0.4) == 0.0
    assert custom.kernel_e(math.inf, complex(0.2, 0.9)) == 0.0
    got = custom.kernel_e(np.array([math.inf, 1.1]), complex(0.2, 0.9))
    assert got[0] == 0.0
    assert got[1] == pytest.approx(Exponential(1.3).kernel_e(
        1.1, complex(0.2, 0.9)), rel=1e-12)
    assert custom.kernel_mu(math.inf, math.inf, -0.4) == 0.0


def _unit_step():
    return CustomDistribution(
        pdf=lambda x: np.where((x >= 0) & (x < 1), 1.0, 0.0),
        cdf=lambda x: np.clip(x, 0.0, 1.0), mean=0.5, abscissa=math.inf,
        name="unit-step", breaks=(1.0,))


def _mp_exp_integral(lam, a, b):
    # int_a^b exp(lam*x) dx at 40 digits, from the doubles a and b.
    with mpmath.workdps(40):
        lam, a, b = mpmath.mpmathify(lam), mpmath.mpf(a), mpmath.mpf(b)
        if lam == 0:
            return complex(b - a)
        return complex((mpmath.exp(lam * b) - mpmath.exp(lam * a)) / lam)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.0, complex(-0.3, 7.0)])
def test_custom_kernel_across_a_jump(lam):
    # The unit step jumps at its declared break, 1.  A segment ends at a
    # limit or, for complex lam, at a knot every pi/|Im(lam)| from the
    # lower limit; the jump lies from 1e-6 to 1 - 1e-6 of the way along
    # one.
    step = _unit_step()
    t = np.array([1e-6, 1e-4, 3e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.997,
                  1.0 - 1e-4, 1.0 - 1e-6])
    if lam:
        a, b = 1.0 - np.add.outer([0.0, 1.0], t).ravel() * math.pi / 7.0, 1.9
    else:
        a, b = 1.0 - t, 2.0 - t
    want = [_mp_exp_integral(lam, ai, 1.0) for ai in a]
    np.testing.assert_allclose(step.kernel_mu(a, b, lam), want, rtol=1e-10,
                               atol=0)
    np.testing.assert_allclose(step.kernel_e(a, lam), want, rtol=1e-10,
                               atol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.0, complex(-0.3, 7.0)])
def test_custom_kernels_with_the_jump_anywhere(lam):
    # 3,000 kernels mu(a, b) of the unit step, the jump uniform in
    # [a, b], and 600 more within 1e-6 to 1e-3 of a or b.
    rng = np.random.default_rng(23)
    a = rng.uniform(0.0, 1.0, 3600)
    b = np.minimum(a + rng.uniform(0.0, 1.0, 3600) * 4.0, 4.0)
    b = np.where(b > 1.0, b, 1.0 + rng.uniform(0.0, 1.0, 3600))
    near = 10.0 ** rng.uniform(-6.0, -3.0, 600)
    a[:300] = 1.0 - near[:300] * (b[:300] - 1.0)
    b[300:600] = 1.0 + near[300:] * (1.0 - a[300:600])
    got = _unit_step().kernel_mu(a, b, lam)
    want = [_mp_exp_integral(lam, ai, 1.0) for ai in a]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def _triangular():
    # 1 - |x - 1| on [0, 2], with its kink at 1.
    return CustomDistribution(
        pdf=lambda x: np.maximum(1.0 - np.abs(x - 1.0), 0.0),
        cdf=lambda x: np.where(x < 1.0, 0.5 * np.clip(x, 0.0, 1.0) ** 2,
                               1.0 - 0.5 * np.clip(2.0 - x, 0.0, 1.0) ** 2),
        mean=1.0, abscissa=math.inf, support_upper=2.0, name="triangular",
        breaks=(1.0,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.0, -0.3, complex(-0.3, 7.0)])
def test_custom_kernel_across_a_kink(lam):
    with mpmath.workdps(40):
        lm = mpmath.mpmathify(lam)
        want = complex(mpmath.quad(lambda x: (1 - abs(x - 1)) * mpmath.exp(
            lm * x), [0, 1, mpmath.mpf(1.7)]))
    got = _triangular().kernel_c(1.7, lam)
    assert got == pytest.approx(want, rel=1e-13)


def _far_box():
    # Half the mass is exp(-x)/2, half a box on [100, 100.5]: the weight
    # reaches about 40 means past 0, and the box lies in none of the
    # probes of that reach.
    return CustomDistribution(
        pdf=lambda x: (np.where(x >= 0.0, 0.5 * np.exp(-np.abs(x)), 0.0)
                       + np.where((x >= 100.0) & (x < 100.5), 1.0, 0.0)),
        cdf=lambda x: (0.5 * -np.expm1(-np.maximum(x, 0.0))
                       + np.clip(x - 100.0, 0.0, 0.5)),
        mean=50.625, abscissa=1.0, name="far-box", breaks=(100.0, 100.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.0, 0.02, complex(-0.05, 3.0)])
def test_custom_kernel_e_reaches_its_last_break(lam):
    # The mapped tail is smooth only if it starts past the last break.
    a = np.array([0.0, 10.0, 99.0, 100.2, 100.6])
    want = [0.5 * np.exp((lam - 1.0) * ai) / (1.0 - lam)
            + _mp_exp_integral(lam, max(ai, 100.0), max(ai, 100.5))
            for ai in a]
    got = _far_box().kernel_e(a, lam)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def _gamma_half_pdf(x):
    with np.errstate(divide="ignore"):
        return np.where(x >= 0.0, np.exp(-x) / np.sqrt(np.pi * x), 0.0)


@pytest.mark.filterwarnings("error")
def test_custom_kernel_of_singular_density():
    # Gamma(1/2): the pdf is infinite at 0, and c(inf, lam) = (1-lam)^(-1/2).
    gamma_half = CustomDistribution(
        pdf=_gamma_half_pdf, cdf=lambda x: erf(np.sqrt(np.maximum(x, 0.0))),
        mean=0.5, abscissa=1.0, name="gamma-half")
    lam = np.array([0.0, -0.5, 0.6, -4.0, complex(0.5, 2.0),
                    complex(-1.0, 10.0), complex(0.3, -40.0),
                    complex(-2.0, 100.0)])
    np.testing.assert_allclose(gamma_half.kernel_c(math.inf, lam),
                               (1.0 - lam) ** -0.5, rtol=1e-13, atol=0)


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
    # A nonnegative variable has abscissa >= 0 (inf when the MGF is
    # entire) and a positive upper end of its support.
    if not bad >= 0.0:
        with pytest.raises(DomainError):
            CustomDistribution(pdf=np.exp, cdf=np.exp, mean=1.0,
                               abscissa=bad)
    if not bad > 0.0:
        with pytest.raises(DomainError):
            CustomDistribution(pdf=np.exp, cdf=np.exp, mean=1.0,
                               abscissa=1.0, support_upper=bad)
    # A break lies inside the support, (0, support_upper).
    with pytest.raises(DomainError, match="breaks"):
        CustomDistribution(pdf=np.exp, cdf=np.exp, mean=1.0, abscissa=1.0,
                           breaks=(0.5, bad))
    with pytest.raises(DomainError, match="breaks"):
        CustomDistribution(pdf=np.exp, cdf=np.exp, mean=1.0, abscissa=1.0,
                           support_upper=2.0, breaks=(2.0 + abs(bad),))


# -- closed pairs: int_lo^hi p(u) p(t-u) du ---------------------------------
#
# Scales and points with few bits keep exp's arguments exact in doubles:
# rate 1 and 2, sigma 1/2, 1 and 2, dyadic t and limits.  Each case is
# (lo, hi, t); every kind of overlap appears, at a kernel limit g: c*c,
# [max(0, t-g), min(g, t)]; c*e, [0, min(g, t-g)]; e*e, [g, t-g].


def _pair_cases(g, scale):
    cases = []
    for t in (2.0 ** -20, 0.125 * g, g, 1.5 * g, 2 * g - 2.0 ** -30, 2 * g):
        cases.append((max(0.0, t - g), min(g, t), t))               # c*c
    for t in (g + 2.0 ** -30, 1.25 * g, 2 * g, 3 * g, 8 * scale, 20 * scale):
        cases.append((0.0, min(g, t - g), t))                        # c*e
    for t in (2 * g, 2 * g + 2.0 ** -40, 2.5 * g, 4 * g, 12 * scale,
              30 * scale):
        cases.append((g, t - g, t))                                  # e*e
    return cases


# The far tail of each law, with values from about 1e-30 down to 1e-300,
# just short of underflow: exp's argument reaches about 690.
def _tail_cases(dist):
    if isinstance(dist, Exponential):
        ts = np.array([70.0, 200.0, 500.0, 690.0]) / dist.rate
        return [(0.0, 0.75, t) for t in ts] + [(1.5, t - 1.5, t) for t in ts]
    ts = np.array([15.0, 30.0, 45.0, 52.5]) * dist.sigma
    return ([(0.0, 0.75 * dist.sigma, t) for t in ts * [1, 1, 0.75, 0.625]]
            + [(0.5 * t - 0.25, 0.5 * t + 0.5, t) for t in ts]
            + [(0.5 * t + 0.25, 0.5 * t + 0.75, t) for t in ts])


# Overlaps of widths 1 down to 1e-12 (in sigma's units): across t/2, on
# either side of it, and far to one side.
def _narrow_cases(dist):
    s = getattr(dist, "sigma", 1.0)
    cases = []
    for w in 10.0 ** -np.arange(13):
        for lo, t in ((1.0, 2.0), (1.0, 2.0 + w), (1.0, 1.5), (1.0, 2.5),
                      (0.25, 9.0), (6.0, 8.0), (0.0, 2.0 * w)):
            cases.append((lo * s, lo * s + w * s, t * s))
    return cases


PAIR_DISTS = [Exponential(1.0), Exponential(0.5), HalfNormal(1.0),
              HalfNormal(0.5), HalfNormal(2.0)]


def _mp_pair(dist, lo, hi, t):
    """The pair at 50 digits: rate^2 e^(-rate t) (hi - lo), or the
    half-normal's erf form e^(-t^2/4s^2) (erf B - erf A)/(s sqrt(pi)), with
    A and B mirrored to A + B >= 0 and erfc where both are positive."""
    with mpmath.workdps(50):
        lo, hi, t = map(mpmath.mpf, (lo, hi, t))
        if not hi > lo:
            return mpmath.mpf(0)
        if isinstance(dist, Exponential):
            r = mpmath.mpf(dist.rate)
            return r * r * mpmath.exp(-r * t) * (hi - lo)
        s = mpmath.mpf(dist.sigma)
        a, b = (lo - t / 2) / s, (hi - t / 2) / s
        if a + b < 0:
            a, b = -b, -a
        diff = (mpmath.erf(b) - mpmath.erf(a) if a < 0
                else mpmath.erfc(a) - mpmath.erfc(b))
        return (mpmath.exp(-(t / (2 * s)) ** 2) * diff
                / (s * mpmath.sqrt(mpmath.pi)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dist", PAIR_DISTS, ids=lambda d: d.name)
def test_closed_pair_matches_mpmath(dist):
    scale = 1.0 / dist.rate if isinstance(dist, Exponential) else dist.sigma
    cases = (_pair_cases(1.25 * scale, scale) + _pair_cases(0.5 * scale,
                                                            scale)
             + _tail_cases(dist) + _narrow_cases(dist))
    lo, hi, t = map(np.array, zip(*cases))
    got = dist._pair(lo, hi, t)
    want = np.array([float(_mp_pair(dist, *c)) for c in cases])
    # Four overlaps are empty: c*c and e*e at t = 2g.
    assert (want > 0).sum() == len(cases) - 4
    assert want[want > 0].min() < 1e-290
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    # A point is its place in the array, to the bit.
    for i, c in enumerate(cases):
        assert dist._pair(*c) == got[i]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dist", PAIR_DISTS, ids=lambda d: d.name)
def test_closed_pair_over_random_limits(dist):
    # Any limits: exp's argument then rounds by about eps relative, which
    # moves a value v by about eps |ln v| (as it moves the pdf's own), so
    # 1e-13 holds down to values near 1e-190 and the bound widens beyond.
    scale = 1.0 / dist.rate if isinstance(dist, Exponential) else dist.sigma
    rng = np.random.default_rng(36)
    t = scale * np.concatenate([rng.uniform(0, 6, 300),
                                rng.uniform(6, 52, 100)])
    lo = t * rng.uniform(0, 1, t.size)
    hi = np.minimum(lo + scale * 10.0 ** rng.uniform(-12, 0.5, t.size), t)
    got = dist._pair(lo, hi, t)
    want = np.array([float(_mp_pair(dist, *c)) for c in zip(lo, hi, t)])
    live = want > 0
    assert live.sum() > 350
    np.testing.assert_array_equal(got[~live], 0.0)
    err = np.abs(got[live] - want[live]) / want[live]
    assert (err <= 1e-13 + 4e-16 * np.abs(np.log(want[live]))).all()
    assert err[want[live] > 1e-20].max() <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dist", PAIR_DISTS, ids=lambda d: d.name)
def test_closed_pair_of_an_empty_overlap_is_zero(dist):
    # hi <= lo and nan limits (an overlap at a nan t) give exactly 0,
    # alone or among live elements.
    lo = np.array([1.0, 1.0, 2.0, math.nan, 0.5, math.nan])
    hi = np.array([1.0, 0.5, 2.0, 1.0, math.nan, math.nan])
    t = np.array([2.0, 1.5, 3.0, 2.0, 1.0, math.nan])
    assert not dist._pair(lo, hi, t).any()
    assert dist._pair(1.0, 1.0, 2.0) == 0.0
    lo, hi, t = (np.append(v, x) for v, x in zip((lo, hi, t), (0.25, 1.0,
                                                              1.25)))
    got = dist._pair(lo, hi, t)
    assert not got[:-1].any() and got[-1] > 0
    assert got[-1] == dist._pair(0.25, 1.0, 1.25)


def test_custom_distribution_has_no_closed_pair():
    assert _exp_as_custom()._pair is None
    assert _halfnormal_as_custom()._pair is None
