"""Quadrature + transform-inversion evaluators against closed exponential
forms and elementary convolution facts."""

import math

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre
from scipy import integrate, special

from ordstat import exact_exp, generic_joint as gj
from ordstat.distributions import CustomDistribution, Exponential, HalfNormal
from ordstat.errors import ConvergenceError, DomainError, IntegrationWarning
from ordstat.partition import Partition, TheoremMatch, match_theorem

EXP = Exponential(1.0)
HN = HalfNormal(0.8)


def uniform01():
    return CustomDistribution(
        pdf=lambda x: ((x >= 0.0) & (x <= 1.0)) * 1.0,
        cdf=lambda x: np.clip(x, 0.0, 1.0),
        mean=0.5, abscissa=math.inf, support_upper=1.0, name="uniform01")


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
def test_t1_single_variable_is_pdf(dist):
    for z in (0.2, 0.9, 2.5):
        assert gj.t1_pdf(dist, 1, z) == pytest.approx(dist.pdf1(z),
                                                      rel=1e-12)


def test_t1_matches_erlang():
    erl = exact_exp.pdf_sum_all(3, 1.0)
    for z in (0.7, 2.1, 6.3):
        assert gj.t1_pdf(EXP, 3, z) == pytest.approx(erl(z), rel=2e-6)


def test_t1_uniform_sum_is_triangle():
    d = uniform01()
    for z, want in [(0.4, 0.4), (0.9, 0.9), (1.3, 0.7), (1.9, 0.1)]:
        assert gj.t1_pdf(d, 2, z) == pytest.approx(want, rel=5e-6)
    assert gj.t1_pdf(d, 2, 2.4) == pytest.approx(0.0, abs=1e-7)


# c(g) = mu(0, g) and e(g) = mu(g, inf): one power inverse, three limit pairs.
POWERS = ([("c", 0.0, 1.1, n) for n in (1, 2, 3, 4)]
          + [("e", 0.9, math.inf, n) for n in (1, 2, 3)]
          + [("mu", 0.4, 1.3, n) for n in (1, 2, 3, 4)])


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
@pytest.mark.parametrize("kind,lo,hi,n", POWERS,
                         ids=[f"{p[0]}{p[3]}" for p in POWERS])
def test_power_inverse_mass(kind, lo, hi, n, dist):
    # The inverse is only C^(n-2) on its lattice; hand quad the knots.
    knots = [k for k in gj._lattice(lo, hi, n) if math.isfinite(k)]
    mass, _ = integrate.quad(lambda t: gj._inv_pow(dist, lo, hi, n, t),
                             n * lo, n * hi, points=knots or None,
                             epsabs=1e-12, epsrel=1e-10, limit=200)
    assert mass == pytest.approx(dist.kernel_mu(lo, hi, 0.0) ** n, rel=1e-8)


@pytest.mark.parametrize("m,pt", [(1, (1.0, 1.5)), (2, (0.8, 2.0)),
                                  (4, (0.4, 2.0))])
def test_t2_matches_exact(m, pt):
    K = 4
    z1, z2 = pt
    want = exact_exp.jpdf_one_vs_rest_allK(K, m, 1.0)(z1, z2)
    assert want > 0.0
    assert gj.t2_jpdf(EXP, K, m, z1, z2) == pytest.approx(want, rel=1e-6)


def test_t3_matches_exact():
    K, m = 5, 2
    want = exact_exp.jpdf_headsum_vs_tailsum_allK(K, m, 1.0)(3.0, 1.2)
    assert want > 0.0
    assert gj.t3_jpdf(EXP, K, m, 3.0, 1.2) == pytest.approx(want, rel=1e-6)


def test_t4_matches_exact():
    want = exact_exp.pdf_gsc_sum(5, 3, 1.0)(2.0)
    assert gj.t4_pdf(EXP, 5, 3, 2.0) == pytest.approx(want, rel=1e-6)


def test_t4_full_selection_equals_t1():
    # Two independent routes (reduction quadrature vs transform inversion),
    # each good to roughly eight digits.
    assert gj.t4_pdf(EXP, 3, 3, 1.8) == pytest.approx(
        gj.t1_pdf(EXP, 3, 1.8), rel=1e-6)


def test_t4_best1_is_max_density_any_dist():
    K, x = 4, 1.1
    want = K * HN.pdf1(x) * HN.cdf1(x) ** (K - 1)
    assert gj.t4_pdf(HN, K, 1, x) == pytest.approx(want, rel=1e-9)


T5_POINTS = {
    (5, 4, 1): (1.0, 2.0),
    (6, 5, 3): (0.5, 2.0),
    (5, 4, 3): (0.6, 2.2),
    (5, 4, 4): (0.5, 2.0),
    (4, 2, 1): (1.7, 0.6),
}


@pytest.mark.parametrize("shape", sorted(T5_POINTS))
def test_t5_matches_exact(shape):
    K, Ks, m = shape
    x, y = T5_POINTS[shape]
    want = exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, 1.0)(x, y)
    assert want > 0.0
    assert gj.t5_jpdf(EXP, K, Ks, m, x, y) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("m,pt", [(2, (2.6, 1.1)), (3, (4.0, 0.9))])
def test_t6_matches_exact(m, pt):
    K, Ks = 6, 4
    x, y = pt
    want = exact_exp.jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, 1.0)(x, y)
    assert want > 0.0
    assert gj.t6_jpdf(EXP, K, Ks, m, x, y) == pytest.approx(want, rel=1e-6)


def test_t6_singleton_head_equals_t5():
    assert gj.t6_jpdf(EXP, 5, 4, 1, 0.9, 1.8) == pytest.approx(
        gj.t5_jpdf(EXP, 5, 4, 1, 0.9, 1.8), rel=1e-9)


def test_outside_support_is_zero():
    assert gj.t2_jpdf(EXP, 4, 2, 0.8, 0.5) == 0.0      # rest below (m-1)*z1
    assert gj.t3_jpdf(EXP, 5, 2, 1.0, 3.0) == 0.0      # tail above head bound
    assert gj.t5_jpdf(EXP, 5, 4, 4, 0.5, 1.0) == 0.0
    assert gj.t1_pdf(EXP, 3, -0.2) == 0.0
    # A power inverse vanishes off [n*lo, n*hi] without integrating.
    assert gj._inv_pow(EXP, 0.0, 1.1, 1, 1.2) == 0.0
    assert gj._inv_pow(EXP, 0.4, 1.3, 3, 4.0) == 0.0
    assert gj._inv_pow(EXP, 0.9, math.inf, 2, 1.7) == 0.0


def test_theorem_case_dispatch_and_swap():
    shape = match_theorem(Partition.parse("K=4;Ks=4;groups=[2-4][1]"))
    assert shape.id == "T2" and shape.m == 1 and shape.swap
    case, dim = gj.resolve(shape, EXP, method="generic")
    assert dim == 2
    assert case(1.5, 1.0) == pytest.approx(
        gj.t2_jpdf(EXP, 4, 1, 1.0, 1.5), rel=1e-12)

    total, dim = gj.resolve(
        match_theorem(Partition.parse("K=3;Ks=3;groups=[1-3]")), EXP,
        method="generic")
    assert dim == 1
    assert total(1.8) == pytest.approx(gj.t1_pdf(EXP, 3, 1.8), rel=1e-12)


def test_theorem_case_arity_checked():
    case, _ = gj.resolve(TheoremMatch("T2", 4, 4, 2), EXP)
    with pytest.raises(DomainError):
        case(1.0)


def test_shape_validation():
    with pytest.raises(DomainError):
        gj.t2_jpdf(EXP, 4, 5, 1.0, 2.0)
    with pytest.raises(DomainError):
        gj.t5_jpdf(EXP, 3, 4, 1, 1.0, 2.0)
    with pytest.raises(DomainError):
        gj.t1_pdf(EXP, 0, 1.0)


# -- the kernel-power inverse on node arrays --


def _mp_steps(n, t, lo, step):
    """e^-t/(n-1)! * sum_j (-1)^j C(n, j) (t - lo - j*step)_+^(n-1), in
    mpmath: the inverse of mu(a, b, -s)^n of exp:1 with lo = n*a and
    step = b - a."""
    t = mpmath.mpf(t)
    terms = [(-1) ** j * math.comb(n, j) * (t - lo - j * step) ** (n - 1)
             for j in range(n + 1) if t - lo - j * step > 0]
    return mpmath.exp(-t) * mpmath.fsum(terms) / math.factorial(n - 1)


def _closed(kind, n, t):
    if kind == "c":      # mu(0, 1.1)
        return _mp_steps(n, t, 0.0, 1.1)
    if kind == "e":      # mu(0.9, inf): (t - n*g)^(n-1) e^-t / (n-1)!
        t = mpmath.mpf(t)
        return ((t - n * 0.9) ** (n - 1) * mpmath.exp(-t)
                / math.factorial(n - 1))
    return _mp_steps(n, t, n * 0.4, 1.3 - 0.4)    # mu(0.4, 1.3)


LIMITS = {"c": (0.0, 1.1), "e": (0.9, math.inf), "mu": (0.4, 1.3)}


@pytest.mark.parametrize("kind", sorted(LIMITS))
@pytest.mark.parametrize("n", range(1, 7))
def test_power_inverse_matches_exponential_closed_form(kind, n):
    lo, hi = LIMITS[kind]
    top = n * hi if math.isfinite(hi) else n * lo + 4.0
    t = n * lo + (top - n * lo) * np.linspace(0.02, 0.98, 12).reshape(3, 4)
    got = gj._inv_pow(EXP, lo, hi, n, t)
    assert got.shape == t.shape
    want = [[float(_closed(kind, n, v)) for v in row] for row in t]
    assert got == pytest.approx(np.array(want), rel=1e-12)


@pytest.mark.parametrize("nc,ne", [(1, 1), (2, 3), (4, 2)])
def test_mixed_power_inverse_matches_exponential_closed_form(nc, ne):
    # c(g)^nc * e(g)^ne inverts to
    # e^-t/(n-1)! * sum_j (-1)^j C(nc, j) (t - (j + ne)*g)_+^(n-1).
    g, n = 0.7, nc + ne
    t = ne * g + np.linspace(0.05, n * g + 1.0, 9)
    got = gj._inv_prod(EXP, (0.0, g, nc), (g, math.inf, ne), t)
    want = [float(mpmath.exp(-v) * mpmath.fsum(
        (-1) ** j * math.comb(nc, j) * mpmath.mpf(v - (j + ne) * g) ** (n - 1)
        for j in range(nc + 1) if v > (j + ne) * g) / math.factorial(n - 1))
        for v in t]
    assert got == pytest.approx(np.array(want), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_inverse_of_uniform_is_irwin_hall(n):
    # e(0) of a density on [0, 1]: the upper limit inf is clamped to the
    # support, so the jumps of the pdf fall on segment edges.
    t = np.linspace(0.03, n - 0.03, 17)
    got = gj._inv_pow(uniform01(), 0.0, math.inf, n, t)
    want = [float(mpmath.fsum((-1) ** j * math.comb(n, j)
                              * mpmath.mpf(v - j) ** (n - 1)
                              for j in range(int(v) + 1))
                  / math.factorial(n - 1)) for v in t]
    assert got == pytest.approx(np.array(want), rel=1e-12)


def test_power_inverse_batch_equals_elements():
    lo = np.array([0.0, 0.9, 0.4, 0.2])
    hi = np.array([1.1, math.inf, 1.3, 0.7])
    t = np.array([[0.5], [2.9], [3.3], [1.2]])
    got = gj._inv_pow(HN, lo, hi, 3, t)
    assert got.shape == (4, 4)
    assert (got > 0).any() and (got == 0).any()
    for (i, j), v in np.ndenumerate(got):
        one = gj._inv_pow(HN, lo[j], hi[j], 3, t[i, 0])
        assert v == pytest.approx(float(one), rel=1e-14, abs=0.0)


def _unit_step(pdf):
    # support_upper is left at inf: the jump at 1 is no lattice point.
    return CustomDistribution(pdf=pdf, cdf=lambda x: np.clip(x, 0.0, 1.0),
                              mean=0.5, abscissa=math.inf, name="unit-step")


def test_power_inverse_warns_at_its_cap(monkeypatch):
    step = _unit_step(lambda x: np.where((x >= 0) & (x < 1), 1.0, 0.0))
    monkeypatch.setattr(gj, "_MAX_NODES", 16)
    with pytest.warns(IntegrationWarning, match="did not converge"):
        got = gj._inv_pow(step, 0.0, math.inf, 2, np.array([0.5, 1.3]))
    assert got == pytest.approx([0.5, 0.7], abs=0.05)


def test_power_inverse_refuses_non_finite_values():
    broken = _unit_step(lambda x: np.where(x < 1.0, 1.0, np.nan))
    with pytest.raises(ConvergenceError):
        gj._inv_pow(broken, 0.0, math.inf, 2, 1.5)


def _gamma_half_pdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x >= 0.0, np.exp(-x) / np.sqrt(np.pi * x), 0.0)


# Gamma(1/2): the pdf is infinite at 0, where a Gauss-Legendre rule
# converges only algebraically, and its n-fold convolution is Gamma(n/2).
GAMMA_HALF = CustomDistribution(
    pdf=_gamma_half_pdf,
    cdf=lambda x: special.erf(np.sqrt(np.maximum(x, 0.0))),
    mean=0.5, abscissa=1.0, name="gamma-half")


def _gamma_pdf(a, t):
    return t ** (a - 1) * np.exp(-t) / math.gamma(a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_power_inverse_of_singular_density(n):
    # e(0)^n everywhere, and c(g)^n below g, where no summand reaches g:
    # both ends of the outer convolution hold the pdf near 0.
    t = np.array([[0.05, 0.3, 1.1, 2.9]])
    got = gj._inv_pow(GAMMA_HALF, 0.0, np.array([[math.inf], [3.0]]), n, t)
    assert got == pytest.approx(np.vstack([_gamma_pdf(n / 2, t)] * 2),
                                rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_singular_density_square_and_t2():
    # For Gamma(1/2), p(u) p(t-u) = e^-t / (pi sqrt(u (t-u))), whose
    # integral from a to b is e^-t/pi [2 arcsin sqrt(u/t)]_a^b.
    def arc(t, a, b):
        return (2 * np.exp(-t) / np.pi
                * (np.arcsin(np.sqrt(b / t)) - np.arcsin(np.sqrt(a / t))))

    g, t = 0.8, np.array([0.9, 1.2, 1.55])
    got = gj._inv_pow(GAMMA_HALF, 0.0, g, 2, t)
    assert got == pytest.approx(arc(t, t - g, g), rel=1e-12)
    # T2 at K=3, m=2: 6 p(z1) times the c(z1) * e(z1) inverse at z2.
    for z1, z2 in [(0.5, 1.0), (0.3, 1.6)]:
        want = 6 * _gamma_half_pdf(z1) * arc(z2, 0.0, min(z1, z2 - z1))
        assert gj.t2_jpdf(GAMMA_HALF, 3, 2, z1, z2) == pytest.approx(
            float(want), rel=1e-12)


@pytest.mark.filterwarnings("default:.*-node rule on .* did not converge")
def test_reductions_of_singular_density():
    # With Ks = K the sum of the best Ks is the sum of all: Gamma(K/2).
    # pdf(v) ~ v^(-1/2) at the end v = 0 of the rule over the rank-Ks
    # value, where a Gauss-Legendre rule stops at its cap; the tanh-sinh
    # stage converges there.  The 9 warnings of the kernel-power inverses
    # at outer nodes within about 1e-13 of 0, whose values are right, are
    # allowed here only: anywhere else such a warning fails the test.
    for K, x in [(3, 1.0), (3, 2.5), (4, 1.7)]:
        assert gj.t4_pdf(GAMMA_HALF, K, K, x) == pytest.approx(
            _gamma_pdf(K / 2, x), rel=1e-12)


def test_scalar_only_density_is_refused():
    scalar = CustomDistribution(pdf=lambda x: math.exp(-x),
                                cdf=lambda x: -math.expm1(-x), mean=1.0,
                                abscissa=1.0, name="scalar-exp")
    assert scalar.pdf1(0.5) == math.exp(-0.5)
    with pytest.raises(DomainError, match="scalar-exp: pdf must map"):
        gj.t2_jpdf(scalar, 4, 2, 0.5, 1.5)


# -- larger K on the generic path --

LARGE_K = [("T2", 8, 1, (0.6, 2.1)), ("T2", 8, 4, (0.6, 3.0)),
           ("T2", 10, 5, (0.5, 3.1)), ("T2", 10, 10, (0.4, 4.6)),
           ("T3", 8, 3, (2.5, 2.2)), ("T3", 10, 6, (6.0, 1.2)),
           ("T4", 8, 7, (4.2,)), ("T4", 10, 9, (5.4,))]


@pytest.mark.parametrize("fam,K,k,pt", LARGE_K,
                         ids=[f"{f}-K{K}-{k}" for f, K, k, _ in LARGE_K])
def test_large_K_matches_exact(fam, K, k, pt):
    generic, exact = {
        "T2": (gj.t2_jpdf, exact_exp.jpdf_one_vs_rest_allK),
        "T3": (gj.t3_jpdf, exact_exp.jpdf_headsum_vs_tailsum_allK),
        "T4": (gj.t4_pdf, exact_exp.pdf_gsc_sum)}[fam]
    want = exact(K, k, 1.0)(*pt)
    assert want > 0.0
    assert generic(EXP, K, k, *pt) == pytest.approx(want, rel=1e-9)


def _mp_hn_inv(sigma, lo, hi, n, t, rule):
    """Inverse of mu(lo, hi, -s)^n of the half-normal at t, in mpmath.

    Power 2 is closed-form: p(x) p(t-x) is a Gaussian in x - t/2.  Higher
    powers convolve by a fixed Gauss-Legendre ``rule`` on the lattice
    segments.
    """
    if t < n * lo or t > n * hi:
        return mpmath.mpf(0)
    c = mpmath.sqrt(2 / mpmath.pi) / sigma
    if n == 1:
        return c * mpmath.exp(-t ** 2 / (2 * sigma ** 2))
    if n == 2:
        a, b = max(lo, t - hi), min(hi, t - lo)
        return (c ** 2 * mpmath.exp(-t ** 2 / (4 * sigma ** 2)) * sigma
                * mpmath.sqrt(mpmath.pi) / 2
                * (mpmath.erf((b - t / 2) / sigma)
                   - mpmath.erf((a - t / 2) / sigma)))
    h = n // 2
    return _mp_hn_conv(sigma, (lo, hi, h), (lo, hi, n - h), t, rule)


def _mp_hn_conv(sigma, fa, fb, t, rule):
    (la, ha, na), (lb, hb, nb) = fa, fb
    a, b = max(na * la, t - nb * hb), min(na * ha, t - nb * lb)
    pts = {j * la + (na - j) * ha for j in range(1, na)}
    pts |= {t - (j * lb + (nb - j) * hb) for j in range(1, nb)}
    edges = [a, *sorted(p for p in pts if a < p < b), b]
    total = mpmath.mpf(0)
    for e0, e1 in zip(edges, edges[1:]):
        mid, half = (e0 + e1) / 2, (e1 - e0) / 2
        for x, w in rule:
            u = mid + half * x
            total += (half * w * _mp_hn_inv(sigma, la, ha, na, u, rule)
                      * _mp_hn_inv(sigma, lb, hb, nb, t - u, rule))
    return total


def test_halfnormal_t2_large_K_matches_mpmath():
    # 12 nodes per segment agree with 48 to 25 digits at this point.
    K, m, z1, z2 = 8, 4, 0.5, 2.6
    with mpmath.workdps(30):
        rule = GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)
        sigma, g = mpmath.mpf(HN.sigma), mpmath.mpf(z1)
        inv = _mp_hn_conv(sigma, (0, g, K - m), (g, mpmath.inf, m - 1),
                          mpmath.mpf(z2), rule)
        want = (math.factorial(K) / (math.factorial(K - m)
                                     * math.factorial(m - 1))
                * _mp_hn_inv(sigma, 0, mpmath.inf, 1, g, rule) * inv)
    got = gj.t2_jpdf(HN, K, m, z1, z2)
    assert got == pytest.approx(float(want), rel=1e-9)


# One point per family and T5 case, at K=5.
K5_POINTS = [(gj.t2_jpdf, (5, 2, 0.8, 2.0)), (gj.t3_jpdf, (5, 2, 3.0, 1.2)),
             (gj.t4_pdf, (5, 3, 2.0)), (gj.t5_jpdf, (5, 4, 1, 1.0, 2.0)),
             (gj.t5_jpdf, (5, 5, 3, 0.5, 2.0)),
             (gj.t5_jpdf, (5, 4, 3, 0.6, 2.2)),
             (gj.t5_jpdf, (5, 4, 4, 0.5, 2.0)),
             (gj.t6_jpdf, (5, 4, 2, 2.6, 1.1))]


@pytest.mark.parametrize("dist", [EXP, HN], ids=["exp", "halfnormal"])
def test_k5_points_are_finite_and_positive(dist):
    for fn, args in K5_POINTS:
        val = fn(dist, *args)
        assert math.isfinite(val) and val > 0.0, (fn.__name__, args)
