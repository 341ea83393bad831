"""``erfcx`` and ``erf`` on numpy against 40-digit mpmath and scipy."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from ordstat import _special
from ordstat._special import erf, erfcx

EPS = np.finfo(float).eps


def test_coefficients_match_weideman_fft():
    # Weideman (1994): samples of exp(-t^2) (L^2 + t^2) at
    # t = L tan(theta / 2) on 4N equispaced angles, through an FFT.
    n = 40
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2))
    k = np.arange(-m + 1, m)
    t = L * np.tan(k * np.pi / m / 2)
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    assert _special._L == L
    assert _special._WEIDEMAN.shape == (n,)
    np.testing.assert_allclose(_special._WEIDEMAN, a[1:n + 1], rtol=0,
                               atol=4 * EPS * np.max(np.abs(a)))


def _mp_erfcx(z):
    with mpmath.workdps(40):
        z = mpmath.mpc(complex(z))
        return complex(mpmath.exp(z * z) * mpmath.erfc(z))


@pytest.fixture(scope="module")
def complex_points():
    rng = np.random.default_rng(20)
    n = 3000
    im = np.concatenate([rng.uniform(-2, 2, n // 3),
                         rng.uniform(-50, 50, n // 3),
                         rng.uniform(-2000, 2000, n - 2 * (n // 3))])
    z = rng.uniform(-3, 9, n) + 1j * im
    return z, np.array([_mp_erfcx(v) for v in z])


def test_erfcx_complex_against_mpmath(complex_points):
    z, want = complex_points
    err = np.abs(erfcx(z) - want) / np.abs(want)
    right = z.real >= 0
    assert err[right].max() <= 2e-15
    # Left of the axis exp(z^2) dominates, and its rounding bounds both.
    ref = np.abs(special.erfcx(z) - want) / np.abs(want)
    assert err[~right].max() <= ref[~right].max()


def test_erfcx_real_against_mpmath():
    x = np.concatenate([np.linspace(-5, 0, 301), np.linspace(0, 1, 101),
                        np.geomspace(1, 1e8, 600)])
    want = np.array([_mp_erfcx(v).real for v in x])
    err = np.abs(erfcx(x) - want) / want
    assert err[x >= 0].max() <= 2e-15
    ref = np.abs(special.erfcx(x) - want) / want
    assert err[x < 0].max() <= ref[x < 0].max()


def test_erf_against_mpmath():
    # The CDF is raised to high powers: tiny x needs relative accuracy too.
    rng = np.random.default_rng(21)
    x = np.concatenate([np.geomspace(1e-300, 1e-3, 300),
                        np.linspace(1e-3, 6, 3000), rng.uniform(0.4, 1.2, 1000)])
    with mpmath.workdps(40):
        want = np.array([float(mpmath.erf(mpmath.mpf(v))) for v in x])
    err = np.abs(erf(x) - want) / want
    assert err.max() <= 1e-15
    np.testing.assert_array_equal(erf(-x), -erf(x))


def test_finite_where_scipy_is_and_overflow_silent():
    rng = np.random.default_rng(22)
    z = np.concatenate([
        np.linspace(-40, 10, 501),
        rng.uniform(-40, 0, 500) + 1j * rng.uniform(-40, 40, 500),
        rng.uniform(-5, 5, 200) + 1j * rng.uniform(-1e6, 1e6, 200),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erfcx(z)
        got_real = erfcx(z[:501].real)
        e = erf(np.array([-np.inf, -40.0, -6.0, 0.0, 6.0, 40.0, np.inf]))
    want = special.erfcx(z)
    assert np.isfinite(got[np.isfinite(want)]).all()
    want_real = special.erfcx(z[:501].real)
    assert np.isfinite(got_real[np.isfinite(want_real)]).all()
    assert np.array_equal(np.isposinf(got_real), np.isposinf(want_real))
    assert np.isposinf(got_real[0])
    assert list(e) == [-1.0, -1.0, -1.0, 0.0, 1.0, 1.0, 1.0]
    assert erfcx(np.inf) == 0.0
    assert np.isnan(erf(np.nan)) and np.isnan(erfcx(np.nan))


def test_shapes_and_chunks():
    # Scalars give 0-d arrays; other shapes are kept, across chunks too.
    assert erfcx(0.5).shape == () and erf(0.5).shape == ()
    assert erfcx(1 + 1j).dtype == complex
    assert erfcx(np.zeros((2, 3), dtype=int)).tolist() == [[1.0] * 3] * 2
    x = np.linspace(-3, 8, 5 * (_special._CHUNK // 2 + 7)).reshape(5, -1)
    np.testing.assert_array_equal(
        erfcx(x), np.array([erfcx(r) for r in x]))
    np.testing.assert_array_equal(erf(x), np.array([erf(r) for r in x]))
    z = x + 0.5j
    np.testing.assert_array_equal(
        erfcx(z).ravel(), np.concatenate([erfcx(r) for r in z]))


def test_an_element_alone_has_its_bits_in_an_array():
    # One element is the same computation as its place in an array, in
    # both half-planes and on the real line.
    rng = np.random.default_rng(23)
    n = 3000
    z = rng.uniform(-6, 6, n) + 1j * rng.uniform(-20, 20, n)
    x = rng.uniform(-6, 30, n)
    for v in (z, x):
        whole = erfcx(v)
        alone = np.array([erfcx(v[i:i + 1])[0] for i in range(n)])
        np.testing.assert_array_equal(alone, whole)
