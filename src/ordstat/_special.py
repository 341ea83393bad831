"""``erfcx`` and ``erf`` on numpy arrays.

``erfcx(z) = exp(z^2) erfc(z)`` is Weideman's rational expansion of the
Faddeeva function (J. A. C. Weideman, "Computation of the complex error
function", SIAM J. Numer. Anal. 31, 1994) with N = 40 terms, through
``erfcx(z) = w(i z)``.  For ``Re z >= 0``, with ``L = sqrt(N / sqrt 2)``
and ``q = 1 / (L + z)``,

    erfcx(z) = q (2 p(Z) q + 1/sqrt(pi)),    Z = (L - z) q = 2 L q - 1,

where ``p`` is a polynomial of degree N - 1 with the coefficients of
``_WEIDEMAN`` and ``|Z| <= 1``.  The form ``2 L q - 1`` takes
``z = inf`` to ``Z = -1`` and ``erfcx = 0``.  Left of the imaginary axis the
reflection ``erfcx(z) = 2 exp(z^2) - erfcx(-z)`` applies; there
``exp(z^2)`` dominates, and overflows to ``inf`` (without a warning) where
the value does.

``p`` is evaluated as a matrix product (``_poly``): the powers
``Z^0 .. Z^7`` form the rows of one array, ``_BLOCKS2 @`` that array gives
the five degree-7 blocks of ``2 p``, and four Horner steps in ``Z^8`` join
them.  Against a Horner loop over all 40 coefficients this takes a fifth
of the numpy calls, which is what a short array pays for.  Long arrays go
through in chunks of ``_CHUNK`` elements, which keeps the rows in cache.

``erf`` is odd.  Below ``|x| = 1.5`` it is its Maclaurin series in
``x^2``, evaluated the same way; from there ``1 - exp(-x^2) erfcx(|x|)``.
"""

import math

import numpy as np

__all__ = ["erfcx", "erf"]

# L and the coefficients a_0 .. a_39 of p (a_j multiplies Z^j): the
# cosine sums a_j = (1/4N) sum_{|k| < 2N} F(theta_k) cos(j theta_k),
# theta_k = k pi / 2N, F = exp(-t^2) (L^2 + t^2) at t = L tan(theta / 2),
# rounded from 50-digit arithmetic.  ``tests/test_special.py`` rebuilds
# them by FFT, as in Weideman's paper.
_L = 5.3182958969449885
_WEIDEMAN = np.array([
    2.8996245093897053, 2.61605415276186, 2.201513794878312,
    1.7253830848179779, 1.2563815675765133, 0.8472174576593818,
    0.5266528988277086, 0.29989437996150065, 0.15504263802479495,
    0.07182361779074337, 0.029202916471241867, 0.010048186242783424,
    0.0027054056330737914, 0.0004398070159869668, -3.939363145489569e-05,
    -5.591309264248318e-05, -1.8007447144750956e-05, -1.0660138984947143e-06,
    1.483566113220078e-06, 5.912136951899494e-07, 1.4198642399935674e-08,
    -6.35177348504429e-08, -1.8315616783040462e-08, 3.2497465180436973e-09,
    3.0177805400090707e-09, 2.1086006347066517e-10, -3.5632339865976533e-10,
    -9.055124450928292e-11, 3.47272670930455e-11, 1.7714495214011192e-11,
    -2.7276023158200452e-12, -2.907688342182867e-12, 1.2031458219387989e-13,
    4.5329666782606727e-13, 1.37256205867155e-14, -7.074086260286855e-14,
    -5.409310282882142e-15, 1.1357687198999241e-14, 1.128073562364402e-15,
    -1.899694947394927e-15,
])
# Row b holds 2 a_{8b} .. 2 a_{8b+7}: the blocks of 2 p.
_BLOCKS2 = 2.0 * _WEIDEMAN.reshape(5, 8)
_CHUNK = 8192
_RSQRTPI = 1.0 / math.sqrt(math.pi)

# erf(x) = x * sum_n c_n x^(2n), c_n = 2/sqrt(pi) (-1)^n / (n! (2n + 1)),
# in four blocks of eight; at |x| < 1.5 the first term left out is below
# 2^-85 of the sum.  The terms alternate, and their rounding grows with
# erfi(x) / erf(x), which is 4.7 at 1.5; against mpmath the series is
# within 7e-16 of erf below 1.5, and 1 - erfc within 2e-16 above.  The
# argument of a half-normal CDF, z / (sigma sqrt 2), lies below 1.5 on
# 97% of the distribution's mass, so most arrays take the series alone.
_MACLAURIN = np.array([2.0 / math.sqrt(math.pi) * (-1) ** n
                       / (math.factorial(n) * (2 * n + 1))
                       for n in range(32)]).reshape(4, 8)
_SERIES_BELOW = 1.5


def _poly(blocks, v):
    """``sum_j c_j v^j`` on a 1-d float or complex array ``v``, with
    ``c_{8b+r}`` in ``blocks[b, r]``: one matrix product gives each block's
    polynomial in ``v``, and Horner steps in ``v^8`` join them.  One
    element goes as two: numpy's product for a single column rounds
    otherwise, and a point would not match its place in a grid."""
    if v.size == 1:
        return _poly(blocks, np.repeat(v, 2))[:1]
    powers = np.empty((8, v.size), dtype=v.dtype)
    powers[0] = 1.0
    powers[1] = v
    np.multiply(v, v, out=powers[2])
    np.multiply(powers[:2], powers[2], out=powers[2:4])
    np.multiply(powers[:4], powers[2] * powers[2], out=powers[4:])
    v8 = powers[4] * powers[4]
    if v.dtype == complex:
        # Real coefficients: one real product on the interleaved parts.
        parts = (blocks @ powers.view(float)).view(complex)
    else:
        parts = blocks @ powers
    p = parts[-1]
    for part in parts[-2::-1]:
        p *= v8
        p += part
    return p


def _right(z):
    """erfcx on a 1-d float or complex array with ``Re z >= 0``."""
    q = 1.0 / (_L + z)
    p = _poly(_BLOCKS2, 2.0 * _L * q - 1.0)
    p *= q
    p += _RSQRTPI
    p *= q
    return p


def _chunked(f, flat):
    """``f`` on a 1-d array, ``_CHUNK`` elements at a time."""
    if flat.size <= _CHUNK:
        return f(flat)
    out = np.empty_like(flat)
    for i in range(0, flat.size, _CHUNK):
        out[i:i + _CHUNK] = f(flat[i:i + _CHUNK])
    return out


def erfcx(z):
    """``exp(z^2) erfc(z)`` for a real or complex array (or scalar); an
    array of the same shape."""
    z = np.asarray(z)
    flat = z.astype(complex if np.iscomplexobj(z) else float,
                    copy=False).ravel()
    left = flat.real < 0.0
    if not left.any():
        return _chunked(_right, flat).reshape(z.shape)
    out = _chunked(_right, np.where(left, -flat, flat))
    zl = flat[left]
    with np.errstate(over="ignore", invalid="ignore"):
        out[left] = 2.0 * np.exp(zl * zl) - out[left]
    return out.reshape(z.shape)


def _series(x):
    return x * _poly(_MACLAURIN, x * x)


def _erf_right(x):
    """erf on a 1-d float array with ``x >= 0``; each branch takes only
    its own elements."""
    small = x < _SERIES_BELOW
    if small.all():
        return _series(x)
    out = np.empty_like(x)
    big = ~small
    xb = x[big]
    out[big] = 1.0 - np.exp(-xb * xb) * _right(xb)
    out[small] = _series(x[small])
    return out


def erf(x):
    """The error function of a real array (or scalar); an array of the
    same shape."""
    x = np.asarray(x)
    flat = x.astype(float, copy=False).ravel()
    return np.copysign(_chunked(_erf_right, np.abs(flat)),
                       flat).reshape(x.shape)
