"""Numerical inversion of Laplace transforms on the Bromwich line.

Both stages sum a trapezoidal Bromwich series on the line
``Re(s) = c + A / (2 T)``, where ``c`` is the abscissa, ``T`` the half
period of the series and ``A`` the contour parameter.  The trapezoid
aliases ``f`` at ``t + 2kT``: relative to ``f(t)`` its error is

    sum_{k >= 1} exp(-k A) g(t + 2 k T) / g(t),    g(t) = exp(-c t) f(t),

so ``exp(-A)`` alone bounds it only when ``g`` does not grow.  A pole of
order ``k`` at the abscissa makes ``g`` grow like ``t^(k-1)``, and the
leading term of the Euler stage (``T = t``) is ``exp(-A) 3^(k-1)``.
Aliasing scales as ``exp(-A)`` whatever ``g`` does, so each stage measures
it by comparing values on two lines: with ``A' = A + delta``,
``|V(A) - V(A')| / (exp(delta) - 1)`` estimates the aliasing left in
``V(A')``.  The Euler stage raises ``A`` only as far as that estimate
requires, since a larger ``A`` amplifies truncation and roundoff.

The primary stage is damped alternating-series (Euler) summation with the
contour first at ``A = target_digits * ln 10``.  Its estimate is the sum of

* truncation: the spread of the Euler means taken at the last ``m + 1``
  truncation points.  ``exp(-b*s)`` shift factors (step supports in the
  time domain) turn the alternating series into a slowly rotating one
  when a threshold ``b`` sits near ``t``; the difference of two binomial
  orders misses that, the spread does not;
* roundoff: ``prefactor * eps * sum |F(s_k)|`` over the nodes;
* aliasing: the two-line difference above.

The truncation doubles until its estimate meets a tenth of the target or
stops improving.  When the Euler stage misses the target, a
quotient-difference (de Hoog) Pade acceleration runs on two contours with
incommensurate periods and different ``A``; their disagreement covers
both its truncation and its aliasing, and each adds its roundoff term.
Near an actual jump of the time-domain function no line method converges
fast; the returned estimate reflects that instead of hiding it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ordstat.errors import DomainError

__all__ = ["TransformFn", "IltResult", "invert_numeric"]


@dataclass(frozen=True)
class TransformFn:
    """A Laplace transform with its analyticity bound.

    ``f`` takes a complex array of s and returns the transform at each,
    as an array of the same shape: the inverter evaluates the nodes of a
    Bromwich line in one call (a 1-d array), :meth:`validate` one point
    at a time (0-d arrays).  It must be analytic for
    ``Re(s) > abscissa`` (caller contract; :meth:`validate` spot-checks
    it).  ``scale_hint`` is the characteristic time scale of the inverse;
    times below ``1e-6 * scale_hint`` are reported as 0 without inversion.
    """

    f: callable
    abscissa: float
    scale_hint: float = 1.0

    def __call__(self, s):
        """``f`` at an array of s, as a complex array of its shape."""
        return np.asarray(self.f(np.asarray(s, dtype=complex)),
                          dtype=complex)

    def validate(self, seed=0):
        """Cauchy-Riemann finite-difference spot check at 3 points."""
        rng = np.random.default_rng(seed)
        h = 1e-5
        for _ in range(3):
            s = complex(self.abscissa + rng.uniform(0.5, 2.0) / self.scale_hint,
                        rng.uniform(-2.0, 2.0) / self.scale_hint)
            d_re = complex(self(s + h) - self(s - h)) / (2 * h)
            d_im = complex(self(s + 1j * h) - self(s - 1j * h)) / (2j * h)
            scale = max(abs(d_re), abs(d_im), 1e-12)
            if abs(d_re - d_im) > 1e-3 * scale:
                raise DomainError(
                    f"transform fails Cauchy-Riemann check at {s}: "
                    f"{d_re} vs {d_im}")
        return True


@dataclass
class IltResult:
    """Value with an honest error estimate (an attempt, not a guarantee).

    ``error_estimate`` is the sum of the truncation, roundoff and aliasing
    terms of the stage that produced ``value``; ``converged`` is True when
    it meets ``10**-target_digits * max(1, |value|)``.  ``value`` and
    ``error_estimate`` are stored as ``float`` and ``converged`` as
    ``bool``.
    """

    value: float
    error_estimate: float
    converged: bool
    method: str
    neval: int = 0
    t: float = field(default=0.0, repr=False)

    def __post_init__(self):
        self.value = float(self.value)
        self.error_estimate = float(self.error_estimate)
        self.converged = bool(self.converged)

    def __float__(self):
        return self.value


_BINOM_CACHE = {}


def _binom_weights(m):
    try:
        return _BINOM_CACHE[m]
    except KeyError:
        w = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float) / 2.0 ** m
        _BINOM_CACHE[m] = w
        return w


_EPS = float(np.finfo(float).eps)
_LN10 = math.log(10.0)
_M_AVG = 12          # binomial averaging order of the Euler stage
_N_MAX = 1024        # most series terms the Euler stage sums
_MAX_RAISES = 4      # contour raises after the first aliasing measurement


def _line(sigma, imag):
    """Nodes ``sigma + i imag`` of a Bromwich line, for an array of imag."""
    s = np.empty(imag.size, dtype=complex)
    s.real = sigma
    s.imag = imag
    return s


def _euler_nodes(tf, t, aparam, first, stop):
    """Nodes ``first .. stop - 1`` of the Euler stage's line at ``A =
    aparam``: ``sigma + i k pi / t``."""
    return _line(tf.abscissa + aparam / (2.0 * t),
                 np.arange(first, stop) * (math.pi / t))


def _euler_attempt(tf, t, aparam, n_trunc, nodes):
    """One Euler pass; node values on this line are cached across passes,
    and the nodes the cache lacks are evaluated in one call.

    Returns the value and its truncation plus roundoff estimate.
    """
    sigma = tf.abscissa + aparam / (2.0 * t)
    need = n_trunc + _M_AVG + 1
    if len(nodes) < need:
        nodes.extend(tf(_euler_nodes(tf, t, aparam, len(nodes), need)).tolist())
    vals = np.array(nodes[:need])
    terms = vals.real.copy()
    terms[1::2] *= -1.0
    terms[0] *= 0.5
    partial = np.cumsum(terms)
    # Euler means of the windows starting at n_trunc - _M_AVG .. n_trunc.
    means = np.convolve(partial[n_trunc - _M_AVG:], _binom_weights(_M_AVG),
                        "valid")
    pref = math.exp(min(sigma * t, 700.0)) / t
    value = pref * means[-1]
    est = pref * (np.max(np.abs(means - means[-1]))
                  + _EPS * np.sum(np.abs(vals)))
    if not (math.isfinite(value) and math.isfinite(est)):
        return math.nan, math.inf
    return value, est


def _euler_line(tf, t, aparam, n0, goal, nodes):
    """Euler passes at doubling truncation on one line, until the estimate
    meets ``goal`` or a doubling gains less than 4x.  ``nodes`` holds the
    values of the line's first nodes, if any have been evaluated.

    Returns ``(value, estimate, nodes evaluated)`` of the best pass.
    """
    best = (math.nan, math.inf)
    n_trunc = n0
    while True:
        value, est = _euler_attempt(tf, t, aparam, n_trunc, nodes)
        improved = est < 0.25 * best[1]
        if est < best[1]:
            best = (value, est)
        if (best[1] <= goal(best[0]) or not improved
                or 2 * n_trunc > _N_MAX):
            return best + (len(nodes),)
        n_trunc *= 2


def _euler_stage(tf, t, a0, n0, goal):
    """Euler lines on rising contours, from ``A = a0``, until the estimate
    of the last line, aliasing included, meets ``goal`` or aliasing no
    longer dominates it.

    Returns ``(value, estimate, A, nodes evaluated)`` of the line with the
    smallest estimate.
    """
    # The lines at a0 and a0 + ln 10 always run, and each starts with the
    # nodes of truncation n0: one call evaluates both sets.
    first = n0 + _M_AVG + 1
    both = tf(np.concatenate([_euler_nodes(tf, t, a0, 0, first),
                              _euler_nodes(tf, t, a0 + _LN10, 0, first)]
                             )).tolist()
    v_prev, _, neval = _euler_line(tf, t, a0, n0, goal, both[:first])
    aparam, delta = a0, _LN10
    best = (math.nan, math.inf, a0 + delta)
    for i in range(_MAX_RAISES + 1):
        aparam += delta
        value, est, n = _euler_line(tf, t, aparam, n0, goal,
                                    both[first:] if i == 0 else [])
        neval += n
        aliasing = abs(v_prev - value) / math.expm1(delta)
        if not math.isfinite(aliasing):
            aliasing = math.inf
        total = est + aliasing
        if total < best[1]:
            best = (value, total, aparam)
        if total <= goal(value) or aliasing <= est:
            break
        delta = max(_LN10, math.log(aliasing / goal(value)))
        v_prev = value
    return best + (neval,)


def _dehoog_attempt(tf, t, aparam, degree, t_factor):
    """Quotient-difference Pade acceleration of the Bromwich series.

    Returns the value, its roundoff estimate and the node count.
    """
    big_t = t_factor * t
    gamma = tf.abscissa + aparam / (2.0 * big_t)
    npts = 2 * degree + 1
    fp = tf(_line(gamma, np.arange(npts) * math.pi / big_t))
    fp[0] *= 0.5
    if not np.all(np.isfinite(fp)):
        return math.nan, math.inf, npts
    if np.max(np.abs(fp)) == 0.0:
        return 0.0, 0.0, npts
    m = degree
    with np.errstate(all="ignore"):
        e = np.zeros((npts, m + 1), dtype=complex)
        q = np.zeros((npts, m), dtype=complex)
        q[0:2 * m, 0] = fp[1:2 * m + 1] / fp[0:2 * m]
        for r in range(1, m + 1):
            mr = 2 * (m - r)
            e[0:mr + 1, r] = q[1:mr + 2, r - 1] - q[0:mr + 1, r - 1] + e[1:mr + 2, r - 1]
            if r < m:
                mr2 = 2 * (m - r) - 1
                q[0:mr2 + 1, r] = q[1:mr2 + 2, r - 1] * e[1:mr2 + 2, r] / e[0:mr2 + 1, r]
        d = np.zeros(npts, dtype=complex)
        d[0] = fp[0]
        for r in range(1, m + 1):
            d[2 * r - 1] = -q[0, r - 1]
            d[2 * r] = -e[0, r]
        z = complex(math.cos(math.pi * t / big_t), math.sin(math.pi * t / big_t))
        va = np.zeros(npts + 1, dtype=complex)
        vb = np.zeros(npts + 1, dtype=complex)
        va[1] = d[0]
        vb[0] = 1.0
        vb[1] = 1.0
        for i in range(1, 2 * m):
            va[i + 1] = va[i] + d[i] * z * va[i - 1]
            vb[i + 1] = vb[i] + d[i] * z * vb[i - 1]
        brem = (1.0 + (d[2 * m - 1] - d[2 * m]) * z) / 2.0
        rem = -brem * (1.0 - np.sqrt(1.0 + d[2 * m] * z / brem ** 2))
        va[npts] = va[2 * m] + rem * va[2 * m - 1]
        vb[npts] = vb[2 * m] + rem * vb[2 * m - 1]
        pade = va[npts] / vb[npts]
    pref = math.exp(min(gamma * t, 700.0)) / big_t
    value = pref * pade.real
    if not math.isfinite(value):
        return math.nan, math.inf, npts
    return value, pref * _EPS * np.sum(np.abs(fp)), npts


def invert_numeric(tf, t, target_digits=8):
    """Invert ``tf`` at time ``t`` aiming at ``target_digits`` digits.

    The target is ``10**-target_digits * max(1, |value|)``: absolute below
    1, relative above.  Returns an :class:`IltResult`; ``converged`` is
    False when no stage's error estimate met the target, in which case
    ``value`` is the attempt with the smallest error estimate.
    """
    if not isinstance(tf, TransformFn):
        raise TypeError("tf must be a TransformFn")
    if not 4 <= target_digits <= 12:
        raise DomainError("target_digits must lie in [4, 12]")
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t < 1e-6 * tf.scale_hint:
        return IltResult(0.0, 0.0, True, "below-resolution", 0, t)

    tol = lambda v: 10.0 ** (-target_digits) * max(1.0, abs(v))
    goal = lambda v: 0.1 * tol(v)
    n0 = max(16, 2 * target_digits)
    value, est, aparam, neval = _euler_stage(
        tf, t, max(1.0, target_digits * _LN10), n0, goal)
    best = IltResult(value, est, est <= tol(value), "euler", neval, t)
    if best.converged:
        return best

    degree0 = max(24, 3 * target_digits)
    for degree in (degree0, 2 * degree0):
        v1, r1, n1 = _dehoog_attempt(tf, t, aparam, degree, 2.0)
        v2, r2, n2 = _dehoog_attempt(tf, t, aparam + _LN10, degree, 1.43)
        neval += n1 + n2
        if math.isnan(v1) or math.isnan(v2):
            continue
        est = abs(v1 - v2) + r1 + r2
        cand = IltResult(v2, est, est <= tol(v2), "dehoog", neval, t)
        if est < best.error_estimate:
            best = cand
        if cand.converged:
            return cand

    return IltResult(best.value, best.error_estimate, False,
                     best.method + "-unconverged", neval, t)
