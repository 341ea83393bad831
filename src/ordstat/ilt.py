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

``invert_rows`` inverts an array of times, each a row with its own state:
contour, truncation, best value and estimate, aliasing and node count.
The Euler stage runs the rows in lockstep.  One call of the transform
evaluates the nodes that the open rows lack, one Euler pass runs on all
of them as array operations, and a row that is done drops out; so a grid
takes as many calls as its costliest row alone.  A row's bits do not
depend on its neighbours: node values are elementwise, each Euler mean
sums on its own, and reductions run along rows.  Rows the Euler stage
leaves open go on to de Hoog one at a time.  ``invert_numeric`` is the
one-row case.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ordstat.errors import DomainError

__all__ = ["TransformFn", "IltResult", "IltRows", "invert_numeric",
           "invert_rows"]


@dataclass(frozen=True)
class TransformFn:
    """A Laplace transform with its analyticity bound.

    ``f`` takes a complex array of s and returns the transform at each,
    as an array of the same shape, each element on its own: the inverter
    evaluates the nodes of many lines in one call, :meth:`validate` one
    point at a time (0-d arrays).  It must be analytic for
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


@dataclass(frozen=True, eq=False)
class IltRows:
    """The results of :func:`invert_rows`, one element per time: the
    arrays ``t``, ``value``, ``error_estimate``, ``converged``, ``method``
    (of str) and ``neval``.  ``rows[i]`` is element i as an
    :class:`IltResult`."""

    t: np.ndarray
    value: np.ndarray
    error_estimate: np.ndarray
    converged: np.ndarray
    method: np.ndarray
    neval: np.ndarray

    def __len__(self):
        return self.t.size

    def __getitem__(self, i):
        return IltResult(self.value[i], self.error_estimate[i],
                         self.converged[i], self.method[i],
                         int(self.neval[i]), float(self.t[i]))


_EPS = float(np.finfo(float).eps)
_LN10 = math.log(10.0)
_M_AVG = 12          # binomial averaging order of the Euler stage
_N_MAX = 1024        # most series terms the Euler stage sums
_MAX_RAISES = 4      # contour raises after the first aliasing measurement
# The binomial weights of the Euler means, and the offsets of their
# windows of partial sums, one window per row.
_BINOM = np.array([math.comb(_M_AVG, j) for j in range(_M_AVG + 1)],
                  dtype=float) / 2.0 ** _M_AVG
_WINDOWS = np.add.outer(np.arange(_M_AVG + 1), np.arange(_M_AVG + 1))
# The factors that turn node values into the terms of the trapezoidal
# series: alternating signs, and half the first.
_SIGNS = np.where(np.arange(_N_MAX + _M_AVG + 1) % 2, -1.0, 1.0)
_SIGNS[0] = 0.5


def _line(sigma, imag):
    """Nodes ``sigma + i imag`` of Bromwich lines, for an array of imag and
    abscissas sigma that broadcast to its shape."""
    s = np.empty(imag.shape, dtype=complex)
    s.real = sigma
    s.imag = imag
    return s


def _tol(v, digits):
    """The target ``10**-digits * max(1, |v|)`` of a value (array); a nan
    value gets the absolute target."""
    return 10.0 ** (-digits) * np.fmax(1.0, np.abs(v))


def _euler_pass(vals, n_trunc, pref):
    """One Euler pass at truncation ``n_trunc`` on every row of ``vals``,
    the values of a line's first ``n_trunc + _M_AVG + 1`` nodes, with the
    prefactor ``exp(sigma t) / t`` of each row.

    Returns each row's value and its truncation plus roundoff estimate
    (nan and inf where either is not finite).  Every operation acts on one
    row alone: each Euler mean is a sum in fixed order, and the reductions
    run along rows.
    """
    terms = vals.real * _SIGNS[:vals.shape[1]]
    # The Euler (binomial) means of the partial sums in the windows that
    # start at n_trunc - _M_AVG .. n_trunc: each window's weighted terms
    # summed from its first, one after another.
    windows = terms.cumsum(axis=1)[:, n_trunc - _M_AVG + _WINDOWS]
    means = (windows * _BINOM).cumsum(axis=2)[:, :, -1]
    value = pref * means[:, -1]
    est = pref * (np.abs(means - means[:, -1:]).max(axis=1)
                  + _EPS * np.abs(vals).sum(axis=1))
    bad = ~(np.isfinite(value) & np.isfinite(est))
    value[bad] = math.nan
    est[bad] = math.inf
    return value, est


def _euler_stage(tf, t, a0, n0, digits):
    """The Euler stage on a 1-d array of t, every row in lockstep.

    Each row runs Euler lines on rising contours, from ``A = a0``, until
    the estimate of its last line, aliasing included, meets its goal (a
    tenth of the target) or aliasing no longer dominates it.  On each line
    the truncation doubles, from ``n0``, until the line's estimate meets
    the goal or a doubling gains less than 4x.  One kernel call evaluates
    the nodes that the open rows lack; then every row that has its nodes
    takes an Euler pass, grouped by truncation, until none has.  So the
    calls are as many as the costliest row makes alone.

    Returns the value, estimate and ``A`` of each row's line with the
    smallest estimate, and the nodes each row evaluated.
    """
    rows = t.size
    goal = lambda v: 0.1 * _tol(v, digits)
    width = _M_AVG + 1
    first = n0 + width
    # The lines at a0 and a0 + ln 10 always run, and each starts with the
    # nodes of truncation n0: one call evaluates both sets.
    k = np.arange(first) * (math.pi / t[:, None])
    vals, ahead = tf(np.stack([
        _line(tf.abscissa + aparam / (2.0 * t[:, None]), k)
        for aparam in (a0, a0 + _LN10)]))
    have = np.full(rows, first)
    # Per row: the current line's contour A, abscissa sigma and prefactor
    # exp(sigma t) / t, the raise that led to it, its number (0 at a0),
    # truncation and best pass; the last line's value; the stage's best
    # line; and the nodes of the lines that are over.
    a = np.full(rows, a0)
    sigma, pref = np.empty(rows), np.empty(rows)

    def contour(r):
        sigma[r] = tf.abscissa + a[r] / (2.0 * t[r])
        pref[r] = np.exp(np.minimum(sigma[r] * t[r], 700.0)) / t[r]

    contour(slice(None))
    delta = np.full(rows, _LN10)
    line = np.zeros(rows, dtype=int)
    n = np.full(rows, n0)
    line_v, line_e = np.full(rows, math.nan), np.full(rows, math.inf)
    v_prev = np.full(rows, math.nan)
    best_v, best_e = np.full(rows, math.nan), np.full(rows, math.inf)
    best_a = np.full(rows, a0 + _LN10)
    neval = np.zeros(rows, dtype=int)
    is_open = np.ones(rows, dtype=bool)
    live = np.arange(rows)
    while live.size:
        ready = live[have[live] >= n[live] + width]
        if not ready.size:
            # One call evaluates the nodes every open row lacks.
            need = n[live] + width
            count = need - have[live]
            r = np.repeat(live, count)
            k = np.arange(count.sum()) + np.repeat(
                have[live] - np.cumsum(count) + count, count)
            if need.max() > vals.shape[1]:
                wider = np.empty((rows, max(need.max(), 2 * vals.shape[1])),
                                 dtype=complex)
                wider[:, :vals.shape[1]] = vals
                vals = wider
            vals[r, k] = tf(_line(sigma[r], k * (math.pi / t[r])))
            have[live] = need
            ready = live
        value, est = np.empty(rows), np.empty(rows)
        nr = n[ready]
        for nt in set(nr.tolist()):
            g = ready[nr == nt]
            value[g], est[g] = _euler_pass(vals[g, :nt + width], nt, pref[g])
        value, est = value[ready], est[ready]
        improved = est < 0.25 * line_e[ready]
        better = est < line_e[ready]
        line_v[ready[better]] = value[better]
        line_e[ready[better]] = est[better]
        over = ((line_e[ready] <= goal(line_v[ready])) | ~improved
                | (2 * nr > _N_MAX))
        n[ready[~over]] *= 2
        done = ready[over]
        if not done.size:
            continue
        neval[done] += have[done]
        # A line after the first measures aliasing against the line before;
        # a row goes on to a higher line unless that estimate meets the
        # goal, aliasing no longer dominates it, or the raises are spent.
        # A block with no rows is skipped: each of its operations costs a
        # numpy call, which dominates when a few rows are left.
        first_line = line[done] == 0
        fr = done[~first_line]
        go = fr
        if fr.size:
            v, e = line_v[fr], line_e[fr]
            aliasing = np.abs(v_prev[fr] - v) / np.expm1(delta[fr])
            aliasing[~np.isfinite(aliasing)] = math.inf
            total = e + aliasing
            win = total < best_e[fr]
            best_v[fr[win]] = v[win]
            best_e[fr[win]] = total[win]
            best_a[fr[win]] = a[fr[win]]
            stop = ((total <= goal(v)) | (aliasing <= e)
                    | (line[fr] > _MAX_RAISES))
            is_open[fr[stop]] = False
            live = live[is_open[live]]
            go = fr[~stop]
            delta[go] = np.maximum(_LN10,
                                   np.log(aliasing[~stop] / goal(v[~stop])))
            have[go] = 0
        # The first line goes on to the second, at a0 + ln 10, whose first
        # nodes are in ``ahead``.
        f0 = done[first_line]
        if f0.size:
            vals[f0, :first] = ahead[f0]
            have[f0] = first
            go = np.concatenate([f0, go])
        if not go.size:
            continue
        v_prev[go] = line_v[go]
        a[go] += delta[go]
        contour(go)
        line[go] += 1
        n[go] = n0
        line_v[go], line_e[go] = math.nan, math.inf
    return best_v, best_e, best_a, neval


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


def _dehoog_stage(tf, t, aparam, digits, value, est):
    """De Hoog on two contours at rising degree, for one row that the
    Euler stage left at ``(value, est)`` on the contour ``aparam``.

    Returns the value, estimate, ``converged``, method and node count.
    """
    best = (value, est, "euler")
    neval = 0
    degree0 = max(24, 3 * digits)
    for degree in (degree0, 2 * degree0):
        v1, r1, n1 = _dehoog_attempt(tf, t, aparam, degree, 2.0)
        v2, r2, n2 = _dehoog_attempt(tf, t, aparam + _LN10, degree, 1.43)
        neval += n1 + n2
        if math.isnan(v1) or math.isnan(v2):
            continue
        est = abs(v1 - v2) + r1 + r2
        if est <= _tol(v2, digits):
            return v2, est, True, "dehoog", neval
        if est < best[1]:
            best = (v2, est, "dehoog")
    return best[0], best[1], False, best[2] + "-unconverged", neval


# Rows the Euler stage runs at once: a row's node values take up to 17 KB,
# at the largest truncation.
_ROWS = 256


def invert_rows(tf, t, target_digits=8):
    """Invert ``tf`` at a 1-d array (or sequence) of times ``t``, aiming at
    ``target_digits`` digits at each; an :class:`IltRows`.

    Each time is a row of its own with the target and stages of
    :func:`invert_numeric`, and gets the same result to the bit: the
    Euler stage runs the rows in lockstep, and a row's bits do not depend
    on the others.  Times below resolution get 0 without inversion.
    """
    if not isinstance(tf, TransformFn):
        raise TypeError("tf must be a TransformFn")
    if not 4 <= target_digits <= 12:
        raise DomainError("target_digits must lie in [4, 12]")
    t = np.array(t, dtype=float).ravel()
    if (t < 0).any():
        raise DomainError("t must be nonnegative")
    value, est = np.zeros(t.size), np.zeros(t.size)
    converged = np.ones(t.size, dtype=bool)
    method = np.full(t.size, "below-resolution", dtype=object)
    neval = np.zeros(t.size, dtype=int)
    run = np.flatnonzero(~(t < 1e-6 * tf.scale_hint))
    method[run] = "euler"
    n0 = max(16, 2 * target_digits)
    a0 = max(1.0, target_digits * _LN10)
    for i in range(0, run.size, _ROWS):
        r = run[i:i + _ROWS]
        value[r], est[r], aparam, neval[r] = _euler_stage(
            tf, t[r], a0, n0, target_digits)
        converged[r] = est[r] <= _tol(value[r], target_digits)
        for j in np.flatnonzero(~converged[r]):
            row = r[j]
            (value[row], est[row], converged[row], method[row],
             n) = _dehoog_stage(tf, float(t[row]), float(aparam[j]),
                                target_digits, value[row], est[row])
            neval[row] += n
    return IltRows(t, value, est, converged, method, neval)


def invert_numeric(tf, t, target_digits=8):
    """Invert ``tf`` at time ``t`` aiming at ``target_digits`` digits.

    The target is ``10**-target_digits * max(1, |value|)``: absolute below
    1, relative above.  Returns an :class:`IltResult`; ``converged`` is
    False when no stage's error estimate met the target, in which case
    ``value`` is the attempt with the smallest error estimate.  This is
    the one-row case of :func:`invert_rows`.
    """
    return invert_rows(tf, [t], target_digits)[0]
