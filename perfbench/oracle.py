"""Reference values and the output checker.

Every tabulated point gets one kind of check, chosen by its path and
shape:

* ``mpmath``: an arbitrary-precision evaluation of the closed form.
  Exact T1 (Erlang), T2 (alternating-binomial step sum, summed in exact
  rational arithmetic), T4 (one ``mpmath.quad``), T5 case d and T6 with
  ``m = Ks - 1`` (the closed fine density of rank Ks against the sum above
  it); also generic T1 on ``exp:1`` at K >= 10.
* ``exact``: generic-path points on ``exp:1`` at K <= 6 against the exact
  path at the same point.
* ``order2``: exact T5 cases a-c at K >= 10 against
  ``BestKsOneVsRest.reduce_to_2d(order=2)``, which eliminates the
  variables in the other order.
* ``finite``: everything else is only checked to be finite and not
  negative beyond roundoff.

A point fails when it is not finite, is below ``-FLOOR``, or differs from
its reference by more than its path's tolerance relative to
``max(|value|, |reference|, FLOOR)``.  Every point of a grid whose call
raised or returned non-zero fails too.  References are computed after the
timed passes, in the calling process.
"""

import json
import math
from collections import Counter
from fractions import Fraction

import mpmath

from ordstat import exact_exp, verify

DPS = 30
FLOOR = 1e-9                     # verify's relative-error floor
TOL_EXACT = exact_exp._EPSREL    # 1e-8, the exact path's own target
TOL_CROSS = verify.TOL_CROSS     # 1e-5, generic and cross-path checks

# Grids with defects the project already tracks, keyed by ``(path,
# distribution, family, K)``, and the worst each may show: the share of
# its points that fail, and a failing point's error relative to its
# reference, ``|v - r| / max(|r|, FLOOR)``; for a grid with no reference,
# a negative value's ``|v| / FLOOR``.  Their failures count in ``failed``
# like any other.  A failure leaves ``correct`` true only while its grid
# stays within both caps; a non-finite value, a grid beyond a cap or a
# failure in any other grid makes the run incorrect.  Over seeds 1-400
# each share below 1 stayed below half its cap and each error below a
# fifth of its cap (perfbench/README.md).
#   exact T2: the alternating step sum cancels (ROADMAP item C).  Typical
#       points pass up to K=20; points near the support edges fail at
#       every K, down to negative values at K >= 20.
#   exact T5a at K >= 20: the same cancellation leaves noise where the
#       density is near zero, and the two reduction orders disagree.
#   generic T1 at K >= 10: the inversion is off by 2e-4 on exp:1 at K=10,
#       returns 1.12 for 0.0888 at K=20 and 5.1e4 for 0.0726 at K=30, and
#       goes negative in the far tail of halfnormal:1 at K=30 (item B).
#       On exp:1 every point fails, so only the error cap binds there.
KNOWN_DEFECTS = {
    ("exact", "exp:1", "T2", 5): (0.04, 1e-6),
    ("exact", "exp:1", "T2", 10): (0.25, 1e-2),
    ("exact", "exp:1", "T2", 20): (0.55, 1e3),
    ("exact", "exp:1", "T2", 30): (0.7, 5e7),
    ("exact", "exp:1", "T5a", 20): (0.06, 2e-4),
    ("exact", "exp:1", "T5a", 30): (0.17, 1e-2),
    ("generic", "exp:1", "T1", 10): (1.0, 1e-3),
    ("generic", "exp:1", "T1", 20): (1.0, 100.0),
    ("generic", "exp:1", "T1", 30): (1.0, 5e6),
    ("generic", "halfnormal:1", "T1", 30): (0.13, 1e4),
}


def _mpf(x):
    return mpmath.mpf(float(x))


def erlang(K, x):
    """Density of the sum of K unit exponentials."""
    if x < 0:
        return mpmath.mpf(0)
    x = _mpf(x)
    return x ** (K - 1) * mpmath.exp(-x) / mpmath.factorial(K - 1)


def one_vs_rest(K, m, z1, z2):
    """Joint density of (rank-m value, sum of the other K-1), unit mean.

    ``K!/((K-m)!(m-1)!(K-2)!) e^{-z1-z2}
    sum_j (-1)^j C(K-m, j) (z2 - (m-1+j) z1)_+^{K-2}``, with the sum taken
    exactly: the inputs are binary fractions, so no digit cancels.
    """
    if z1 < 0 or z2 < 0:
        return mpmath.mpf(0)
    f1, f2 = Fraction(z1), Fraction(z2)
    s = Fraction(0)
    for j in range(K - m + 1):
        d = f2 - (m - 1 + j) * f1
        if d >= 0:
            s += (-1) ** j * math.comb(K - m, j) * d ** (K - 2)
    s *= Fraction(math.factorial(K), math.factorial(K - m)
                  * math.factorial(m - 1) * math.factorial(K - 2))
    return (mpmath.mpf(s.numerator) / s.denominator
            * mpmath.exp(-(_mpf(z1) + _mpf(z2))))


def gsc_sum(K, Ks, x):
    """Density of the sum of the Ks largest of K unit exponentials."""
    if x <= 0:
        return mpmath.mpf(0)
    x = _mpf(x)
    pref = (mpmath.factorial(K) / (mpmath.factorial(K - Ks)
            * mpmath.factorial(Ks - 1) * mpmath.factorial(Ks - 2)))
    # z = x t / Ks keeps the integrand within [0, 1].
    val = mpmath.quad(lambda t: (-mpmath.expm1(-x * t / Ks)) ** (K - Ks)
                      * (1 - t) ** (Ks - 2), [0, 1])
    return pref * mpmath.exp(-x) * x ** (Ks - 1) / Ks * val


def last_vs_head(K, Ks, v, w):
    """Joint density of (rank-Ks value v, sum w of the Ks-1 above it)."""
    if v < 0 or w < (Ks - 1) * v:
        return mpmath.mpf(0)
    v, w = _mpf(v), _mpf(w)
    pref = (mpmath.factorial(K) / (mpmath.factorial(K - Ks)
            * mpmath.factorial(Ks - 1) * mpmath.factorial(Ks - 2)))
    return (pref * (-mpmath.expm1(-v)) ** (K - Ks)
            * (w - (Ks - 1) * v) ** (Ks - 2) * mpmath.exp(-v - w))


def _exact_density(op):
    f, K, Ks, m = op.tid[:2], op.K, op.Ks, op.m
    if f == "T1":
        return exact_exp.pdf_sum_all(K, 1.0)
    if f == "T2":
        return exact_exp.jpdf_one_vs_rest_allK(K, m, 1.0)
    if f == "T3":
        return exact_exp.jpdf_headsum_vs_tailsum_allK(K, m, 1.0)
    if f == "T4":
        return exact_exp.pdf_gsc_sum(K, Ks, 1.0)
    if f == "T5":
        return exact_exp.jpdf_one_vs_rest_bestKs(K, Ks, m, 1.0)
    return exact_exp.jpdf_headsum_vs_tailsum_bestKs(K, Ks, m, 1.0)


def reference(op):
    """``(kind, tolerance, fn)`` for the points of ``op``; fn is None for
    the finite/sign check."""
    K, Ks, m, tid = op.K, op.Ks, op.m, op.tid
    if op.path == "exact" and tid != "msgsc":
        if tid == "T1":
            return "mpmath", TOL_EXACT, lambda x: erlang(K, x)
        if tid == "T2":
            return "mpmath", TOL_EXACT, lambda x, y: one_vs_rest(K, m, x, y)
        if tid == "T4":
            return "mpmath", TOL_EXACT, lambda x: gsc_sum(K, Ks, x)
        if tid == "T5d":
            return "mpmath", TOL_EXACT, lambda x, y: last_vs_head(K, Ks, x, y)
        if tid == "T6" and m == Ks - 1:
            return "mpmath", TOL_EXACT, lambda x, y: last_vs_head(K, Ks, y, x)
        if tid in ("T5a", "T5b", "T5c") and K >= 10:
            jd = exact_exp.BestKsOneVsRest(K, Ks, m, 1.0)
            return ("order2", TOL_CROSS,
                    lambda x, y: jd.reduce_to_2d(x, y, order=2))
    if op.path == "generic" and op.dist == "exp:1":
        if K <= 6:
            return "exact", TOL_CROSS, _exact_density(op)
        if tid == "T1":
            return "mpmath", TOL_CROSS, lambda x: erlang(K, x)
    return "finite", None, None


def parse_csv(text):
    """Data rows of an ``ordstat`` CSV as tuples of floats."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for ln in lines[1:]:
        rows.append(tuple(float(v) for v in ln.split(",")))
    return rows


def rel_err(value, ref):
    return abs(value - ref) / max(abs(value), abs(ref), FLOOR)


def ref_err(value, ref):
    """Error relative to the reference alone, for the known-defect caps:
    unlike ``rel_err`` it keeps growing with a wrong value."""
    return abs(value - ref) / max(abs(ref), FLOOR)


class Checker:
    """Accumulates point checks over a job's operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0          # failures outside KNOWN_DEFECTS
        self.by_kind = Counter()
        self.failed_by_kind = Counter()
        self.failures = []           # (op id, point, value, reference)
        self.known = {}              # op id -> (failed, points, worst error)

    def _fail(self, op, kind, point, value, ref, known=False):
        self.failed += 1
        self.failed_by_kind[kind] += 1
        self.unexpected += not known
        self.failures.append((op.id, point, value, ref))

    def check_tab(self, op, result):
        kind, tol, fn = reference(op)
        share_cap, err_cap = KNOWN_DEFECTS.get(
            (op.path, op.dist, op.tid, op.K), (0.0, 0.0))
        rows = []
        if result["rc"] == 0:
            rows = parse_csv(result["text"])
        self.attempted += op.n_points
        self.by_kind[kind] += op.n_points
        for _ in range(op.n_points - len(rows)):
            self._fail(op, kind, None, None, result.get("error") or
                       f"exit code {result['rc']}")
        failed, worst = [], 0.0
        with mpmath.workdps(DPS):
            for row in rows[:op.n_points]:
                point, value = row[:-1], row[-1]
                ref = None if fn is None else float(fn(*point))
                ok = math.isfinite(value) and value >= -FLOOR
                if ok and ref is not None:
                    ok = rel_err(value, ref) <= tol
                if not ok:
                    err = math.inf
                    if math.isfinite(value):
                        err = ref_err(value, 0.0 if ref is None else ref)
                    failed.append((point, value, ref, err))
                    worst = max(worst, err)
        known = (len(failed) <= share_cap * op.n_points
                 and worst <= err_cap)
        for point, value, ref, _ in failed:
            self._fail(op, kind, point, value, ref, known)
        if err_cap:
            self.known[op.id] = (len(failed), op.n_points, worst)

    def check_verify(self, op, result):
        """A verify run: each check of its JSON report is one output."""
        text = result["text"] or ""
        try:
            report = json.loads(text[text.index("\n{") + 1:])
        except ValueError:
            report = None
        if report is None or result["rc"] != (0 if report["all_pass"]
                                              else 1):
            self.attempted += 1
            self._fail(op, "verify", None, None, "no consistent report")
            return
        for suite in report["suites"].values():
            for c in suite["checks"]:
                self.attempted += 1
                self.by_kind["verify"] += 1
                if not c["pass"]:
                    self._fail(op, "verify", c["name"], c["observed"],
                               c["bound"])

    def check(self, op, result):
        if op.group == "verify":
            self.check_verify(op, result)
        else:
            self.check_tab(op, result)
