"""Step-sum kernel: sums of truncated power terms.

A term is ``coeff * (z - threshold)**power`` supported on ``z >= threshold``
(the step is closed on the left: a term counts exactly at its threshold).
Callers pass terms sorted by ascending ``|coeff|``; accumulation uses
Neumaier compensation so that the alternating sums produced by binomial
expansions lose as little as possible.  Powers are nonnegative integers,
as floats.

``poly_exp_eval`` takes either form of ``z``:

* a float ``z`` with thresholds of shape ``(T,)``: a pure Python loop over
  the terms.  It is kept for the exact T2 density at single points, whose
  outputs follow libm's ``pow`` rounding: numpy's ``power`` rounds some
  terms differently by an ulp, and at K=30 the cancellation of the
  alternating sum turns such an ulp into a relative change of the density
  of several 1e-9.
* a node array ``z``, with thresholds ``(T,)`` shared by every node or
  term-major ``(T, *nodes)``, a threshold per term and node whose node
  axes broadcast against ``z``: the same summation, in the same term
  order, as numpy operations over a terms-by-nodes array.  The running
  sums are a cumulative sum along the terms, and each compensation term
  comes from the branch-free two-sum against the previous running sum,
  which yields the same exact rounding error as the scalar loop's
  Neumaier branch.  Node values agree with the scalar loop to within a
  few ulps of the sum of |term|.

In the node form, ``pow`` runs only on the live terms, those at or above
their thresholds; at the nodes of the exact reductions most terms are
dead.  A dead term keeps the 0 of its clipped base, so that its product
with the coefficient is the signed zero that raising it and multiplying by
0 gives, and the running and compensated sums take the same values as
with every term raised.

``poly_exp_eval_scale`` takes the node form only; a float ``z`` with
thresholds ``(T,)`` is one node.
"""

import numpy as np

__all__ = ["poly_exp_eval", "poly_exp_eval_scale"]


def poly_exp_eval(coeff, threshold, power, z):
    """Evaluate a step sum of truncated power terms at ``z``."""
    if not (isinstance(z, float) and threshold.ndim == 1):
        return _nodes(coeff, threshold, power, z, False)[0]
    s = 0.0
    c = 0.0
    for i in range(len(coeff)):
        if z < threshold[i]:
            continue
        x = coeff[i] * (z - threshold[i]) ** power[i]
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


def poly_exp_eval_scale(coeff, threshold, power, z):
    """Like :func:`poly_exp_eval` on nodes, and also the sum of |term|.

    The second value bounds the roundoff scale of the cancellation, which
    is what nonnegativity of a density can honestly be measured against.
    """
    return _nodes(coeff, threshold, power, z, True)


def _nodes(coeff, threshold, power, z, scale):
    z = np.asarray(z, dtype=float)
    thr = np.asarray(threshold, dtype=float)
    # Terms along the first axis, nodes (if any) along the others.
    if thr.ndim == 1:
        thr = thr.reshape(-1, *(1,) * z.ndim)
    d = z - thr
    col = (-1,) + (1,) * (d.ndim - 1)
    live = d >= 0.0
    np.maximum(d, 0.0, out=d)
    p = power.reshape(col)
    np.power(d, p, out=d, where=live)
    if not power.all():
        # np.maximum keeps a nan base, which is dead; raised, it would give
        # pow(nan, 0) = 1 and then 0 for being dead.  At p = 0 the raised
        # term is ``live`` itself.
        np.copyto(d, live, where=p == 0.0)
    x = d
    x *= coeff.reshape(col)
    mag = np.abs(x).sum(axis=0) if scale else None
    # Running sums in term order, then the exact rounding error of each
    # addition: two-sum against the previous running sum, computed in place
    # as (x - bp) + (prev - (s - bp)).  The first term is added to 0: its
    # error is x - s, which is 0 (nan for an infinite term).
    s = np.cumsum(x, axis=0)
    bp = s[1:] - s[:-1]
    x[1:] -= bp
    np.subtract(s[1:], bp, out=bp)
    np.subtract(s[:-1], bp, out=bp)
    x[1:] += bp
    x[0] -= s[0]
    return s[-1] + x.sum(axis=0), mag
