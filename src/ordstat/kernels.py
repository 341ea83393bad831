"""Nested ordered-region integrals and their single-kernel closed forms.

A chain of ``d`` ordered variables weighted by ``w(x) = p(x) exp(lam*x)``
collapses to a single kernel power over the chain's open end:

* descending below an upper bound:  ``c(gamma_up, lam)^d / d!``
* ascending above a lower bound:    ``e(gamma_lo, lam)^d / d!``
* confined to an interval:          ``mu(gamma_lo, gamma_hi, lam)^d / d!``

``*_bruteforce`` evaluates the same objects as literal nested integrals
(depth capped at 4) and exists purely as an independent oracle for the
closed forms.  Each level but the innermost is a Gauss-Legendre rule
mapped onto its limits, which are affine in the outer variables; a
semi-infinite level maps ``[lo, inf)`` onto (0, 1) by
``x = lo + L*u/(1 - u)`` with ``L = 8 * dist.mean``.  The weight is
``dist.pdf`` on the whole node array.  The innermost level is
``kernel_mu`` of its two limits, also on the node array: it integrates
the bare weight, and the collapse under test lives in the outer levels.
A depth-1 chain stays literal, since there the kernel would be the whole
answer.  The tensor rule has n nodes on every level and runs under
``rules._doubled``, the n/2n loop of every rule of the library, on the
Gauss pair of ``rules._paired``: n doubles until the n- and 2n-node rules
agree, and the 2n-node value is returned.

:func:`reorder_check` integrates the separable 4-variable ordered-region
integrand under any elimination order, deriving each variable's limits from
its nearest still-symbolic neighbors (tightest-limit rule).  All 24 orders
describe the same region; the named :data:`FIVE_ORDERINGS` plus
:data:`ORIGINAL_ORDERING` are the canonical spot-check set.
"""

import math
from dataclasses import dataclass

import numpy as np

from ordstat.distributions import _weight
from ordstat.errors import ConvergenceError, DomainError
from ordstat.rules import _doubled, _legendre, _paired, _semi_infinite

__all__ = [
    "NestedIntegralSpec",
    "im_closed",
    "iprime_closed",
    "idoubleprime_closed",
    "im_bruteforce",
    "iprime_bruteforce",
    "idoubleprime_bruteforce",
    "reorder_check",
    "FIVE_ORDERINGS",
    "ORIGINAL_ORDERING",
]

# A placeholder: perfbench's tracer swaps a counting proxy into this
# name, and no ordstat code reads it.
integrate = None

MAX_BRUTE_DEPTH = 4

# n/2n agreement of the tensor rules: the brute force is sized for an
# identity check at 1e-7 relative, reorder_check for one at 1e-9.
_EPSABS = 1e-13
_EPSREL = 1e-10
_NESTED_EPSREL = 1e-8
_FIRST_NODES = 8       # per level, of the first rule
# The rule stops, and warns, at the first doubled n that reaches either
# cap.  Per level, leggauss(1024) would add about 19 MB to peak memory;
# in all, 2**21 nodes take 0.2 s (real lam) to 1.2 s (complex lam,
# half-normal) on a 2-core host.
_MAX_NODES = 512
_MAX_RULE = 2 ** 21
_BLOCK = 2 ** 13       # entries of the largest node array, about
# Semi-infinite levels map with L = _TAIL_SCALE * dist.mean.  On
# oscillating weights (complex lam) a larger L needs fewer nodes: at 8,
# every identity configuration the quick verify profile draws at seeds
# 1-40 converges without a warning.
_TAIL_SCALE = 8.0


@dataclass(frozen=True)
class NestedIntegralSpec:
    """Arguments of one nested ordered integral.

    ``gamma_upper`` bounds a descending chain, ``gamma_lower`` an ascending
    one; interval integrals need both.  ``lam`` may be complex.
    """

    depth: int
    lam: complex = 0.0
    gamma_upper: float = None
    gamma_lower: float = None

    def __post_init__(self):
        if self.depth < 0:
            raise DomainError("depth must be nonnegative")


def _wants_complex(lam):
    return isinstance(lam, complex) and lam.imag != 0.0


def im_closed(dist, spec):
    """Descending chain of ``depth`` variables below ``gamma_upper``."""
    if spec.gamma_upper is None:
        raise DomainError("im requires gamma_upper")
    val = dist.kernel_c(spec.gamma_upper, spec.lam) ** spec.depth
    return val / math.factorial(spec.depth)


def iprime_closed(dist, spec):
    """Ascending chain of ``depth`` variables above ``gamma_lower``."""
    if spec.gamma_lower is None:
        raise DomainError("iprime requires gamma_lower")
    val = dist.kernel_e(spec.gamma_lower, spec.lam) ** spec.depth
    return val / math.factorial(spec.depth)


def idoubleprime_closed(dist, spec):
    """Chain of ``depth`` variables inside [gamma_lower, gamma_upper]."""
    if spec.gamma_lower is None or spec.gamma_upper is None:
        raise DomainError("idoubleprime requires both bounds")
    val = dist.kernel_mu(spec.gamma_lower, spec.gamma_upper, spec.lam) ** spec.depth
    return val / math.factorial(spec.depth)


def _nodes(lo, hi, n, scale):
    """The n-node Gauss-Legendre rule on each ``[lo_i, hi_i]``, flattened.

    A finite level maps the rule affinely; one with ``hi = inf`` maps it
    through ``x = lo + scale * u / (1 - u)`` with ``u`` on (0, 1).
    Returns nodes and weights of shape ``(len(lo) * n,)``.
    """
    t, w = _legendre(n)
    lo = np.reshape(lo, (-1, 1))
    if np.ndim(hi) == 0 and math.isinf(hi):
        x, wx = _semi_infinite(lo, scale, 0.5 * (1.0 + t), 0.5 * w)
        wx = np.broadcast_to(wx, x.shape)
    else:
        hi = np.reshape(hi, (-1, 1))
        half = 0.5 * np.maximum(hi - lo, 0.0)
        # Rounding must not lift a node past hi: the node is a limit of
        # the levels within, and kernel_mu rejects reversed limits.
        x = np.minimum(lo + half * (1.0 + t), hi)
        wx = half * w
    return x.ravel(), wx.ravel()


def _rule(dist, order, lo, hi, lam, n):
    """The n-node tensor rule on {hi >= g1 >= ... >= gd >= lo}.

    ``order`` is the elimination order, first-integrated variable first.
    Each variable runs between its nearest outer neighbours, or ``lo``/
    ``hi`` where it has none.  The first-integrated variable is
    ``kernel_mu`` of its limits, unless it is the only one.
    """
    depth = len(order)
    scale = _TAIL_SCALE * dist.mean

    def level(k, env, weight):
        var, outer = order[k], order[k + 1:]
        below = [j for j in outer if j > var]
        above = [j for j in outer if j < var]
        a = env[min(below)] if below else lo
        b = env[max(above)] if above else hi
        if depth > 1 and k == 0:
            return weight @ dist.kernel_mu(a, b, lam)
        x, wx = _nodes(a, b, n, scale)
        weight = np.repeat(weight, n) * wx * _weight(dist, x, lam)
        if k == 0:
            return weight.sum()
        env = {j: np.repeat(v, n) for j, v in env.items()}
        env[var] = x
        # The levels within multiply the nodes by n**(k - 1), so the nodes
        # go on in blocks that keep every array near _BLOCK entries.
        step = max(1, _BLOCK // n ** (k - 1))
        return sum(level(k - 1, {j: v[i:i + step] for j, v in env.items()},
                         weight[i:i + step])
                   for i in range(0, len(x), step))

    return level(depth - 1, {}, np.ones(1))


def _ordered(dist, order, lo, hi, lam, epsrel):
    """Integral of prod w(g_i) over {hi >= g1 >= ... >= gd >= lo}.

    The tensor rule runs under ``rules._doubled`` from ``_FIRST_NODES`` per
    level, at ``_EPSABS``/``epsrel``, and warns at the first doubled n of
    ``_MAX_NODES`` per level or ``_MAX_RULE`` in all.  A value that is not
    finite raises :class:`ConvergenceError`.
    """
    cplx = _wants_complex(lam)
    lam = complex(lam) if cplx else float(complex(lam).real)
    if not hi > lo:
        return 0j if cplx else 0.0

    def rule(n, todo):
        est = _rule(dist, order, lo, hi, lam, n)
        if not np.isfinite(est):
            raise ConvergenceError(f"{n}-node rule on the ordered region "
                                   f"in [{lo:g}, {hi:g}] gave {est}")
        return np.array([[est]])

    cap = 2 * _FIRST_NODES
    while cap < _MAX_NODES and cap ** max(len(order) - 1, 1) < _MAX_RULE:
        cap *= 2
    est = _doubled(_paired(rule), _FIRST_NODES, [lo], [hi], _EPSABS, epsrel,
                   cap)[0]
    return complex(est) if cplx else float(est)


def _nested(dist, depth, lam, lo, hi, descending):
    """``depth`` ordered variables in [lo, hi], by :func:`_ordered`.

    ``descending`` picks the iteration order: the outermost level runs the
    largest variable over [lo, hi] and each inner one spans [lo, parent];
    otherwise the smallest comes first and inner levels span [parent, hi].
    Both orders describe the same region; descending is the one to use
    when ``hi`` is infinite, since only the outermost level is then
    semi-infinite.
    """
    if depth > MAX_BRUTE_DEPTH:
        raise DomainError(f"brute-force depth capped at {MAX_BRUTE_DEPTH}")
    if depth == 0:
        return 1.0 + 0j if _wants_complex(lam) else 1.0
    order = tuple(range(depth, 0, -1)) if descending else \
        tuple(range(1, depth + 1))
    return _ordered(dist, order, lo, hi, lam, _NESTED_EPSREL)


def im_bruteforce(dist, spec):
    """Oracle for :func:`im_closed`: each variable from 0 up to its parent."""
    if spec.gamma_upper is None:
        raise DomainError("im requires gamma_upper")
    hi = float(spec.gamma_upper)
    if math.isinf(hi):
        if spec.depth > 0:
            dist._check_convergence(spec.lam)
        hi = dist.support_upper
    return _nested(dist, spec.depth, spec.lam, 0.0, hi, descending=True)


def iprime_bruteforce(dist, spec):
    """Oracle for :func:`iprime_closed`: largest variable first, down to
    ``gamma_lower``, so only the outermost level integrates to infinity."""
    if spec.gamma_lower is None:
        raise DomainError("iprime requires gamma_lower")
    lo = float(spec.gamma_lower)
    if math.isinf(lo):
        return 0j if _wants_complex(spec.lam) else 0.0
    if spec.depth > 0 and math.isinf(dist.support_upper):
        dist._check_convergence(spec.lam)
    return _nested(dist, spec.depth, spec.lam, lo, dist.support_upper,
                   descending=True)


def idoubleprime_bruteforce(dist, spec):
    """Oracle for :func:`idoubleprime_closed`: ascending chain, capped above."""
    if spec.gamma_lower is None or spec.gamma_upper is None:
        raise DomainError("idoubleprime requires both bounds")
    if spec.gamma_upper < spec.gamma_lower:
        raise DomainError("need gamma_lower <= gamma_upper")
    hi = min(float(spec.gamma_upper), dist.support_upper) \
        if math.isinf(spec.gamma_upper) else float(spec.gamma_upper)
    if math.isinf(hi):
        dist._check_convergence(spec.lam)
    return _nested(dist, spec.depth, spec.lam, float(spec.gamma_lower), hi,
                   descending=False)


# Elimination orders (first-integrated variable first) of the canonical
# interchange identities for the 4-variable ordered-region integral.
ORIGINAL_ORDERING = (4, 3, 2, 1)
FIVE_ORDERINGS = (
    (1, 2, 3, 4),
    (1, 4, 3, 2),
    (2, 4, 1, 3),
    (2, 3, 4, 1),
    (2, 3, 1, 4),
)


def reorder_check(dist, order, bounds, lam=0.0):
    """Integrate over {gamma_a >= g1 >= g2 >= g3 >= g4 >= gamma_b}.

    Parameters
    ----------
    order : tuple of int
        Permutation of (1, 2, 3, 4): the elimination order.  Limits for
        each variable are the values of its nearest not-yet-integrated
        neighbors, falling back to the outer bounds.
    bounds : (float, float)
        ``(gamma_b, gamma_a)`` with ``gamma_b <= gamma_a``; ``gamma_a`` may
        be ``inf`` when the weighted integrand converges.
    """
    if sorted(order) != [1, 2, 3, 4]:
        raise DomainError(f"not an elimination order of 4 variables: {order!r}")
    gb, ga = float(bounds[0]), float(bounds[1])
    if gb < 0 or ga < gb:
        raise DomainError("need 0 <= gamma_b <= gamma_a")
    if math.isinf(ga):
        dist._check_convergence(lam)
        ga = min(ga, dist.support_upper)
    return _ordered(dist, tuple(order), gb, ga, lam, _EPSREL)
