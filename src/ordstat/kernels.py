"""Nested ordered-region integrals and their single-kernel closed forms.

A chain of ``d`` ordered variables weighted by ``w(x) = p(x) exp(lam*x)``
collapses to a single kernel power over the chain's open end:

* descending below an upper bound:  ``c(gamma_up, lam)^d / d!``
* ascending above a lower bound:    ``e(gamma_lo, lam)^d / d!``
* confined to an interval:          ``mu(gamma_lo, gamma_hi, lam)^d / d!``

``*_bruteforce`` evaluates the same objects as literal nested integrals
(depth capped at 4) and exists purely as an independent oracle for the
closed forms.  Every variable runs over one grid on [lo, hi]: the n + 1
Chebyshev-Lobatto points of ``rules._clenshaw_curtis``, mapped affinely,
or for ``hi = inf`` through ``x = lo + L*u/(1 - u)`` with ``L = 8 *
dist.mean``.  The weight is ``dist.pdf`` on the grid.  The variables go
by elimination: a factor on each edge of the chain hi, g1, ..., gd, lo
holds the integral over the variables eliminated between its two ends,
per grid point of each free end, and eliminating a variable merges the
factors on its two edges by the cumulative-integration matrix of
Clenshaw-Curtis, which integrates from any grid point to any other.  A
variable next to hi or lo has that bound as one fixed grid point, so a
chain runs on vectors at O(n^2) per level, and any elimination order on
tables at O(n^3), where a tensor rule pays n^(d-1) nodes at depth d.
The first-eliminated variable is ``kernel_mu`` of its two limits on the
grid: it integrates the bare weight, and the collapse under test lives
in the levels that follow.  A depth-1 chain stays literal, since there
the kernel would be the whole answer.  The rule runs under
``rules._doubled``, the n/2n loop of every rule of the library, on the
pair of ``rules._paired``: the grids are nested, n doubles until the
rules of n and 2n agree, and the value of 2n is returned.

:func:`reorder_check` integrates the separable 4-variable ordered-region
integrand under any elimination order, each variable between its nearest
still-symbolic neighbours (tightest-limit rule).  All 24 orders describe
the same region; the named :data:`FIVE_ORDERINGS` plus
:data:`ORIGINAL_ORDERING` are the canonical spot-check set.
"""

import math
from dataclasses import dataclass

import numpy as np

from ordstat.distributions import _weight
from ordstat.errors import ConvergenceError, DomainError
from ordstat.rules import (_clenshaw_curtis, _doubled, _paired,
                           _semi_infinite)

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

# n/2n agreement of the rules, relative only: the brute force is sized
# for an identity check at 1e-7 relative, reorder_check for one at 1e-9.
# An absolute floor stops the loop early on values near it.
_EPSREL = 1e-10
_NESTED_EPSREL = 1e-8
_FIRST_NODES = 8
# The rule stops, and warns, at this n.  There the tables of an order
# whose first variable has two free neighbours hold 513^2 entries: on the
# half-normal with complex lam, such a rule takes 0.14 s and 23 MB on a
# 2-core host.
_MAX_NODES = 512
# The first variable's kernel table goes to ``kernel_mu`` in blocks of
# rows of at most this many pairs: on a custom law, whose kernels are
# numeric, one call on the 131k pairs of n = 512 held about 52 MB.
_KERNEL_PAIRS = 2 ** 15
# Semi-infinite grids map with L = _TAIL_SCALE * dist.mean.  On five
# oscillating weights (complex lam, depth 2), 8 needed no larger n than 4
# or 16 did.
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


def _rule(dist, order, lo, hi, lam, n):
    """The rule of n on {hi >= g1 >= ... >= gd >= lo}, by elimination.

    ``order`` is the elimination order, first-integrated variable first.
    ``factor[a, b]``, absent while it is 1, is the factor on the edge
    between a and b of the chain 0 (hi), 1, ..., d, d + 1 (lo): a row per
    grid point of a and a column per grid point of b, where hi is the
    grid's last point alone and lo its first.  Eliminating v, with
    nearest remaining neighbours a >= v >= b, merges the factors of
    (a, v) and (v, b) into
    psi(a, b) = sum_v (S[a, v] - S[b, v]) W_v phi(a, v) phi(v, b),
    with W the weight times dx/dt.  The first variable gives ``kernel_mu``
    from x_b up to x_a instead, 0 where they meet, and where both ends
    are free minus the kernel of each pair the other way round: its
    smooth continuation, which keeps the table antisymmetric.
    """
    t, s = _clenshaw_curtis(n)
    if math.isinf(hi):
        # The last point, u = 1, is inf, where the weight is 0.
        x, jac = _semi_infinite(lo, _TAIL_SCALE * dist.mean,
                                0.5 * (1.0 + t[:-1]), 0.5)
        x, w = np.append(x, hi), np.append(_weight(dist, x, lam) * jac, 0.0)
    else:
        # Rounding must not lift a point past hi.
        x = np.minimum(lo + 0.5 * (hi - lo) * (1.0 + t), hi)
        w = _weight(dist, x, lam) * (0.5 * (hi - lo))
    depth, every = len(order), np.arange(n + 1)
    at = {0: np.array([n]), depth + 1: np.array([0])}
    chain, factor = list(range(depth + 2)), {}
    for k, v in enumerate(order):
        i = chain.index(v)
        a, b = chain[i - 1], chain[i + 1]
        del chain[i]
        ia, ib = at.get(a, every), at.get(b, every)
        if depth > 1 and k == 0:
            psi = np.zeros((ia.size, ib.size), w.dtype)
            step = max(1, _KERNEL_PAIRS // ib.size)
            for r0 in range(0, ia.size, step):
                r, c = np.nonzero(x[ia[r0:r0 + step], None] > x[ib])
                r += r0
                psi[r, c] = dist.kernel_mu(x[ib[c]], x[ia[r]], lam)
            both = ia.size > 1 and ib.size > 1
            factor[a, b] = psi - psi.T if both else psi
            continue
        fa = factor.pop((a, v), np.ones((ia.size, n + 1)))
        fb = factor.pop((v, b), np.ones((n + 1, ib.size)))
        factor[a, b] = ((s[ia] * (w * fa)) @ fb
                        - (w * fa) @ (s[ib].T * fb))
    return factor[0, depth + 1][0, 0]


def _ordered(dist, order, lo, hi, lam, epsrel):
    """Integral of prod w(g_i) over {hi >= g1 >= ... >= gd >= lo}.

    ``_rule`` runs under ``rules._doubled`` from n = ``_FIRST_NODES`` until
    the rules of n and 2n agree to ``epsrel`` relative, and warns at n =
    ``_MAX_NODES``.  A value that is not finite raises
    :class:`ConvergenceError`.
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

    est = _doubled(_paired(rule), _FIRST_NODES, [lo], [hi], 0.0, epsrel,
                   _MAX_NODES)[0]
    return complex(est) if cplx else float(est)


def _nested(dist, depth, lam, lo, hi, descending):
    """``depth`` ordered variables in [lo, hi], by :func:`_ordered`.

    ``descending`` picks the elimination order: the smallest variable
    first, against ``lo``, and the largest last; otherwise the largest
    first, against ``hi``.  Both orders describe the same region.
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
    """Oracle for :func:`iprime_closed`: each variable from
    ``gamma_lower`` up to its parent, the largest to infinity."""
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
