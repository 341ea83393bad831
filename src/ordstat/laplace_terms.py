"""Exact transform-domain algebra for the exponential closed forms.

Powers of the exponential moment kernels are finite sums of terms

    A * exp(-b*s) / (s + a)^n

with a common pole ``a`` (the exponential rate).  Writing the coefficient
as ``A = rat * a^n * exp(-a*b)`` with ``rat`` rational makes the whole
family closed under multiplication with *exact* coefficient arithmetic:
rationals multiply, shifts add, orders add.  Binomial cancellation (for
instance an interval kernel with equal endpoints) then cancels exactly
instead of leaving roundoff dust, and float conversion happens once, at
evaluation time.

Inversion maps each term to ``rat * a^n/(n-1)! * (z-b)^(n-1) * exp(-a*z)``
supported on ``z >= b``; a :class:`PiecewisePoly` holds the resulting sum
and evaluates it with compensated summation, smallest coefficients first.
The step convention is closed on the left: a term counts exactly at its
threshold.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ordstat import _backend
from ordstat.errors import DomainError, MixedPoleError

__all__ = [
    "LaplaceTermSum",
    "PiecewisePoly",
    "exp_kernel_e_pow",
    "exp_kernel_c_pow",
    "exp_kernel_mu_pow",
    "multiply",
    "invert",
]


class LaplaceTermSum:
    """Sum of ``rat * a^n * exp(-a*b) * exp(-b*s) / (s+a)^n`` terms.

    ``terms`` maps ``(shift, order)`` to the rational ``rat``; shifts are
    kept as exact :class:`~fractions.Fraction` values of the (float) inputs
    so that algebraically equal shifts merge and cancel exactly.  Order 0
    is permitted only as the multiplicative identity (shift 0), which is
    what a zeroth kernel power produces.
    """

    __slots__ = ("pole", "_terms")

    def __init__(self, pole, terms=None):
        if pole <= 0:
            raise DomainError("pole must be positive")
        self.pole = float(pole)
        self._terms = {}
        if terms:
            for (shift, order), rat in terms.items():
                self._put(Fraction(shift), int(order), Fraction(rat))

    def _put(self, shift, order, rat):
        if order < 0:
            raise DomainError("term order must be nonnegative")
        if order == 0 and shift != 0:
            raise DomainError("order-0 terms must have zero shift")
        if shift < 0:
            raise DomainError("term shift must be nonnegative")
        key = (shift, order)
        acc = self._terms.get(key, Fraction(0)) + rat
        if acc == 0:
            self._terms.pop(key, None)
        else:
            self._terms[key] = acc

    @classmethod
    def identity(cls, pole):
        out = cls(pole)
        out._put(Fraction(0), 0, Fraction(1))
        return out

    @classmethod
    def zero(cls, pole):
        return cls(pole)

    @property
    def term_items(self):
        """Sorted ``((shift, order), rat)`` pairs with exact values."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))

    @property
    def terms(self):
        """Float view: list of ``(coeff, shift, pole, order)``."""
        a = self.pole
        out = []
        for (shift, order), rat in self.term_items:
            b = float(shift)
            out.append((float(rat) * a ** order * math.exp(-a * b), b, a, order))
        return out

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (isinstance(other, LaplaceTermSum)
                and self.pole == other.pole and self._terms == other._terms)

    def __repr__(self):
        return f"LaplaceTermSum(pole={self.pole:g}, nterms={len(self)})"

    def scaled(self, factor):
        """Multiply every coefficient by an exact rational factor."""
        out = LaplaceTermSum(self.pole)
        fac = Fraction(factor)
        for (shift, order), rat in self._terms.items():
            out._put(shift, order, rat * fac)
        return out

    def multiply(self, other):
        """Exact product; both sums must share the pole."""
        if not isinstance(other, LaplaceTermSum):
            raise TypeError("can only multiply by another LaplaceTermSum")
        if other.pole != self.pole:
            raise MixedPoleError(
                f"cannot multiply term sums with poles {self.pole} and {other.pole}")
        out = LaplaceTermSum(self.pole)
        for (s1, n1), r1 in self._terms.items():
            for (s2, n2), r2 in other._terms.items():
                out._put(s1 + s2, n1 + n2, r1 * r2)
        return out

    def eval_at(self, s):
        """Evaluate the transform at a complex point ``s``."""
        a = self.pole
        s = complex(s)
        total = 0j
        for (shift, order), rat in self.term_items:
            b = float(shift)
            w = -b * (s + a)
            term = float(rat) * _cexp_c(w)
            if order:
                term *= (a / (s + a)) ** order
            total += term
        return total

    def invert(self):
        """Inverse transform as a :class:`PiecewisePoly`."""
        a = self.pole
        rows = []
        for (shift, order), rat in self.term_items:
            if order == 0:
                raise DomainError(
                    "cannot invert an order-0 (constant) term to a function")
            coeff = float(rat / math.factorial(order - 1)) * a ** order
            rows.append((coeff, float(shift), order - 1, a))
        return PiecewisePoly(rows)


def _cexp_c(w):
    return complex(math.exp(w.real) * math.cos(w.imag),
                   math.exp(w.real) * math.sin(w.imag))


@dataclass(frozen=True)
class _PolyTerm:
    coeff: float
    threshold: float
    power: int
    decay: float


class PiecewisePoly:
    """Sum of ``coeff * (z-threshold)^power * exp(-decay*z)`` on ``z >= threshold``."""

    __slots__ = ("_terms", "_coeff", "_threshold", "_power", "_decay")

    def __init__(self, rows):
        terms = [_PolyTerm(float(c), float(t), int(p), float(d))
                 for (c, t, p, d) in rows]
        # Smallest magnitudes first: the compensated sum then absorbs the
        # large cancelling terms last, and the order is deterministic.
        terms.sort(key=lambda r: (abs(r.coeff), r.threshold, r.power, r.decay))
        self._terms = tuple(terms)
        self._coeff = np.ascontiguousarray([r.coeff for r in terms], dtype=float)
        self._threshold = np.ascontiguousarray([r.threshold for r in terms], dtype=float)
        self._power = np.ascontiguousarray([float(r.power) for r in terms], dtype=float)
        self._decay = np.ascontiguousarray([r.decay for r in terms], dtype=float)

    @property
    def terms(self):
        return self._terms

    def __len__(self):
        return len(self._terms)

    @property
    def support_min(self):
        return min((r.threshold for r in self._terms), default=0.0)

    def eval(self, z):
        """Value at a scalar ``z`` (0 below every threshold)."""
        return _backend.poly_exp_eval(self._coeff, self._threshold,
                                      self._power, self._decay, float(z))

    def eval_with_scale(self, z):
        """``(value, scale)`` where scale is the sum of term magnitudes."""
        return _backend.poly_exp_eval_scale(self._coeff, self._threshold,
                                            self._power, self._decay, float(z))

    def eval_many(self, zs):
        """Values at every point of the array ``zs``."""
        return _backend.poly_exp_eval(self._coeff, self._threshold,
                                      self._power, self._decay,
                                      np.asarray(zs, dtype=float))

    def to_json(self):
        """Serialize; field order and term order are part of the format."""
        return json.dumps({"terms": [
            {"coeff": r.coeff, "threshold": r.threshold,
             "power": r.power, "decay": r.decay}
            for r in self._terms]})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls([(r["coeff"], r["threshold"], r["power"], r["decay"])
                    for r in data["terms"]])

    def __repr__(self):
        return f"PiecewisePoly(nterms={len(self)})"


def _check_kernel_args(gamma_bar, m):
    if gamma_bar <= 0:
        raise DomainError("gamma_bar must be positive")
    if m < 0:
        raise DomainError("kernel power must be nonnegative")


def exp_kernel_e_pow(gamma_bar, z_a, m):
    """[e(z_a, -S)]^m for the exponential: a single shifted-pole term."""
    _check_kernel_args(gamma_bar, m)
    a = 1.0 / gamma_bar
    if m == 0:
        return LaplaceTermSum.identity(a)
    if math.isinf(z_a):
        return LaplaceTermSum.zero(a)
    out = LaplaceTermSum(a)
    out._put(m * Fraction(z_a), m, Fraction(1))
    return out


def exp_kernel_c_pow(gamma_bar, z_a, m):
    """[c(z_a, -S)]^m for the exponential: binomial sum over shifts j*z_a."""
    _check_kernel_args(gamma_bar, m)
    a = 1.0 / gamma_bar
    if m == 0:
        return LaplaceTermSum.identity(a)
    out = LaplaceTermSum(a)
    if math.isinf(z_a):
        out._put(Fraction(0), m, Fraction(1))
        return out
    za = Fraction(z_a)
    for j in range(m + 1):
        out._put(j * za, m, Fraction((-1) ** j * math.comb(m, j)))
    return out


def exp_kernel_mu_pow(gamma_bar, z_a, z_b, m):
    """[mu(z_a, z_b, -S)]^m for the exponential.

    Shifts are ``(m-j)*z_a + j*z_b``; with ``z_a == z_b`` every shift
    coincides and the binomial coefficients cancel to the empty sum.
    """
    _check_kernel_args(gamma_bar, m)
    if z_b < z_a:
        raise DomainError("need z_a <= z_b")
    a = 1.0 / gamma_bar
    if m == 0:
        return LaplaceTermSum.identity(a)
    if math.isinf(z_b):
        return exp_kernel_e_pow(gamma_bar, z_a, m)
    out = LaplaceTermSum(a)
    za, zb = Fraction(z_a), Fraction(z_b)
    for j in range(m + 1):
        out._put((m - j) * za + j * zb, m, Fraction((-1) ** j * math.comb(m, j)))
    return out


def multiply(lhs, rhs):
    """Module-level alias for :meth:`LaplaceTermSum.multiply`."""
    return lhs.multiply(rhs)


def invert(term_sum):
    """Module-level alias for :meth:`LaplaceTermSum.invert`."""
    return term_sum.invert()
