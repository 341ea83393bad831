"""Minimum-selection combining statistics built on the exact joint densities.

A minimum-selection combiner ranks the L branch values decreasingly and
adds them one by one until the running sum reaches the threshold gamma_T,
so it combines the fewest best branches that suffice.  The stage where m
branches end up combined is the event {sum of best m-1 < gamma_T <= sum
of best m}, whose probability comes from the closed joint density of
(rank-m value v, sum w of the m-1 larger ones).  In v and the output
s = v + w the event is gamma_T <= s < min(x, gamma_T*m/(m-1)) and
max(0, s - gamma_T) <= v <= s/m: the line of the sum of the best m
(``reductions.t4``) with its floor raised to s - gamma_T.  Its limits are
affine in s, so one tensor Gauss-Kronrod rule covers it.  Both
functions take x as a float or as an array; an array integrates each
stage as one rule, with a row per element above gamma_T
(``rules._gauss_2d``), and not one rule per element.

When even all L branches together stay below gamma_T the combiner has
nothing left to add; what the output "is" in that event is a modelling
choice exposed as ``below_threshold``:

* ``"sum"``: the output is the full sum of all L branches (the combiner
  still forwards what it has), so the output CDF below gamma_T follows
  the plain L-fold sum.
* ``"outage"``: the output is declared zero (an outage indicator), so the
  whole shortfall probability sits as a CDF jump at 0+.

Both conventions agree for x > gamma_T up to where the shortfall mass is
booked, and coincide in the gamma_T -> 0 limit (best branch only).
"""

import math
from dataclasses import dataclass

import numpy as np

from ordstat.distributions import Exponential
from ordstat.errors import DomainError
from ordstat.exact_exp import FineLastHead, pdf_sum_all
from ordstat.mc_oracle import sample_sorted
from ordstat.reductions import _pow
from ordstat.rules import _gauss_2d

__all__ = [
    "MsGscConfig",
    "msgsc_stage_probability",
    "msgsc_output_cdf",
    "simulate_output",
]

# A placeholder: perfbench's tracer swaps a counting proxy into this
# name, and no ordstat code reads it.
integrate = None

_EPSABS = 1e-11
_EPSREL = 1e-9


@dataclass(frozen=True)
class MsGscConfig:
    """Combiner setup: L branches, threshold gamma_T, mean branch value.

    ``below_threshold`` picks the all-branches-short convention described
    in the module docstring.
    """

    L: int
    gamma_T: float
    gamma_bar: float
    below_threshold: str = "sum"

    def __post_init__(self):
        if self.L < 1:
            raise DomainError("need L >= 1")
        if not (math.isfinite(self.gamma_T) and self.gamma_T > 0):
            raise DomainError("need a finite gamma_T > 0")
        if not (math.isfinite(self.gamma_bar) and self.gamma_bar > 0):
            raise DomainError("need a finite gamma_bar > 0")
        if self.below_threshold not in ("sum", "outage"):
            raise DomainError("below_threshold must be 'sum' or 'outage'")


def _cdf_max(cfg, x):
    # CDF of the best of L branches, over an array (or scalar) of x.
    x = np.maximum(x, 0.0)
    return _pow(-np.expm1(-x / cfg.gamma_bar), cfg.L)


def _result(out):
    # A float for a scalar x, else the array.
    return float(out) if out.ndim == 0 else out


def msgsc_stage_probability(cfg, x, m):
    """P(best m-1 sum < gamma_T and gamma_T <= best m sum < x).

    The stage-m event: the combiner stops after adding its m-th branch
    and the output lands below x.  ``x`` is a float, which gives a float,
    or an array, which gives an array of its shape: the elements above
    gamma_T are the rows of one rule.
    """
    if not 1 <= m <= cfg.L:
        raise DomainError("need 1 <= m <= L")
    gt = cfg.gamma_T
    x = np.asarray(x, dtype=float)
    if m == 1:
        return _result(np.where(x > gt, _cdf_max(cfg, x) - _cdf_max(cfg, gt),
                                0.0))
    fine = FineLastHead(cfg.L, m, cfg.gamma_bar)
    # v: the m-th branch; s = v + w, the output, with w the sum of the
    # m-1 larger ones.
    return _gauss_2d(lambda s, v: fine.values(v, s - v), gt,
                     np.minimum(x, gt * m / (m - 1)),
                     lambda s: (s - gt, s / m),
                     deg=m - 2, epsabs=_EPSABS, epsrel=_EPSREL)


def msgsc_output_cdf(cfg, x):
    """P(combiner output < x) under the configured shortfall convention.

    ``x`` is a float or an array, as for ``msgsc_stage_probability``; each
    stage integrates every element in one rule.
    """
    x = np.asarray(x, dtype=float)
    gt = cfg.gamma_T
    erlang = pdf_sum_all(cfg.L, cfg.gamma_bar)
    # The shortfall's share below x: all of it at 0+ for "outage", the
    # plain L-fold sum below min(x, gamma_T) for "sum".
    below = erlang.cdf(gt if cfg.below_threshold == "outage"
                       else np.minimum(x, gt))
    stages = sum(msgsc_stage_probability(cfg, x, m=m)
                 for m in range(1, cfg.L + 1))
    return _result(np.where(x > 0, below + stages, 0.0))


def simulate_output(cfg, n_samples, seed):
    """Monte Carlo combiner outputs for exponential branches.

    Applies the minimum-selection rule draw by draw: sort decreasingly,
    accumulate until the running sum reaches gamma_T.  Shortfall draws
    yield the full sum or 0.0 per ``below_threshold``.  Equality with the
    threshold stops the combiner (closed event side).
    """
    x = sample_sorted(Exponential(cfg.gamma_bar), cfg.L, n_samples, seed)
    cs = np.cumsum(x, axis=1)
    met = cs >= cfg.gamma_T
    first = np.argmax(met, axis=1)
    out = cs[np.arange(cs.shape[0]), first]
    reached = met[:, -1]
    fallback = cs[:, -1] if cfg.below_threshold == "sum" else 0.0
    return np.where(reached, out, fallback)
