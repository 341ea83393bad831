"""Distributions of partial sums of ordered random variables.

The library computes joint and marginal densities of sums over ranked
subsets of K independent, identically distributed nonnegative variables
(ranks count from the largest down).  Following the paper's MGF framework,
a requested pair of sums comes from the joint density of a finer grouping
of the ranks, with the extra coordinates integrated out.  That reduction
step is written once, in ``reductions``, and two paths feed it fine
densities:

* ``exact_exp``: closed forms for the exponential distribution, built on
  exact rational coefficient arithmetic.
* ``generic_joint``: kernel-power inverses by finite convolution, plus
  one-dimensional numerical inversion for the total sum, for any
  distribution on [0, inf).  Its ``resolve`` binds a theorem shape to
  either path.

``mc_oracle`` samples the same partial sums reproducibly, as a third route
that cross-checks both.  ``partition`` describes which rank groupings have
closed evaluators, ``apps`` applies the machinery to threshold-based
diversity combining, ``verify`` bundles the cross-validation suites, and
``cli`` exposes the command line.

``import ordstat`` and ``import ordstat.cli`` load numpy and the standard
library only.  The half-normal's ``erf`` and ``erfcx`` are ordstat's own
(``_special``), so no command on the exponential or the half-normal, and
no ``verify`` suite, loads scipy.  ``scipy.integrate`` loads where a
command first needs it: the kernel quadratures of a
``CustomDistribution``, and the warning of a rule that fails to converge,
for its ``IntegrationWarning``.
"""

from ordstat.distributions import (
    CustomDistribution,
    Distribution,
    Exponential,
    HalfNormal,
)
from ordstat.errors import (
    ConvergenceError,
    DivergentIntegralError,
    DomainError,
    OrdstatError,
    UnsupportedShapeError,
)
from ordstat.exact_exp import (
    jpdf_headsum_vs_tailsum_allK,
    jpdf_headsum_vs_tailsum_bestKs,
    jpdf_one_vs_rest_allK,
    jpdf_one_vs_rest_bestKs,
    pdf_gsc_sum,
    pdf_sum_all,
)
from ordstat.generic_joint import (
    resolve,
    t1_pdf,
    t2_jpdf,
    t3_jpdf,
    t4_pdf,
    t5_jpdf,
    t6_jpdf,
)
from ordstat.ilt import IltResult, TransformFn, invert_numeric
from ordstat.mc_oracle import (
    EmpiricalDensity,
    SampleSpec,
    bin_agreement,
    empirical_cdf,
    empirical_density,
    ks_distance,
    sample_partial_sums,
    sample_sorted,
)
from ordstat.partition import (
    Partition,
    TheoremMatch,
    match_theorem,
    theorem_partition,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CustomDistribution",
    "Distribution",
    "DivergentIntegralError",
    "DomainError",
    "EmpiricalDensity",
    "Exponential",
    "HalfNormal",
    "IltResult",
    "OrdstatError",
    "Partition",
    "SampleSpec",
    "TheoremMatch",
    "TransformFn",
    "UnsupportedShapeError",
    "__version__",
    "bin_agreement",
    "empirical_cdf",
    "empirical_density",
    "invert_numeric",
    "jpdf_headsum_vs_tailsum_allK",
    "jpdf_headsum_vs_tailsum_bestKs",
    "jpdf_one_vs_rest_allK",
    "jpdf_one_vs_rest_bestKs",
    "ks_distance",
    "match_theorem",
    "pdf_gsc_sum",
    "pdf_sum_all",
    "resolve",
    "sample_partial_sums",
    "sample_sorted",
    "t1_pdf",
    "t2_jpdf",
    "t3_jpdf",
    "t4_pdf",
    "t5_jpdf",
    "t6_jpdf",
    "theorem_partition",
]
