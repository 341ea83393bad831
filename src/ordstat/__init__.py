"""Distributions of partial sums of ordered random variables.

The library computes joint and marginal densities of sums over ranked
subsets of K independent, identically distributed nonnegative variables
(ranks count from the largest down).  Three routes cross-check each other:

* ``exact_exp``: closed forms for the exponential distribution, built on
  exact rational coefficient arithmetic.
* ``generic_joint``: kernel-transform composition plus one-dimensional
  numerical inversion, for any distribution on [0, inf).
* ``mc_oracle``: reproducible Monte Carlo sampling of the same partial
  sums.

``partition`` describes which rank groupings have closed evaluators,
``apps`` applies the machinery to threshold-based diversity combining,
``verify`` bundles the cross-validation suites, and ``cli`` exposes the
command line.
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
    MixedPoleError,
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
    TheoremCase,
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
    NormalizedPartition,
    Partition,
    TheoremMatch,
    dimension_of,
    match_theorem,
    normalize,
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
    "MixedPoleError",
    "NormalizedPartition",
    "OrdstatError",
    "Partition",
    "SampleSpec",
    "TheoremCase",
    "TheoremMatch",
    "TransformFn",
    "UnsupportedShapeError",
    "__version__",
    "bin_agreement",
    "dimension_of",
    "empirical_cdf",
    "empirical_density",
    "invert_numeric",
    "jpdf_headsum_vs_tailsum_allK",
    "jpdf_headsum_vs_tailsum_bestKs",
    "jpdf_one_vs_rest_allK",
    "jpdf_one_vs_rest_bestKs",
    "ks_distance",
    "match_theorem",
    "normalize",
    "pdf_gsc_sum",
    "pdf_sum_all",
    "sample_partial_sums",
    "sample_sorted",
    "t1_pdf",
    "t2_jpdf",
    "t3_jpdf",
    "t4_pdf",
    "t5_jpdf",
    "t6_jpdf",
]
