"""kstruct: rank-based tests of linear structure in Kendall correlation matrices.

The package tests hypotheses of the form ``tau_p = B @ beta`` where tau_p is
the half-vectorized matrix of pairwise Kendall correlations of a d-variate
sample and B is a known p x L design matrix (p = d(d-1)/2).  Membership
designs encode equality constraints between entries of the Kendall matrix;
the single-block case is full exchangeability of the underlying copula.

Main entry points:

- :func:`kstruct.testing.run_test` -- run one test on a dataset,
- :func:`kstruct.simulation.run_study` -- size/power simulation harness,
- the ``kstruct`` command line (see ``kstruct --help``).
"""

from ._version import __version__

from .indexing import (
    Partition,
    DesignMatrix,
    pair_of_index,
    overlap_count,
    block_membership_matrix,
    diagonal_free_membership_matrix,
    vertex_incidence_design,
)
from .kendall import KendallSample, TieError
from .sblock import SingularError
from .covariance import (
    jackknife_cov,
    structured_jackknife_partition,
    population_sigma_mc,
)
from .projection import (
    RankDeficient,
    pseudoinverse_design,
    gamma_projection,
    check_design_conditions,
)
from .testing import TestOptions, TestReport, run_test
from .simulation import (
    NotPositiveDefinite,
    ScenarioConfig,
    tau_to_pearson,
    build_tau_matrix,
    sample_gaussian_with_tau,
    run_study,
)
