"""Poisson compressed sensing with the square-root Jensen-Shannon divergence.

Subpackages by theme:

- :mod:`poisson_cs.divergences` — KL/JSD/SQJSD and related functionals.
- :mod:`poisson_cs.sensing` — non-negative flux-preserving sensing matrices
  and exhaustive small-scale RIC measurement.
- :mod:`poisson_cs.simulate` — Poisson measurement generation.
- :mod:`poisson_cs.sqjsd_stats` — concentration bounds, KS check, and the
  data-driven constraint radius.
- :mod:`poisson_cs.solvers` — l1-regularized reconstruction (penalized JSD /
  SNLL / generalized-KL fits, and the constrained problem via secant steps
  on the regularization path).
- :mod:`poisson_cs.transforms` — orthonormal bases and the patch pipeline.
- :mod:`poisson_cs.experiments` — seeded, manifest-recorded experiment runs.
"""

# The one version literal: pyproject.toml and the run manifests read it.
__version__ = "0.1.0"

from .divergences import (
    delta,
    gen_kl,
    jsd,
    kl,
    nll_approx,
    snll,
    sqjsd,
    sym_kl,
    total_variation,
)
from .errors import (
    DomainError,
    InfeasibleEpsilonError,
    InfeasibleStartError,
    InvalidParamError,
    LengthMismatchError,
    MissingSamplesError,
    PoissonCSError,
    TooManySupportsError,
)
from .sensing import (
    RicEstimate,
    RipMatrix,
    SensingMatrix,
    build_phi,
    compose_effective,
    estimate_ric,
    sample_rip_matrix,
)
from .simulate import derive_rng, measure
from .solvers import (
    FitKind,
    FitTerm,
    SolveResult,
    SolverConfig,
    fit_value_and_gradient,
    rrmse,
    soft_threshold,
    solve_p2,
    solve_penalized,
    solve_penalized_batch,
)
from .sqjsd_stats import (
    EPSILON_MODES,
    KsResult,
    SqjsdSampleSet,
    ConcentrationBounds,
    choose_epsilon,
    ks_gaussian_test,
    monte_carlo_sqjsd,
    concentration_bounds,
)
from .transforms import (
    OrthonormalBasis,
    PatchGrid,
    dct2_basis,
    extract_patches,
    identity_basis,
    read_pgm,
    reassemble,
    write_pgm,
)

