"""The scalar input rules of ``errors``, through every entry point that applies them."""

import math

import numpy as np
import pytest

from poisson_cs import solvers
from poisson_cs.errors import InvalidParamError, check_integer, check_nonneg, check_positive
from poisson_cs.experiments import ExperimentSpec
from poisson_cs.sensing import build_phi, sample_rip_matrix
from poisson_cs.simulate import measure
from poisson_cs.solvers import (
    FitKind,
    FitTerm,
    SolverConfig,
    solve_p2,
    solve_p2_batch,
    solve_penalized,
    solve_penalized_batch,
)
from poisson_cs.sqjsd_stats import choose_epsilon, monte_carlo_sqjsd
from poisson_cs.transforms import PatchGrid, dct2_basis, identity_basis

BASIS = identity_basis(20)
PHI = build_phi(sample_rip_matrix(10, 20, 0.5, seed=1))
X = np.full(20, 50.0)
Y = measure(PHI, X, seed=2)
A = PHI.entries
JSD = FitTerm(FitKind.JSD)

# (entry point, field, a call with the value in that field); quantities first.
QUANTITIES = [
    ("solve_penalized", "lam", lambda v: solve_penalized(A, BASIS, Y, JSD, v)),
    ("solve_penalized_batch", "lam",
     lambda v: solve_penalized_batch([A, A], BASIS, [Y, Y], JSD, [1.0, v])),
    ("solve_p2", "epsilon", lambda v: solve_p2(A, BASIS, Y, v)),
    ("solve_p2", "beta", lambda v: solve_p2(A, BASIS, Y, 5.0, beta=v)),
    ("solve_p2_batch", "epsilon", lambda v: solve_p2_batch([A, A], BASIS, [Y, Y], [5.0, v])),
    ("FitTerm", "beta", lambda v: FitTerm(FitKind.SNLL, v)),
    ("ExperimentSpec", "beta", lambda v: ExperimentSpec(beta=v)),
    ("ExperimentSpec", "intensity", lambda v: ExperimentSpec(intensity=v)),
    ("ExperimentSpec", "lambda_value",
     lambda v: ExperimentSpec(solver="P4", lambda_mode="fixed", lambda_value=v)),
]
COUNTS = [
    ("SolverConfig", "max_iters", lambda v: SolverConfig(max_iters=v)),
    ("ExperimentSpec", "trials", lambda v: ExperimentSpec(trials=v)),
    ("sample_rip_matrix", "N", lambda v: sample_rip_matrix(v, 4)),
    ("sample_rip_matrix", "m", lambda v: sample_rip_matrix(4, v)),
    ("monte_carlo_sqjsd", "trials", lambda v: monte_carlo_sqjsd(PHI.rates(X), v, seed=0)),
    ("choose_epsilon", "N", lambda v: choose_epsilon("theory", v)),
    ("identity_basis", "dim", lambda v: identity_basis(v)),
    ("dct2_basis", "patch_h", lambda v: dct2_basis(v)),
    ("dct2_basis", "patch_w", lambda v: dct2_basis(3, v)),
    ("PatchGrid", "patch", lambda v: PatchGrid(8, 8, patch=v)),
    ("PatchGrid", "stride", lambda v: PatchGrid(8, 8, patch=3, stride=v)),
]
BAD = [True, math.nan, math.inf, "1"]

CASES = ([(entry, field, call, bad) for entry, field, call in QUANTITIES for bad in BAD]
         + [(entry, field, call, bad) for entry, field, call in COUNTS
            for bad in BAD + [2.5, 0]])


@pytest.mark.parametrize("entry, field, call, bad", CASES,
                         ids=[f"{e}-{f}-{b!r}" for e, f, _, b in CASES])
def test_bad_scalars_refused_by_name(entry, field, call, bad, monkeypatch):
    # True used to run as 1, and "1" and 2.5 to die in a bare TypeError or
    # run on (PatchGrid, which also ran a patch of 0), each according to its
    # own copy of the rule.  No solve starts on a refused value.
    stacked = []
    lockstep = solvers._lockstep
    monkeypatch.setattr(solvers, "_lockstep",
                        lambda models, *args: stacked.append(len(models))
                        or lockstep(models, *args))
    with pytest.raises(InvalidParamError) as refused:
        call(bad)
    assert str(refused.value).startswith(f"{field} "), str(refused.value)
    assert stacked == []


def test_numpy_scalars_accepted():
    cfg = SolverConfig(max_iters=np.int64(30))
    res = solve_penalized(A, BASIS, Y, FitTerm(FitKind.JSD, np.float64(0.1)), np.float64(1.0),
                          cfg)
    assert res.lambda_used == 1.0
    assert solve_p2(A, BASIS, Y, np.float32(5.0), cfg).constraint_residual <= 0.0
    spec = ExperimentSpec(kind="measurements", beta=np.float64(0.2), trials=np.int64(3),
                          intensity=np.float32(1e4))
    assert spec.trials == 3
    # Each rule returns the value it passed as a plain float or int.
    passed = (check_positive("x", np.float32(0.5)), check_nonneg("x", np.int64(0)),
              check_integer("n", np.int64(3), 1))
    assert [(type(v), v) for v in passed] == [(float, 0.5), (float, 0.0), (int, 3)]
    assert sample_rip_matrix(np.int64(4), np.int32(6)).shape == (4, 6)
    assert monte_carlo_sqjsd(PHI.rates(X), np.int64(5), seed=0).trials == 5
    assert identity_basis(np.int64(4)).dim == 4
    assert dct2_basis(np.int64(3)).dim == 9
    assert PatchGrid(8, 8, patch=np.int64(3), stride=np.int64(2)).n_patches == 9
