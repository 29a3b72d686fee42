"""l1-regularized reconstruction from Poisson-corrupted compressive measurements.

Five entry points:

``solve_chains``
    K chains of penalized solves, one chain per problem, in one vectorized
    loop.  Each solve minimizes
        lam * ||theta||_1 + fit(y, A @ theta)
    where the data-fit term is the Jensen-Shannon divergence, the symmetrized
    Stirling negative log-likelihood, or the generalized KL divergence, each
    optionally smoothed by an offset beta (fit on y+beta against u+beta).
    A chain is a generator that yields each solve it needs as
    (lam, warm start) and is sent the result; a problem whose solve stops
    starts its chain's next solve in the same pass.  A solve's result does
    not depend on the other problems of the batch.

``solve_penalized_batch``
    the penalized problem for K independent (A, y, lam) triples: K chains of
    one solve.  ``solve_penalized`` is its call on one problem, so a start
    outside the fit domain gives way to the default start for one problem
    as for K.

``solve_p2``
    minimize  ||theta||_1  subject to  sqrt(J(y, A @ theta)) <= epsilon
    realized as an outer root search on log(lam) over the penalized JSD
    problem: for exact solves the map lam -> sqjsd(y, A theta*(lam)) is
    non-decreasing, so the largest lam whose solution still meets the
    constraint yields the minimal-l1 feasible point.  Solves that stop on
    a flat objective break that order (on the DCT basis a solve far above
    the crossing can be feasible by accident), so the search brackets the
    crossing from a small lam and takes safeguarded secant steps that go at
    most two decades above the feasible end of the bracket.

``solve_p2_batch``
    K independent radius searches, each one chain of ``solve_chains``, so a
    search runs its solves back to back and never waits for another.
    ``solve_p2`` is its call on one problem.

The inner solver is proximal gradient with backtracking line search and
FISTA-style acceleration under a monotone restart, so the objective never
increases from one iteration to the next; the loop is written once, in
``_lockstep``.
Its proximal map follows from the basis, with no option to set: on the
identity basis it is max(v - t, 0), the soft threshold followed by the
clamp at 0, the exact projection onto theta >= 0; on the DCT basis it is
the soft threshold alone, v - clip(v, -t, t).
Every entry point takes each problem's measurement as its count vector,
the array ``simulate.measure`` returns or any array of finite counts >= 0.
Zero-count measurements are retained for the JSD fit (finite by the
0*log(0) = 0 convention) and masked out of the SNLL/GenKL fits when
beta = 0.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .divergences import _QUIET, _gen_kl_terms, _jsd_terms, _snll_terms
from .errors import (
    DomainError,
    InfeasibleEpsilonError,
    InfeasibleStartError,
    InvalidParamError,
    LengthMismatchError,
    check_integer,
    check_nonneg,
    check_positive,
)
from .transforms import OrthonormalBasis

__all__ = [
    "FitKind",
    "FitTerm",
    "SolverConfig",
    "SolveResult",
    "fit_value_and_gradient",
    "gradient_scale",
    "solve_chains",
    "solve_penalized",
    "solve_penalized_batch",
    "solve_p2",
    "solve_p2_batch",
    "rrmse",
]


class FitKind(enum.Enum):
    JSD = "jsd"
    SNLL = "snll"
    GEN_KL = "gen_kl"


@dataclass(frozen=True)
class FitTerm:
    """Choice of data-fit divergence plus smoothing offset beta >= 0."""

    kind: FitKind = FitKind.JSD
    beta: float = 0.0

    def __post_init__(self):
        check_nonneg("beta", self.beta)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap of every penalized solve.  The stopping tolerances are
    fixed, and the basis decides the signal constraint (``_prox_of``)."""

    max_iters: int = 2000

    def __post_init__(self):
        check_integer("max_iters", self.max_iters, 1)


@dataclass(frozen=True)
class SolveResult:
    """The outcome of a penalized solve or of a P2 radius search.

    ``theta_star`` is the returned point and ``iterations`` the iterations of
    its solve.  ``converged`` is True when a stopping test, not
    ``max_iters``, ended the solve: a gradient map below ``_GRAD_TOL``, but
    also five flat iterations (``_OBJECTIVE_TOL``) or no descent step at any
    step size, and these two certify no optimality.
    ``lambda_used`` is the solve's weight.  For P2 these describe the chosen
    solve, or the origin, with ``lambda_used`` None, when it meets the
    radius; ``constraint_residual`` is sqjsd(y, A theta_star) - epsilon, and
    ``n_solves`` and ``total_iterations`` count the search's solves and
    their summed iterations.
    """

    theta_star: np.ndarray
    iterations: int
    converged: bool
    constraint_residual: float | None = None
    lambda_used: float | None = None
    n_solves: int | None = None
    total_iterations: int | None = None


def _shrink(v: np.ndarray, t) -> np.ndarray:
    """sign(v) * max(|v| - t, 0) as v - clip(v, -t, t).

    Both forms round v - t where v > t and v + t where v < -t, since
    fl(-v - t) = -fl(v + t); they differ only in the sign of a zero.  The
    clip is spelled min(max(v, -t), t): np.clip's Python wrapper costs more
    than the sweeps on a line search's block of tries.
    """
    return v - np.minimum(np.maximum(v, -t), t)


@dataclass(frozen=True)
class _FitLaw:
    """The formulas of one fit on offset vectors yb = y + beta, ub = u + beta.

    ``terms`` are the elementwise terms of ``divergences``, and the fit
    value is ``weight`` times their sum along the last axis (``value``), so
    a law serves one problem's (N,) vectors and a (K, N) stack alike.
    ``grad`` is the derivative in u at the floored rate ubf = max(ub, floor):
    this turns the infinite slope at the domain boundary into a large finite
    one, so a monotone line search on the exact objective can still probe
    and leave the boundary.  ``curvature`` is the per-coordinate
    second-derivative scale.  A ``closed`` fit is finite on ub >= 0, zero
    counts included (JSD): its terms select away the products of a zero
    count or rate, and take ``sides``, where the counts and the rates are
    not positive (``_jsd_terms``'s ``p_zero`` and ``q_zero``).  An open one
    needs ub > 0 and, at beta = 0, counts > 0 (SNLL, GenKL).  The formulas
    compute branches that are then discarded, which may divide by zero:
    evaluate them under ``np.errstate(**_QUIET)``.
    """

    terms: Callable
    weight: float
    grad: Callable
    curvature: Callable
    closed: bool

    def value(self, yb, ub, keep=None, sides=()):
        """The fit value; rows where ``keep`` is False add nothing."""
        terms = self.terms(yb, ub, *sides)
        if keep is not None:
            terms = np.where(keep, terms, 0.0)
        return self.weight * terms.sum(axis=-1)


_FITS = {
    FitKind.JSD: _FitLaw(
        terms=_jsd_terms,
        weight=0.5,
        # At yb = ub = 0 the floored rate gives log(2)/2, the one-sided
        # derivative along u.
        grad=lambda yb, ubf: 0.5 * np.log(2.0 * ubf / (yb + ubf)),
        curvature=lambda yb, ub: 0.5 / ub,
        closed=True,
    ),
    FitKind.SNLL: _FitLaw(
        terms=_snll_terms,
        weight=1.0,
        grad=lambda yb, ubf: 1.0 - yb / ubf + np.log(ubf / yb) + 0.5 / ubf,
        curvature=lambda yb, ub: yb / ub**2 + 1.0 / ub,
        closed=False,
    ),
    FitKind.GEN_KL: _FitLaw(
        terms=_gen_kl_terms,
        weight=1.0,
        grad=lambda yb, ubf: 1.0 - yb / ubf,
        curvature=lambda yb, ub: yb / ub**2,
        closed=False,
    ),
}


def fit_value_and_gradient(fit: FitTerm, y, u):
    """Fit value and its exact analytic gradient with respect to u.

    ``y`` is a count vector.  Requires u_i + beta > 0 everywhere; the SNLL
    and GenKL fits with beta = 0 additionally require y_i > 0 (the solvers
    mask zero counts out).
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if y.shape != u.shape:
        raise DomainError(f"length {y.size} vs {u.size}")
    law = _FITS[fit.kind]
    yb = y + fit.beta
    ub = u + fit.beta
    if np.any(ub <= 0.0):
        raise DomainError("fit undefined: u_i + beta <= 0")
    if not law.closed and np.any(yb <= 0.0):
        raise DomainError(f"{fit.kind.value} with beta=0 requires y_i > 0")
    with np.errstate(**_QUIET):
        return float(law.value(yb, ub)), law.grad(yb, np.maximum(ub, 1e-300))


# ``_FitModel`` and the batched kernel.  Every stacked operation below does,
# row by row, the same floating-point operations as on one problem: matmul
# over a stack issues one BLAS call per row with that row's shapes and
# strides, and reductions along the last axis sum each row like a 1-D sum.
# Keep it so: a problem's result must not depend on the batch it is solved
# in, and tests/test_batch_solver.py compares each row with a plain
# one-problem loop bit for bit.


def _matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row k is A[k] @ X[k]; for one (N, m) operator, A @ x."""
    return np.matmul(A, X[..., None])[..., 0]


def _rowdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Dot products along the last axis: entry k of (K, m) stacks is X[k] @ Y[k]."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


class _FitModel:
    """Fit term of one problem, or of a stack of problems with equal operator shapes.

    Serves one problem, with an (N, m) operator and (N,) offset counts, or a
    stack of K problems, with (K, N, m) operators, (K, N) counts and (K, 1)
    gradient floors; values and curvature scales then come back per problem.
    ``keep`` marks the rows the fit is made of, with the shape of the counts.
    A row whose A-row is identically zero is constant in theta and is masked
    out; so is a zero-count row for SNLL/GenKL at beta = 0.  A masked row
    plays no part in the value, the domain test, the gradient, the curvature
    scale or the gradient floor, and its A-row is zeroed, so the operator's
    spectral norm is that of the kept rows.  Evaluations run under
    ``np.errstate(**_QUIET)``, held by the caller.
    """

    def __init__(self, fit: FitTerm, A: np.ndarray, yb: np.ndarray, grad_floor, keep,
                 marks=None):
        self.fit = fit
        self.law = _FITS[fit.kind]
        self.A = A
        self.At = np.swapaxes(A, -1, -2)
        self.yb = yb
        self.grad_floor = grad_floor
        self.keep = keep
        # ``marks`` are the mask and a closed fit's zero counts, found here
        # unless a stack's rows inherit them.  The evaluations skip the mask
        # of a model that keeps every row, as np.where(True, t, 0.0) is t (an
        # inherited all-True mask keeps every bit too), and the count select
        # of a closed fit without zero counts (False; see _jsd_terms).  They
        # skip the offset at beta = 0, as U + 0.0 only turns -0.0 into 0.0,
        # which no fit formula tells apart.
        if marks is None:
            zero = ~(yb > 0.0)
            marks = (None if keep.all() else keep,
                     zero if self.law.closed and zero.any() else False)
        self.mask, self.zero_counts = marks
        self.beta = fit.beta or None
        self._wide = None

    @classmethod
    def of(cls, A: np.ndarray, counts: np.ndarray, fit: FitTerm) -> "_FitModel":
        """The model of one problem."""
        keep = np.any(A != 0.0, axis=1)
        if fit.beta == 0.0 and not _FITS[fit.kind].closed:
            keep &= counts > 0
        yb = counts.astype(float) + fit.beta
        kept = yb[keep]
        # Boundary-gradient clip, relative to the data scale; rates this far
        # below the counts are indistinguishable from zero for the fit value.
        grad_floor = 1e-12 * (float(np.mean(kept)) + 1.0) if kept.size else 1e-12
        if not keep.all():
            A = np.where(keep[:, None], A, 0.0)
        return cls(fit, A, yb, grad_floor, keep)

    @classmethod
    def stack(cls, models) -> "_FitModel":
        """The models of K problems whose operators have equal shapes."""
        return cls(models[0].fit, np.stack([m.A for m in models]),
                   np.stack([m.yb for m in models]),
                   np.array([[m.grad_floor] for m in models]),
                   np.stack([m.keep for m in models]))

    def _rows(self, rows, A) -> "_FitModel":
        """The model of some rows, on their operator ``A``, with the marks
        the rows hold in this model."""
        keep = self.keep[rows]
        zero = self.zero_counts
        return _FitModel(self.fit, A, self.yb[rows], self.grad_floor[rows], keep,
                         (None if self.mask is None else keep,
                          zero if zero is False else zero[rows]))

    def take(self, rows) -> "_FitModel":
        """The model of some rows of a stack, with the rows of its widened
        model when it has one."""
        sub = self._rows(rows, self.A[rows])
        if self._wide is not None:
            sub._wide = self._wide._rows(rows, sub.A[:, None])
        return sub

    def widen(self) -> "_FitModel":
        """A stack's model for (K, _BLOCK, m) coefficients, a block of tries
        per problem; made once per stack.  Its counts and mask are repeated
        along the block, since elementwise work on a broadcast operand costs
        more than on a whole one."""
        if self._wide is None:
            self._wide = _FitModel(self.fit, self.A[:, None],
                                   np.repeat(self.yb[:, None], _BLOCK, axis=1),
                                   self.grad_floor[:, None],
                                   np.repeat(self.keep[:, None], _BLOCK, axis=1))
        return self._wide

    def rates(self, X: np.ndarray) -> np.ndarray:
        return _matvec(self.A, X)

    def value(self, U: np.ndarray):
        """Exact fit value, +inf outside the domain (see ``_FitLaw.closed``):
        a float for one problem, an array with one value per row of a stack."""
        ub = U if self.beta is None else U + self.beta
        # The least rate: above 0, every rate is inside the domain and a
        # closed fit skips the select of its rates.
        low = ub.min(initial=math.inf)
        if self.law.closed:
            bad = None if low >= 0.0 else ub < 0.0
            sides = (self.zero_counts, False if low > 0.0 else None)
        else:
            bad, sides = (None if low > 0.0 else ub <= 0.0), ()
        outside = 0
        if bad is not None:
            if self.mask is not None:
                bad &= self.mask
            outside = np.count_nonzero(bad)
        if U.ndim == 1:
            return (math.inf if outside
                    else float(self.law.value(self.yb, ub, self.mask, sides)))
        value = self.law.value(self.yb, ub, self.mask, sides)
        if outside:
            value[np.logical_or.reduce(bad, axis=-1)] = math.inf
        return value

    def grad_theta(self, U: np.ndarray) -> np.ndarray:
        ub = U if self.beta is None else U + self.beta
        gu = self.law.grad(self.yb, np.maximum(ub, self.grad_floor))
        if self.mask is not None:
            gu = np.where(self.mask, gu, 0.0)
        return _matvec(self.At, gu)

    def curvature_scale(self, U: np.ndarray):
        """Per-coordinate second-derivative scale for the initial step size.

        Evaluated no closer to the boundary than the half-data point
        u ~ (y+1)/2: the solution sits near u ~ y, and backtracking owns
        correctness for whatever this estimate misses.  0 without kept rows.
        """
        ub = np.maximum(U + self.fit.beta, 0.5 * (self.yb + 1.0))
        c = np.max(np.where(self.keep, self.law.curvature(self.yb, ub), 0.0),
                   axis=-1, initial=0.0)
        return c if c.ndim else float(c)


def _default_start(basis: OrthonormalBasis, counts: np.ndarray):
    # Constant signal carrying the total measured flux: domain-safe because
    # every nonzero A-row then sees a strictly positive rate.
    total = float(np.sum(counts))
    if total <= 0.0:
        total = 1.0
    x0 = np.full(basis.dim, total / basis.dim)
    return basis.analyze(x0)


def _start(model: _FitModel, basis: OrthonormalBasis, counts: np.ndarray, warm):
    """The start of a solve from ``warm``: a copy of ``warm`` where the fit is
    finite there, else the default start, each with its rates and fit value;
    the solve starts from these without evaluating them again."""
    for theta in (warm, None) if warm is not None else (None,):
        x = np.array(_default_start(basis, counts) if theta is None else theta, dtype=float)
        u = model.rates(x)
        f = model.value(u)
        if math.isfinite(f):
            return x, u, f
    raise InfeasibleStartError("the default start violates the fit domain")


def _problems(A, basis: OrthonormalBasis, ys, starts=()):
    """The operators and count vectors of K problems as float arrays, checked
    before any work: each operator must be (N, m) with one column per basis
    function, its counts finite, >= 0 and one per row, and each given start
    (None is none) of one coefficient per basis function."""
    A = [np.asarray(a, dtype=float) for a in A]
    counts = [np.asarray(y, dtype=float) for y in ys]
    if len(counts) != len(A):
        raise LengthMismatchError(f"{len(A)} operators need as many counts")
    for a, c in zip(A, counts):
        if a.ndim != 2:
            raise InvalidParamError("A must hold one (N, m) operator per problem")
        bad = c[~((c >= 0.0) & (c < math.inf))]
        if bad.size:
            raise InvalidParamError(f"counts must be finite and >= 0, got {float(bad[0])!r}")
        if c.shape != a.shape[:1]:
            raise LengthMismatchError(f"{c.size} counts for an operator of {a.shape[0]} rows")
        if a.shape[1] != basis.dim:
            raise LengthMismatchError(
                f"an operator of {a.shape[1]} columns for a basis of dim {basis.dim}")
    for start in starts:
        if start is not None and np.shape(start) != (basis.dim,):
            raise LengthMismatchError(
                f"a start of shape {np.shape(start)} for a basis of dim {basis.dim}")
    return A, counts


def _shrink_nonneg(v: np.ndarray, t) -> np.ndarray:
    """The prox of t*||.||_1 plus the indicator of theta >= 0, max(v - t, 0):
    the clamp of ``_shrink`` at 0, up to the sign of a zero."""
    return np.maximum(v - t, 0.0)


def _prox_of(basis: OrthonormalBasis):
    """The proximal map prox(v, t) of the solves on ``basis``: on the identity
    basis theta is the signal, a photon flux, and is clamped at 0; a DCT
    coefficient has no sign constraint."""
    return _shrink_nonneg if basis.patch_shape is None else _shrink


def _next_momentum(t: float) -> float:
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t**2))


# Step sizes tried per backtracking search, and per pass of the stacked
# search (a divisor of _MAX_TRIES): a wider block costs flops on rows that
# stop early, a narrower one a numpy round trip per try on rows that do not.
_MAX_TRIES = 200
_BLOCK = 4
# Each rejected step size is multiplied by _BACKTRACK, a halving, so the
# block's step sizes are eta times _STEPS, exactly.
_BACKTRACK = 0.5
_STEPS = _BACKTRACK ** np.arange(_BLOCK)
# A solve stops once its gradient map is below _GRAD_TOL, or after five
# iterations in a row that each change its objective by under _OBJECTIVE_TOL.
_GRAD_TOL = 1e-12
_OBJECTIVE_TOL = 1e-8
# The radius search of ``solve_p2``: its tolerance, its cap on secant steps,
# its first lam in units of the gradient scale (also the floor of the
# omniscient lambda grid, experiments._lambda_grid), the lam at which it
# gives up, and the largest secant step above the feasible end of the bracket.
_CONSTRAINT_RTOL = 0.01
_MAX_SECANT = 40
_LAM_START = 1e-4
_LAM_MIN = 1e-8
_LOG_MAX_STEP = math.log(100.0)


def gradient_scale(A, basis: OrthonormalBasis, y, fit: FitTerm) -> float:
    """sup-norm of the fit gradient at the default start, floored at 1e-12.

    Natural unit for regularization grids: lam far above this freezes theta
    at (nearly) zero, lam far below is effectively unregularized.  The floor
    keeps every lam it scales > 0 where the gradient vanishes, as it does
    when every row is masked (all counts 0 at beta 0) or A is all zero.
    """
    A = np.asarray(A, dtype=float)
    counts = np.asarray(y, dtype=float)
    model = _FitModel.of(A, counts, fit)
    with np.errstate(**_QUIET):
        g = model.grad_theta(model.rates(_default_start(basis, counts)))
    return max(float(np.max(np.abs(g))), 1e-12)


_POWER_ITERS = 40  # per spectral norm


def _spectral_norms_sq(A: np.ndarray) -> np.ndarray:
    """Largest squared singular value of every matrix in a (K, N, m) stack,
    by (deterministic) power iteration."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[2])
    v /= np.linalg.norm(v)
    V = np.tile(v, (A.shape[0], 1))
    At = A.transpose(0, 2, 1)
    null = np.zeros(A.shape[0], dtype=bool)
    for _ in range(_POWER_ITERS):
        W = _matvec(At, _matvec(A, V))
        nw = np.sqrt(_rowdot(W, W))
        null |= nw == 0.0
        V = W / nw[:, None]
    AV = _matvec(A, V)
    norms = np.sqrt(_rowdot(AV, AV))
    # Python's float power: pow(x, 2) and x*x can differ in the last bit, and
    # this one keeps every step size, and so every past output, bit-identical.
    return np.array([0.0 if z else n**2 for z, n in zip(null.tolist(), norms.tolist())])


def _backtrack(wide: _FitModel, base, f_base, G, eta, lam, prox):
    """The backtracking line search, for every row of a stack.

    ``wide`` is the stack's model widened for a block of tries
    (``_FitModel.widen``), and ``prox`` the proximal map (``_prox_of``).
    Each pass tries the next ``_BLOCK`` step sizes of every row still
    searching at once, and a row keeps the first one it accepts, as a search
    of one try per pass would.  A block's step sizes are eta times powers of
    1/2, which are exact, so they are the bits that repeated halving, one
    try at a time, makes.  Returns
    (found, cand, dd, u_cand, f_cand, eta_try), where dd is the squared
    length of the step cand - base; rows not found hold their last rejected
    try and the step size after it.
    """
    # The rows still searching, and their inputs with a step-size axis.
    rows = out = None
    base, G, f_base, lam = base[:, None], G[:, None], f_base[:, None], lam[:, None]
    for _ in range(_MAX_TRIES // _BLOCK):
        K = eta.size
        E = eta[:, None] * _STEPS
        C = prox(base - E[..., None] * G, (E * lam)[..., None])
        D = C - base
        UC = wide.rates(C)
        FC = wide.value(UC)
        DD = _rowdot(D, D)
        quad = f_base + _rowdot(G, D) + DD / (2.0 * E)
        ok = np.isfinite(FC) & (FC <= quad + 1e-12 * np.maximum(1.0, np.abs(quad)))
        # Each row's pick in the flattened block: its first accepted try, or
        # its last try where it accepts none.
        at = np.arange(0, K * _BLOCK, _BLOCK)
        pick = at + ok.argmax(axis=1)
        hit = ok.ravel().take(pick)
        every = np.count_nonzero(hit) == K
        if every:
            eta_try = E.ravel().take(pick)
        else:
            eta = E[:, -1] * _BACKTRACK
            pick = np.where(hit, pick, at + (_BLOCK - 1))
            eta_try = np.where(hit, E.ravel().take(pick), eta)
        picked = (hit, C.reshape(K * _BLOCK, -1).take(pick, axis=0), DD.ravel().take(pick),
                  UC.reshape(K * _BLOCK, -1).take(pick, axis=0), FC.ravel().take(pick),
                  eta_try)
        if out is None:
            # The first block holds every row: nearly always, every row hits.
            if every:
                return picked
            out, rows = picked, np.arange(K)
        else:
            for whole, part in zip(out, picked):
                whole[rows] = part
            if every:
                break
        miss = ~hit
        rows, eta, base, G, f_base, lam = (
            a[miss] for a in (rows, eta, base, G, f_base, lam))
        wide = wide.take(miss)
    return out


def _lockstep(models, basis, counts, chains, cfg, prox) -> list:
    """The solves of K chains, chain k on problem k, as the rows of one stack.

    ``models`` are the problems' fit models, whose operators have equal
    shapes, and ``prox`` the proximal map of the basis (``_prox_of``).
    Every pass advances each row by one proximal-gradient iteration, with
    its own step size, momentum, restarts, stopping test and iteration
    count.  At the top of each pass, every chain whose solve ended is sent
    its result (None before its first solve, as ``next`` would): the solve
    it asks for next starts on its row, on the stacked operator, counts and
    spectral norm the row already holds, and the row leaves the stack when
    the chain returns.  Returns each chain's return value.

    A row holds its solve's accepted point in ``X``, with its rates in ``U``
    and its fit value in ``f_x``: a solve that stops without a descent step
    keeps the point it had.  A solve warm-started from its chain's last
    result, the row's point, starts from these bits without ``_start``.
    """
    K = len(models)
    stack = _FitModel.stack(models)
    norm_sq = _spectral_norms_sq(stack.A)
    X, Z = np.empty((K, stack.A.shape[2])), np.empty((K, stack.A.shape[2]))
    U = np.empty(stack.yb.shape)
    f_x, F_cur, eta, lam = np.empty(K), np.empty(K), np.empty(K), np.empty(K)
    step, flat, it = np.zeros(K, dtype=int), np.zeros(K, dtype=int), np.zeros(K, dtype=int)
    owner = np.arange(K)  # the problem of each row
    out = [None] * K
    # The FISTA momenta, restarting from t = 1: a row's t is momenta[step],
    # and its weight (t - 1) / t_next is pull[step], the same divisions.
    momenta = [1.0]
    for _ in range(cfg.max_iters):
        momenta.append(_next_momentum(momenta[-1]))
    momenta = np.array(momenta)
    pull = (momenta[:-1] - 1.0) / momenta[1:]

    # Each ended solve as (row, result).
    ended = [(j, None) for j in range(K)]
    while True:
        # Send each ended solve's result to its chain and start the solve the
        # chain asks for next.  One warm-started from the row's point starts
        # from the rates and value the row holds, the bits ``_start`` would
        # compute again.
        leave = []
        for j, res in ended:
            k = owner[j]
            try:
                lam_j, warm = chains[k].send(res)
            except StopIteration as stop:
                out[k] = stop.value
                leave.append(j)
                continue
            check_positive("lam", lam_j)
            if res is not None and warm is res.theta_star:
                x, u, f = X[j], U[j], f_x[j]
            else:
                x, u, f = _start(models[k], basis, counts[k], warm)
            L = norm_sq[k] * models[k].curvature_scale(u)
            X[j], Z[j], U[j], f_x[j] = x, x, u, f
            eta[j] = 1.0 / L if L > 0.0 else 1.0
            F_cur[j] = f + lam_j * float(np.sum(np.abs(x)))
            lam[j] = lam_j
            step[j] = flat[j] = it[j] = 0
        if leave:
            keep = np.ones(owner.size, dtype=bool)
            keep[leave] = False
            stack = stack.take(keep)
            X, Z, U, f_x, F_cur, eta, lam, step, flat, it, owner = (
                a[keep] for a in (X, Z, U, f_x, F_cur, eta, lam, step, flat, it, owner))
            if not owner.size:
                return out

        eta = np.minimum(eta / _BACKTRACK, 1e18)
        u_base = stack.rates(Z)
        f_base = stack.value(u_base)
        at_x = ~np.isfinite(f_base)
        if np.count_nonzero(at_x):
            Z[at_x] = X[at_x]
            step[at_x] = 0
            u_base[at_x] = U[at_x]
            f_base[at_x] = f_x[at_x]
        found, cand, dd, u_cand, f_cand, eta_try = _backtrack(
            stack.widen(), Z, f_base, stack.grad_theta(u_base), eta, lam, prox)
        F_cand = f_cand + lam * np.abs(cand).sum(axis=-1)
        accepted = found & (F_cand <= F_cur)

        # Monotone restart: drop the momentum point and retry from x.
        if np.count_nonzero(accepted) < accepted.size:
            retry = (found & ~accepted & ~at_x).nonzero()[0]
            if retry.size:
                step[retry] = 0
                sub = stack.take(retry)
                r_found, r_cand, r_dd, r_u, r_f, r_eta = _backtrack(
                    sub.widen(), X[retry], f_x[retry], sub.grad_theta(U[retry]), eta[retry],
                    lam[retry], prox)
                r_F = r_f + lam[retry] * np.abs(r_cand).sum(axis=-1)
                accepted[retry] = r_found & (r_F <= F_cur[retry])
                cand[retry], dd[retry], u_cand[retry] = r_cand, r_dd, r_u
                f_cand[retry], F_cand[retry], eta_try[retry] = r_f, r_F, r_eta
            # Rows without an accepted step stop: no descent step exists at
            # any step size, and they keep their point.
            stay = ~accepted
            cand[stay], u_cand[stay], f_cand[stay] = X[stay], U[stay], f_x[stay]

        grad_map = np.sqrt(dd) / eta_try
        rel_change = np.abs(F_cur - F_cand) / np.maximum(1.0, np.abs(F_cand))
        flat = np.where(rel_change < _OBJECTIVE_TOL, flat + 1, 0)
        Z = cand + pull[step][:, None] * (cand - X)
        step += 1
        it += 1
        X, U, f_x, F_cur, eta = cand, u_cand, f_cand, F_cand, eta_try

        done = ~accepted | (flat >= 5) | (grad_map < _GRAD_TOL)
        ended = []
        for j in (done | (it >= cfg.max_iters)).nonzero()[0].tolist():
            ended.append((j, SolveResult(theta_star=X[j].copy(), iterations=int(it[j]),
                                         converged=bool(done[j]), lambda_used=float(lam[j]))))


def solve_chains(
    A,
    basis: OrthonormalBasis,
    ys,
    fit: FitTerm,
    chains,
    cfg: SolverConfig | None = None,
) -> list:
    """Run K chains of penalized solves, chain k on problem k (A[k], ys[k]).

    A chain is a generator: it yields each solve it needs as (lam, warm
    start), is sent that solve's ``SolveResult`` (None first, as ``next``),
    and returns its own result.  A warm start that is None or violates the
    fit domain is replaced by the default start.  Problems whose operators
    have equal shapes run as the rows of one vectorized loop, even a chain
    that returns at once; a problem whose solve stops starts its chain's
    next solve in the same pass, so no chain waits for another.  Groups run
    one after another, in the order of their first problem.  Every solve is
    bit-identical to solving its problem alone from the start used.  The
    proximal map follows from ``basis`` (``_prox_of``).  Returns each
    chain's result.
    """
    cfg = cfg or SolverConfig()
    prox = _prox_of(basis)
    K = len(A)
    if len(chains) != K:
        raise LengthMismatchError(f"{K} operators need as many chains")
    A, counts = _problems(A, basis, ys)
    groups: dict[tuple, list[int]] = {}
    for k in range(K):
        groups.setdefault(A[k].shape, []).append(k)
    results = {}
    # The chains evaluate fits too, before their first request and between
    # solves.
    with np.errstate(**_QUIET):
        for rows in groups.values():
            results.update(zip(rows, _lockstep(
                [_FitModel.of(A[k], counts[k], fit) for k in rows], basis,
                [counts[k] for k in rows], [chains[k] for k in rows], cfg, prox)))
    return [results[k] for k in range(K)]


def _one_solve(lam, warm):
    """The chain of a single solve."""
    return (yield lam, warm)


def solve_penalized_batch(
    A,
    basis: OrthonormalBasis,
    ys,
    fit: FitTerm,
    lams,
    cfg: SolverConfig | None = None,
    theta0=None,
) -> list[SolveResult]:
    """Proximal-gradient minimization of lam*||theta||_1 + fit(y, A theta) on
    K independent problems that share a basis and a fit.

    ``A`` holds one (N_k, m) operator per problem, as a list or a (K, N, m)
    stack; ``ys``, ``lams`` and ``theta0`` hold one count vector, weight and
    start per problem (``theta0`` may be None, as may each start).  A start
    that violates its fit domain is replaced by the default start.  These are
    ``solve_chains`` of one solve each, so result k is bit-identical to
    ``solve_penalized`` on problem k from the start used.
    """
    K = len(A)
    theta0 = [None] * K if theta0 is None else list(theta0)
    if len(ys) != K or len(lams) != K or len(theta0) != K:
        raise LengthMismatchError(f"{K} operators need as many counts, weights and starts")
    for lam in lams:
        check_positive("lam", lam)
    A, counts = _problems(A, basis, ys, theta0)
    return solve_chains(A, basis, counts, fit, [_one_solve(lam, warm)
                                                for lam, warm in zip(lams, theta0)], cfg)


def solve_penalized(
    A,
    basis: OrthonormalBasis,
    y,
    fit: FitTerm,
    lam: float,
    cfg: SolverConfig | None = None,
    theta0=None,
) -> SolveResult:
    """``solve_penalized_batch`` on one problem: a ``theta0`` that violates
    the fit domain is replaced by the default start, as in a batch."""
    return solve_penalized_batch([A], basis, [y], fit, [lam], cfg, [theta0])[0]


def _sqjsd_of(A, counts, theta, beta: float) -> float:
    """sqrt(J(y, A theta)) with the same offset convention as the fit."""
    u = A @ np.asarray(theta, dtype=float)
    J = _FITS[FitKind.JSD].value(counts + beta, np.maximum(u, 0.0) + beta)
    return math.sqrt(max(float(J), 0.0))


def solve_p2(
    A,
    basis: OrthonormalBasis,
    y,
    epsilon: float,
    cfg: SolverConfig | None = None,
    beta: float = 0.0,
) -> SolveResult:
    """Minimal-l1 coefficients subject to sqjsd(y, A theta) <= epsilon.

    Searches log(lam) over the penalized JSD problem, warm-starting each
    solve from the best feasible point.  The first solve runs at
    ``_LAM_START`` times the gradient scale at the default start, and lam
    falls 100x at a time until a solve meets the radius; none does by
    ``_LAM_MIN`` raises ``InfeasibleEpsilonError``.  After a solve at 100
    times the gradient scale closes the bracket, safeguarded secant
    (Illinois) steps on (log lam, log(sqjsd / epsilon)) follow, at most
    ``_MAX_SECANT``, each at most two decades above the feasible end.  The
    feasible solution of largest lam is kept; when its sqjsd is more than
    ``_CONSTRAINT_RTOL * epsilon`` (1 %) below the radius, it is scaled
    toward 0 until it lies within that band.  So the result has
    ``-_CONSTRAINT_RTOL * epsilon <= constraint_residual <= 0``, unless the
    origin meets the radius and is returned.  The result also counts the
    search's penalized solves and their iterations.
    """
    return solve_p2_batch([A], basis, [y], [epsilon], cfg, beta)[0]


def solve_p2_batch(
    A,
    basis: OrthonormalBasis,
    ys,
    epsilons,
    cfg: SolverConfig | None = None,
    beta: float = 0.0,
) -> list[SolveResult]:
    """``solve_p2`` on K independent problems that share a basis.

    ``A`` holds one operator per problem, as a list or a (K, N, m) stack;
    ``ys`` and ``epsilons`` hold one count vector and radius per problem.
    Each problem's radius search is one chain of ``solve_chains``, so a
    search runs its penalized solves back to back and result k is
    bit-identical to ``solve_p2`` on problem k alone.  An infeasible radius
    raises ``InfeasibleEpsilonError`` from the first search whose first
    solve shows it: searches on equally shaped operators run together, such
    groups run in the order of their first problem, and within a group the
    search whose first solve ends in the earliest pass raises (the lowest
    index on a tie).
    """
    K = len(A)
    if len(ys) != K or len(epsilons) != K:
        raise LengthMismatchError(f"{K} operators need as many counts and radii")
    for eps in epsilons:
        check_positive("epsilon", eps)
    A, counts = _problems(A, basis, ys)
    fit = FitTerm(FitKind.JSD, beta)
    searches = [_radius_search(A[k], basis, counts[k], epsilons[k], fit) for k in range(K)]
    return solve_chains(A, basis, counts, fit, searches, cfg)


def _radius_search(A, basis, counts, epsilon, fit):
    """The radius search of ``solve_p2`` for one problem, as a generator.

    It yields every penalized solve it needs as (lam, warm start), is sent
    the SolveResult, and returns the P2 SolveResult.
    """
    beta = fit.beta
    zero = np.zeros(A.shape[1])
    s_zero = _sqjsd_of(A, counts, zero, beta)
    if s_zero <= epsilon:
        # Constraint already slack at the origin: nothing beats ||0||_1.
        return SolveResult(
            theta_star=zero,
            iterations=0,
            converged=True,
            constraint_residual=s_zero - epsilon,
            lambda_used=None,
            n_solves=0,
            total_iterations=0,
        )

    scale = gradient_scale(A, basis, counts, fit)
    tol = _CONSTRAINT_RTOL * epsilon
    iterations = []

    def _solve(lam, warm):
        res = yield lam, warm
        iterations.append(res.iterations)
        return res, _sqjsd_of(A, counts, res.theta_star, beta)

    def _gap(s):
        # log(sqjsd / epsilon), finite at sqjsd = 0 too.
        return math.log(max(s, 1e-300) / epsilon)

    # The feasible end of the bracket: from the floor of the omniscient lambda
    # grid down, 100x at a time, each solve from the one before.
    lam_lo = _LAM_START * scale
    res, s = yield from _solve(lam_lo, None)
    while s > epsilon:
        if lam_lo <= _LAM_MIN:
            raise InfeasibleEpsilonError(
                f"achievable sqjsd {s:.4g} exceeds epsilon {epsilon:.4g}"
            )
        lam_lo /= 100.0
        res, s = yield from _solve(lam_lo, res.theta_star)
    best, s_best = res, s

    lam_hi = 100.0 * scale
    res, s_hi = yield from _solve(lam_hi, best.theta_star)
    if s_hi <= epsilon:
        best, lam_lo, s_best = res, lam_hi, s_hi
    else:
        # Secant steps on h(log lam) = log(sqjsd / eps) inside the bracket
        # [lam_lo, lam_hi], where h(lam_lo) <= 0 < h(lam_hi).
        h_lo, h_hi = _gap(s_best), _gap(s_hi)
        side = 0
        for _ in range(_MAX_SECANT):
            if s_best >= epsilon - tol:
                break
            if lam_hi / lam_lo < 1.01:
                # The map lam -> sqjsd jumps across epsilon here (support
                # collapse); fall through to the scaling refinement below.
                break
            x_lo, x_hi = math.log(lam_lo), math.log(lam_hi)
            frac = min(max(h_lo / (h_lo - h_hi), 0.02), 0.98)
            lam = math.exp(min(x_lo + frac * (x_hi - x_lo), x_lo + _LOG_MAX_STEP))
            res, s = yield from _solve(lam, best.theta_star)
            h = _gap(s)
            # Illinois: an end kept twice in a row has its h halved.
            if s <= epsilon:
                best, lam_lo, s_best, h_lo = res, lam, s, h
                if side == -1:
                    h_hi *= 0.5
                side = -1
            else:
                lam_hi, h_hi = lam, h
                if side == 1:
                    h_lo *= 0.5
                side = 1

    theta = best.theta_star
    if s_best < epsilon - tol:
        # The penalized path overshot the constraint.  Shrinking theta toward
        # zero keeps it feasible while strictly lowering the l1 objective, so
        # bisect the scale until sqjsd is within tol below epsilon; sqjsd of
        # the scaled copies rises continuously to s_zero > epsilon at 0.
        t_lo, t_hi = 0.0, 1.0
        for _ in range(60):
            t_mid = 0.5 * (t_lo + t_hi)
            s_mid = _sqjsd_of(A, counts, t_mid * theta, beta)
            if s_mid > epsilon:
                t_lo = t_mid
                continue
            t_hi, s_best = t_mid, s_mid
            if s_mid >= epsilon - tol:
                break
        theta = t_hi * theta

    return SolveResult(
        theta_star=theta,
        iterations=best.iterations,
        converged=best.converged,
        constraint_residual=s_best - epsilon,
        lambda_used=lam_lo,
        n_solves=len(iterations),
        total_iterations=sum(iterations),
    )


def rrmse(x, x_star) -> float:
    """Relative reconstruction error ||x - x*||_2 / ||x||_2."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise LengthMismatchError(f"estimate of shape {x_star.shape} for a signal of "
                                  f"shape {x.shape}")
    denom = float(np.linalg.norm(x))
    if denom == 0.0:
        raise InvalidParamError("rrmse undefined for a zero reference signal")
    return float(np.linalg.norm(x - x_star)) / denom
