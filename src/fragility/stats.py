"""Hypothesis-test building blocks: 2x2 tables, exact hypergeometric tail
probabilities, the crossing search on monotone probability curves, Fisher's
exact test, logistic regression with Wald p-values, and the TestSpec bundle
consumed by the fragility searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from ._kernels import fisher_p, log_factorials
from .errors import InvalidParameterError, SingularDesignError, UnconvergedFitError

if TYPE_CHECKING:  # pragma: no cover
    from .cases import CaseFrame

__all__ = [
    "Table2x2",
    "LogisticFit",
    "TestSpec",
    "hypergeom_sf",
    "fisher_exact_two_sided",
    "logistic_fit",
    "wald_p",
    "is_significant",
    "fisher_test",
    "logistic_wald_test",
]

@dataclass(frozen=True)
class Table2x2:
    """Counts (a, b, c, d) = (arm-1 events, arm-1 non-events, arm-2 events,
    arm-2 non-events)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            _check_int(f"cell {name}", getattr(self, name))
        if self.n < 1:
            raise InvalidParameterError("table must contain at least one case")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def row1(self) -> int:
        return self.a + self.b

    @property
    def row2(self) -> int:
        return self.c + self.d

    @property
    def col1(self) -> int:
        return self.a + self.c

    @property
    def col2(self) -> int:
        return self.b + self.d

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def shifted(self, i: int, j: int) -> "Table2x2":
        """Table after net event shifts i in arm 1 and j in arm 2."""
        return Table2x2(self.a + i, self.b - i, self.c + j, self.d - j)

    def odds_ratio(self) -> float:
        if self.b == 0 or self.c == 0:
            return math.inf if self.a > 0 and self.d > 0 else math.nan
        return (self.a * self.d) / (self.b * self.c)


def _lchoose(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _check_int(name: str, v, lo: int = 0) -> None:
    """Refuse v unless it is an integer >= lo: Python and numpy integers
    pass, bool and floats (even integral ones) do not."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {v!r}")
    if v < lo:
        raise InvalidParameterError(f"{name} must be >= {lo}, got {v}")


def _check_hypergeom_params(population, successes, draws):
    for name, v in (("population", population), ("successes", successes), ("draws", draws)):
        _check_int(name, v)
    if not 0 <= successes <= population:
        raise InvalidParameterError("need 0 <= successes <= population")
    if not 0 <= draws <= population:
        raise InvalidParameterError("need 0 <= draws <= population")


def hypergeom_sf(population: int, successes: int, draws: int, threshold: int) -> float:
    """P[X >= threshold] for X ~ Hypergeometric(population, successes, draws).

    scipy.stats.hypergeom's exact tail at every population size; exactly 1
    and 0 outside the support.
    """
    _check_hypergeom_params(population, successes, draws)
    lo = max(0, draws - (population - successes))
    hi = min(draws, successes)
    if threshold <= lo:
        return 1.0
    if threshold > hi:
        return 0.0
    from scipy.stats import hypergeom  # imported on first use: it is slow to load

    return float(hypergeom.sf(threshold - 1, population, successes, draws))


def _bracket_crossing(p, r: float, start: int, n: int) -> Optional[int]:
    """A k in [1, n] with p(k) > r >= p(k - 1), p(0) being 0; None when
    p(n) <= r.

    From `start` (in [1, n]) the search gallops, probing start -+ 1, 2, 4,
    ... until r is bracketed, then bisects the bracket. On any p the answer
    meets the bracket condition; on a monotone p it is the crossing, found
    with at most 2 * ceil(log2 n) + 1 calls of p, none at 0 and none twice.
    """

    def above(k: int) -> bool:
        return k > 0 and p(k) > r

    step = 1
    if above(start):
        hi, lo = start, max(start - 1, 0)
        while above(lo):
            hi, step = lo, 2 * step
            lo = max(start - step, 0)
    else:
        lo = start
        while True:
            if lo >= n:
                return None
            hi = min(start + step, n)
            if above(hi):
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=64)
def _lf_cache(total: int) -> np.ndarray:
    lf = log_factorials(total)
    lf.setflags(write=False)
    return lf


def fisher_exact_two_sided(table: Table2x2) -> float:
    """Fisher's exact conditional two-sided p-value.

    Sums, over the support of the conditional hypergeometric distribution,
    every table whose pmf does not exceed the observed table's pmf (with a
    log slack of 32 eps * log(n!), at least 1e-12, so exact ties survive
    rounding). Degenerate margins give 1.
    """
    lf = _lf_cache(table.n)
    return float(fisher_p(lf, table.a, table.b, table.c, table.d))


@dataclass(frozen=True)
class LogisticFit:
    """Newton/IRLS fit of a binary-outcome logistic model."""

    coefficients: np.ndarray
    standard_errors: np.ndarray
    converged: bool
    separated: bool
    iterations: int
    deviance: float


def _deviance(y: np.ndarray, mu: np.ndarray) -> float:
    mu = np.clip(mu, 1e-12, 1 - 1e-12)
    return float(-2.0 * (y @ np.log(mu) + (1 - y) @ np.log1p(-mu)))


def logistic_fit(
    design: np.ndarray,
    outcomes: np.ndarray,
    max_iter: int = 50,
    tol_score: float = 1e-8,
    tol_dev: float = 1e-10,
) -> LogisticFit:
    """Fit a logistic regression by Newton's method (IRLS).

    Args:
        design: (n, p) float design matrix including any intercept column.
        outcomes: length-n 0/1 array.

    Raises InvalidParameterError on a design with nan or inf entries and
    SingularDesignError on rank-deficient designs. Separation is
    reported via the flags (converged=False, separated=True), never raised.
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidParameterError("design must be 2-dimensional")
    n, p = X.shape
    if y.shape != (n,):
        raise InvalidParameterError("outcomes length must match design rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InvalidParameterError("outcomes must be 0/1")
    if n < p:
        raise InvalidParameterError("need at least as many rows as parameters")
    if not np.all(np.isfinite(X)):
        raise InvalidParameterError("design must be finite (no nan or inf)")
    if np.linalg.matrix_rank(X) < p:
        raise SingularDesignError(f"design has rank < {p}")

    beta = np.zeros(p)
    eta = X @ beta
    mu = _sigmoid(eta)
    dev = _deviance(y, mu)
    converged = False
    it = 0
    info = None
    for it in range(1, max_iter + 1):
        w = mu * (1.0 - mu)
        score = X.T @ (y - mu)
        info = X.T @ (w[:, None] * X)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(info + 1e-8 * np.eye(p), score)
        beta = beta + step
        eta = X @ beta
        mu = _sigmoid(eta)
        new_dev = _deviance(y, mu)
        score_new = X.T @ (y - mu)
        rel = abs(new_dev - dev) / (abs(dev) + 1e-300)
        dev = new_dev
        if float(np.max(np.abs(score_new))) < tol_score or rel < tol_dev:
            converged = True
            break

    # separation: the likelihood has no interior maximum. Either the fit
    # predicts every case perfectly (score converges with probabilities
    # pinned to 0/1) or fitted log odds have run away; the Wald machinery
    # is meaningless in both situations.
    perfect = bool(np.all(np.abs(y - mu) < 1e-6))
    separated = perfect or bool(np.max(np.abs(eta)) > 30.0)
    if separated:
        converged = False

    if converged:
        w = mu * (1.0 - mu)
        info = X.T @ (w[:, None] * X)
        try:
            cov = np.linalg.inv(info)
        except np.linalg.LinAlgError:
            cov = np.linalg.inv(info + 1e-8 * np.eye(p))
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    else:
        se = np.full(p, np.nan)
    return LogisticFit(
        coefficients=beta,
        standard_errors=se,
        converged=converged,
        separated=separated,
        iterations=it,
        deviance=dev,
    )


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-eta) for eta >= 0 and e^eta / (1 + e^eta) below: neither
    # exponential overflows
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def wald_p(fit: LogisticFit, index: int) -> float:
    """Two-sided Wald p-value for one coefficient of a converged fit."""
    if not fit.converged:
        raise UnconvergedFitError(
            "Wald p-value requested from an unconverged fit"
            + (" (separation detected)" if fit.separated else "")
        )
    se = fit.standard_errors[index]
    if not np.isfinite(se) or se <= 0:
        raise UnconvergedFitError(f"no usable standard error for coefficient {index}")
    z = abs(fit.coefficients[index]) / se
    return _wald_tail(z)


def _wald_tail(z: float) -> float:
    """2 * Phi(-z) for z >= 0, NaN for NaN (erfc takes z / sqrt 2 as ndtr does)."""
    return math.erfc(z * math.sqrt(0.5))


def is_significant(p: float, alpha: float) -> bool:
    """Strict comparison p < alpha after validating both arguments."""
    if not (isinstance(p, (int, float, np.floating)) and 0.0 <= p <= 1.0):
        raise InvalidParameterError(f"p must lie in [0, 1], got {p!r}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    return p < alpha


@dataclass(frozen=True)
class TestSpec:
    """A decision rule: p_value over a case frame plus the alpha threshold.

    table_p, when present, evaluates the same test straight from 2x2 cell
    counts; on a binary frame with at most two arms the greedy search
    scores its flips through _TableFlipEval over table_p. The exact
    exchangeable-table machinery is Fisher-only: it serves the tests whose
    table_p is fisher_test's, and a custom table_p takes the greedy path.
    make_fast_eval, when present, builds a per-frame evaluator for the
    greedy search on other binary frames. An evaluator has refit(y), the
    p_value of the frame with outcome codes y, and p_after_flips(y, rows),
    the p-value after flipping each row in turn, computed in one batch;
    both match p_value up to solver tolerance, NaN where its fit is
    unusable.
    """

    name: str
    alpha: float
    p_value: Callable[["CaseFrame"], float]
    table_p: Optional[Callable[[int, int, int, int], float]] = None
    make_fast_eval: Optional[Callable[["CaseFrame"], object]] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParameterError(f"alpha must lie in (0, 1), got {self.alpha!r}")


def _fisher_table_p(a: int, b: int, c: int, d: int) -> float:
    """fisher_test's table_p; the exact 2x2 machinery recognises it."""
    return fisher_exact_two_sided(Table2x2(a, b, c, d))


def _fisher_frame_p(frame: "CaseFrame") -> float:
    from .cases import table_from_frame

    return fisher_exact_two_sided(table_from_frame(frame))


def fisher_test(alpha: float = 0.05) -> TestSpec:
    """Fisher's exact two-sided test on the frame's 2x2 aggregation."""
    return TestSpec(
        name="fisher", alpha=alpha, p_value=_fisher_frame_p, table_p=_fisher_table_p
    )


def _design_matrix(frame: "CaseFrame", covariates: Sequence[str]) -> np.ndarray:
    if len(frame.arm_levels) != 2:
        raise InvalidParameterError("logistic arm test needs exactly two arms")
    cols = [np.ones(frame.n), frame.arm_codes.astype(np.float64)]
    for name in covariates:
        if name not in frame.covariates:
            raise InvalidParameterError(f"unknown covariate {name!r}")
        cols.append(frame.covariates[name])
    return np.column_stack(cols)


class _TableFlipEval:
    """Single-flip p-values of a 2x2 table test for the greedy search.

    Every flip out of a cell moves the table the same way, so a batch
    scores at most four moved tables, one per cell that has a candidate,
    and each candidate gets its cell's p.
    """

    def __init__(self, frame: "CaseFrame", table_p: Callable[[int, int, int, int], float]):
        self._arm2 = 2 * frame.arm_codes  # cell = 2 * arm + outcome
        self._table_p = table_p

    def refit(self, y: np.ndarray) -> float:
        """p of the table with outcome codes y."""
        return self._table_p(*np.bincount(self._arm2 + y, minlength=4).tolist())

    def p_after_flips(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """p after flipping outcome y[r] for each candidate row r."""
        cell_of = self._arm2 + y
        counts = np.bincount(cell_of, minlength=4)
        cells = cell_of[rows]
        p_cell = np.empty(4)
        for cell in np.flatnonzero(np.bincount(cells, minlength=4)).tolist():
            moved = counts.copy()
            moved[cell] -= 1
            moved[cell ^ 1] += 1
            p_cell[cell] = self._table_p(*moved.tolist())
        return p_cell[cells]


class _LogisticFlipEval:
    """Batched single-flip refits for the greedy search.

    Every candidate's Newton refit starts from the current fit, so all
    candidates share the first step's weights and information and differ
    only in the score, by (1 - 2 y_r) x_r: one p x p solve with a column
    per candidate gives every first step (Pregibon's one-step update).
    Later steps compute eta, mu and the score only for candidates still
    unconverged, each information matrix being one product with the
    per-case outer products X_i X_i^T. A candidate left without a usable
    p (unconverged after MAX_STEPS, near separation or without a standard
    error) gets the cold `logistic_fit`, so the p-values are those of
    `p_value` up to solver tolerance and NaN exactly where its fit does
    not converge.
    """

    MAX_STEPS = 25
    # log odds past which a converged refit is near separation: the
    # likelihood is flat there, so where Newton stops depends on its path
    # and the cold fit decides (it applies logistic_fit's separation rules)
    NEAR_SEPARATION = 15.0

    def __init__(self, frame: "CaseFrame", covariates: Sequence[str]):
        self.X = _design_matrix(frame, covariates)
        self.n, self.p = self.X.shape
        # row i holds the outer product X_i X_i^T, flattened
        self.XX = (self.X[:, :, None] * self.X[:, None, :]).reshape(self.n, -1)
        self._ridge = 1e-12 * np.eye(self.p)
        self._base_beta = np.zeros(self.p)
        # cases with equal design rows share a group id (a lexsort: every
        # greedy search builds one of these, and np.unique(axis=0) costs
        # ten times as much)
        order = np.lexsort(self.X.T)
        new_row = np.any(np.diff(self.X[order], axis=0) != 0, axis=1)
        self._row_group = np.empty(self.n, dtype=np.int64)
        self._row_group[order] = np.concatenate(([0], np.cumsum(new_row)))

    def _info(self, w: np.ndarray) -> np.ndarray:
        """Information X^T diag(w_j) X for each row w_j of w, plus the ridge."""
        return (w @ self.XX).reshape(-1, self.p, self.p) + self._ridge

    def refit(self, y: np.ndarray) -> float:
        """Exact fit of the current outcome vector; updates the warm start."""
        fit = logistic_fit(self.X, y)
        if fit.converged:
            self._base_beta = fit.coefficients.copy()
        return wald_p(fit, 1)

    def p_after_flips(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Wald p of the arm coefficient after flipping outcome y[r] for each
        candidate row r (one at a time). NaN marks a refit that does not
        converge. Candidates with the same covariates and outcome have the
        same refit: the first of them is evaluated and its p copied, so
        they tie exactly."""
        y = np.asarray(y, dtype=np.float64)
        m = rows.size
        key = 2 * self._row_group[rows] + y[rows].astype(np.int64)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rep = first[inverse]  # each candidate's first twin
        distinct = np.flatnonzero(rep == np.arange(m))
        out = np.empty(m)
        out[distinct] = self._p_distinct(y, rows[distinct])
        return out[rep]

    def _p_distinct(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        X, m = self.X, rows.size
        beta = np.repeat(self._base_beta[None, :], m, axis=0)
        info = np.empty((m, self.p, self.p))
        ok = np.zeros(m, dtype=bool)  # converged short of separation

        def finish(fin, eta, fin_info):
            info[fin] = fin_info
            ok[fin] = np.max(np.abs(eta), axis=1) <= self.NEAR_SEPARATION

        # shared first step: only the score depends on the flipped row
        eta0 = X @ self._base_beta
        mu0 = _sigmoid(eta0)
        info0 = self._info((mu0 * (1.0 - mu0))[None, :])
        score = (y - mu0) @ X + (1.0 - 2.0 * y[rows])[:, None] * X[rows]
        done = np.max(np.abs(score), axis=1) < 1e-8
        finish(done, eta0[None, :], info0)
        act = np.flatnonzero(~done)
        beta[act] += np.linalg.solve(info0[0], score[act].T).T

        for _ in range(self.MAX_STEPS - 1):
            if act.size == 0:
                break
            eta = beta[act] @ X.T
            mu = _sigmoid(eta)
            resid = _flipped_resid(y, mu, rows[act])
            score = resid @ X
            done = np.max(np.abs(score), axis=1) < 1e-8
            step_info = self._info(mu * (1.0 - mu))
            finish(act[done], eta[done], step_info[done])
            act, score, step_info = act[~done], score[~done], step_info[~done]
            beta[act] += np.linalg.solve(step_info, score[:, :, None])[:, :, 0]

        out = np.full(m, np.nan)
        good = np.flatnonzero(ok)
        if good.size:
            cov = np.linalg.inv(info[good])
            se = np.sqrt(np.maximum(cov[:, 1, 1], 0.0))
            z = np.abs(beta[good, 1]) / np.where(se > 0, se, np.nan)
            out[good] = [_wald_tail(v) for v in z]
        for i in np.flatnonzero(np.isnan(out)):
            y2 = y.copy()
            y2[rows[i]] = 1.0 - y2[rows[i]]
            try:
                out[i] = wald_p(logistic_fit(X, y2), 1)
            except UnconvergedFitError:
                pass
        return out


def _flipped_resid(y: np.ndarray, mu: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Residuals y' - mu, row j's y' being y with entry flip[j] flipped."""
    resid = y - mu
    j = np.arange(flip.size)
    resid[j, flip] = (1.0 - y[flip]) - mu[j, flip]
    return resid


def logistic_wald_test(
    covariates: Sequence[str] = (),
    alpha: float = 0.05,
) -> TestSpec:
    """Wald test of the arm coefficient in a logistic model with the given
    covariate columns (intercept + arm indicator + covariates)."""
    covariates = tuple(covariates)

    def p_value(frame: "CaseFrame") -> float:
        X = _design_matrix(frame, covariates)
        fit = logistic_fit(X, frame.outcome_codes.astype(np.float64))
        return wald_p(fit, 1)

    def make_fast_eval(frame: "CaseFrame") -> _LogisticFlipEval:
        return _LogisticFlipEval(frame, covariates)

    name = "logistic_wald" if covariates else "logistic_wald_unadjusted"
    return TestSpec(
        name=name,
        alpha=alpha,
        p_value=p_value,
        table_p=None,
        make_fast_eval=make_fast_eval,
    )
