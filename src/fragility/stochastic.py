"""Stochastic (generalized) fragility indices.

SGFI_{r,q} is the smallest k such that a uniformly random k-subset of cases
admits permitted modifications reversing the decision with probability
exceeding r. probability_reversal estimates that probability by Monte
Carlo; sgfi finds the crossing by Polyak-Ruppert averaged stochastic
approximation, then confirms it by galloping from the rounded average
until r is bracketed and bisecting the bracket; exact_sfi_2x2 computes the
probabilities exactly on exchangeable 2x2 tables by summing multivariate
hypergeometric masses of reversible compositions.

Determinism: one generator per estimate, seeded by the estimate's seed;
results depend on (inputs, seed, trials).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cases import CaseFrame, Modifier
from .core import UNBOUNDED, Index, _frame_context, _table_context, gfi_greedy, is_unbounded
from .errors import DiagnosticError, InvalidParameterError
from .stats import Table2x2, TestSpec, _bracket_crossing, _check_int, _lchoose, is_significant

__all__ = [
    "ReversalEstimate",
    "SgfiConfig",
    "SgfiIteration",
    "SgfiResult",
    "ExactSfiResult",
    "probability_reversal",
    "sgfi",
    "exact_sfi_2x2",
]

RValue = Union[float, str]  # a probability level in [0, 1) or the "1-" sentinel

# exact composition enumeration refuses subset sizes beyond this
COMPOSITION_GUARD = 300
# exhaustive worst-case subset search (r = "1-", non-exchangeable) refuses
# frames larger than this
WORST_CASE_GUARD = 16


@dataclass(frozen=True, slots=True)
class ReversalEstimate:
    """Monte Carlo estimate of P[a uniform k-subset admits a reversal]."""

    k: int
    p_hat: float
    trials: int
    reversals: int
    seed: int


@dataclass(frozen=True)
class SgfiConfig:
    """Knobs for the stochastic root finder.

    r is the probability level ("1-" asks for the almost-sure index);
    trials is the per-iteration Monte Carlo size B; iterations is the
    Robbins-Monro horizon T; step_scale a0 defaults to n/4; the final
    answer is confirmed with confirm_factor * trials per estimate.
    threads is accepted and validated but has no effect.
    """

    r: RValue = 0.5
    trials: int = 200
    iterations: int = 60
    step_scale: Optional[float] = None
    gamma: float = 0.75
    burn_in: float = 0.2
    confirm_factor: int = 4
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if isinstance(self.r, str):
            if self.r != "1-":
                raise InvalidParameterError(f"r must be in [0, 1) or '1-', got {self.r!r}")
        elif not 0.0 <= float(self.r) < 1.0:
            raise InvalidParameterError(f"r must be in [0, 1) or '1-', got {self.r!r}")
        for name, lo in (("trials", 1), ("iterations", 2), ("confirm_factor", 1), ("seed", 0),
                         ("threads", 1)):
            _check_int(name, getattr(self, name), lo)
        if self.step_scale is not None and self.step_scale <= 0:
            raise InvalidParameterError("step_scale must be positive")
        if not 0.5 < self.gamma <= 1.0:
            raise InvalidParameterError("gamma must lie in (0.5, 1]")
        if not 0.0 <= self.burn_in < 1.0:
            raise InvalidParameterError("burn_in must lie in [0, 1)")


@dataclass(frozen=True, slots=True)
class SgfiIteration:
    """One Robbins-Monro step: estimate at k_eval, then move to k_next."""

    step: int
    k_eval: int
    p_hat: float
    k_next: float


@dataclass(frozen=True)
class SgfiResult:
    index: Index
    initial_significant: bool
    p_before: float
    r: RValue
    polyak_mean: float
    trajectory: tuple[SgfiIteration, ...]
    final_at: Optional[ReversalEstimate]
    final_below: Optional[ReversalEstimate]
    config: SgfiConfig

    @property
    def unbounded(self) -> bool:
        return is_unbounded(self.index)


@dataclass(frozen=True)
class ExactSfiResult:
    index: Index
    p_at: Optional[float]
    p_below: Optional[float]
    initial_significant: bool
    p_before: float

    @property
    def unbounded(self) -> bool:
        return is_unbounded(self.index)


def _derive_seed(*parts: int) -> int:
    ss = np.random.SeedSequence(entropy=tuple(int(x) for x in parts))
    return int(ss.generate_state(1, np.uint64)[0])


class _ReversalSampler:
    """Monte Carlo estimates of P[a uniform k-subset admits a permitted
    reversal] for one (frame, modifier, test).

    Exchangeable instances draw all trials' cell compositions at once and
    answer them with one lookup in the exact rectangle oracle (`ctx`);
    general instances sample case subsets and run the restricted greedy
    search. The context is set up once, so each estimate pays only for its
    draws.
    """

    def __init__(self, frame: CaseFrame, modifier: Modifier, test: TestSpec):
        self.frame, self.modifier, self.test = frame, modifier, test
        self.ctx = _frame_context(frame, modifier, test)

    def estimate(self, k: int, trials: int, seed: int) -> ReversalEstimate:
        """Every trial draws from one generator seeded by `seed`."""
        rng = np.random.default_rng(seed)
        if self.ctx is not None:
            comps = rng.multivariate_hypergeometric(self.ctx.table.as_tuple(), k, size=trials)
            hits = int(np.count_nonzero(self.ctx.comps_reversible(comps)))
        else:
            frame = self.frame
            hits = 0
            for _ in range(trials):
                sub = frame.case_ids[np.sort(rng.choice(frame.n, size=k, replace=False))]
                hits += not is_unbounded(
                    gfi_greedy(frame, self.modifier, self.test, restriction=sub).index
                )
        return ReversalEstimate(
            k=k, p_hat=hits / trials, trials=trials, reversals=hits, seed=seed
        )


def probability_reversal(
    k: int,
    frame: CaseFrame,
    modifier: Modifier,
    test: TestSpec,
    trials: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> ReversalEstimate:
    """Monte Carlo estimate of P[a uniform k-subset admits a permitted
    reversal].

    Exchangeable instances draw all trials' cell compositions at once and
    answer them with one lookup in the exact rectangle oracle; general
    instances sample case subsets and run the restricted greedy search.
    Every trial draws from one generator seeded by `seed`, so results
    depend only on (inputs, seed, trials). threads is accepted and
    validated but has no effect.
    """
    for name, v, lo in (("k", k, 0), ("trials", trials, 1), ("seed", seed, 0),
                        ("threads", threads, 1)):
        _check_int(name, v, lo)
    if k > frame.n:
        raise InvalidParameterError(f"k must lie in [0, {frame.n}], got {k}")
    return _ReversalSampler(frame, modifier, test).estimate(k, trials, seed)


def _deterministic_index(sampler: _ReversalSampler) -> Optional[int]:
    """Size of the package's deterministic minimal reversal: the exact
    permitted minimum on exchangeable instances, the greedy count
    otherwise; None when the full frame cannot be reversed."""
    if sampler.ctx is not None:
        found = sampler.ctx.min_cost()
        return None if found is None else found[0]
    res = gfi_greedy(sampler.frame, sampler.modifier, sampler.test)
    return None if is_unbounded(res.index) else abs(res.index)


def _worst_case_k(sampler: _ReversalSampler) -> int:
    """Smallest k such that EVERY k-subset admits a permitted reversal
    (the r = '1-' index). Caller guarantees the full frame is reversible."""
    if sampler.ctx is not None:
        return sampler.ctx.worst_case() + 1
    frame, modifier, test = sampler.frame, sampler.modifier, sampler.test
    if frame.n > WORST_CASE_GUARD:
        raise InvalidParameterError(
            f"r='1-' needs exhaustive subset search; frame has {frame.n} cases "
            f"(guard: {WORST_CASE_GUARD})"
        )
    ids = [int(c) for c in frame.case_ids]
    for k in range(1, frame.n + 1):
        if all(
            not is_unbounded(gfi_greedy(frame, modifier, test, restriction=sub).index)
            for sub in itertools.combinations(ids, k)
        ):
            return k
    raise DiagnosticError("reversible frame has no almost-sure index")  # pragma: no cover


def sgfi(
    frame: CaseFrame,
    modifier: Modifier,
    test: TestSpec,
    config: Optional[SgfiConfig] = None,
) -> SgfiResult:
    """Stochastic generalized fragility index SGFI_{r, q}.

    Finds the root of P[reversal by a uniform k-subset] - r by averaged
    stochastic approximation (k_{t+1} = clamp(k_t - a_t (p_hat - r), 1, n)
    with a_t = a0 / t^gamma), then confirms it under confirm_factor-times-
    larger estimates: from the rounded Polyak average it gallops (+-1, 2,
    4, ...) until r is bracketed and bisects the bracket, ending where
    p_hat(k) > r >= p_hat(k-1). Each confirmation estimate is seeded by its
    k alone, so the search makes O(log n) of them.

    r = 0 (or r below the smallest achievable positive subset probability)
    reduces to the deterministic index; r = "1-" asks for the smallest k
    such that every k-subset reverses, computed without sampling.
    """
    config = config or SgfiConfig()
    n = frame.n
    p0 = test.p_value(frame)
    sig0 = is_significant(p0, test.alpha)

    def result(index, polyak=math.nan, traj=(), at=None, below=None):
        return SgfiResult(
            index=index,
            initial_significant=sig0,
            p_before=p0,
            r=config.r,
            polyak_mean=polyak,
            trajectory=tuple(traj),
            final_at=at,
            final_below=below,
            config=config,
        )

    sampler = _ReversalSampler(frame, modifier, test)
    det = _deterministic_index(sampler)
    if det is None:
        return result(UNBOUNDED)

    if config.r == "1-":
        k = _worst_case_k(sampler)
        return result(k if sig0 else -k)

    r = float(config.r)
    # below the probability of hitting one specific det-sized subset, the
    # crossing provably sits at the deterministic index
    if r == 0.0 or math.log(r) < -_lchoose(n, det):
        return result(det if sig0 else -det)

    a0 = config.step_scale if config.step_scale is not None else n / 4.0
    # the crossing sits at or above the deterministic index, so that is a
    # far better anchor than n/2 when r is away from 1/2
    k_real = float(det)
    traj: list[SgfiIteration] = []
    for t in range(1, config.iterations + 1):
        k_eval = int(min(max(round(k_real), 1), n))
        est = sampler.estimate(k_eval, config.trials, _derive_seed(config.seed, 1, t))
        step = (a0 / t**config.gamma) * (est.p_hat - r)
        k_real = min(max(k_real - step, 1.0), float(n))
        traj.append(SgfiIteration(step=t, k_eval=k_eval, p_hat=est.p_hat, k_next=k_real))

    burn = int(math.ceil(config.iterations * config.burn_in))
    tail = [it.k_next for it in traj[burn:]]
    polyak = float(np.mean(tail))
    k_hat = int(min(max(round(polyak), 1), n))

    conf_trials = config.trials * config.confirm_factor
    confirmed: dict[int, ReversalEstimate] = {}

    def confirm(kk: int) -> ReversalEstimate:
        if kk not in confirmed:
            confirmed[kk] = sampler.estimate(
                kk, conf_trials, _derive_seed(config.seed, 2, kk)
            )
        return confirmed[kk]

    k_hat = _bracket_crossing(lambda kk: confirm(kk).p_hat, r, k_hat, n)
    if k_hat is None:  # pragma: no cover - p_hat(n) is 1 on a reversible frame
        raise DiagnosticError(
            f"confirmation search failed to bracket r={r}: p_hat({n}) <= r "
            f"after {len(confirmed)} estimates",
            trajectory=tuple(traj),
        )
    if k_hat > 1:
        below = confirm(k_hat - 1)
    else:
        # an empty subset never reverses; exact, no sampling needed
        below = ReversalEstimate(
            k=0, p_hat=0.0, trials=conf_trials, reversals=0,
            seed=_derive_seed(config.seed, 2, 0),
        )

    return result(
        k_hat if sig0 else -k_hat,
        polyak=polyak,
        traj=traj,
        at=confirm(k_hat),
        below=below,
    )


def exact_sfi_2x2(
    table: Table2x2,
    modifier: Modifier,
    test: TestSpec,
    r: float = 0.5,
    max_k: int = COMPOSITION_GUARD,
) -> ExactSfiResult:
    """Exact stochastic fragility index of an exchangeable 2x2 table under
    Fisher's exact test (any other test raises InvalidParameterError).

    Sums multivariate hypergeometric masses of reversible compositions to
    get P[E_k] exactly, returning the minimal k with P[E_k] > r along with
    the crossing probabilities. P[E_k] is 0 below the exact index and does
    not fall as k grows (a larger subset contains a smaller one), so the
    crossing is found by galloping from the exact index and bisecting.
    UNBOUNDED when even the full table admits no permitted reversal; a
    guard refuses k beyond max_k.
    """
    if isinstance(r, str) or not 0.0 <= float(r) < 1.0:
        raise InvalidParameterError(f"r must lie in [0, 1), got {r!r}")
    r = float(r)
    _check_int("max_k", max_k)
    ctx = _table_context(table, test, modifier)
    p0, sig0 = ctx.p0, ctx.sig0
    # whole=True holds the full grid: without it a perfbench trial_sweep
    # table takes about a tenth of the time, and a run outgrows the fresh
    # tables make_table can draw (the FOUND entry on
    # perfbench/workloads.py::make_table in CHANGES.md; ROADMAP's benchmark
    # item). Drop it once make_table is mended.
    found = ctx.min_cost(whole=True)
    if found is None:
        return ExactSfiResult(UNBOUNDED, None, None, sig0, p0)
    det = found[0]
    probs: dict[int, float] = {}

    def prob(k: int) -> float:
        if k < det:  # no subset smaller than the cheapest reversal reverses
            return 0.0
        if k not in probs:
            probs[k] = ctx.prob_reversal(k)
        return probs[k]

    limit = min(table.n, max_k)
    k = _bracket_crossing(prob, r, det, limit) if det <= limit else None
    if k is not None:
        return ExactSfiResult(k if sig0 else -k, prob(k), prob(k - 1), sig0, p0)
    raise InvalidParameterError(
        f"composition enumeration guard: P[E_k] has not crossed r={r} by k={max_k}"
    )
