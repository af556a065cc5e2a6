"""Fragility of a deterministic electoral-college decision.

election_gfi finds the minimum number of nonvoter-to-beneficiary switches
that flips enough states for the beneficiary to win, by exact min-cost
knapsack over elector counts. sgfi_half_closed_form evaluates the
stochastic analogue in closed form: the smallest number m of uniformly
drawn eligible voters such that, with probability above one half, at least
g of them land in the decisive pool of K persuadable nonvoters (out of N
eligible), i.e. the minimal m with P[Hypergeometric(N, K, m) >= g] > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .cases import _csv_rows
from .core import UNBOUNDED, Index, is_unbounded
from .errors import InvalidParameterError, ParseError, SchemaError
from .stats import _bracket_crossing, _check_int, hypergeom_sf

__all__ = [
    "StateTally",
    "RaceResult",
    "ClosedFormSfi",
    "election_gfi",
    "sgfi_half_closed_form",
    "load_tally_csv",
    "load_us2000",
]


@dataclass(frozen=True)
class StateTally:
    """One state's two-candidate totals, abstaining pool, and elector count."""

    name: str
    votes_a: int
    votes_b: int
    nonvoters: int
    electors: int

    def __post_init__(self):
        for field_name in ("votes_a", "votes_b", "nonvoters", "electors"):
            v = getattr(self, field_name)
            _check_int(f"{self.name}: {field_name}", v)
            object.__setattr__(self, field_name, int(v))  # numpy integers too
        if self.electors < 1:
            raise InvalidParameterError(f"{self.name}: electors must be >= 1")

    @property
    def eligible(self) -> int:
        return self.votes_a + self.votes_b + self.nonvoters


@dataclass(frozen=True)
class RaceResult:
    """Minimum-switch solution plus the reduction parameters (N, K, g) that
    feed the stochastic closed form."""

    states: tuple[StateTally, ...]
    beneficiary: str
    electors_to_win: int
    index: Index  # total switches; 0 when already winning; UNBOUNDED if impossible
    flip_states: tuple[str, ...]
    per_state_switches: tuple[tuple[str, int], ...]
    eligible_total: int  # N: all eligible voters across states
    target_pool: int  # K: nonvoters in the flipped states
    switch_requirement: int  # g: total switches (= index when finite)

    @property
    def unbounded(self) -> bool:
        return is_unbounded(self.index)


def election_gfi(
    states: Sequence[StateTally],
    beneficiary: str = "a",
    electors_to_win: Optional[int] = None,
) -> RaceResult:
    """Minimum nonvoter switches for the beneficiary to win the college.

    A state is won by strict vote majority; flipping a lost state costs
    margin + 1 switches and is possible only when its nonvoter pool covers
    that. The elector knapsack is solved exactly; among equal-cost
    solutions the reconstruction prefers dropping later-listed states.
    """
    if beneficiary not in ("a", "b"):
        raise InvalidParameterError(f"beneficiary must be 'a' or 'b', got {beneficiary!r}")
    states = tuple(states)
    if not states:
        raise InvalidParameterError("need at least one state")
    names = [s.name for s in states]
    if len(set(names)) != len(names):
        raise InvalidParameterError("state names must be unique")
    total_electors = sum(s.electors for s in states)
    if electors_to_win is None:
        electors_to_win = total_electors // 2 + 1
    if not 1 <= electors_to_win <= total_electors:
        raise InvalidParameterError(
            f"electors_to_win must lie in [1, {total_electors}]"
        )

    held = 0
    flippable: list[tuple[int, int, int]] = []  # (state position, electors, cost)
    for pos, s in enumerate(states):
        ben, opp = (s.votes_a, s.votes_b) if beneficiary == "a" else (s.votes_b, s.votes_a)
        if ben > opp:
            held += s.electors
        else:
            cost = opp - ben + 1
            if cost <= s.nonvoters:
                flippable.append((pos, s.electors, cost))

    eligible_total = sum(s.eligible for s in states)
    deficit = electors_to_win - held
    if deficit <= 0:
        return RaceResult(
            states, beneficiary, electors_to_win, 0, (), (),
            eligible_total, 0, 0,
        )

    cap = sum(e for _, e, _ in flippable)
    if cap < deficit:
        return RaceResult(
            states, beneficiary, electors_to_win, UNBOUNDED, (), (),
            eligible_total, 0, 0,
        )

    INF = math.inf
    stages = [[INF] * (cap + 1)]
    stages[0][0] = 0.0
    for _, electors, cost in flippable:
        prev = stages[-1]
        cur = list(prev)
        for e in range(electors, cap + 1):
            cand = prev[e - electors] + cost
            if cand < cur[e]:
                cur[e] = cand
        stages.append(cur)

    final = stages[-1]
    best_cost, best_e = INF, -1
    for e in range(deficit, cap + 1):
        if final[e] < best_cost:
            best_cost, best_e = final[e], e

    # backtrack: a state is taken only when skipping it is strictly worse
    chosen: list[int] = []
    e = best_e
    for idx in range(len(flippable) - 1, -1, -1):
        _, electors, _ = flippable[idx]
        if stages[idx][e] > stages[idx + 1][e]:
            chosen.append(idx)
            e -= electors
    chosen.reverse()

    flips = [(states[flippable[i][0]].name, flippable[i][2]) for i in chosen]
    pool = sum(states[flippable[i][0]].nonvoters for i in chosen)
    g = int(best_cost)
    return RaceResult(
        states,
        beneficiary,
        electors_to_win,
        g,
        tuple(name for name, _ in flips),
        tuple(flips),
        eligible_total,
        pool,
        g,
    )


@dataclass(frozen=True)
class ClosedFormSfi:
    """Exact SGFI_(1/2) of the reduced election decision, plus the
    binomial-mean initializer ceil(g N / K) and its real-valued form."""

    index: int
    initializer: int
    approximation: float
    sf_at: float
    sf_below: float
    population: int
    pool: int
    switches: int


def sgfi_half_closed_form(population: int, pool: int, switches: int) -> ClosedFormSfi:
    """Minimal m with P[Hypergeometric(population, pool, m) >= switches] > 1/2.

    Gallops from the initializer until the crossing is bracketed, then
    bisects the monotone survival function, evaluated exactly by
    hypergeom_sf.
    """
    for name, v in (("population", population), ("pool", pool), ("switches", switches)):
        _check_int(name, v)
    population, pool, switches = int(population), int(pool), int(switches)
    if not 0 < pool <= population:
        raise InvalidParameterError("need 0 < pool <= population")
    if not 0 < switches <= pool:
        raise InvalidParameterError("need 0 < switches <= pool")

    approximation = switches * population / pool
    initializer = math.ceil(approximation)

    tails: dict[int, float] = {}  # the search's tails, reused for sf_at and sf_below

    def sf(m: int) -> float:
        if m not in tails:
            tails[m] = hypergeom_sf(population, pool, m, switches)
        return tails[m]

    # exact ties sf = 1/2 (e.g. pool 1, even population) must not count as
    # crossings just because the tail rounds an ulp high; sf(population) is
    # 1, so the crossing always exists
    exact = _bracket_crossing(
        sf, 0.5 + 1e-12, min(max(initializer, switches), population), population
    )
    return ClosedFormSfi(
        index=exact,
        initializer=initializer,
        approximation=approximation,
        sf_at=sf(exact),
        sf_below=sf(exact - 1),
        population=population,
        pool=pool,
        switches=switches,
    )


_TALLY_COLUMNS = ("state", "votes_a", "votes_b", "nonvoters", "electors")


def load_tally_csv(path: str) -> tuple[StateTally, ...]:
    """Read state tallies from a CSV with columns state, votes_a, votes_b,
    nonvoters, electors. A byte-order mark is skipped; bytes that are not
    UTF-8 and fields past the csv module's size limit raise ParseError."""
    out: list[StateTally] = []
    for rownum, row in _csv_rows(path, _TALLY_COLUMNS):
        name = row.get("state") or ""
        if not name:
            raise ParseError("missing state name", row=rownum)
        vals = {}
        for col in _TALLY_COLUMNS[1:]:
            raw = row.get(col)
            if raw is None or raw == "":
                raise ParseError(f"missing {col!r}", row=rownum)
            try:
                vals[col] = int(raw)
            except ValueError:
                raise ParseError(
                    f"{col!r} value {raw!r} is not an integer", row=rownum
                ) from None
        out.append(StateTally(name=name, **vals))
    if not out:
        raise SchemaError(f"{path}: no data rows")
    return tuple(out)


def load_us2000() -> tuple[StateTally, ...]:
    """The bundled 2000 US presidential tallies (candidate a = Gore,
    candidate b = Bush), state by state."""
    ref = resources.files("fragility").joinpath("data/us2000.csv")
    with resources.as_file(ref) as path:
        return load_tally_csv(str(path))
