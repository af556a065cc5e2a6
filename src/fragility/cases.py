"""Case-level data: long-format frames, outcome-modification plans, and the
sufficiently-likely modifier that decides which single-case changes are
permitted at threshold q.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DataError,
    InvalidParameterError,
    ParseError,
    SchemaError,
)
from .stats import Table2x2, logistic_fit, _design_matrix

__all__ = [
    "CaseFrame",
    "ModificationPlan",
    "Modifier",
    "frame_from_table",
    "table_from_frame",
    "empirical_modifier",
    "load_csv",
    "apply_plan",
    "reverse_plan",
]


def _codes(values: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    levels: list[str] = []
    index: dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        if v not in index:
            index[v] = len(levels)
            levels.append(v)
        codes[i] = index[v]
    return codes, tuple(levels)


@dataclass(frozen=True)
class CaseFrame:
    """Immutable long-format data: one row per case.

    Arm and outcome labels are stored as integer codes into the level
    tuples; levels are ordered by first appearance.
    """

    case_ids: np.ndarray
    arm_codes: np.ndarray
    arm_levels: tuple[str, ...]
    outcome_codes: np.ndarray
    outcome_levels: tuple[str, ...]
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.case_ids)
        if n == 0:
            raise InvalidParameterError("frame must contain at least one case")
        if len(self.arm_codes) != n or len(self.outcome_codes) != n:
            raise InvalidParameterError("column lengths differ")
        if len(np.unique(self.case_ids)) != n:
            raise InvalidParameterError("case_ids must be unique")
        if self.arm_codes.min() < 0 or self.arm_codes.max() >= len(self.arm_levels):
            raise InvalidParameterError("arm code out of range")
        if self.outcome_codes.min() < 0 or self.outcome_codes.max() >= len(
            self.outcome_levels
        ):
            raise InvalidParameterError("outcome code out of range")
        for name, col in self.covariates.items():
            if len(col) != n:
                raise InvalidParameterError(f"covariate {name!r} length differs")
        for arr in (self.case_ids, self.arm_codes, self.outcome_codes, *self.covariates.values()):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.case_ids)

    @property
    def arms(self) -> np.ndarray:
        return np.asarray(self.arm_levels, dtype=object)[self.arm_codes]

    @property
    def outcomes(self) -> np.ndarray:
        return np.asarray(self.outcome_levels, dtype=object)[self.outcome_codes]

    def positions_of(self, ids: Iterable[int]) -> np.ndarray:
        """Row positions of the given case ids (raises on unknown ids)."""
        lookup = {int(cid): i for i, cid in enumerate(self.case_ids)}
        try:
            return np.asarray([lookup[int(c)] for c in ids], dtype=np.int64)
        except KeyError as e:
            raise InvalidParameterError(f"unknown case id {e.args[0]}") from None

    def replace_outcomes(self, outcome_codes: np.ndarray) -> "CaseFrame":
        return CaseFrame(
            case_ids=self.case_ids,
            arm_codes=self.arm_codes,
            arm_levels=self.arm_levels,
            outcome_codes=np.array(outcome_codes, dtype=np.int64),
            outcome_levels=self.outcome_levels,
            covariates=self.covariates,
        )

    @staticmethod
    def from_columns(
        arms: Sequence[str],
        outcomes: Sequence[str],
        covariates: Optional[Mapping[str, Sequence[float]]] = None,
        case_ids: Optional[Sequence[int]] = None,
    ) -> "CaseFrame":
        arm_codes, arm_levels = _codes([str(a) for a in arms])
        out_codes, out_levels = _codes([str(o) for o in outcomes])
        n = len(arm_codes)
        ids = (
            np.arange(n, dtype=np.int64)
            if case_ids is None
            else np.asarray(case_ids, dtype=np.int64)
        )
        covs = {
            str(k): np.asarray(v, dtype=np.float64)
            for k, v in (covariates or {}).items()
        }
        return CaseFrame(ids, arm_codes, arm_levels, out_codes, out_levels, covs)


@dataclass(frozen=True)
class ModificationPlan:
    """Ordered single-case outcome changes: (case_id, new outcome label)."""

    entries: tuple[tuple[int, str], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def case_ids(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self.entries)


def apply_plan(frame: CaseFrame, plan: ModificationPlan) -> CaseFrame:
    """New frame with the plan's outcome changes applied.

    Each case may appear at most once and every change must be a real
    change to a known outcome level.
    """
    seen: set[int] = set()
    codes = np.array(frame.outcome_codes, dtype=np.int64)
    level_index = {lvl: k for k, lvl in enumerate(frame.outcome_levels)}
    positions = frame.positions_of(plan.case_ids).tolist()
    for (cid, new), pos in zip(plan.entries, positions):
        if cid in seen:
            raise InvalidParameterError(f"case {cid} modified more than once")
        seen.add(cid)
        if new not in level_index:
            raise InvalidParameterError(f"unknown outcome level {new!r}")
        if codes[pos] == level_index[new]:
            raise InvalidParameterError(f"case {cid}: plan entry is not a change")
        codes[pos] = level_index[new]
    return frame.replace_outcomes(codes)


def reverse_plan(frame: CaseFrame, plan: ModificationPlan) -> ModificationPlan:
    """Plan that undoes `plan` on apply_plan(frame, plan)."""
    codes = frame.outcome_codes[frame.positions_of(plan.case_ids)]
    levels = frame.outcome_levels
    return ModificationPlan(tuple((cid, levels[k]) for cid, k in zip(plan.case_ids, codes)))


def frame_from_table(table: Table2x2) -> CaseFrame:
    """Canonical long format: arm-1 events, arm-1 non-events, arm-2 events,
    arm-2 non-events, with case ids 0..n-1 in that order.

    The levels are always ("arm1", "arm2") and ("event", "nonevent"), also
    when a cell or a whole column is empty, so table_from_frame gives the
    table back and plans may name either outcome."""
    cells = table.as_tuple()
    return CaseFrame(
        np.arange(table.n, dtype=np.int64),
        np.repeat(np.array([0, 0, 1, 1], dtype=np.int64), cells),
        ("arm1", "arm2"),
        np.repeat(np.array([0, 1, 0, 1], dtype=np.int64), cells),
        ("event", "nonevent"),
    )


def table_from_frame(frame: CaseFrame) -> Table2x2:
    """Aggregate a (<=2 arms, <=2 outcomes) frame back to cell counts.

    Level order defines the orientation: first arm level is row 1, first
    outcome level is the event column.
    """
    if len(frame.arm_levels) > 2:
        raise InvalidParameterError("table aggregation needs at most two arms")
    if len(frame.outcome_levels) > 2:
        raise InvalidParameterError("table aggregation needs a binary outcome")
    a = int(np.sum((frame.arm_codes == 0) & (frame.outcome_codes == 0)))
    b = int(np.sum((frame.arm_codes == 0) & (frame.outcome_codes == 1)))
    c = int(np.sum((frame.arm_codes == 1) & (frame.outcome_codes == 0)))
    d = int(np.sum((frame.arm_codes == 1) & (frame.outcome_codes == 1)))
    return Table2x2(a, b, c, d)


@dataclass(frozen=True)
class Modifier:
    """Permitted-outcome-modification rule at likelihood threshold q.

    A change of case i to candidate level L is permitted when the modeled
    probability of L for that case is at least q and L differs from the
    case's original outcome. Probabilities come from a model fixed once
    against the original frame, so permissions do not drift while a search
    rewrites outcomes.
    """

    q: float
    outcome_levels: tuple[str, ...]
    probs: np.ndarray  # (n cases, n outcome levels)
    base_outcome_codes: np.ndarray
    base_arm_codes: np.ndarray
    cell_uniform: bool

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise InvalidParameterError(f"q must lie in [0, 1], got {self.q!r}")
        if np.any(self.probs < 0.0) or np.any(self.probs > 1.0):
            raise InvalidParameterError("modeled probabilities must lie in [0, 1]")
        self.probs.setflags(write=False)
        self.base_outcome_codes.setflags(write=False)
        self.base_arm_codes.setflags(write=False)

    def probability(self, position: int, level: str) -> float:
        return float(self.probs[position, self.outcome_levels.index(level)])

    def permitted(self, position: int, level: str) -> bool:
        k = self.outcome_levels.index(level)
        if k == self.base_outcome_codes[position]:
            return False
        return bool(self.probs[position, k] >= self.q)

    def permitted_matrix(self) -> np.ndarray:
        """(n, levels) boolean matrix of permitted changes."""
        m = self.probs >= self.q
        n = len(self.base_outcome_codes)
        m[np.arange(n), self.base_outcome_codes] = False
        return m

    @staticmethod
    def from_model(
        frame: CaseFrame,
        q: float,
        probability_model: Callable[[Mapping[str, object], str], float],
    ) -> "Modifier":
        """Build a modifier from an arbitrary per-case probability model.

        probability_model receives a row mapping (case_id, arm, outcome and
        the covariates) and a candidate outcome label.
        """
        n = frame.n
        L = len(frame.outcome_levels)
        probs = np.empty((n, L))
        for i in range(n):
            row: dict[str, object] = {
                "case_id": int(frame.case_ids[i]),
                "arm": frame.arm_levels[frame.arm_codes[i]],
                "outcome": frame.outcome_levels[frame.outcome_codes[i]],
            }
            for name, col in frame.covariates.items():
                row[name] = float(col[i])
            for k, level in enumerate(frame.outcome_levels):
                probs[i, k] = float(probability_model(row, level))
        return Modifier(
            q=q,
            outcome_levels=frame.outcome_levels,
            probs=probs,
            base_outcome_codes=np.array(frame.outcome_codes),
            base_arm_codes=np.array(frame.arm_codes),
            cell_uniform=_is_cell_uniform(frame, probs),
        )


def _is_cell_uniform(frame: CaseFrame, probs: np.ndarray) -> bool:
    """True when modeled probabilities are constant within each
    (arm, outcome) cell, which makes cases within a cell exchangeable."""
    key = frame.arm_codes * len(frame.outcome_levels) + frame.outcome_codes
    for cell in np.unique(key):
        rows = probs[key == cell]
        if rows.size and not np.all(rows == rows[0]):
            return False
    return True


def empirical_modifier(frame: CaseFrame, q: float) -> Modifier:
    """Sufficiently-likely modifier fit from the frame itself.

    Without covariates the model is the within-arm empirical outcome
    distribution; with covariates it is a logistic model of the outcome on
    arm and covariates, fit once to the original frame. Binary outcome
    required.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"q must lie in [0, 1], got {q!r}")
    if len(frame.outcome_levels) != 2:
        raise InvalidParameterError("empirical modifier needs a binary outcome")
    n = frame.n
    if frame.covariates:
        X = _design_matrix(frame, tuple(frame.covariates))
        fit = logistic_fit(X, frame.outcome_codes.astype(np.float64))
        if not fit.converged:
            raise DataError("modifier probability model did not converge")
        mu = 1.0 / (1.0 + np.exp(-(X @ fit.coefficients)))
        probs = np.column_stack([1.0 - mu, mu])
        uniform = False
    else:
        probs = np.empty((n, 2))
        for g in range(len(frame.arm_levels)):
            mask = frame.arm_codes == g
            size = int(mask.sum())
            if size == 0:
                continue  # an arm with no cases, as frame_from_table keeps both arms
            p1 = float(np.sum(frame.outcome_codes[mask] == 1)) / size
            probs[mask, 0] = 1.0 - p1
            probs[mask, 1] = p1
        uniform = True
    return Modifier(
        q=q,
        outcome_levels=frame.outcome_levels,
        probs=probs,
        base_outcome_codes=np.array(frame.outcome_codes),
        base_arm_codes=np.array(frame.arm_codes),
        cell_uniform=uniform,
    )


def _csv_rows(path: str, columns: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """(1-based data row, row dict) for each data row of a UTF-8 CSV with a
    header row, once the header holds `columns`. A byte-order mark is
    skipped. An empty file or a missing column raises SchemaError;
    undecodable bytes and unreadable fields, such as one past the csv
    module's field limit, raise ParseError, naming the data row when the
    reader knows it."""
    row = None  # the data row being read; None while reading the header
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file")
            missing = [c for c in columns if c not in reader.fieldnames]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            row = 1
            for record in reader:
                yield row, record
                row += 1
    except UnicodeDecodeError as e:
        # the decoder reads ahead of the csv reader, so no row is known
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:
        raise ParseError(f"{e} in {path}", row=row) from None


def load_csv(
    path: str,
    arm: str,
    outcome: str,
    covariates: Sequence[str] = (),
) -> CaseFrame:
    """Read a long-format CSV with a header row.

    Declared covariate columns are parsed as floats; parse failures and
    non-finite values (nan, inf) raise ParseError naming the 1-based data
    row, missing columns raise SchemaError. A byte-order mark is skipped;
    bytes that are not UTF-8 and fields past the csv module's size limit
    raise ParseError.
    """
    covariates = tuple(covariates)
    arms: list[str] = []
    outcomes: list[str] = []
    covs: dict[str, list[float]] = {name: [] for name in covariates}
    for rownum, row in _csv_rows(path, (arm, outcome, *covariates)):
        a = row.get(arm)
        o = row.get(outcome)
        if a is None or o is None or a == "" or o == "":
            raise ParseError(f"missing {arm!r} or {outcome!r} value", row=rownum)
        arms.append(a)
        outcomes.append(o)
        for name in covariates:
            raw = row.get(name)
            if raw is None or raw == "":
                raise ParseError(f"missing covariate {name!r}", row=rownum)
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(
                    f"covariate {name!r} value {raw!r} is not a finite number",
                    row=rownum,
                )
            covs[name].append(value)
    if not arms:
        raise DataError(f"{path}: no data rows")
    return CaseFrame.from_columns(arms, outcomes, covs)
