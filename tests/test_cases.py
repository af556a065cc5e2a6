"""Case frames, plans, modifiers, and CSV ingestion."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from conftest import write_csv
from fragility.cases import (
    CaseFrame,
    ModificationPlan,
    Modifier,
    apply_plan,
    empirical_modifier,
    frame_from_table,
    load_csv,
    reverse_plan,
    table_from_frame,
)
from fragility.election import load_tally_csv
from fragility.errors import (
    DataError,
    InvalidParameterError,
    ParseError,
    SchemaError,
)
from fragility.stats import Table2x2


def test_frame_round_trip(table3):
    frame = frame_from_table(table3)
    assert frame.n == table3.n
    assert table_from_frame(frame).as_tuple() == table3.as_tuple()
    # canonical layout: ids run 0..n-1 through cells a, b, c, d
    assert list(frame.case_ids[:3]) == [0, 1, 2]
    assert frame.arm_levels == ("arm1", "arm2")
    assert frame.outcome_levels == ("event", "nonevent")
    # empty cells, columns and arms keep both level tuples, so the table
    # comes back unchanged rather than with its columns swapped, and the
    # modifier sees a binary outcome (every change permitted at q=0)
    for cells in ((0, 2, 3, 5), (0, 2, 0, 5), (3, 0, 4, 0), (0, 0, 3, 5)):
        frame = frame_from_table(Table2x2(*cells))
        assert table_from_frame(frame).as_tuple() == cells
        assert frame.arm_levels == ("arm1", "arm2")
        assert frame.outcome_levels == ("event", "nonevent")
        assert empirical_modifier(frame, 0.0).permitted_matrix().sum() == frame.n


def test_frame_from_columns_validation():
    with pytest.raises(InvalidParameterError):
        CaseFrame.from_columns(["a", "b"], ["x"])  # length mismatch
    with pytest.raises(InvalidParameterError):
        CaseFrame.from_columns(["a", "b"], ["x", "y"], case_ids=[1, 1])


def test_table_from_frame_requires_two_by_two():
    frame = CaseFrame.from_columns(["a", "b", "c"], ["x", "x", "y"])
    with pytest.raises(InvalidParameterError):
        table_from_frame(frame)


def test_apply_and_reverse_plan(frame3):
    plan = ModificationPlan(entries=((0, "nonevent"), (5, "nonevent")))
    moved = apply_plan(frame3, plan)
    assert table_from_frame(moved).as_tuple() == (100, 328, 216, 985)
    back = reverse_plan(frame3, plan)
    assert table_from_frame(apply_plan(moved, back)).as_tuple() == (102, 326, 216, 985)


def test_apply_plan_rejects_bad_entries(frame3):
    with pytest.raises(InvalidParameterError):
        apply_plan(frame3, ModificationPlan(entries=((0, "event"),)))  # no-op
    with pytest.raises(InvalidParameterError):
        apply_plan(frame3, ModificationPlan(entries=((0, "nonevent"), (0, "event"))))
    with pytest.raises(InvalidParameterError):
        apply_plan(frame3, ModificationPlan(entries=((0, "banana"),)))
    with pytest.raises(InvalidParameterError):
        apply_plan(frame3, ModificationPlan(entries=((999999, "nonevent"),)))


@settings(max_examples=60, deadline=None)
@given(data=hst.data())
def test_plan_round_trip_property(data):
    n = data.draw(hst.integers(2, 30))
    arms = data.draw(
        hst.lists(hst.sampled_from(["t", "c"]), min_size=n, max_size=n)
    )
    outs = data.draw(
        hst.lists(hst.sampled_from(["yes", "no"]), min_size=n, max_size=n)
    )
    # a flip target must be a level the frame has seen
    assume(len(set(outs)) == 2)
    frame = CaseFrame.from_columns(arms, outs)
    flip = {"yes": "no", "no": "yes"}
    ids = data.draw(
        hst.lists(hst.integers(0, n - 1), unique=True, min_size=1, max_size=n)
    )
    entries = tuple(
        (i, flip[frame.outcome_levels[frame.outcome_codes[i]]]) for i in ids
    )
    plan = ModificationPlan(entries=entries)
    moved = apply_plan(frame, plan)
    restored = apply_plan(moved, reverse_plan(frame, plan))
    assert np.array_equal(restored.outcome_codes, frame.outcome_codes)


# --- modifiers ----------------------------------------------------------------


def test_empirical_modifier_cell_probabilities(frame3):
    mod = empirical_modifier(frame3, q=0.5)
    # within-arm outcome rates: arm1 event 102/428, arm2 event 216/1201
    assert mod.probability(0, "nonevent") == pytest.approx(326 / 428)
    assert mod.probability(0, "event") == pytest.approx(102 / 428)
    assert mod.cell_uniform


def test_modifier_boundary_is_exactly_326_over_428(frame3):
    boundary = Fraction(326, 428)
    below = empirical_modifier(frame3, q=float(boundary) - 1e-9)
    at = empirical_modifier(frame3, q=float(boundary))
    above = empirical_modifier(frame3, q=float(boundary) + 1e-9)
    # position 0 is an arm-1 event; moving it to nonevent has probability
    # 326/428, which is permitted while q <= 326/428
    assert below.permitted(0, "nonevent")
    assert at.permitted(0, "nonevent")
    assert not above.permitted(0, "nonevent")


def test_permitted_matrix_masks_current_outcome(frame3):
    mod = empirical_modifier(frame3, q=0.0)
    mat = mod.permitted_matrix()
    assert mat.shape == (frame3.n, 2)
    # a case's current outcome is never a "modification"
    assert not mat[np.arange(frame3.n), frame3.outcome_codes].any()
    # at q=0 every real change is permitted
    others = mat.sum(axis=1)
    assert (others == 1).all()


@settings(max_examples=40, deadline=None)
@given(
    q1=hst.floats(0, 1, allow_nan=False),
    q2=hst.floats(0, 1, allow_nan=False),
)
def test_permitted_set_shrinks_in_q(frame3, q1, q2):
    lo, hi = min(q1, q2), max(q1, q2)
    m_lo = empirical_modifier(frame3, q=lo).permitted_matrix()
    m_hi = empirical_modifier(frame3, q=hi).permitted_matrix()
    assert not (m_hi & ~m_lo).any()  # everything permitted at hi stays at lo


def test_modifier_from_model_and_uniform_detection(frame3):
    def model(row, level):
        return 0.5

    mod = Modifier.from_model(frame3, q=0.2, probability_model=model)
    assert mod.cell_uniform

    def jitter(row, level):
        return 0.5 + (row["case_id"] % 7) * 1e-3

    mod2 = Modifier.from_model(frame3, q=0.2, probability_model=jitter)
    assert not mod2.cell_uniform


def test_empirical_modifier_validation(frame3):
    with pytest.raises(InvalidParameterError):
        empirical_modifier(frame3, q=-0.1)
    with pytest.raises(InvalidParameterError):
        empirical_modifier(frame3, q=1.1)
    three = CaseFrame.from_columns(["a", "a", "b"], ["x", "y", "z"])
    with pytest.raises(InvalidParameterError):
        empirical_modifier(three, q=0.0)


# --- CSV ingestion -------------------------------------------------------------


def _write(tmp_path, text):
    path = tmp_path / "cases.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_happy_path(tmp_path):
    path = _write(
        tmp_path,
        "id,arm,outcome,age\n"
        "0,t,yes,50\n"
        "1,t,no,61\n"
        "2,c,yes,48\n"
        "3,c,no,70\n",
    )
    frame = load_csv(path, arm="arm", outcome="outcome", covariates=("age",))
    assert frame.n == 4
    assert frame.arm_levels == ("t", "c")
    assert frame.covariates["age"][3] == 70.0
    assert table_from_frame(frame).as_tuple() == (1, 1, 1, 1)


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "arm,outcome\na,x\n")
    with pytest.raises(SchemaError):
        load_csv(path, arm="arm", outcome="nope")
    with pytest.raises(SchemaError):
        load_csv(path, arm="arm", outcome="outcome", covariates=("age",))


def test_load_csv_bad_covariate_reports_row(tmp_path):
    path = _write(
        tmp_path,
        "arm,outcome,age\nt,yes,50\nt,no,sixty\n",
    )
    with pytest.raises(ParseError) as err:
        load_csv(path, arm="arm", outcome="outcome", covariates=("age",))
    assert "row 2" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_load_csv_non_finite_covariate_reports_row(tmp_path, bad):
    path = _write(tmp_path, f"arm,outcome,age\nt,yes,50\nt,no,{bad}\n")
    with pytest.raises(ParseError, match="finite") as err:
        load_csv(path, arm="arm", outcome="outcome", covariates=("age",))
    assert "row 2" in str(err.value)


def test_load_csv_empty_rows(tmp_path):
    path = _write(tmp_path, "arm,outcome\n")
    with pytest.raises(DataError):
        load_csv(path, arm="arm", outcome="outcome")


def test_load_csv_blank_field_reports_row(tmp_path):
    path = _write(tmp_path, "arm,outcome\nt,yes\n,no\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, arm="arm", outcome="outcome")
    assert "row 2" in str(err.value)


def case_labels(path):
    frame = load_csv(path, arm="arm", outcome="outcome")
    return frame.arms.tolist(), frame.outcomes.tolist()


# load_csv and load_tally_csv read files through one row reader
READERS = {"cases": case_labels, "tally": load_tally_csv}


@pytest.mark.parametrize("copies", [1, 1500], ids=["in-header-chunk", "past-first-chunk"])
@pytest.mark.parametrize("layout", sorted(READERS))
def test_csv_readers_refuse_undecodable_bytes(tmp_path, layout, copies):
    # the decoder reads ahead of the rows, so no row is named
    path = write_csv(tmp_path / "bad.csv", layout, "undecodable", copies)
    with pytest.raises(ParseError, match="not UTF-8") as err:
        READERS[layout](path)
    assert err.value.row is None


@pytest.mark.parametrize("layout", sorted(READERS))
def test_csv_readers_refuse_an_over_long_field(tmp_path, layout):
    path = write_csv(tmp_path / "long.csv", layout, "long-field")
    with pytest.raises(ParseError, match="field limit") as err:
        READERS[layout](path)
    assert err.value.row == 3


@pytest.mark.parametrize("layout", sorted(READERS))
def test_csv_readers_skip_a_byte_order_mark(tmp_path, layout):
    read = READERS[layout]
    plain = read(write_csv(tmp_path / "plain.csv", layout))
    assert read(write_csv(tmp_path / "bom.csv", layout, "bom")) == plain
