"""Electoral knapsack and hypergeometric closed form against enumeration.

The knapsack oracle tries every subset of flippable states; the closed
form is checked against an exact-Fraction hypergeometric survival CDF.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import hypergeom

from fragility.election import (
    StateTally,
    election_gfi,
    load_tally_csv,
    load_us2000,
    sgfi_half_closed_form,
)
from fragility.errors import InvalidParameterError, ParseError, SchemaError


def oracle_election(states, beneficiary="a", electors_to_win=None):
    """Minimum switch total over all subsets of losable states."""
    total = sum(s.electors for s in states)
    win = total // 2 + 1 if electors_to_win is None else electors_to_win
    held, flippable = 0, []
    for s in states:
        ben, opp = (s.votes_a, s.votes_b) if beneficiary == "a" else (s.votes_b, s.votes_a)
        if ben > opp:
            held += s.electors
        elif opp - ben + 1 <= s.nonvoters:
            flippable.append((s.electors, opp - ben + 1))
    best = None
    for size in range(len(flippable) + 1):
        for combo in itertools.combinations(flippable, size):
            if held + sum(e for e, _ in combo) >= win:
                cost = sum(c for _, c in combo)
                if best is None or cost < best:
                    best = cost
    return best  # None when no subset reaches the threshold


def st(name, a, b, non, el):
    return StateTally(name=name, votes_a=a, votes_b=b, nonvoters=non, electors=el)


# --- the deterministic knapsack -------------------------------------------------


def test_two_state_example():
    # margins 10 and 100; one elector suffices, so only the cheap state flips
    states = [st("near", 100, 110, 50, 1), st("far", 100, 200, 300, 1)]
    res = election_gfi(states, electors_to_win=1)
    assert res.index == 11
    assert res.flip_states == ("near",)
    assert res.per_state_switches == (("near", 11),)
    assert res.target_pool == 50
    assert res.switch_requirement == 11


def test_ties_are_not_held_and_cost_one():
    states = [st("tied", 70, 70, 10, 3)]
    res = election_gfi(states)
    assert res.index == 1
    assert res.per_state_switches == (("tied", 1),)


def test_already_winning_is_zero():
    states = [st("safe", 90, 10, 5, 3), st("lost", 10, 90, 5, 2)]
    res = election_gfi(states)
    assert res.index == 0
    assert res.flip_states == ()
    assert res.target_pool == 0 and res.switch_requirement == 0
    assert not res.unbounded


def test_unbounded_when_pool_too_small():
    # flipping needs 11 switches but only 10 nonvoters exist
    res = election_gfi([st("dry", 100, 110, 10, 1)])
    assert res.unbounded
    assert res.flip_states == ()


def test_unbounded_when_electors_cannot_reach_threshold():
    states = [st("big", 10, 90, 0, 10), st("small", 40, 50, 100, 1)]
    res = election_gfi(states)  # needs 6, the only flippable state has 1
    assert res.unbounded


@settings(max_examples=40, deadline=None)
@given(data=hst.data())
def test_knapsack_matches_subset_enumeration(data):
    n = data.draw(hst.integers(1, 7))
    states = []
    for i in range(n):
        a = data.draw(hst.integers(0, 30))
        b = data.draw(hst.integers(0, 30))
        non = data.draw(hst.integers(0, 60))
        el = data.draw(hst.integers(1, 6))
        states.append(st(f"s{i}", a, b, non, el))
    res = election_gfi(states)
    want = oracle_election(states)
    if want is None:
        assert res.unbounded
        return
    assert res.index == want
    # the reported flips are consistent and sufficient
    by_name = {s.name: s for s in states}
    assert res.index == sum(c for _, c in res.per_state_switches)
    electors = 0
    for name, cost in res.per_state_switches:
        s = by_name[name]
        assert cost == s.votes_b - s.votes_a + 1
        assert cost <= s.nonvoters
        electors += s.electors
    held = sum(s.electors for s in states if s.votes_a > s.votes_b)
    assert held + electors >= res.electors_to_win
    assert res.target_pool == sum(by_name[nm].nonvoters for nm in res.flip_states)


def test_election_gfi_validation():
    good = [st("x", 1, 2, 3, 1)]
    with pytest.raises(InvalidParameterError):
        election_gfi(good, beneficiary="c")
    with pytest.raises(InvalidParameterError):
        election_gfi([])
    with pytest.raises(InvalidParameterError):
        election_gfi([st("x", 1, 2, 3, 1), st("x", 4, 5, 6, 1)])
    with pytest.raises(InvalidParameterError):
        election_gfi(good, electors_to_win=2)


def test_state_tally_validation():
    with pytest.raises(InvalidParameterError):
        st("neg", -1, 2, 3, 1)
    with pytest.raises(InvalidParameterError):
        st("zero electors", 1, 2, 3, 0)
    with pytest.raises(InvalidParameterError):
        StateTally(name="f", votes_a=1.5, votes_b=2, nonvoters=3, electors=1)
    with pytest.raises(InvalidParameterError):
        st("bool", True, 2, 3, 1)
    assert st("ok", 10, 20, 30, 2).eligible == 60
    numpy_ints = st("np", np.int64(5), np.int32(3), np.uint8(1), np.int64(3))
    assert numpy_ints == st("np", 5, 3, 1, 3)
    assert type(numpy_ints.votes_a) is int


# --- the bundled race -----------------------------------------------------------


def test_us2000_fixture_totals():
    states = load_us2000()
    assert len(states) == 51
    assert sum(s.eligible for s in states) == 194331526
    assert sum(s.electors for s in states) == 538
    florida = next(s for s in states if s.name == "Florida")
    assert florida.votes_b - florida.votes_a == 537
    assert florida.nonvoters == 2693686
    assert florida.electors == 25


def test_us2000_race_reduction():
    states = load_us2000()
    res = election_gfi(states)
    assert res.index == 538
    assert res.flip_states == ("Florida",)
    assert res.per_state_switches == (("Florida", 538),)
    assert res.electors_to_win == 270
    assert res.eligible_total == 194331526
    assert res.target_pool == 2693686
    assert res.switch_requirement == 538


def test_us2000_other_side_already_winning():
    res = election_gfi(load_us2000(), beneficiary="b")
    assert res.index == 0


def test_us2000_closed_form():
    cf = sgfi_half_closed_form(194331526, 2693686, 538)
    assert cf.initializer == 38814
    assert cf.approximation == pytest.approx(38813.1211, abs=1e-3)
    assert cf.index == 38789
    assert cf.sf_at > 0.5 >= cf.sf_below
    # the binomial-mean initializer sits within half a percent of the root
    assert abs(cf.index - cf.initializer) / cf.index < 0.005


# --- the closed form ------------------------------------------------------------


def fraction_sf(population, pool, draws, threshold):
    if draws < threshold:
        return Fraction(0)
    total = Fraction(0)
    for x in range(threshold, min(pool, draws) + 1):
        if draws - x <= population - pool:
            total += Fraction(
                math.comb(pool, x) * math.comb(population - pool, draws - x),
                math.comb(population, draws),
            )
    return total


def oracle_closed_form(population, pool, switches):
    for m in range(1, population + 1):
        if fraction_sf(population, pool, m, switches) > Fraction(1, 2):
            return m
    return None


@pytest.mark.parametrize(
    "population,pool,switches",
    [
        (60, 13, 4),
        (40, 40, 7),  # pool == population: every draw counts
        (100, 1, 1),  # sf hits exactly 1/2 at m = 50; the crossing is 51
        (4, 2, 1),
        (37, 12, 12),  # switches == pool: nearly the whole population
        (55, 20, 9),
    ],
)
def test_closed_form_matches_fraction_oracle(population, pool, switches):
    want = oracle_closed_form(population, pool, switches)
    got = sgfi_half_closed_form(population, pool, switches)
    assert got.index == want
    assert got.sf_at == pytest.approx(
        float(fraction_sf(population, pool, want, switches)), abs=1e-12
    )
    assert got.sf_below == pytest.approx(
        float(fraction_sf(population, pool, want - 1, switches)), abs=1e-12
    )


@pytest.mark.parametrize(
    "population,pool,switches",
    [(201884519, 2625052, 4660), (248335012, 700631, 3995), (139535251, 226617, 750)],
)
def test_closed_form_is_the_smallest_crossing_above_ten_million(population, pool, switches):
    # above 10^7 an approximate tail can pick the wrong m; scipy's exact
    # tail is the reference
    m = sgfi_half_closed_form(population, pool, switches).index
    assert hypergeom.sf(switches - 1, population, pool, m) > 0.5
    assert hypergeom.sf(switches - 1, population, pool, m - 1) <= 0.5


def test_closed_form_pool_equals_population_is_identity():
    assert sgfi_half_closed_form(40, 40, 7).index == 7
    assert sgfi_half_closed_form(9, 9, 9).index == 9


def test_closed_form_validation():
    with pytest.raises(InvalidParameterError):
        sgfi_half_closed_form(10, 0, 1)
    with pytest.raises(InvalidParameterError):
        sgfi_half_closed_form(10, 11, 1)
    with pytest.raises(InvalidParameterError):
        sgfi_half_closed_form(10, 5, 0)
    with pytest.raises(InvalidParameterError):
        sgfi_half_closed_form(10, 5, 6)
    with pytest.raises(InvalidParameterError):
        sgfi_half_closed_form(10.0, 5, 2)
    with pytest.raises(InvalidParameterError):
        sgfi_half_closed_form(10, True, 1)


def test_closed_form_accepts_numpy_integers():
    want = sgfi_half_closed_form(1000, 100, 5)
    got = sgfi_half_closed_form(np.int64(1000), np.int32(100), np.uint8(5))
    assert got == want
    assert type(got.population) is int and type(got.index) is int


# --- tally files ----------------------------------------------------------------


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_tally_csv_round_trip(tmp_path):
    p = write(
        tmp_path / "race.csv",
        "state,votes_a,votes_b,nonvoters,electors\n"
        "alpha,10,20,30,4\n"
        "beta,5,6,7,8\n",
    )
    states = load_tally_csv(p)
    assert states == (st("alpha", 10, 20, 30, 4), st("beta", 5, 6, 7, 8))


def test_load_tally_csv_errors(tmp_path):
    with pytest.raises(SchemaError, match="missing columns"):
        load_tally_csv(write(tmp_path / "a.csv", "state,votes_a\nx,1\n"))
    with pytest.raises(SchemaError, match="no data rows"):
        load_tally_csv(
            write(tmp_path / "b.csv", "state,votes_a,votes_b,nonvoters,electors\n")
        )
    with pytest.raises(ParseError, match="row 2"):
        load_tally_csv(
            write(
                tmp_path / "c.csv",
                "state,votes_a,votes_b,nonvoters,electors\n"
                "x,1,2,3,4\n"
                "y,1,two,3,4\n",
            )
        )
    with pytest.raises(ParseError):
        load_tally_csv(
            write(
                tmp_path / "d.csv",
                "state,votes_a,votes_b,nonvoters,electors\n,1,2,3,4\n",
            )
        )
