from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrkit.gradedpoly import GradedPolynomial as GP


def test_construction_drops_zeros():
    p = GP.from_dict({0: 1, 3: 0, 2: 5})
    assert p.coeffs == ((0, 1), (2, 5))
    assert p.coeff(3) == 0 and p.coeff(2) == 5
    with pytest.raises(ValueError):
        GP.from_dict({-1: 2})


@pytest.mark.parametrize("mapping", [{0: F(1, 2)}, {F(3, 2): 2}, {0: F(2)}, {0: 2.0},
                                     {True: 1}, {0: True}, {"1": 1}])
def test_from_dict_takes_only_int_keys_and_coefficients(mapping):
    # int() used to truncate these: {0: 1/2} became 0 and {3/2: 2} became 2z
    with pytest.raises(ValueError, match="must be ints"):
        GP.from_dict(mapping)


def test_from_list_takes_only_int_coefficients():
    with pytest.raises(ValueError, match="must be ints"):
        GP.from_list([2.7, 1])


def test_arithmetic():
    p = GP.from_list([1, 2, 1])
    q = GP.from_list([0, 1])
    assert p + q == GP.from_list([1, 3, 1])
    assert p - p == GP.zero()
    assert q * q == GP.from_list([0, 0, 1])
    assert 3 * q == GP.from_list([0, 3])
    assert GP.geometric(3) == GP.from_list([1, 1, 1])
    with pytest.raises(ValueError):
        p + GP.one(2)


def test_degree_and_eval():
    p = GP.from_list([1, 4, 7, 6, 2], grid=2)
    assert p.degree == F(4, 2) == 2
    assert p.degree_key == 4
    assert p.evaluate_at_one() == 20


def test_reverse_and_palindromic():
    p = GP.from_list([1, 6, 1])
    assert p.is_palindromic()
    assert p.reverse(3) == GP.from_list([0, 1, 6, 1])
    assert not GP.from_list([1, 2]).is_palindromic()
    assert GP.from_list([1, 1, 0, 0]).is_palindromic(3) is False
    assert GP.zero().is_palindromic()


def test_one_minus_examples():
    # (1 + z + z^2)(1 - z) = 1 - z^3, and 1 + z^2 on grid 2 is 1 + z
    assert GP.geometric(3).times_one_minus(1) == GP.from_dict({0: 1, 3: -1})
    assert GP.from_dict({0: 1, 3: -1}).over_one_minus(1) == GP.geometric(3)
    assert GP.from_dict({0: 1, 3: -1}).over_one_minus(3) == GP.one()
    assert GP.from_list([1, 1, 1, 1]).over_one_minus(2) is None
    assert GP.from_list([1, 0, 1], grid=2).times_one_minus(F(1, 2)) == \
        GP.from_list([1, -1, 1, -1], grid=2)
    # (1 - z^2) * geom(2)(z^2) = 1 - z^4, read at exponent 2 on grid 1
    assert GP.from_dict({0: 1, 4: -1}).over_one_minus(2) == GP.from_dict({0: 1, 2: 1})


def test_one_minus_edge_cases():
    zero = GP.zero()
    assert zero.times_one_minus(3) == zero
    assert zero.over_one_minus(3) == zero
    assert GP.zero(2).over_one_minus(F(1, 2)) == GP.zero(2)
    assert GP.from_list([3]).over_one_minus(1) is None
    # z^e must be a positive multiple of 1/grid: z^(1/3) is not on grid 2
    for p, e in ((GP.one(2), F(1, 3)), (GP.one(), F(1, 2)), (GP.one(), 0), (GP.one(), -1)):
        for op in (p.times_one_minus, p.over_one_minus):
            with pytest.raises(ValueError, match="must be positive and on the grid"):
                op(e)


coefficient_lists = st.lists(st.integers(-6, 6), max_size=7)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(coefficient_lists, st.integers(1, 4), st.sampled_from([1, 2]))
def test_one_minus_round_trip(a, e, grid):
    """(p * (1 - z^e)) / (1 - z^e) == p on grids 1 and 2."""
    p = GP.from_list(a, grid)
    assert p.times_one_minus(F(e, grid)).over_one_minus(F(e, grid)) == p


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(coefficient_lists, coefficient_lists.filter(any), st.integers(1, 4),
       st.sampled_from([1, 2]))
def test_one_minus_refuses_a_remainder(a, rem, e, grid):
    """Any nonzero remainder of degree below e makes the division inexact."""
    assume(any(rem[:e]))
    product = GP.from_list(a, grid).times_one_minus(F(e, grid))
    assert (product + GP.from_list(rem[:e], grid)).over_one_minus(F(e, grid)) is None


def test_dominates():
    assert GP.from_list([1, 6, 1]).dominates(GP.from_list([1, 4, 1]))
    assert not GP.from_list([1, 4, 1]).dominates(GP.from_list([1, 6, 1]))


def test_grid_operations():
    p = GP.from_list([1, 4, 7, 6, 2])
    graded = p.regrade(2)
    assert graded.grid == 2 and graded.degree == 2
    assert graded.integer_part() == GP.from_list([1, 7, 2])


def test_text_rendering():
    assert GP.from_list([1, 4, 7, 6, 2], grid=2).text() == \
        "1 + 4*z^(1/2) + 7*z + 6*z^(3/2) + 2*z^2"
    assert GP.from_list([1, 6, 1]).text() == "1 + 6*z + z^2"
    assert GP.zero().text() == "0"
    assert GP.from_dict({1: -1, 0: 1}).text() == "1 - z"


def test_json_roundtrip():
    p = GP.from_list([1, 4, 7, 6, 2], grid=2)
    assert GP.from_json_dict(p.to_json_dict()) == p
    assert GP.from_json_dict({"grid": 2, "coeffs": {"0": 1, "+3": "-4"}}) == \
        GP.from_dict({0: 1, 3: -4}, grid=2)


@pytest.mark.parametrize("data", [
    {"grid": "2", "coeffs": {"0": 2.7, "1": True}},  # int() read this as 2 + z^(1/2)
    {"grid": "2", "coeffs": {"0": "2.7"}},
    {"grid": "2", "coeffs": {"0": True}},
    {"grid": "2", "coeffs": {"0.5": "1"}},
    {"grid": "2", "coeffs": {" 1": "1"}},
    {"grid": "2", "coeffs": {"1": "1_0"}},
    {"grid": "2", "coeffs": {"1": None}},
    {"grid": 2.0, "coeffs": {"0": "1"}},
    {"grid": True, "coeffs": {"0": "1"}},
    {"grid": "0", "coeffs": {"0": "1"}},
    {"grid": "-2", "coeffs": {"0": "1"}},
])
def test_from_json_dict_takes_only_integers(data):
    with pytest.raises(ValueError):
        GP.from_json_dict(data)


@pytest.mark.parametrize("grid", [0, -2, True, 1.5])
def test_constructors_take_only_a_positive_int_grid(grid):
    # grid 0 used to build a value whose degree raised ZeroDivisionError
    for make in (lambda: GP.from_dict({0: 1, 1: 1}, grid=grid), lambda: GP.from_list([1], grid),
                 lambda: GP.zero(grid), lambda: GP.one(grid), lambda: GP.monomial(1, 1, grid),
                 lambda: GP.geometric(2, grid), lambda: GP.one().regrade(grid)):
        with pytest.raises(ValueError, match="grid must be an int >= 1"):
            make()
