from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrkit.gradedpoly import GradedPolynomial as GP

from helpers import fraction_divmod


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


def test_divmod_exact():
    p = GP.from_list([1, 1, 1, 1])
    q, r = p.divmod_exact(GP.from_list([1, 1]))
    assert q == GP.from_list([1, 0, 1]) and r.is_zero
    q, r = GP.from_list([1, 1, 1]).divmod_exact(GP.from_list([1, 1]))
    assert not r.is_zero


def test_divmod_exact_edge_cases():
    zero = GP.zero()
    assert zero.divmod_exact(zero) == (zero, zero)
    assert zero.divmod_exact(GP.from_list([1, 2])) == (zero, zero)
    with pytest.raises(ZeroDivisionError):
        GP.one().divmod_exact(zero)
    with pytest.raises(ValueError, match="non-integer"):
        GP.from_list([1, 1]).divmod_exact(GP.from_list([0, 2]))  # quotient 1/2
    with pytest.raises(ValueError, match="non-integer"):
        GP.from_list([0, 0, 1]).divmod_exact(GP.from_list([1, 2]))  # z/2 - 1/4
    # negative leading coefficients: 1 - z^3 = (1 + z + z^2)(1 - z) and
    # 1 + 5z - 2z^2 = (-2 + z)(1 - 2z) + 3, but z^2 / (1 - 2z) starts at -z/2
    assert GP.from_dict({0: 1, 3: -1}).divmod_exact(GP.from_list([1, -1])) == \
        (GP.from_list([1, 1, 1]), zero)
    assert GP.from_list([1, 5, -2]).divmod_exact(GP.from_list([1, -2])) == \
        (GP.from_list([-2, 1]), GP.from_list([3]))
    with pytest.raises(ValueError, match="non-integer"):
        GP.from_list([0, 0, 1]).divmod_exact(GP.from_list([1, -2]))
    assert GP.from_list([3]).divmod_exact(GP.from_list([1, -1])) == (zero, GP.from_list([3]))
    with pytest.raises(ValueError, match="grid mismatch"):
        GP.one().divmod_exact(GP.one(2))


coefficient_lists = st.lists(st.integers(-6, 6), max_size=7)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(coefficient_lists, coefficient_lists.filter(any), st.integers(1, 3), st.booleans())
def test_divmod_exact_is_long_division(a, b, grid, multiple):
    """Integer long division agrees with Fraction long division: the same
    quotient and remainder when they are integral, ValueError when not; and
    then q*b + r = a with deg r < deg b."""
    if multiple:  # an exact multiple plus a constant, so most divisions are integral
        a = (GP.from_list(a) * GP.from_list(b) + GP.from_list(a[:1])).as_dict()
        a = [a.get(k, 0) for k in range(max(a, default=-1) + 1)]
    A, B = GP.from_list(a, grid), GP.from_list(b, grid)
    quot, rem = fraction_divmod(a, b)
    if any(c.denominator != 1 for c in quot):
        with pytest.raises(ValueError, match="non-integer"):
            A.divmod_exact(B)
        return
    q, r = A.divmod_exact(B)
    assert q == GP.from_list([int(c) for c in quot], grid)
    assert r == GP.from_list([int(c) for c in rem], grid)
    assert q * B + r == A
    assert r.degree_key < B.degree_key


def test_dominates():
    assert GP.from_list([1, 6, 1]).dominates(GP.from_list([1, 4, 1]))
    assert not GP.from_list([1, 4, 1]).dominates(GP.from_list([1, 6, 1]))


def test_grid_operations():
    p = GP.from_list([1, 4, 7, 6, 2])
    graded = p.regrade(2)
    assert graded.grid == 2 and graded.degree == 2
    assert graded.integer_part() == GP.from_list([1, 7, 2])
    assert GP.from_dict({0: 1, 2: 5}, grid=2).simplified() == GP.from_list([1, 5])


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
