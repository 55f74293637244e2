"""Integer-coefficient polynomials on the exponent grid (1/s) * Z>=0.

The same value type carries classical h*-polynomials (grid 1) and the
fractional-exponent numerators of rational Ehrhart series (grid r or 2r).
A key k stands for the monomial z^(k/grid); zero coefficients are never
stored, so equality is structural.  Keys and coefficients must be ints (in
JSON, ints or decimal-integer strings), the grid an int >= 1, and every
operation stays in integer arithmetic.  Series identities multiply and
divide by 1 - z^e alone; exact division by it is a running sum at stride e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GradedPolynomial:
    grid: int
    coeffs: tuple[tuple[int, int], ...]  # sorted (key, coeff) pairs, coeff != 0

    def __post_init__(self):
        if type(self.grid) is not int or self.grid < 1:
            raise ValueError("grid must be an int >= 1, got %r" % (self.grid,))

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_dict(mapping, grid: int = 1) -> "GradedPolynomial":
        items = []
        for k, c in mapping.items():
            if type(k) is not int or type(c) is not int:
                raise ValueError("exponent keys and coefficients must be ints")
            if k < 0:
                raise ValueError("exponent keys must be nonnegative")
            if c:
                items.append((k, c))
        return GradedPolynomial(grid, tuple(sorted(items)))

    @staticmethod
    def from_list(values, grid: int = 1) -> "GradedPolynomial":
        return GradedPolynomial.from_dict({k: c for k, c in enumerate(values)}, grid)

    @staticmethod
    def zero(grid: int = 1) -> "GradedPolynomial":
        return GradedPolynomial(grid, ())

    @staticmethod
    def one(grid: int = 1) -> "GradedPolynomial":
        return GradedPolynomial(grid, ((0, 1),))

    @staticmethod
    def monomial(key: int, coeff: int = 1, grid: int = 1) -> "GradedPolynomial":
        return GradedPolynomial.from_dict({key: coeff}, grid)

    @staticmethod
    def geometric(length: int, grid: int = 1) -> "GradedPolynomial":
        """1 + z + ... + z^(length-1) on the given grid."""
        if length < 1:
            raise ValueError("length must be >= 1")
        return GradedPolynomial.from_dict({k: 1 for k in range(length)}, grid)

    # -- accessors ------------------------------------------------------------

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def coeff(self, key: int) -> int:
        return self.as_dict().get(key, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree_key(self) -> int:
        """Largest stored key; -1 for the zero polynomial."""
        return self.coeffs[-1][0] if self.coeffs else -1

    @property
    def degree(self) -> Fraction:
        return Fraction(self.degree_key, self.grid)

    @property
    def is_nonnegative(self) -> bool:
        return all(c >= 0 for _, c in self.coeffs)

    def evaluate_at_one(self) -> int:
        return sum(c for _, c in self.coeffs)

    # -- algebra ---------------------------------------------------------------

    def _require_same_grid(self, other: "GradedPolynomial"):
        if self.grid != other.grid:
            raise ValueError("grid mismatch: %d vs %d" % (self.grid, other.grid))

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._require_same_grid(other)
        out = self.as_dict()
        for k, c in other.coeffs:
            out[k] = out.get(k, 0) + c
        return GradedPolynomial.from_dict(out, self.grid)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedPolynomial.from_dict({k: c * other for k, c in self.coeffs}, self.grid)
        self._require_same_grid(other)
        out: dict[int, int] = {}
        for k1, c1 in self.coeffs:
            for k2, c2 in other.coeffs:
                key = k1 + k2
                out[key] = out.get(key, 0) + c1 * c2
        return GradedPolynomial.from_dict(out, self.grid)

    __rmul__ = __mul__

    def shift(self, key_offset: int) -> "GradedPolynomial":
        """Multiply by z^(key_offset/grid)."""
        return GradedPolynomial.from_dict({k + key_offset: c for k, c in self.coeffs}, self.grid)

    def reverse(self, deg_key: int) -> "GradedPolynomial":
        """Coefficient reversal z^(deg_key/grid) * p(1/z)."""
        if deg_key < self.degree_key:
            raise ValueError("reversal degree below actual degree")
        return GradedPolynomial.from_dict({deg_key - k: c for k, c in self.coeffs}, self.grid)

    def is_palindromic(self, deg_key: int | None = None) -> bool:
        if self.is_zero:
            return True
        if deg_key is None:
            deg_key = self.degree_key
        return self.reverse(deg_key) == self

    def dominates(self, other: "GradedPolynomial") -> bool:
        """Coefficient-wise self >= other."""
        return (self - other).is_nonnegative

    def key_of(self, e) -> int:
        """The key of z^e, which must be a positive multiple of 1/grid."""
        key = Fraction(e) * self.grid
        if key.denominator != 1 or key <= 0:
            raise ValueError("exponent %s must be positive and on the grid 1/%d" % (e, self.grid))
        return int(key)

    def times_one_minus(self, e) -> "GradedPolynomial":
        """Multiply by 1 - z^e."""
        step, out = self.key_of(e), self.as_dict()
        for k, c in self.coeffs:
            out[k + step] = out.get(k + step, 0) - c
        return GradedPolynomial.from_dict(out, self.grid)

    def over_one_minus(self, e) -> "GradedPolynomial | None":
        """The exact quotient by 1 - z^e, or None when the division leaves a
        remainder: one running sum at stride e, whose top e terms must vanish."""
        step, coeffs = self.key_of(e), self.as_dict()
        values = [coeffs.get(k, 0) for k in range(self.degree_key + 1)]
        for n in range(step, len(values)):
            values[n] += values[n - step]
        top = max(len(values) - step, 0)
        return None if any(values[top:]) else GradedPolynomial.from_list(values[:top], self.grid)

    # -- grid handling ----------------------------------------------------------

    def regrade(self, new_grid: int) -> "GradedPolynomial":
        """Reinterpret integer exponents k as k/new_grid (only from grid 1)."""
        if self.grid != 1:
            raise ValueError("regrade starts from grid 1")
        return GradedPolynomial(new_grid, self.coeffs)

    def integer_part(self) -> "GradedPolynomial":
        """Sub-polynomial of the terms whose exponent is an integer, on grid 1."""
        return GradedPolynomial.from_dict(
            {k // self.grid: c for k, c in self.coeffs if k % self.grid == 0}, 1)

    # -- rendering ----------------------------------------------------------------

    def text(self, var: str = "z") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in self.coeffs:
            exp = Fraction(k, self.grid)
            if exp == 0:
                term = str(c)
            else:
                if exp == 1:
                    power = var
                elif exp.denominator == 1:
                    power = "%s^%d" % (var, exp.numerator)
                else:
                    power = "%s^(%d/%d)" % (var, exp.numerator, exp.denominator)
                term = power if c == 1 else ("-%s" % power if c == -1 else "%d*%s" % (c, power))
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __str__(self) -> str:
        return self.text()

    def to_json_dict(self) -> dict:
        return {"grid": str(self.grid),
                "coeffs": {str(k): str(c) for k, c in self.coeffs}}

    @staticmethod
    def from_json_dict(data: dict) -> "GradedPolynomial":
        # from_dict and the grid check reject what _read_int leaves a non-int
        return GradedPolynomial.from_dict(
            {_read_int(k): _read_int(c) for k, c in data["coeffs"].items()},
            _read_int(data["grid"]))


def _read_int(x):
    """A decimal-integer string as its int; anything else as it is."""
    return int(x) if isinstance(x, str) and x.lstrip("+-").isdecimal() else x


def _json_int(value, name: str) -> int:
    """An integer field of a report document: an int or a decimal-integer string."""
    value = _read_int(value)
    if type(value) is not int:
        raise ValueError("%s must be an int or a decimal-integer string, got %r" % (name, value))
    return value


def _json_flag(value, name: str) -> bool:
    """A flag of a report document: a JSON boolean and nothing else."""
    if type(value) is not bool:
        raise ValueError("%s must be a JSON boolean, got %r" % (name, value))
    return value
