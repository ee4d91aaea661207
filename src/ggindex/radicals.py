"""Exact arithmetic on sums of square roots of rationals.

Every index value this package computes is a finite sum of terms
sqrt(p/q) with small nonnegative integers p, q. Such a sum has a unique
normal form sum_r c_r * sqrt(r) over squarefree integers r with rational
coefficients c_r, because square roots of distinct squarefree numbers are
linearly independent over the rationals. Equality of two sums is therefore
an exact coefficient comparison, no numerics involved. The sign of a sum
whose coefficients all share one sign is read off them. The sign of a
mixed-sign sum is settled by evaluating with mpmath at increasing precision
until the value clears its own error bound, which terminates because the
value is a nonzero algebraic number. mpmath is imported only there and in
to_float, so a process that signs no mixed-sign sum never loads it.

This is what lets tie handling distinguish a genuine coincidence of two
index values from a float artifact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

Rational = Union[int, Fraction]


def sqrt_decompose(k: int) -> tuple[int, int]:
    """Write k = a*a*r with r squarefree; returns (a, r). Requires k >= 1."""
    if k < 1:
        raise ValueError(f"sqrt_decompose needs a positive integer, got {k}")
    a, r = 1, 1
    d = 2
    while d * d <= k:
        exp = 0
        while k % d == 0:
            k //= d
            exp += 1
        if exp:
            a *= d ** (exp // 2)
            if exp % 2:
                r *= d
        d += 1 if d == 2 else 2
    return a, r * k


def _rational(c: Rational) -> Rational:
    """c unchanged if it is an int or a Fraction, else Fraction(c): a
    Fraction times either is a Fraction, and re-wrapping one costs more
    than the product."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


class RadicalSum:
    """Immutable sum of c_r * sqrt(r) terms, keyed by squarefree r."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[int, Fraction] | None = None):
        clean = {}
        if terms:
            for r, c in terms.items():
                # the sums and products below build Fractions already
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    clean[r] = c
        self._terms = clean

    @classmethod
    def zero(cls) -> "RadicalSum":
        return cls()

    @classmethod
    def from_rational(cls, c: Rational) -> "RadicalSum":
        return cls({1: c})

    @classmethod
    def sqrt_rational(cls, p: int, q: int, scale: Rational = 1) -> "RadicalSum":
        """scale * sqrt(p/q), exactly: sqrt(p/q) = sqrt(p*q)/q."""
        if q <= 0 or p < 0:
            raise ValueError(f"sqrt_rational needs p >= 0 and q > 0, got {p}/{q}")
        if p == 0 or scale == 0:
            return cls()
        a, r = sqrt_decompose(p * q)
        return cls({r: Fraction(a, q) * _rational(scale)})

    @property
    def terms(self) -> Dict[int, Fraction]:
        return dict(self._terms)

    def __add__(self, other: "RadicalSum") -> "RadicalSum":
        out = dict(self._terms)
        for r, c in other._terms.items():
            out[r] = out.get(r, 0) + c
        return RadicalSum(out)

    def __sub__(self, other: "RadicalSum") -> "RadicalSum":
        out = dict(self._terms)
        for r, c in other._terms.items():
            out[r] = out.get(r, 0) - c
        return RadicalSum(out)

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({r: -c for r, c in self._terms.items()})

    def scaled(self, c: Rational) -> "RadicalSum":
        c = _rational(c)
        return RadicalSum({r: coeff * c for r, coeff in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        if not self._terms:
            return 0
        items = sorted(self._terms.items())
        if all(c > 0 for _, c in items):
            return 1
        if all(c < 0 for _, c in items):
            return -1
        import mpmath

        dps = 60
        while dps <= 2000:
            with mpmath.workdps(dps):
                total = mpmath.mpf(0)
                scale = mpmath.mpf(0)
                for r, c in items:
                    t = mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
                    total += t
                    scale += abs(t)
                threshold = (scale + 1) * mpmath.mpf(10) ** (10 - dps)
                if abs(total) > threshold:
                    return 1 if total > 0 else -1
            dps *= 2
        raise ArithmeticError(
            "sign did not resolve at 2000 digits for a provably nonzero sum"
        )

    def compare(self, other: "RadicalSum") -> int:
        return (self - other).sign()

    def to_float(self) -> float:
        import mpmath

        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            for r, c in sorted(self._terms.items()):
                total += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
            return float(total)

    def __repr__(self) -> str:
        if not self._terms:
            return "RadicalSum(0)"
        bits = [f"{c}*sqrt({r})" if r != 1 else f"{c}" for r, c in sorted(self._terms.items())]
        return "RadicalSum(" + " + ".join(bits) + ")"
