import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ggindex.families import ngg_closed_exact, parse_spec
from ggindex.radicals import RadicalSum, sqrt_decompose

SQUAREFREE = [r for r in range(1, 60) if sqrt_decompose(r)[0] == 1]


@given(st.integers(min_value=1, max_value=100_000))
def test_sqrt_decompose_reconstructs(k):
    a, r = sqrt_decompose(k)
    assert a * a * r == k
    # r squarefree: no prime square divides it
    for p in range(2, int(math.isqrt(r)) + 1):
        assert r % (p * p) != 0


def test_sqrt_decompose_examples():
    assert sqrt_decompose(1) == (1, 1)
    assert sqrt_decompose(4) == (2, 1)
    assert sqrt_decompose(12) == (2, 3)
    assert sqrt_decompose(56) == (2, 14)
    with pytest.raises(ValueError):
        sqrt_decompose(0)


def test_sqrt_rational_normalizes():
    # sqrt(1/14) and sqrt(4/56) are the same number and must normalize to the
    # same term map
    a = RadicalSum.sqrt_rational(1, 14)
    assert a == RadicalSum.sqrt_rational(4, 56)
    assert a.terms == {14: Fraction(1, 14)}
    assert a.to_float() == pytest.approx(1 / math.sqrt(14), abs=1e-15)


def test_terms_are_exact():
    # NGG of the two odd-cycle variants at n=15, both equal to (4/7) sqrt(14)
    k = 7
    pendant = RadicalSum.sqrt_rational(1, 2 * k) + (
        RadicalSum.sqrt_rational(1, k * (k + 1), scale=2 * k)
    )
    hook = RadicalSum.sqrt_rational(1, k * (k + 1), scale=2 * k + 2)
    assert pendant == hook
    assert pendant.terms == {14: Fraction(4, 7)}


def test_equality_is_not_float_equality():
    # sqrt(2) + sqrt(3) != sqrt(5 + 2 sqrt(6)) representationally, but our sums
    # only ever hold rational coefficients, so distinct term maps mean distinct
    # values and vice versa
    a = RadicalSum.sqrt_rational(2, 1) + (RadicalSum.sqrt_rational(3, 1))
    b = RadicalSum.sqrt_rational(2, 1) + (RadicalSum.sqrt_rational(3, 1))
    assert a == b and hash(a) == hash(b)
    c = a + (RadicalSum.from_rational(Fraction(1, 10**12)))
    assert a != c
    assert a.compare(c) < 0


coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


@st.composite
def radical_sums(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    total = RadicalSum.zero()
    for _ in range(n):
        q = draw(coeffs)
        r = draw(st.integers(min_value=1, max_value=30))
        if q == 0:
            continue
        p = q * q * r
        term = RadicalSum.sqrt_rational(p.numerator, p.denominator)
        total = total + (term if q > 0 else -term)
    return total


@given(radical_sums(), radical_sums())
def test_add_sub_round_trip(a, b):
    assert a + (b) - (b) == a
    assert (a - a).is_zero()


@given(radical_sums(), radical_sums())
def test_sign_agrees_with_floats(a, b):
    diff = a - (b)
    f = diff.to_float()
    if abs(f) > 1e-9:
        assert diff.sign() == (1 if f > 0 else -1)
    else:
        # near-zero floats must still classify correctly
        assert (diff.sign() == 0) == diff.is_zero()


def test_sign_of_true_zero():
    z = RadicalSum.sqrt_rational(8, 1) - (RadicalSum.sqrt_rational(2, 1, scale=2))
    assert z.is_zero() and z.sign() == 0


def test_compare_total_order():
    vals = [
        RadicalSum.sqrt_rational(2, 1),
        RadicalSum.from_rational(Fraction(3, 2)),
        RadicalSum.sqrt_rational(3, 1),
        RadicalSum.from_rational(2),
    ]
    for i, x in enumerate(vals):
        for j, y in enumerate(vals):
            want = (i > j) - (i < j)
            assert x.compare(y) == want


def test_scaled():
    s = RadicalSum.sqrt_rational(2, 1).scaled(Fraction(3, 4))
    assert s.terms == {2: Fraction(3, 4)}
    assert s.scaled(0).is_zero()


class _Ratio(Fraction):
    """A Fraction subclass: accepted as a coefficient, stored as a Fraction."""


# every kind of coefficient the constructors accept: ints, Fractions, and
# what goes through Fraction() (a subclass, binary floats, bools, strings)
mixed = st.one_of(
    st.integers(-50, 50),
    coeffs,
    coeffs.map(_Ratio),
    st.sampled_from((0.5, -0.25, True, False, "3/4", "-7/2")),
)


def _explicit(terms: dict) -> RadicalSum:
    """The sum of these terms, every coefficient put through Fraction()."""
    return RadicalSum({r: Fraction(c) for r, c in terms.items() if Fraction(c)})


def _same_sum(got: RadicalSum, want: RadicalSum) -> None:
    assert all(type(c) is Fraction and c for c in got.terms.values()), got.terms
    assert got.terms == want.terms
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def _combined(x: RadicalSum, y: RadicalSum, sign: int) -> dict:
    keys = x.terms.keys() | y.terms.keys()
    return {r: Fraction(x.terms.get(r, 0)) + sign * Fraction(y.terms.get(r, 0)) for r in keys}


@given(
    st.dictionaries(st.sampled_from(SQUAREFREE), mixed, max_size=5),
    st.dictionaries(st.sampled_from(SQUAREFREE), mixed, max_size=5),
    radical_sums(),
    radical_sums(),
    mixed,
    st.integers(0, 40),
    st.integers(1, 40),
)
def test_coefficients_are_fractions_whatever_built_them(t1, t2, a, b, c, p, q):
    # the constructors wrap only what is not a Fraction yet: every input gives
    # the sum that wrapping everything in Fraction() gives
    x, y = RadicalSum(t1), RadicalSum(t2)
    _same_sum(x, _explicit(t1))
    _same_sum(RadicalSum.from_rational(c), _explicit({1: c}))
    for u, v in ((x, y), (a, b), (x, a), (b, y), (a, a)):
        _same_sum(u + v, _explicit(_combined(u, v, 1)))
        _same_sum(u - v, _explicit(_combined(u, v, -1)))
    for u in (x, a):
        _same_sum(u.scaled(c), _explicit({r: k * Fraction(c) for r, k in u.terms.items()}))
    k, r = sqrt_decompose(p * q) if p else (0, 1)
    _same_sum(RadicalSum.sqrt_rational(p, q, scale=c), _explicit({r: Fraction(k, q) * Fraction(c)}))


def _mp_value(terms) -> mpmath.mpf:
    """The sum of c*sqrt(r) over these (r, c) pairs, at mpmath's precision."""
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r) for r, c in terms)


def _oracle_sign(s: RadicalSum) -> int:
    """The sign of s from its value at 2000 digits, whose error is below
    10**-1990 for sums of this size: no escalation and no threshold."""
    if s.is_zero():
        return 0
    with mpmath.workdps(2000):
        total = _mp_value(s.terms.items())
        assert abs(total) > mpmath.mpf(10) ** -1990
        return 1 if total > 0 else -1


def _two_term_sign(s: RadicalSum) -> int:
    """The sign of a sum of at most two terms, by exact integer squaring."""
    terms = sorted(s.terms.items())
    if not terms:
        return 0
    signs = {c > 0 for _, c in terms}
    if len(signs) == 1:
        return 1 if signs == {True} else -1
    (r, a), (t, b) = terms
    # a*sqrt(r) and b*sqrt(t) have opposite signs; the larger square wins, and
    # the squares differ because r and t are distinct and squarefree
    gap = a * a * r - b * b * t
    assert gap != 0
    return (1 if a > 0 else -1) if gap > 0 else (1 if b > 0 else -1)


CP15, CH15 = (ngg_closed_exact(parse_spec(spec)) for spec in ("CP:15", "CH:15"))


@given(
    st.integers(1, 30),
    st.integers(-999, 999).filter(bool),
    st.sampled_from(SQUAREFREE),
    st.sampled_from(SQUAREFREE),
    st.integers(0, 40),
    st.integers(-3, 3),
)
def test_the_n15_tie_plus_or_minus_tiny_radicals(k, num, r, t, digits, shift):
    # CP and CH tie exactly at n = 15. Add eps*sqrt(r) to one side, eps down
    # to 10**-30, and to the other a delta*sqrt(t) that matches it to about
    # `digits` more digits: their difference is a mixed-sign two-term sum
    # within about eps * 10**-digits of 0, down to 10**-70: past the 60
    # digits sign starts at, so the precision ladder has to climb
    assert CP15 == CH15
    eps = Fraction(num, 10**k)
    root = math.isqrt(r * t * 10 ** (2 * digits)) + shift  # ~ sqrt(r*t) * 10**digits
    delta = eps * Fraction(root, 10**digits * t)  # ~ eps * sqrt(r/t)
    left = CP15 + RadicalSum.sqrt_rational(r, 1, eps)
    right = CH15 + RadicalSum.sqrt_rational(t, 1, delta)
    diff = left - right
    want = _two_term_sign(diff)
    assert want == _oracle_sign(diff)
    assert diff.sign() == left.compare(right) == -right.compare(left) == want
    assert (want == 0) == (left == right)


@given(
    st.lists(
        st.tuples(st.sampled_from(SQUAREFREE), coeffs.filter(bool)),
        min_size=3,
        max_size=5,
        unique_by=lambda term: term[0],
    ),
    st.sampled_from(SQUAREFREE),
    st.integers(13, 80),
)
def test_mixed_sign_sums_of_four_to_six_radicals_near_zero(head, last, digits):
    # a last radical rounded to `digits` decimals cancels the head's value:
    # the sum has 4 to 6 radicals of both signs and lies within 10**-12 of 0,
    # and within about 10**-digits, which from 60 digits on needs the ladder
    assume(last not in dict(head))
    with mpmath.workdps(digits + 30):
        cancel = -Fraction(int(mpmath.nint(_mp_value(head) / mpmath.sqrt(last) * 10**digits)), 10**digits)
    assume(cancel != 0)
    total = RadicalSum({r: c for r, c in head}) + RadicalSum.sqrt_rational(last, 1, cancel)
    assert 4 <= len(total.terms) <= 6
    assert {c > 0 for c in total.terms.values()} == {True, False}
    assert abs(total.to_float()) < 1e-12
    assert total.sign() == _oracle_sign(total)
    assert (-total).sign() == -total.sign()
