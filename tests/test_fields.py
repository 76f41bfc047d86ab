import math
import random
from fractions import Fraction

import pytest

from freewalk import ConfigError, DomainError, FieldSpec, Interval, UsageError, abs_value, valuation
from freewalk.fields import INFINITE_VALUATION, _enclose, format_scalar, parse_scalar

from conftest import random_rational


def test_field_spec_validation():
    FieldSpec.padic(2)
    FieldSpec.padic(97)
    with pytest.raises(DomainError):
        FieldSpec.padic(4)
    with pytest.raises(DomainError):
        FieldSpec("nonarchimedean")
    with pytest.raises(DomainError):
        FieldSpec("archimedean", prime=3)
    with pytest.raises(DomainError):
        FieldSpec("complex")


def test_odd_composite_is_no_prime():
    for composite in (9, 15):
        with pytest.raises(DomainError):
            FieldSpec.padic(composite)


def test_field_spec_roundtrip():
    for f in (FieldSpec.real(), FieldSpec.padic(5)):
        assert FieldSpec.from_dict(f.to_dict()) == f


def test_valuation_examples():
    assert valuation(8, 2) == 3
    assert valuation(1, 7) == 0
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(0, 5) == INFINITE_VALUATION


def test_valuation_rejects_floats():
    with pytest.raises(UsageError):
        valuation(0.5, 2)


def test_abs_value_examples(q2, q3, real_field):
    assert abs_value(0, q2) == 0
    assert abs_value(0, real_field) == 0.0
    assert abs_value(12, q2) == Fraction(1, 4)  # v_2(12) = 2
    assert abs_value(Fraction(5, 3), q3) == 3  # v_3 = -1
    assert abs_value(-2.5, real_field) == 2.5


def test_abs_value_rejects_floats_over_qp():
    for p in (2, 3):
        with pytest.raises(UsageError, match="not floats"):
            abs_value(0.5, FieldSpec.padic(p))


def test_abs_value_is_p_to_minus_valuation():
    rng = random.Random(29)
    for p in (2, 3, 5):
        for _ in range(1000):
            x = random_rational(rng) * Fraction(p) ** rng.randint(-20, 20)
            if x == 0:
                continue
            got = abs_value(x, FieldSpec.padic(p))
            assert type(got) is Fraction and got == Fraction(p) ** -valuation(x, p)


def test_valuation_additive_and_ultrametric():
    rng = random.Random(101)
    for p in (2, 3, 5):
        for _ in range(1000):
            x = random_rational(rng)
            y = random_rational(rng)
            if x == 0 or y == 0:
                continue
            assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
            if x + y != 0:
                vx, vy = valuation(x, p), valuation(y, p)
                vs = valuation(x + y, p)
                assert vs >= min(vx, vy)
                if vx != vy:
                    assert vs == min(vx, vy)


def test_ultrametric_abs(q3):
    rng = random.Random(7)
    for _ in range(500):
        x = random_rational(rng)
        y = random_rational(rng)
        assert abs_value(x * y, q3) == abs_value(x, q3) * abs_value(y, q3)
        assert abs_value(x + y, q3) <= max(abs_value(x, q3), abs_value(y, q3))


def test_scalar_serialization(q3, real_field):
    assert format_scalar(Fraction(5, 3), q3) == "5/3"
    assert format_scalar(Fraction(4), q3) == "4"
    assert parse_scalar("5/3", q3) == Fraction(5, 3)
    assert parse_scalar("1.25", q3) == Fraction(5, 4)
    x = 0.1 + 0.2
    assert float(parse_scalar(format_scalar(x, real_field), real_field)) == x
    with pytest.raises(ConfigError):
        parse_scalar("not-a-number", q3)
    # both fields read the exact rational; over R its float is the one a float reader
    # gives (Fraction for "n/d", float() otherwise): both round correctly ("-0" reads as 0)
    rng = random.Random(21)
    texts = ["0", "-0", "7", "-12", "0.1", "3/5", "-4/5", "1e-7", "2.5E+3", "5e-324", "1.7976931348623157e308",
             "123456789012345678901234567890", 0.1, 3, -2.5, 1e300, 5e-324, 10**300]
    for _ in range(2000):
        m = rng.randint(-10**20, 10**20)
        texts += [str(m), f"{m}e{rng.randint(-345, 285)}", repr(m / 10 ** rng.randint(0, 25)),
                  f"{m}/{rng.randint(1, 10**20)}", rng.uniform(-1e6, 1e6), m]
    for t in texts:
        for field in (real_field, q3):
            assert type(parse_scalar(t, field)) is Fraction and parse_scalar(t, field) == Fraction(t)
        assert float(parse_scalar(t, real_field)) == (float(Fraction(t)) if "/" in str(t) else float(t)), t
    for bad in ["inf", "-inf", "nan", "1/0", "1e400", "abc", "", float("inf"), float("nan"), 10**400, True, None, [1]]:
        with pytest.raises(ConfigError):
            parse_scalar(bad, real_field)
    # an exponent beyond 4300 fails before Fraction builds 10**e (minutes for these)
    for bad in ["inf", "nan", "1/0", "abc", float("nan"), True, None, "1e999999999", "-2E-99_999_999 ", "1e4301"]:
        with pytest.raises(ConfigError):
            parse_scalar(bad, q3)


def test_integer_literals_parse_as_fraction_reads_them(q3, real_field):
    # short ASCII integer literals take int(); every text, on either path, reads as Fraction(text) does
    texts = ["0", "-0", "0469", "--5", "-", "", "+5", " 5", "1_000", "٣", "12345678901234567890123",
             "1e3", "1/2", "999999999999999999", "-999999999999999999", "-1234567890123456789"]
    for t in texts:
        try:
            want = Fraction(t)
        except ValueError:
            want = None
        for field in (real_field, q3):
            if want is None:
                with pytest.raises(ConfigError, match="cannot parse scalar"):
                    parse_scalar(t, field)
            else:
                got = parse_scalar(t, field)
                assert type(got) is Fraction and got == want, (t, field)


# ---------------------------------------------------------------------------
# Certified intervals
# ---------------------------------------------------------------------------


def _contains(iv: Interval, exact: Fraction) -> bool:
    return Fraction(iv.lo) <= exact <= Fraction(iv.hi)


def test_interval_contains_exact_arithmetic():
    # every interval result must contain the exactly computed rational value
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_rational(rng)
        b = random_rational(rng)
        ia, ib = Interval.exact(a), Interval.exact(b)
        assert _contains(ia + ib, a + b)
        assert _contains(ia - ib, a - b)
        assert _contains(ia * ib, a * b)
        if b != 0:
            assert _contains(ia / ib, a / b)


def test_interval_sqrt_bounds():
    rng = random.Random(5)
    for _ in range(1000):
        q = abs(random_rational(rng)) + Fraction(1, 7)
        s = Interval.exact(q).sqrt()
        assert Fraction(s.lo) ** 2 <= q <= Fraction(s.hi) ** 2


def test_interval_division_by_zero_interval():
    with pytest.raises(DomainError):
        Interval(-1.0, 1.0) / Interval(-0.5, 0.5)


def test_interval_certified_comparisons():
    a = Interval.exact(Fraction(1, 3))
    b = Interval.exact(Fraction(1, 2))
    assert a.certainly_lt(b)
    assert b.certainly_gt(a)
    assert not a.certainly_ge(b)
    wide = Interval(0.0, 1.0)
    assert not wide.certainly_lt(b)


def test_interval_exact_of_nonrepresentable():
    iv = Interval.exact(Fraction(1, 3))
    assert iv.lo < iv.hi
    assert _contains(iv, Fraction(1, 3))
    iv2 = Interval.exact(0.5)
    assert iv2.lo == iv2.hi == 0.5
    assert math.isfinite(iv.mid)


def _fraction_enclosure(q):
    """Reference: the float nearest q, or its neighbours when q is not a float."""
    f = float(q)
    if Fraction(f) == q:
        return f, f
    return math.nextafter(f, -math.inf), math.nextafter(f, math.inf)


def test_rational_enclosure_matches_fraction_reference():
    rng = random.Random(77)
    cases = [
        (3, 4), (1, 1 << 60), (1 << 100, 1), (0, 5), (6, -8),  # representable
        (1, 3), (1, 10), (2, 7), ((1 << 53) + 1, 1),  # not representable
        (-1, 3), (1, -3), (-7, -10), (-(1 << 80) - 1, 3),  # negative
        (10**400 + 1, 3 * 10**399), (-(10**300), 7 * 10**299), (2**2000 + 1, 2**1990),  # huge n and d
        (1, 10**400), (-1, 3 * 10**330),  # below the smallest subnormal
    ]
    cases += [(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(500)]
    cases += [(random_rational(rng).numerator, random_rational(rng).denominator) for _ in range(500)]
    for n, d in cases:
        ref = _fraction_enclosure(Fraction(n, d))
        assert _enclose(n, d) == ref, (n, d)
        iv = Interval.exact(Fraction(n, d))
        assert (iv.lo, iv.hi) == ref, (n, d)
        assert Fraction(iv.lo) <= Fraction(n, d) <= Fraction(iv.hi)
    for n, d in ((10**400, 1), (-(10**400), 3)):  # beyond the float range
        with pytest.raises(OverflowError):
            _enclose(n, d)
        with pytest.raises(OverflowError):
            Interval.exact(Fraction(n, d))
