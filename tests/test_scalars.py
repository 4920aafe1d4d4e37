"""Exact Laurent/rational arithmetic: spec examples and ring properties."""

from fractions import Fraction

import pytest

from yangbaxter.builders import scalar_to_json
from yangbaxter.scalars import (
    LatticeError,
    LaurentPoly,
    RatFunc,
    X1,
    X2,
    Y1,
    Y2,
    log_point,
    monomial_rf,
    ratfunc_is_zero,
    rf,
    substitute,
)


def test_zero_test_algebraic_identity():
    f = (1 - Y1**2) / (1 - Y1) - (1 + Y1)
    assert ratfunc_is_zero(f)


def test_zero_test_monomial_cancellation():
    assert ratfunc_is_zero(X1**2 * X1**-2 - 1)


def test_zero_test_k_minus_one_identity():
    # e^v/(1-e^v) + e^-v/(1-e^-v) + 1 = 0
    f = Y1 / (1 - Y1) + Y1**-1 / (1 - Y1**-1) + 1
    assert ratfunc_is_zero(f)
    # and the same thing written through 1/(e^{Kv}-1) terms at K = -1
    g = (Y1**-1 - 1) ** -1 + (Y1 - 1) ** -1 + 1
    assert ratfunc_is_zero(g)


def test_nonzero_is_not_zero():
    assert not ratfunc_is_zero(Y1 / (1 - Y1) + 1)
    assert not ratfunc_is_zero(rf(Fraction(1, 7)))


def test_substitute_inverse_flip():
    f = X1
    assert substitute(f, {"X1": X1**-1}) == X1**-1


def test_substitute_monomial_into_ratfunc():
    f = Y1 / (1 - Y1)
    g = substitute(f, {"Y1": Y1 * Y2})
    assert g == Y1 * Y2 / (1 - Y1 * Y2)


def test_substitute_exponential_law():
    f = rf(1) * X1**4  # e^u at n = 2
    assert substitute(f, {"X1": X1 * X2}) == (X1 * X2) ** 4


def test_substitute_zero_target():
    f = Y1 / (1 - Y1)
    assert substitute(f, {"Y1": rf(0)}).is_zero()
    with pytest.raises(LatticeError):
        substitute(Y1**-1, {"Y1": rf(0)})


def test_substitute_non_monomial_rejected():
    with pytest.raises(LatticeError):
        substitute(X1, {"X1": 1 + Y1})


def test_substitute_fractional_exponent_unit_coefficient():
    half = monomial_rf(x1=Fraction(1, 2))
    assert substitute(half, {"X1": X1**-1}) == monomial_rf(x1=Fraction(-1, 2))
    with pytest.raises(LatticeError):
        substitute(half, {"X1": rf(2) * X1})


def test_substitution_is_simultaneous():
    # a chained-looking assignment must not cascade: X1 -> Y1 while Y1 -> Y2
    f = X1 * Y1
    got = substitute(f, {"X1": Y1, "Y1": Y2})
    assert got == Y1 * Y2
    assert substitute(X1, {"X1": Y1, "Y1": Y2}) == Y1


def test_substitution_involution_property(rng):
    corpus = [
        X1 * Y1 / (1 - X1**2),
        (1 + X1) * (1 - Y1) / (1 - X1 * Y1),
        rf(Fraction(3, 4)),
        X1**-3 + Y1**2,
    ]
    for f in corpus:
        g = substitute(substitute(f, {"X1": X1**-1}), {"X1": X1**-1})
        assert g == f


def _random_poly(rng, nterms=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(-2, 2) for _ in range(4))
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LaurentPoly(terms)


def test_ring_axioms_randomized(rng):
    for _ in range(25):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ratfunc_field_identities(rng):
    for _ in range(10):
        num, den = _random_poly(rng), _random_poly(rng)
        if den.is_zero():
            continue
        f = RatFunc(num, den)
        assert f - f == 0
        if f:
            assert ratfunc_is_zero(f * f.inverse() - 1)
        assert ratfunc_is_zero(f + (-f))


def test_zero_agrees_with_numeric_evaluation(rng):
    """No false zero verdicts: nonzero symbolically implies nonzero at
    generic sample points, and symbolic zero evaluates to ~0 everywhere."""
    corpus = [
        (1 - Y1**2) / (1 - Y1) - (1 + Y1),          # zero
        Y1 / (1 - Y1) + Y1**-1 / (1 - Y1**-1) + 1,  # zero
        Y1 / (1 - Y1) + 1,                          # nonzero
        X1**2 - X2**2,                              # nonzero
        (1 + X1) / (1 - Y1 * Y2),                   # nonzero
    ]
    for f in corpus:
        symbolic_zero = ratfunc_is_zero(f)
        hits = 0
        for _ in range(5):
            point = [complex(rng.uniform(0.3, 1.2), rng.uniform(-1.0, 1.0))
                     for _ in range(4)]
            logs = log_point(*point, n=2)
            value = abs(f.evaluate(logs))
            if symbolic_zero:
                assert value < 1e-9
            elif value > 1e-9:
                hits += 1
        if not symbolic_zero:
            assert hits > 0


def test_equality_cross_multiplied():
    a = Y1 / (1 - Y1)
    b = RatFunc(
        LaurentPoly.monomial((0, 0, 2, 0)),
        (LaurentPoly.monomial((0, 0, 1, 0)) - LaurentPoly.monomial((0, 0, 2, 0))),
    )
    assert a == b  # Y1/(1-Y1) == Y1^2/(Y1 - Y1^2)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(LaurentPoly.const(1), LaurentPoly.zero())
    with pytest.raises(ZeroDivisionError):
        rf(0).inverse()


def test_str_roundtrippable_forms():
    assert str(rf(0)) == "0"
    assert "Y1" in str(Y1 / (1 - Y1))


def test_monomial_denominator_is_absorbed_into_the_numerator():
    f = RatFunc(
        LaurentPoly({(-1, 0, 0, 0): 1, (Fraction(1, 2), 0, 0, 0): 2}),
        LaurentPoly({(1, 0, 0, 0): 2}),
    )
    # pairs in dict order; tuple equality compares exponents by value
    assert list(f.num.terms.items()) == [
        ((-2, 0, 0, 0), Fraction(1, 2)), ((Fraction(-1, 2), 0, 0, 0), 1),
    ]
    assert f.den.terms == {(0, 0, 0, 0): 1}


def test_polynomial_denominator_is_content_free_and_monic_by_largest_exponents():
    f = RatFunc(
        LaurentPoly({(-1, 0, 1, 0): 1, (1, 0, 0, 0): 2}),
        LaurentPoly({(-1, 0, 0, 0): 2, (Fraction(3, 2), 0, 1, 0): 4}),
    )
    assert list(f.num.terms.items()) == [
        ((0, 0, 1, 0), Fraction(1, 4)), ((2, 0, 0, 0), Fraction(1, 2)),
    ]
    assert list(f.den.terms.items()) == [
        ((0, 0, 0, 0), Fraction(1, 2)), ((Fraction(5, 2), 0, 1, 0), 1),
    ]


def test_terms_print_and_serialize_in_exponent_order():
    exps = [Fraction(1, 3), 1, 0, -1, Fraction(-1, 2)]
    p = LaurentPoly({(e, 0, 0, 0): 1 for e in exps})
    assert str(p) == "X1^-1 + X1^(-1/2) + 1 + X1^(1/3) + X1"
    assert [x1 for (x1, _, _, _), _ in scalar_to_json(p)["num"]] == [
        "-1", "-1/2", "0", "1/3", "1",
    ]


def test_shift_by_a_fraction_keeps_integral_exponents_int():
    half = (Fraction(1, 2), 0, 0, 0)
    p = LaurentPoly({(1, 0, 0, 0): 1}).shift(half).shift(half)
    assert str(p) == "X1^2"
    assert rf(p).substitute({"X1": 2 * X1}) == 4 * X1**2
