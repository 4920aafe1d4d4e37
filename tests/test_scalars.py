"""Exact Laurent/rational arithmetic: spec examples and ring properties."""

import math
from fractions import Fraction

import pytest

from yangbaxter.builders import scalar_to_json
from yangbaxter.scalars import (
    LaurentPoly,
    RatFunc,
    X1,
    X2,
    Y1,
    Y2,
    log_point,
    monomial_rf,
    q_power,
    rf,
)


def test_zero_test_algebraic_identity():
    f = (1 - Y1**2) / (1 - Y1) - (1 + Y1)
    assert rf(f).is_zero()


def test_zero_test_monomial_cancellation():
    assert rf(X1**2 * X1**-2 - 1).is_zero()


def test_zero_test_k_minus_one_identity():
    # e^v/(1-e^v) + e^-v/(1-e^-v) + 1 = 0
    f = Y1 / (1 - Y1) + Y1**-1 / (1 - Y1**-1) + 1
    assert rf(f).is_zero()
    # and the same thing written through 1/(e^{Kv}-1) terms at K = -1
    g = (Y1**-1 - 1) ** -1 + (Y1 - 1) ** -1 + 1
    assert rf(g).is_zero()


def test_nonzero_is_not_zero():
    assert not rf(Y1 / (1 - Y1) + 1).is_zero()
    assert not rf(Fraction(1, 7)).is_zero()


# Slot rows ((a, b), (c, d)): u -> a u + b u', v -> c v + d v'.
IDENTITY = ((1, 0), (1, 0))
NEGATE_U = ((-1, 0), (1, 0))


def test_substitute_inverse_flip():
    f = X1
    assert rf(f).substitute(NEGATE_U) == X1**-1


def test_substitute_monomial_into_ratfunc():
    f = Y1 / (1 - Y1)
    g = rf(f).substitute(((1, 0), (1, 1)))
    assert g == Y1 * Y2 / (1 - Y1 * Y2)


def test_substitute_exponential_law():
    f = rf(1) * X1**4  # e^u at n = 2
    assert rf(f).substitute(((1, 1), (1, 0))) == (X1 * X2) ** 4
    assert rf(f).substitute(((2, -1), (1, 0))) == X1**8 * X2**-4


def test_substitute_fractional_exponent_unit_coefficient():
    half = monomial_rf(x1=Fraction(1, 2))
    assert rf(half).substitute(NEGATE_U) == monomial_rf(x1=Fraction(-1, 2))
    # an exponent made integral is stored as int
    doubled = rf(half).substitute(((2, 1), (1, 0)))
    assert list(doubled.num.terms) == [(1, Fraction(1, 2), 0, 0)]
    assert type(next(iter(doubled.num.terms))[0]) is int


def test_substitution_is_simultaneous():
    # X1 -> X1 X2 and Y1 -> Y2 read the original exponents: the X2 and Y2
    # that the row brings in are not shifted again
    f = X1 * X2 * Y1 * Y2
    got = rf(f).substitute(((1, 1), (0, 1)))
    assert got == X1 * X2**2 * Y2**2
    assert rf(X2 * Y2).substitute(((1, 1), (0, 1))) == X2 * Y2


def test_substitute_merges_terms_that_land_together():
    # u -> u' sends X1 to X2, onto the existing X2 term
    p = LaurentPoly({(1, 0, 0, 0): 2, (0, 1, 0, 0): -2, (0, 0, 1, 0): 3})
    assert p.substitute(((0, 1), (1, 0))).terms == {(0, 0, 1, 0): 3}


def test_substitute_raises_where_the_denominator_vanishes():
    # u -> 0 sends 1 - X1 to 0
    with pytest.raises(ZeroDivisionError):
        (1 / (1 - X1)).substitute(((0, 0), (1, 0)))
    assert rf(Y1 / (1 - X1)).substitute(IDENTITY) == Y1 / (1 - X1)


def test_substitution_involution_property(rng):
    corpus = [
        X1 * Y1 / (1 - X1**2),
        (1 + X1) * (1 - Y1) / (1 - X1 * Y1),
        rf(Fraction(3, 4)),
        X1**-3 + Y1**2,
    ]
    for f in corpus:
        g = rf(f).substitute(NEGATE_U).substitute(NEGATE_U)
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
            assert rf(f * f.inverse() - 1).is_zero()
        assert rf(f + (-f)).is_zero()


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
        symbolic_zero = rf(f).is_zero()
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
    assert list(p.terms) == [(2, 0, 0, 0)] and type(next(iter(p.terms))[0]) is int


def test_a_product_keeps_integral_exponents_int():
    """Fractional exponents that sum to an integer are stored as int, in a
    power, in a product of mixed polynomials, and with an int-only factor."""
    assert str(q_power(1, Fraction(1, 2)) ** 4) == str(q_power(1, 2))
    root = LaurentPoly({(Fraction(1, 2), 0, 0, 0): 1, (0, 0, 0, 0): 1})
    p = root * root * LaurentPoly({(0, 0, 3, 0): 2})
    assert p == LaurentPoly({(1, 0, 3, 0): 2, (Fraction(1, 2), 0, 3, 0): 4, (0, 0, 3, 0): 2})
    assert {type(e) for exps in p.terms for e in exps if e.denominator == 1} == {int}


def _coeff_types(*polys):
    return {type(c) for p in polys for c in p.terms.values()}


def test_monic_step_divides_exactly():
    f = RatFunc(
        LaurentPoly({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}),
        LaurentPoly({(0, 0, 0, 0): 1, (2, 0, 0, 0): 3}),
    )
    third = Fraction(1, 3)
    assert f.num.terms == {(0, 0, 0, 0): third, (1, 0, 0, 0): third}
    assert f.den.terms == {(0, 0, 0, 0): third, (2, 0, 0, 0): 1}
    assert _coeff_types(f.num, f.den) <= {int, Fraction}


def test_monomial_denominator_is_absorbed_exactly():
    f = RatFunc(LaurentPoly.const(1), LaurentPoly.monomial((1, 0, 0, 0), 3))
    assert f.num.terms == {(-1, 0, 0, 0): Fraction(1, 3)}
    assert _coeff_types(f.num, f.den) <= {int, Fraction}


def test_integral_coefficients_enter_as_int():
    e = (1, 0, 0, 0)
    assert _coeff_types(LaurentPoly({e: Fraction(4, 2)})) == {int}
    assert _coeff_types(LaurentPoly.const(Fraction(6, 3))) == {int}
    assert _coeff_types(LaurentPoly({e: 3}).scale(Fraction(2, 1))) == {int}


# --- differential check against a plain dict-of-Fraction reference --------

_VALUES = [Fraction(k) for k in range(-2, 3)] + [
    Fraction(s, d) for s in (1, -1) for d in (2, 3)
]


def _mixed(rng, value):
    """value as int, Fraction or an unreduced Fraction, when integral."""
    if value.denominator != 1:
        return value
    return rng.choice([value.numerator, value, Fraction(2 * value.numerator, 2)])


def _random_pair(rng):
    """(LaurentPoly from mixed-type input, reference dict of Fraction)."""
    ref = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(-2, 2) for _ in range(4))
        value = rng.choice(_VALUES)
        ref[exps] = value
    ref = {e: c for e, c in ref.items() if c}
    inputs = {e: _mixed(rng, c) for e, c in ref.items()}
    return LaurentPoly(inputs), ref


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_substitute(a, slot):
    """X1 -> X1^a X2^b and Y1 -> Y1^c Y2^d, each term a product of powers of the images."""
    (ka, kb), (kc, kd) = slot
    out = {}
    for (x1, x2, y1, y2), c in a.items():
        term = {(0, x2, 0, y2): c}
        for image, e in (((ka, kb, 0, 0), x1), ((0, 0, kc, kd), y1)):
            term = _ref_mul(term, {tuple(k * e for k in image): Fraction(1)})
        out = _ref_add(out, term)
    return out


def test_ring_operations_agree_with_a_fraction_reference(rng):
    for _ in range(200):
        (a, ra), (b, rb) = _random_pair(rng), _random_pair(rng)
        assert a.terms == ra and b.terms == rb
        # an integral coefficient enters the ring as int
        assert all(type(c) is int for c in a.terms.values() if c.denominator == 1)

        total, product = a + b, a * b
        assert _coeff_types(total, product) <= {int, Fraction}
        assert total.terms == _ref_add(ra, rb)
        assert product.terms == _ref_mul(ra, rb)

        k = rng.choice(_VALUES)
        scaled = a * _mixed(rng, k)
        assert _coeff_types(scaled) <= {int, Fraction}
        assert scaled.terms == {e: k * c for e, c in ra.items() if k * c}

        if b:
            f = RatFunc(a, b)
            assert _coeff_types(f.num, f.den) <= {int, Fraction}
            assert _ref_mul(f.num.terms, rb) == _ref_mul(ra, f.den.terms)
            m, rm = _random_pair(rng)
            if m:
                g = RatFunc(LaurentPoly(_ref_mul(ra, rm)), LaurentPoly(_ref_mul(rb, rm)))
                assert f == g
            (c, rc), (d, rd) = _random_pair(rng), _random_pair(rng)
            if d:
                h = RatFunc(c, d)
                assert (f == h) == (_ref_mul(ra, rd) == _ref_mul(rc, rb))

        slot = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        sub = a.substitute(slot)
        assert _coeff_types(sub) <= {int, Fraction}
        assert sub.terms == _ref_substitute(ra, slot)


def _poly(terms):
    return LaurentPoly({tuple(e): c for e, c in terms})


Y_ = LaurentPoly.monomial((0, 0, 1, 0))
X8 = LaurentPoly.monomial((8, 0, 0, 0))


def test_associate_is_the_same_for_every_unit_multiple():
    p = (Y_ - 1) * (X8 - 1)
    c, e, a = p.associate()
    assert min(a.terms) == (0, 0, 0, 0) and a.terms[max(a.terms)] == 1
    assert p == a.shift(e).scale(c)
    for unit in (LaurentPoly.monomial((-3, 0, Fraction(1, 2), 0), Fraction(-2, 3)),
                 LaurentPoly.monomial((1, 2, 3, 4), 5)):
        c, e, b = (p * unit).associate()
        assert b.terms == a.terms
        assert p * unit == b.shift(e).scale(c)


def test_binomial_quotient_divides_exactly_or_says_none():
    p = (Y_ - 1) * (X8 - 1) * LaurentPoly.monomial((Fraction(-1, 2), 0, 2, 0), 3)
    assert p.binomial_quotient((0, 0, 1, 0), 1) * (Y_ - 1) == p
    assert p.binomial_quotient((8, 0, 0, 0), 1) * (X8 - 1) == p
    assert p.binomial_quotient((0, 0, 1, 0), -1) is None
    assert p.binomial_quotient((8, 0, 1, 0), 1) is None
    # lines along a fractional step: X1^(1/2) - 2 divides X1 - 4
    half = LaurentPoly.monomial((Fraction(1, 2), 0, 0, 0))
    q = (half * half - 4).binomial_quotient((Fraction(1, 2), 0, 0, 0), 2)
    assert q == half + 2


def test_factors_split_binomials_and_keep_the_rest():
    cases = [
        ((Y_ - 1) * (X8 - 1), 2),
        ((Y_ - 1) * (Y_ - 1), 2),  # a repeated factor: Y1 - 1 twice
        (X8 - 1, 1),
        ((Y_ - 2) * (X8 * Y_ - 1), 2),
        ((Y_ - 1) * (Y_ * Y_ + Y_ + X8), 2),  # one binomial, and a trinomial left
        (Y_ * Y_ + Y_ + X8, 1),
        (LaurentPoly.monomial((1, 0, 2, 0), -3), 0),
    ]
    for p, count in cases:
        unit = LaurentPoly.monomial((Fraction(3, 4), -1, 2, 0), Fraction(-5, 2))
        c, e, fs = (p * unit).factors()
        assert len(fs) == count
        assert math.prod(fs, start=LaurentPoly.monomial(e, c)) == p * unit
        for f in fs:
            assert f.associate()[2].terms == f.terms
    assert [f.terms for f in ((Y_ - 1) * (Y_ - 1)).factors()[2]] == [(Y_ - 1).terms] * 2


def test_common_denominator_takes_each_associate_to_its_highest_power():
    """The lcm of 3/2 X1^(1/2) (Y1 - 1)^2, (Y1 - 1)(X1^8 - 1) and 4 is
    (Y1 - 1)^2 (X1^8 - 1), and each cofactor times its denominator is it."""
    zero = (0, 0, 0, 0)
    dens = [(Fraction(3, 2), (Fraction(1, 2), 0, 0, 0), [Y_ - 1, Y_ - 1]),
            (1, zero, [Y_ - 1, X8 - 1]), (4, zero, [])]
    factors, cofactors = LaurentPoly.common_denominator(dens)
    assert list(factors) == [(Y_ - 1, 2), (X8 - 1, 1)]
    lcm = (Y_ - 1) ** 2 * (X8 - 1)
    for (c, e, ps), cofactor in zip(dens, cofactors):
        assert cofactor * math.prod(ps, start=LaurentPoly.monomial(e, c)) == lcm
    assert LaurentPoly.common_denominator([]) == ((), [])


def test_kronecker_ints_decide_int_combinations(rng):
    """sum c_j ints_j == 0 exactly when sum c_j polys_j == 0, for |c_j| <= cmax,
    even where the coefficients of one monomial nearly cancel."""
    from yangbaxter.scalars import kronecker_ints

    a = _poly([((0, 0, 0, 0), 3), ((1, 0, 0, 0), -2), ((0, 0, 1, 0), 5)])
    b = _poly([((0, 0, 0, 0), -3), ((1, 0, 0, 0), 2), ((0, 0, 1, 0), -5)])
    c = _poly([((1, 0, 0, 0), 7), ((0, 0, 1, 0), Fraction(1, 2))])
    polys = [a, b, c, LaurentPoly.zero()]
    ints, _ = kronecker_ints(polys, 4)
    assert ints[3] == 0
    for coeffs in [(1, 1, 0, 0), (2, 2, 0, 3), (1, -1, 0, 0), (4, 3, 0, 0), (0, 0, 4, 0)]:
        packed = sum(k * i for k, i in zip(coeffs, ints))
        poly = sum((p.scale(k) for k, p in zip(coeffs, polys)), LaurentPoly.zero())
        assert (packed == 0) == poly.is_zero()
    # X - 256 is not zero, though X's digit is the one above 1's: 8-bit
    # digits would carry 256 ones into it
    one, x = LaurentPoly.const(1), LaurentPoly.monomial((1, 0, 0, 0))
    ints, _ = kronecker_ints([one, x], 256)
    assert ints[1] - 256 * ints[0] != 0
    # random combinations at the bound cmax
    polys = [
        _poly([((rng.randrange(4), 0, rng.randrange(3), 0), rng.randint(-9, 9)) for _ in range(5)])
        for _ in range(8)
    ]
    ints, _ = kronecker_ints(polys, 3)
    for _ in range(300):
        coeffs = [rng.randint(-3, 3) for _ in polys]
        poly = sum((p.scale(k) for k, p in zip(coeffs, polys)), LaurentPoly.zero())
        assert (sum(k * i for k, i in zip(coeffs, ints)) == 0) == poly.is_zero()


def test_kronecker_ints_bound_is_the_largest_its_digits_hold(rng):
    """The bound kronecker_ints returns is the largest cmax its digit width
    holds: packing for it gives the same ints, one more widens the digits,
    and combinations with |c_j| at the bound still decide their sum."""
    from yangbaxter.scalars import kronecker_ints

    polys = [
        _poly([((rng.randrange(3), 0, rng.randrange(2), 0), rng.randint(-9, 9)) for _ in range(4)])
        for _ in range(6)
    ] + [_poly([((0, 0, 0, 0), Fraction(5, 3)), ((1, 0, 0, 0), Fraction(-1, 2))])]
    polys.append(polys[0].scale(-1))
    ints, top = kronecker_ints(polys, 5)
    assert 5 <= top < math.inf
    assert kronecker_ints(polys, top) == (ints, top)
    wider, more = kronecker_ints(polys, top + 1)
    assert more > top and wider != ints

    def decided(coeffs):
        poly = sum((p.scale(k) for k, p in zip(coeffs, polys)), LaurentPoly.zero())
        return (sum(k * i for k, i in zip(coeffs, ints)) == 0) == poly.is_zero()

    # each monomial's coefficient at its largest, top times its column's sum
    for e in {e for p in polys for e in p.terms}:
        assert decided([top if p.terms.get(e, 0) >= 0 else -top for p in polys])
    assert decided([top] + [0] * 6 + [top])  # p - p at the bound is zero
    for _ in range(300):
        assert decided([rng.choice((-top, top, -1, 0, 1)) for _ in polys])
    # for 1 and X a digit holds 255 and no more: X - 256 packs to zero
    one, x = LaurentPoly.const(1), LaurentPoly.monomial((1, 0, 0, 0))
    (i1, ix), top = kronecker_ints([one, x], 255)
    assert top == 255 and ix - 255 * i1 != 0 and ix - 256 * i1 == 0
    # without monomials every bound is held
    assert kronecker_ints([LaurentPoly.zero()], 3) == ([0], math.inf)


def test_in_normal_form_keeps_num_and_den():
    num, den = LaurentPoly.const(-1), LaurentPoly({(0, 0, 0, 0): -1, (0, 0, 1, 0): 1})
    f = RatFunc.in_normal_form(num, den)
    assert f.num is num and f.den is den
    assert f == RatFunc(num, den)
