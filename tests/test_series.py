"""u-expansion checks against an independent Taylor oracle."""

from fractions import Fraction
from math import factorial

import pytest

from yangbaxter import verify
from yangbaxter.scalars import PoleOrderError, X1, Y1, rf
from yangbaxter.series import expand_in_u
from yangbaxter.tensors import Tensor2


def taylor_inverse_one_minus_exp_neg(order):
    """Oracle: Laurent coefficients of 1/(1 - e^-u) by direct series division.

    Works entirely in one-variable Fraction lists, independent of the
    package's expansion path.
    """
    # 1 - e^-u = sum_{k>=1} -(-1)^k u^k / k! = u - u^2/2 + u^3/6 - ...
    upto = order + 3
    den = [Fraction(0)] + [
        -Fraction((-1) ** k, factorial(k)) for k in range(1, upto + 1)
    ]
    # divide 1 by den = u * (den/u): invert the regular part then shift
    reg = den[1:]  # starts with 1
    inv = [Fraction(1)]
    for m in range(1, upto):
        acc = Fraction(0)
        for j in range(1, m + 1):
            acc += reg[j] * inv[m - j]
        inv.append(-acc)
    # 1/(1 - e^-u) = u^-1 * inv(u): coefficient of u^k is inv[k+1]
    return {k: inv[k + 1] for k in range(-1, order + 1)}


# frozen from the oracle: 1/u + 1/2 + u/12 + 0*u^2 - u^3/720
ORACLE_COEFFS = {
    -1: Fraction(1),
    0: Fraction(1, 2),
    1: Fraction(1, 12),
    2: Fraction(0),
    3: Fraction(-1, 720),
}


def test_oracle_matches_frozen_values():
    assert taylor_inverse_one_minus_exp_neg(3) == ORACLE_COEFFS


def expansion(f, n, order):
    """expand_in_u's coefficients keyed by their power of u, -1 .. order."""
    coeffs = expand_in_u(f, n, order)
    assert len(coeffs) == order + 2
    return dict(zip(range(-1, order + 1), coeffs))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_expand_simple_pole_kernel(n):
    f = (1 - X1 ** (-2 * n)) ** -1  # 1/(1 - e^-u)
    s = expansion(f, n, 3)
    for k in range(-1, 4):
        assert s[k] == ORACLE_COEFFS[k]


def test_expand_exponential():
    s = expansion(rf(1) * X1**4, 2, 2)  # e^u at n=2
    assert s[-1] == 0
    assert s[0] == 1
    assert s[1] == 1
    assert s[2] == Fraction(1, 2)


def test_expand_u_independent():
    s = expansion(Y1 / (1 - Y1), 3, 1)
    assert s[-1].is_zero()
    assert s[0] == Y1 / (1 - Y1)
    assert s[1].is_zero()


def test_expand_mixed_xy():
    # e^{-u/2}/(1 - e^{-u}) at n=2: pole 1, constant 0, linear u/24... check
    f = (rf(1) * X1**-2) * (1 - X1**-4) ** -1
    s = expansion(f, 2, 1)
    assert s[-1] == 1
    assert s[0] == 0


def test_higher_order_pole_rejected():
    with pytest.raises(PoleOrderError):
        expand_in_u((1 - X1**-4) ** -2, 2, 0)


def test_zero_at_origin():
    s = expansion(1 - X1**-4, 2, 2)  # 1 - e^-u = u - u^2/2 + ...
    assert s[-1] == 0
    assert s[0] == 0
    assert s[1] == 1
    assert s[2] == Fraction(-1, 2)


def test_expansion_multiplicative():
    n = 3
    f = (1 - X1 ** (-2 * n)) ** -1
    g = (rf(1) * X1 ** (2 * n)) * Y1 / (1 - Y1)
    sf = expansion(f, n, 3)
    sg = expansion(g, n, 3)
    direct = expansion(f * g, n, 3)
    # g is regular at u = 0, so the Cauchy product is exact up to u^2
    for k in range(-1, 3):
        prod = sum((sf[i] * sg[k - i] for i in range(-1, k + 1)), rf(0))
        assert direct[k] == prod


def test_expansion_tuple_and_coefficient_range():
    coeffs = expand_in_u(1 - X1**-4, 2, 1)
    assert isinstance(coeffs, tuple) and coeffs == (0, 0, 1)
    assert expand_in_u(rf(0), 2, 1) == (0, 0, 0)
    with pytest.raises(ValueError):
        expand_in_u(rf(1), 2, -1)
    r = Tensor2(2, {(1, 1, 1, 1): (1 - X1**-4) ** -1})
    assert verify.u_coefficients(r, (-1, 1), order=1)[0] == Tensor2(2, {(1, 1, 1, 1): rf(1)})
    for power in (-2, 2):
        with pytest.raises(ValueError):
            verify.u_coefficients(r, (0, power), order=1)
