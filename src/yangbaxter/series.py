"""Truncated Laurent expansion in u around u = 0.

expand_in_u gives the exact coefficients of u^-1, u^0, ..., u^order of
a function of X1 = exp(u/(2n)) and Y1 = exp(v), as a tuple of RatFunc
values in Y1 only.  At most a simple pole at u = 0 is representable;
anything worse raises PoleOrderError.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import LaurentPoly, PoleOrderError, RatFunc, rf


def _exp_series(poly, n, upto):
    """u-series of poly(X1 -> exp(u/(2n))), coefficients LaurentPoly in Y1.

    Terms must not involve X2 or Y2.
    """
    inv_fact = [Fraction(1, factorial(k)) for k in range(upto + 1)]
    out = [LaurentPoly.zero() for _ in range(upto + 1)]
    for exps, c in poly.terms.items():
        if exps[1] or exps[3]:
            raise ValueError("expansion requires a function of X1 and Y1 only")
        rate = Fraction(exps[0], 2 * n) if exps[0] else Fraction(0)
        ymono = LaurentPoly.monomial((0, 0, exps[2], 0), c)
        power = Fraction(1)
        for k in range(upto + 1):
            if k:
                power *= rate
                if not power:
                    break
            out[k] = out[k] + ymono.scale(power * inv_fact[k])
    return out


def expand_in_u(f, n, order):
    """Expand a RatFunc of X1, Y1 as a Laurent series in u at u = 0.

    Substitutes X1 = exp(u/(2n)) and returns the exact coefficients of
    u^-1 .. u^order, in that order, as a tuple of rational functions in
    Y1.  Raises PoleOrderError when f has a pole of order > 1 at u = 0
    (i.e. at X1 = 1), and ValueError for an order below 0.
    """
    if order < 0:
        raise ValueError("series order must be >= 0")
    f = rf(f)
    if f.is_zero():
        return (RatFunc.zero(),) * (order + 2)
    # A nonzero combination sum_a c_a(Y1) exp(a*u/(2n)) with t distinct
    # rates vanishes at u = 0 to order at most t - 1 (Vandermonde), which
    # bounds how far we must look for the leading coefficient.
    t_num = len(f.num.exponents_of(0))
    t_den = len(f.den.exponents_of(0))
    upto = order + max(t_num, t_den) + 1
    nser = _exp_series(f.num, n, upto)
    dser = _exp_series(f.den, n, upto)
    ord_d = next(k for k, c in enumerate(dser) if c)
    ord_n = next(k for k, c in enumerate(nser) if c)
    pole = ord_d - ord_n
    if pole > 1:
        raise PoleOrderError(f"pole of order {pole} at u = 0")
    # f = u^(-pole) * (N~ / D~) with regular series N~, D~
    top = order + 1  # highest needed index in the regular quotient
    nreg = [rf(nser[ord_n + i]) if ord_n + i <= upto else RatFunc.zero()
            for i in range(top + 1)]
    dreg = [rf(dser[ord_d + i]) if ord_d + i <= upto else RatFunc.zero()
            for i in range(top + 1)]
    inv0 = dreg[0].inverse()
    inv = [inv0]
    for i in range(1, top + 1):
        acc = RatFunc.zero()
        for j in range(1, i + 1):
            acc = acc + dreg[j] * inv[i - j]
        inv.append(-(acc * inv0))
    quot = []
    for m in range(top + 1):
        acc = RatFunc.zero()
        for i in range(m + 1):
            acc = acc + nreg[i] * inv[m - i]
        quot.append(acc)
    return tuple(
        quot[m + pole] if 0 <= m + pole <= top else RatFunc.zero()
        for m in range(-1, order + 1)
    )
