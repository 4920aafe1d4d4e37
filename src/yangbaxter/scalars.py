"""Exact scalar arithmetic for the symbolic tensor engine.

All symbolic coefficients live in one Laurent ring in four formal
exponentials,

    X1 = exp(u/(2n)),   X2 = exp(u'/(2n)),   Y1 = exp(v),   Y2 = exp(v'),

with exact rational exponents and exact rational coefficients:

    LaurentPoly = sparse map {exponent 4-tuple: int | Fraction}
    RatFunc     = quotient of two LaurentPolys, denominator nonzero

RatFunc only where a denominator exists (a quantum matrix R(q) is over
LaurentPoly); a sum or product with a RatFunc is a RatFunc.  Equality and
zero tests cross-multiply expanded numerators, never by floating point
or gcd canonicalization.  A coefficient is stored as int when it enters
the ring integral, and as Fraction otherwise; every division is exact.
Exponents are arbitrary exact rationals (int whenever integral), a
superset of every lattice (1/(2nL))*Z the builders draw from.  Values
are immutable and safe to share; every operation returns a fresh value.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction

VAR_NAMES = ("X1", "X2", "Y1", "Y2")

_ZERO_EXPS = (0, 0, 0, 0)


class PoleOrderError(ValueError):
    """A series expansion met a pole of order > 1 at u = 0."""


def _norm(e):
    """Store an integral exponent or coefficient as int (canonical, and
    faster to hash and to multiply than Fraction)."""
    if isinstance(e, Fraction) and e.denominator == 1:
        return e.numerator
    return e


class LaurentPoly:
    """Sparse Laurent polynomial in X1, X2, Y1, Y2 over the rationals.

    Coefficients are int when integral on entry, Fraction otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                c = _norm(c if isinstance(c, (int, Fraction)) else Fraction(c))
                if c:
                    self.terms[tuple(_norm(e) for e in exps)] = c

    @classmethod
    def _make(cls, terms):
        # internal: terms already normalized and zero-free
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._make({})

    @classmethod
    def const(cls, c):
        c = _norm(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return cls._make({_ZERO_EXPS: c} if c else {})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == LaurentPoly.const(other).terms
        return NotImplemented

    __hash__ = None

    def __neg__(self):
        return LaurentPoly._make({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        # the common operand first: isinstance against Fraction is slow
        if type(other) is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                other = LaurentPoly.const(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._make(out)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is LaurentPoly or isinstance(other, (int, Fraction, LaurentPoly)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        # only a fractional exponent in a lets a key sum to an int held as Fraction,
        # which __init__ then stores as int
        whole = True
        for (a0, a1, a2, a3), ca in a.items():
            whole = whole and type(a0 + a1 + a2 + a3) is int
            for eb, cb in b.items():
                key = (a0 + eb[0], a1 + eb[1], a2 + eb[2], a3 + eb[3])
                cur = out.get(key)
                cur = ca * cb if cur is None else cur + ca * cb
                if cur:
                    out[key] = cur
                elif key in out:
                    del out[key]
        return LaurentPoly._make(out) if whole else LaurentPoly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _norm(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if not c:
            return LaurentPoly.zero()
        return LaurentPoly._make({e: c * v for e, v in self.terms.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("LaurentPoly powers must be nonnegative integers")
        out = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shift(self, exps):
        """Multiply by the monomial with the given exponent vector."""
        e0, e1, e2, e3 = exps
        terms = {(a + e0, b + e1, c + e2, d + e3): v for (a, b, c, d), v in self.terms.items()}
        # a fractional shift can make an exponent integral; __init__ stores it as int
        if Fraction in map(type, exps):
            return LaurentPoly(terms)
        return LaurentPoly._make(terms)

    def substitute(self, slot):
        """The polynomial at a slot's arguments: for slot ((a, b), (c, d)),
        X1 -> X1^a X2^b and Y1 -> Y1^c Y2^d, that is u -> a u + b u' and
        v -> c v + d v'.  Terms that land together are merged.
        """
        (a, b), (c, d) = slot
        out = {}
        for (x1, x2, y1, y2), coeff in self.terms.items():
            key = (a * x1, b * x1 + x2, c * y1, d * y1 + y2)
            if Fraction in map(type, key):
                key = tuple(map(_norm, key))
            cur = out.get(key)
            cur = coeff if cur is None else cur + coeff
            if cur:
                out[key] = cur
            elif key in out:
                del out[key]
        return LaurentPoly._make(out)

    def evaluate(self, logs):
        """Numeric value with variable i set to exp(logs[i])."""
        total = 0j
        for c, steps in self._plan():
            z = 0j
            for e, i in steps:
                z += e * logs[i]
            total += c * cmath.exp(z)
        return total

    def _plan(self):
        """evaluate's terms: (coefficient as float, the (exponent as float,
        index) of each nonzero exponent)."""
        return [(float(c), [(float(e), i) for i, e in enumerate(exps) if e])
                for exps, c in self.terms.items()]

    def float_form(self):
        """The same polynomial with float coefficients and exponents.

        It evaluates to the same bits as self with nothing left to
        convert, so a polynomial evaluated at many points is converted
        once.  It is for evaluate only (see _FloatPoly).
        """
        out = _FloatPoly._make({tuple(map(float, e)): float(c) for e, c in self.terms.items()})
        out.plan = LaurentPoly._plan(out)
        return out

    def associate(self):
        """(c, e, p) with self = c X^e p, for a nonzero self.

        p is the associate of self whose lex-least exponent tuple is 0 and
        whose lex-greatest term has coefficient 1; self times any unit
        c' X^e' of this Laurent ring has the same p.
        """
        lo = min(self.terms)
        c = self.terms[max(self.terms)]
        p = self.shift(tuple(-x for x in lo)) if any(lo) else self
        if c != 1:
            p = p.scale(Fraction(1) / c)
        return c, lo, p

    def binomial_quotient(self, w, c):
        """self / (X^w - c) when the division is exact, else None; w != 0.

        The terms of self fall into the lines e + Z w.  On each line self
        is a monomial times a polynomial in t = X^w, which X^w - c divides
        exactly when it vanishes at t = c; the quotient is read off by
        synthetic division from the top.
        """
        i = next(idx for idx, x in enumerate(w) if x)
        lines = {}
        for e, a in self.terms.items():
            j = e[i] // w[i]
            lines.setdefault(tuple(x - j * y for x, y in zip(e, w)), {})[j] = a
        out = {}
        for base, coeffs in lines.items():
            lo = min(coeffs)
            carry = 0
            for j in range(max(coeffs), lo, -1):
                carry = coeffs.get(j, 0) + c * carry
                if carry:
                    out[tuple(x + (j - 1) * y for x, y in zip(base, w))] = carry
            if coeffs.get(lo, 0) + c * carry:
                return None
        return LaurentPoly(out)

    def factors(self):
        """(c, e, factors) with self = c X^e prod(factors), for a nonzero self.

        Each factor is an associate (associate()).  Binomials X^w - c are
        split off one at a time (_binomial_divisor); what no such binomial
        divides is the last factor, unless it is 1.  Each split lowers the
        greatest exponent tuple, and the loop stops after as many splits
        as self has terms.
        """
        c, e, p = self.associate()
        out = []
        for _ in range(len(self.terms)):
            split = _binomial_divisor(p) if len(p.terms) > 2 else None
            if split is None:
                break
            w, root, p = split
            out.append(LaurentPoly({w: 1, _ZERO_EXPS: -root}))
        if len(p.terms) > 1:
            out.append(p)
        return c, e, out

    @classmethod
    def common_denominator(cls, dens):
        """(factors, cofactors): the least common multiple of the factored
        denominators dens, and each one's cofactor.

        Each of dens is (c, e, ps), c X^e times the product of the
        associates ps (associate()), a repeated one counted once per
        repeat, as factors() gives.  The lcm is each associate to the
        highest power one of dens has it: factors holds the pairs
        (p, power) in the order of p's sorted terms.  cofactors[k] is the
        lcm divided by dens[k].
        """
        polys, counts = {}, []
        for _, _, ps in dens:
            count = Counter()
            for p in ps:
                key = tuple(sorted(p.terms.items()))
                polys[key] = p
                count[key] += 1
            counts.append(count)
        top = Counter()
        for count in counts:
            top |= count
        cofactors = []
        for (c, e, _), count in zip(dens, counts):
            cofactor = cls.monomial(tuple(-x for x in e), Fraction(1) / c)
            for key, m in (top - count).items():
                cofactor = cofactor * polys[key] ** m
            cofactors.append(cofactor)
        return tuple((polys[key], top[key]) for key in sorted(top)), cofactors

    def exponents_of(self, var):
        return {e[var] for e in self.terms}

    def uses_var(self, var):
        return any(e[var] for e in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = []
            for name, e in zip(VAR_NAMES, exps):
                if e == 0:
                    continue
                if e == 1:
                    factors.append(name)
                elif isinstance(e, int):
                    factors.append(f"{name}^{e}")
                else:
                    factors.append(f"{name}^({e})")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self})"


def _binomial_divisor(p):
    """(w, c, p / (X^w - c)) for a binomial X^w - c that divides p, or None.

    p is an associate (LaurentPoly.associate).  w runs over the steps
    from its greatest exponent tuple to the others, and c over 1 and the
    other term's coefficient negated.
    """
    hi = max(p.terms)
    for x, a in sorted(p.terms.items()):
        w = tuple(y - z for y, z in zip(hi, x))
        if any(w):
            for root in dict.fromkeys((1, -a)):
                q = p.binomial_quotient(w, root)
                if q is not None:
                    return w, root, q
    return None


class _FloatPoly(LaurentPoly):
    """LaurentPoly.float_form: float coefficients and exponents.

    Its values are not exact, so the operations that promise exact
    rational coefficients (arithmetic, comparison, printing) raise
    TypeError, also through a RatFunc holding it; evaluate works, from
    the plan made once with it.
    """

    __slots__ = ("plan",)

    def _plan(self):
        return self.plan

    def _inexact(self, *args):
        raise TypeError("a float form is for evaluate only")

    __eq__ = __neg__ = __add__ = __radd__ = __sub__ = __rsub__ = _inexact
    __mul__ = __rmul__ = __pow__ = scale = shift = substitute = __str__ = _inexact


_ONE_POLY = LaurentPoly.const(1)


class RatFunc:
    """Quotient of LaurentPolys with nonzero denominator.

    The representation is not canonical; equality and zero tests go
    through cross multiplication, which is exact.  Light normalization is
    applied on construction, one rule per denominator shape: a monomial
    denominator is absorbed into the numerator (this is a Laurent ring);
    any other denominator has the common monomial content cancelled and
    is made monic by its largest exponent tuple.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        # the common operands, LaurentPolys, first: isinstance against Fraction is slow
        if type(num) is not LaurentPoly and isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        if den is None:
            den = _ONE_POLY
        elif type(den) is not LaurentPoly and isinstance(den, (int, Fraction)):
            den = LaurentPoly.const(den)
        if not den.terms:
            raise ZeroDivisionError("RatFunc with zero denominator")
        if not num.terms:
            den = _ONE_POLY
        if len(den.terms) == 1:
            # a monomial c*X^d is a unit of this Laurent ring: absorb it
            ((exps, c),) = den.terms.items()
            if any(exps):
                num = num.shift(tuple(-e for e in exps))
            if c != 1:
                num = num.scale(Fraction(1) / c)
            den = _ONE_POLY
        else:
            # cancel common monomial content, then make den monic by its
            # largest exponent tuple (int and Fraction compare exactly)
            mins = tuple(map(min, *num.terms, *den.terms))
            if any(mins):
                neg = tuple(-m for m in mins)
                num = num.shift(neg)
                den = den.shift(neg)
            c = den.terms[max(den.terms)]
            if c != 1:
                num = num.scale(Fraction(1) / c)
                den = den.scale(Fraction(1) / c)
            if num.terms == den.terms:
                num, den = _ONE_POLY, _ONE_POLY
        self.num = num
        self.den = den

    @classmethod
    def in_normal_form(cls, num, den):
        """num / den taken as given, for a num and den already in the form
        the constructor leaves them in; that is not checked."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero())

    def is_zero(self):
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den.terms == other.den.terms:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __add__(self, other):
        if type(other) is not RatFunc:
            if isinstance(other, (int, Fraction, LaurentPoly)):
                other = RatFunc(other)
            elif not isinstance(other, RatFunc):
                return NotImplemented
        if self.den.terms == other.den.terms:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is RatFunc or isinstance(other, (int, Fraction, LaurentPoly, RatFunc)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not RatFunc:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return RatFunc.zero()
                out = RatFunc.__new__(RatFunc)
                out.num = self.num.scale(other)
                out.den = self.den
                return out
            if isinstance(other, LaurentPoly):
                other = RatFunc(other)
            elif not isinstance(other, RatFunc):
                return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return RatFunc(other) * self.inverse()

    def inverse(self):
        if not self.num.terms:
            raise ZeroDivisionError("inverting the zero rational function")
        return RatFunc(self.den, self.num)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("RatFunc powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        return RatFunc(self.num**k, self.den**k)

    def substitute(self, slot):
        """Numerator and denominator at a slot's arguments (LaurentPoly.substitute);
        a denominator that vanishes there raises ZeroDivisionError."""
        return RatFunc(self.num.substitute(slot), self.den.substitute(slot))

    def evaluate(self, logs):
        """Numeric value with variable i set to exp(logs[i])."""
        return self.num.evaluate(logs) / self.den.evaluate(logs)

    def float_form(self):
        """Numerator and denominator in float form (LaurentPoly.float_form)."""
        out = RatFunc.__new__(RatFunc)
        out.num = self.num.float_form()
        out.den = self.den.float_form()
        return out

    def __str__(self):
        if self.den == _ONE_POLY:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def kronecker_ints(polys, cmax):
    """Each polynomial with int coefficients as one int, for deciding int
    combinations of them.

    The monomials met are numbered in order, and p becomes the int
    sum_i p[m_i] 2^(B i), B a multiple of 8.  B is chosen so that for any
    ints c_j with |c_j| <= cmax, sum_j c_j ints[j] is zero exactly when
    sum_j c_j polys[j] is: each monomial's coefficient in the sum is then
    below 2^B in size, so the lowest nonzero one is not a multiple of 2^B
    and cannot be cancelled by the digits above it.
    Polynomials with Fraction coefficients are all first scaled by the lcm
    of their denominators, which keeps every such verdict.  Returns the
    ints and the largest bound for which the same B holds (at least cmax).
    """
    scale = math.lcm(*(
        c.denominator for p in polys for c in p.terms.values() if type(c) is not int
    ))
    index = {}
    total = {}
    for p in polys:
        for e, c in p.terms.items():
            index.setdefault(e, len(index))
            total[e] = total.get(e, 0) + abs(c)
    most = scale * max(total.values(), default=0)
    bits = 8 * -(-math.ceil(cmax * most).bit_length() // 8)  # whole bytes per monomial
    out = [sum(int(c * scale) << bits * index[e] for e, c in p.terms.items()) for p in polys]
    return out, (2 ** bits - 1) // most if most else math.inf


def rf(value):
    """Coerce a number or polynomial to RatFunc."""
    if isinstance(value, RatFunc):
        return value
    return RatFunc(value)


def monomial_rf(x1=0, x2=0, y1=0, y2=0):
    return RatFunc(LaurentPoly.monomial((x1, x2, y1, y2)))


X1 = monomial_rf(x1=1)
X2 = monomial_rf(x2=1)
Y1 = monomial_rf(y1=1)
Y2 = monomial_rf(y2=1)


def q_power(n, exponent):
    """q**exponent as a LaurentPoly monomial in X1, where q = exp(u/2) = X1**n."""
    return LaurentPoly.monomial((n * Fraction(exponent), 0, 0, 0))


def log_point(u, uprime, v, vprime, n):
    """Per-variable logarithms for numeric evaluation at a sample point.

    X1, X2 are 2n-th roots in u, u', so their logs are u/(2n), u'/(2n);
    evaluating monomials through these logs keeps fractional powers
    single-valued.
    """
    return (u / (2 * n), uprime / (2 * n), v, vprime)
