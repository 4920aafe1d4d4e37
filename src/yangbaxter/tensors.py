"""Sparse exact tensor algebra on Mat_n (x) Mat_n and Mat_n (x) Mat_n (x) Mat_n.

Coefficients are stored in dicts keyed by 1-based matrix-unit indices:

    Tensor2.coeffs[(i, j, k, l)]        coefficient of e_ij (x) e_kl
    Tensor3.coeffs[(i, j, k, l, m, p)]  coefficient of e_ij (x) e_kl (x) e_mp

printed as t_{i,k}^{j,l} (lower indices rows, upper columns).  Scalars
are any type with +, -, *, / by int and truthiness for exact zero; no
zero is stored, and costly entrywise maps run once per distinct scalar.
Tensor2 and Tensor3 are one class body at two and three legs.  Every
product, also of factors placed on legs of the 3-fold product, is read
from one table and contracted without building embeddings, in the
embedded product's order, so results agree to the bit.  Tensors are
immutable.  Numeric sampling applies a Tensor2's compiled form
(CompiledTensor2) to flat vectors through one generated kernel.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product
from operator import add, itemgetter, sub

from .scalars import VAR_NAMES, LaurentPoly, RatFunc, rf


_ONE_TERMS = {(0, 0, 0, 0): 1}


def _terms_key(v):
    """The ordered terms of a polynomial or quotient, or None for a number;
    scalars with equal keys have equal float forms, bit for bit."""
    if isinstance(v, RatFunc):
        return tuple(v.num.terms.items()), tuple(v.den.terms.items())
    if isinstance(v, LaurentPoly):
        return (tuple(v.terms.items()),)
    return None


def _memo(fn):
    """fn of scalars, run once per distinct arguments keyed by their ordered
    terms (_terms_key), which share the immutable result: the terms, in
    order, a call per entry gives.  A number among the arguments bypasses it."""
    seen = {}

    def once(*args):
        key = tuple(map(_terms_key, args))
        if None in key:
            return fn(*args)
        out = seen.get(key)
        if out is None:
            out = seen[key] = fn(*args)
        return out

    return once


def _prune(d):
    return {k: v for k, v in d.items() if v}


def _adopt(cls, n, coeffs):
    """A tensor around a dict the engine has just built, copied only to drop zeros."""
    t = object.__new__(cls)
    t.n = n
    t.coeffs = coeffs if all(coeffs.values()) else _prune(coeffs)
    return t


def _added(a, b):
    """a + b entrywise."""
    out = dict(a)
    get = out.get
    for k, v in b.items():
        cur = get(k)
        out[k] = v if cur is None else cur + v
    return out


def _contract(left, right, left_cols, right_rows, pick, sort_by=None, out=None):
    """Sum of the products ca * cb over the entry pairs that meet, added
    into the dict out when it is given.  Entry (lk, ca) of left meets
    (rk, cb) of right when left_cols(lk) == right_rows(rk), the product
    landing at pick(lk + rk).  Sums run over left's entries in dict order,
    each over the right entries met in dict order, sorted stably by
    sort_by(rk) if given: float sums and RatFunc's form depend on it."""
    items = right.items()
    if sort_by is not None:
        items = sorted(items, key=lambda item: sort_by(item[0]))
    buckets = {}
    for rk, cb in items:
        buckets.setdefault(right_rows(rk), []).append((rk, cb))
    if out is None:
        out = {}
    get = out.get
    for lk, ca in left.items():
        for rk, cb in buckets.get(left_cols(lk), ()):
            key = pick(lk + rk)
            cur = get(key)
            prod = ca * cb
            out[key] = prod if cur is None else cur + prod
    return out


# The product table, keyed by (legs of self, placement of the factor) and
# giving (legs of the factor, legs of the result, _contract's getters) as
# index tuples.  The column and row getters index one factor's own key;
# pick indexes the concatenation of both keys, e.g. (i, j, k, l, x, y, z, w)
# for two 2-leg factors.  Placement None is the product of two tensors with
# the same legs.  (ab, cd) is X_ab Y_cd for two 2-leg factors on legs of
# the 3-fold product: X's column on the shared leg meets Y's row there; on
# its other leg Y meets the identity that embedding X puts there, whose
# index equals Y's row on that leg.  The embedded product runs that index in
# ascending order, so Y's entries are sorted stably by that row (the fourth
# getter).  cd is T Y_cd for a 3-leg T: T's columns on legs c, d meet Y's rows.
_PRODUCTS = {
    key: (factor, result, tuple(itemgetter(*idx) for idx in getters))
    for key, (factor, result, getters) in {
        (2, None): (2, 2, ((1, 3), (0, 2), (0, 5, 2, 7))),
        (3, None): (3, 3, ((1, 3, 5), (0, 2, 4), (0, 7, 2, 9, 4, 11))),
        (2, (12, 13)): (2, 3, ((1,), (0,), (0, 5, 2, 3, 6, 7), (2,))),
        (2, (13, 12)): (2, 3, ((1,), (0,), (0, 5, 6, 7, 2, 3), (2,))),
        (2, (12, 23)): (2, 3, ((3,), (0,), (0, 1, 2, 5, 6, 7), (2,))),
        (2, (23, 12)): (2, 3, ((1,), (2,), (4, 5, 0, 7, 2, 3), (0,))),
        (2, (13, 23)): (2, 3, ((3,), (2,), (0, 1, 4, 5, 2, 7), (0,))),
        (2, (23, 13)): (2, 3, ((3,), (2,), (4, 5, 0, 1, 2, 7), (0,))),
        (3, 12): (2, 3, ((1, 3), (0, 2), (0, 7, 2, 9, 4, 5))),
        (3, 13): (2, 3, ((1, 5), (0, 2), (0, 7, 2, 3, 4, 9))),
        (3, 23): (2, 3, ((3, 5), (0, 2), (0, 1, 2, 7, 4, 9))),
    }.items()
}
# Any other placement would place a 2-leg factor too, so a wrong factor is
# reported (TypeError) before the placement (ValueError).
_UNKNOWN_PLACEMENT = (2, None, None)
# CompiledTensor2.apply: per legs, the powers of n that are the vector's
# strides on the tensor's two legs and on the free leg, if any (21: swapped).
_PLACEMENTS = {None: (1, 0), 21: (0, 1), 12: (2, 1, 0), 13: (2, 0, 1), 23: (1, 0, 2)}


def _sparse_tensor(nlegs):
    """The class of sparse elements of Mat_n^(x)nlegs over a generic scalar.

    The body is written once and run once per leg count, so Tensor2 and
    Tensor3 are separate classes, each with its own methods.
    """

    class Tensor:
        __slots__ = ("n", "coeffs", "_form")

        def __init__(self, n, coeffs=None):
            self.n = n
            self.coeffs = _prune(coeffs) if coeffs else {}

        @classmethod
        def identity(cls, n):
            """1 (x) 1 (x) ... on every leg."""
            rows = product(range(1, n + 1), repeat=nlegs)
            return cls(n, {tuple(x for i in row for x in (i, i)): Fraction(1) for row in rows})

        @classmethod
        def column(cls, n, values):
            """A vector of V^(x)nlegs as a tensor with one column on each leg.

            values is flat in row-major index order; entry (i, k, ...)
            becomes the coefficient of e_i1 (x) e_k1 (x) ....  So for T of
            numbers, T.mul(column(n, x)) equals column(n, T.float_form().apply(x)).
            Raises ValueError unless values has n^nlegs entries."""
            keys = tuple(product(*((range(1, n + 1), (1,)) * nlegs)))
            if len(values) != len(keys):
                raise ValueError(f"vector of length {len(values)}, expected {len(keys)}")
            return _adopt(cls, n, dict(zip(keys, values)))

        def is_zero(self):
            return not self.coeffs

        def __eq__(self, other):
            if not isinstance(other, Tensor):
                return NotImplemented
            return self.n == other.n and (self - other).is_zero()

        __hash__ = None

        def __neg__(self):
            return _adopt(Tensor, self.n, {k: -v for k, v in self.coeffs.items()})

        def __add__(self, other):
            if not isinstance(other, Tensor) or self.n != other.n:
                return NotImplemented
            return _adopt(Tensor, self.n, _added(self.coeffs, other.coeffs))

        def __sub__(self, other):
            if not isinstance(other, Tensor) or self.n != other.n:
                return NotImplemented
            return _adopt(Tensor, self.n, _added(self.coeffs, (-other).coeffs))

        def scale(self, c):
            if not c:
                return Tensor(self.n)
            return self.map_scalars(lambda v: c * v)

        def mul(self, other, legs=None):
            """Componentwise matrix product, e_ij e_kl = delta_jk e_il per leg.

            With legs=(ab, cd), one of the six ordered pairs of distinct legs
            among 12, 13, 23, a Tensor2 returns the Tensor3 self_ab other_cd;
            with legs = 12, 13 or 23, a Tensor3 takes a Tensor2 factor and
            returns self other_legs.  Both agree to the bit with the products
            of the embedded factors (the embed oracle in tests/conftest.py),
            but build no embedding.
            """
            result, getters = self._placed(other, legs)
            return _adopt(result, self.n, _contract(self.coeffs, other.coeffs, *getters))

        def _placed(self, other, legs):
            """The class of self.mul(other, legs) and _contract's getters for it."""
            factor, result, getters = _PRODUCTS.get((nlegs, legs), _UNKNOWN_PLACEMENT)
            if not isinstance(other, _TENSORS[factor]):
                raise TypeError(
                    f"Tensor{nlegs}.mul with legs={legs!r} needs a Tensor{factor} factor"
                )
            if self.n != other.n:
                raise ValueError("tensor size mismatch")
            if getters is None:
                raise ValueError(f"Tensor{nlegs}.mul cannot place a factor on legs {legs!r}")
            return _TENSORS[result], getters

        if nlegs == 2:

            @classmethod
            def perm(cls, n, c=Fraction(1)):
                """c P, P = sum e_ij (x) e_ji the permutation (Casimir) tensor."""
                pairs = product(range(1, n + 1), repeat=2)
                return cls(n, {(i, j, j, i): c for i, j in pairs})

            def flip21(self):
                """Swap the two legs: coefficient of e_ij (x) e_kl moves to e_kl (x) e_ij."""
                flipped = {(k, l, i, j): v for (i, j, k, l), v in self.coeffs.items()}
                return _adopt(Tensor, self.n, flipped)

            def float_form(self):
                """self compiled for sampling (CompiledTensor2), made once and kept
                with self: each scalar in float form (LaurentPoly.float_form), a
                number as complex.  Scalars with the same terms in the same
                order share one; in another order they may round differently,
                so they are kept apart."""
                if not hasattr(self, "_form"):
                    n, shared, forms, rows = self.n, {}, [], []
                    for (i, j, k, l), v in self.coeffs.items():
                        s = shared.setdefault(_terms_key(v) or (i, j, k, l), len(forms))
                        if s == len(forms):
                            forms.append(v.float_form() if isinstance(v, (LaurentPoly, RatFunc))
                                         else complex(v))
                        rows.append(((i - 1) * n + k - 1, (j - 1) * n + l - 1, s))
                    self._form = CompiledTensor2(n, rows, forms)
                return self._form

        def project_traceless(self, legs):
            """Apply M -> M - (tr M / n) 1 on each selected leg (1, 2, ...).

            An int coefficient is divided exactly: it stays an int when n
            divides it, and becomes a Fraction otherwise.
            """
            n = self.n
            out = self
            for leg in legs:
                if not 1 <= leg <= nlegs:
                    raise ValueError(f"Tensor{nlegs} has no leg {leg!r}")
                base = 2 * (leg - 1)
                src = out.coeffs
                acc = dict(src)
                for key, v in src.items():
                    if key[base] != key[base + 1]:
                        continue
                    if type(v) is int:
                        frac = v // n if v % n == 0 else Fraction(v, n)
                    else:
                        frac = v / n
                    head, tail = key[:base], key[base + 2:]
                    for m in range(1, n + 1):
                        nk = head + (m, m) + tail
                        cur = acc.get(nk)
                        acc[nk] = -frac if cur is None else cur - frac
                out = _adopt(Tensor, n, acc)
            return out

        def map_scalars(self, fn):
            """fn of each entry, run once per distinct scalar (_memo), so fn
            must depend on a scalar's ordered terms only."""
            fn = _memo(fn)
            return _adopt(Tensor, self.n, {k: fn(v) for k, v in self.coeffs.items()})

        def substitute(self, slot):
            """Every entry at a slot's arguments (LaurentPoly.substitute).

            A LaurentPoly entry stays a LaurentPoly; any other becomes a RatFunc.
            """
            return self.map_scalars(
                lambda v: (v if isinstance(v, LaurentPoly) else rf(v)).substitute(slot)
            )

        def catalogue(self):
            """(factors, functions) with self = sum_f f A_f / prod g^m, over
            (f, A_f) in functions and (g, m) in factors.

            The denominator is the lcm of the entry denominators over their
            factors (LaurentPoly.common_denominator); an entry that is not a
            RatFunc has denominator 1.  The numerators over it that are
            rational multiples of one polynomial share one f, and A_f holds
            each one's multiple: the f are the scalar functions of self, and
            each A_f is a tensor with int coefficients, with f divided by the
            lcm of the multiples' denominators to make it so.
            """
            dens, entries = {}, []
            for k, v in self.coeffs.items():
                v = rf(v)
                den = tuple(v.den.terms.items())
                if den not in dens:
                    dens[den] = v.den.factors()
                entries.append((k, v))
            factors, cofactors = LaurentPoly.common_denominator(list(dens.values()))
            cofactors = dict(zip(dens, cofactors))

            @_memo
            def normalised(v):
                """(f's sorted terms, lead) with v's numerator over the lcm lead f."""
                cof = cofactors[tuple(v.den.terms.items())]
                p = v.num if cof.terms == _ONE_TERMS else v.num * cof
                top = max(p.terms)
                lead = p.terms[top]
                if len(p.terms) == 1:  # lead times its monomial
                    return ((top, 1),), lead
                return tuple(sorted((e, Fraction(c, lead)) for e, c in p.terms.items())), lead

            groups = {}
            for k, v in entries:
                key, lead = normalised(v)
                groups.setdefault(key, {})[k] = lead
            functions = []
            for key, multiples in sorted(groups.items()):
                m = math.lcm(*(c.denominator for c in multiples.values()))
                f = LaurentPoly(dict(key))
                if m != 1:
                    f = f.scale(Fraction(1, m))
                coeffs = {k: c.numerator * (m // c.denominator) for k, c in multiples.items()}
                functions.append((f, _adopt(Tensor, self.n, coeffs)))
            return factors, tuple(functions)

        def lex_witness(self):
            """Lexicographically least nonzero coefficient (index, value)."""
            if not self.coeffs:
                return None
            key = min(self.coeffs)
            return key, self.coeffs[key]

        def max_abs(self):
            """Largest coefficient magnitude (numeric tensors), or NaN when
            one is: their sum is NaN exactly when one of them is."""
            mags = list(map(abs, self.coeffs.values()))
            total = sum(mags)
            return total if total != total else max(mags, default=0.0)

        def pretty(self):
            """One line t_{rows}^{cols} = value per coefficient, in index order."""
            lines = []
            for key in sorted(self.coeffs):
                rows = ",".join(map(str, key[0::2]))
                cols = ",".join(map(str, key[1::2]))
                lines.append(f"t_{{{rows}}}^{{{cols}}} = {self.coeffs[key]}")
            return "\n".join(lines)

        def __repr__(self):
            return f"Tensor{nlegs}(n={self.n}, nnz={len(self.coeffs)})"

    Tensor.__name__ = Tensor.__qualname__ = f"Tensor{nlegs}"
    Tensor.__doc__ = f"Sparse element of Mat_n^(x){nlegs} over a generic scalar."
    return Tensor


Tensor2 = _sparse_tensor(2)
Tensor3 = _sparse_tensor(3)
_TENSORS = {2: Tensor2, 3: Tensor3}


def _lane_plan(n, legs):
    """CompiledTensor2.apply's plan for legs: the vector's size, a getter
    per lane (a slice where the lane is evenly spaced, so always at n = 1,
    where itemgetter(i) returns no sequence), and a getter that puts the
    lanes' concatenation in the vector's order, or None if it is."""
    if legs not in _PLACEMENTS:
        raise ValueError(f"CompiledTensor2.apply cannot place the tensor on legs {legs!r}")
    a, b, *free = (n ** e for e in _PLACEMENTS[legs])
    lanes = [[i * a + k * b + f for i in range(n) for k in range(n)]
             for f in (range(0, n * free[0], free[0]) if free else (0,))]
    gathers = [itemgetter(slice(lane[0], lane[-1] + 1, b)) if a == n * b else itemgetter(*lane)
               for lane in lanes]
    order = [g for lane in lanes for g in lane]
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return len(order), gathers, None if order == sorted(order) else itemgetter(*inverse)


# _kernel continues a row past this many products in another statement:
# CPython's compiler recurses per + of a chain and fails in the thousands
_CHAIN = 500


def _kernel(m, rows, nvalues):
    """CompiledTensor2.apply's kernel: a function of the scalar values, the
    vector and its lane getters that returns the m output entries of each
    lane in turn, as one list: entry r is v_s * x_c + ... over r's rows in
    their order (y_r = y_r + ... past _CHAIN products), or int 0.  The
    source holds only fixed names and ints."""
    terms, body = {}, []
    for r, c, s in rows:
        terms.setdefault(r, []).append(f"v{s} * x{c}")
    for r, chain in terms.items():
        if len(chain) > _CHAIN:
            body += [f"y{r} = " + " + ".join([f"y{r}"] * bool(k) + chain[k:k + _CHAIN])
                     for k in range(0, len(chain), _CHAIN)]
            terms[r] = [f"y{r}"]
    lane = ["[" + "".join(f"x{c}, " for c in range(m)) + "] = gather(x)", *body,
            "y += [" + ", ".join(" + ".join(terms.get(r, ["0"])) for r in range(m)) + "]"]
    source = "\n    ".join([
        "def kernel(values, x, gathers):",
        "[" + "".join(f"v{s}, " for s in range(nvalues)) + "] = values", "y = []",
        "for gather in gathers:", *("    " + line for line in lane), "return y"])
    namespace = {"__builtins__": {}}
    exec(compile(source, "<CompiledTensor2 kernel>", "exec"), namespace)
    return namespace["kernel"]


class CompiledTensor2:
    """A Tensor2 compiled for application to many vectors: rows holds one
    (r, c, s) per entry e_ij (x) e_kl in dict order, with lane-local row
    r = (i-1)n + (k-1), column c = (j-1)n + (l-1) and s its scalar's index.
    lanes holds apply's plans and the list kernel its one kernel (_kernel),
    both made on first use and shared, with the rows, by at()'s copies."""

    __slots__ = ("n", "rows", "scalars", "lanes", "kernel")

    def __init__(self, n, rows, scalars, lanes=None, kernel=None):
        self.n, self.rows, self.scalars = n, rows, scalars
        self.lanes, self.kernel = ({}, []) if lanes is None else (lanes, kernel)

    def at(self, logs):
        """A copy of a float form with each scalar evaluated at logs
        (LaurentPoly.evaluate), each distinct scalar once."""
        values = [v if type(v) is complex else v.evaluate(logs) for v in self.scalars]
        return CompiledTensor2(self.n, self.rows, values, self.lanes, self.kernel)

    def apply(self, x, legs=None):
        """self x as a new list, for x a flat list in row-major index order
        in V (x) V, or with legs = 12, 13 or 23 in V (x) V (x) V: embed(self,
        legs) x (tests/conftest.py), with no embedding built; legs 21 swaps
        self's legs.  One kernel call (_kernel) sums, lane by lane (x at one
        index of the free leg), each row's products in the order of the
        entry-by-entry sum from int 0, so the two differ at most in the sign
        of an exact zero; a row with no entry is int 0."""
        plan = self.lanes.get(legs)
        if plan is None:
            plan = self.lanes[legs] = _lane_plan(self.n, legs)
        size, gathers, scatter = plan
        if len(x) != size:
            raise ValueError(f"vector of length {len(x)}, expected {size}")
        if not self.kernel:
            self.kernel.append(_kernel(self.n * self.n, self.rows, len(self.scalars)))
        y = self.kernel[0](self.scalars, x, gathers)
        return y if scatter is None else list(scatter(y))


def product_sum(terms):
    """The sum of c x.mul(y, legs=legs) over at least one term (c, x, y,
    legs), all products of one class and size.  Terms sharing y and legs
    are contracted once, on the sum of their c x, into one dict.  Sums run
    in another order than term by term (no sort_by), so it is for exact
    scalars."""
    groups = {}
    for c, x, y, legs in terms:
        key = (id(y), legs)
        if key not in groups:
            groups[key] = (x._placed(y, legs), y, [])
        groups[key][2].append((c, x))
    out = {}
    for (result, getters), y, scaled in groups.values():
        (c, x), *rest = scaled
        left = x.coeffs if c == 1 and not rest else {k: c * v for k, v in x.coeffs.items()}
        get = left.get
        for c, x in rest:
            for k, v in x.coeffs.items():
                left[k] = get(k, 0) + c * v
        _contract(left, y.coeffs, *getters[:3], out=out)
    return _adopt(result, x.n, out)


def apply_product(x, factors, applied=None):
    """The product of factors, each (CompiledTensor2, legs as for its
    apply), applied right first to the flat list x, as a flat list.

    applied, if given, is a dict the caller keeps for this one x: it holds
    each right-hand suffix of factors applied to x so far, so products
    ending in the same factors apply them once, to the same bits.  The
    result may be the list held there, so it must not be changed.
    """
    if applied is None:
        applied = {}
    suffix = ()
    for t, legs in reversed(factors):
        suffix += ((id(t), legs),)
        hit = applied.get(suffix)
        if hit is None:
            # the tensor is kept with its vector, so its id is not reused
            hit = applied[suffix] = (t.apply(x, legs), t)
        x = hit[0]
    return x


def signed_sum(signs, vectors):
    """The entrywise sum of the flat lists vectors, each with its sign, in
    consecutive pairs (v0 +- v1) + (v2 +- v3) + ..., as verify._formula sums
    tensors: the float additions of the columns' sum (Tensor.column) in
    its order, but for the sign of a zero where a column has no entry.
    Returns a new list, or vectors[0] itself when it is the only one."""
    pairs = [
        vectors[k] if k + 1 == len(vectors)
        else list(map(add if signs[k + 1] > 0 else sub, vectors[k], vectors[k + 1]))
        for k in range(0, len(vectors), 2)
    ]
    out = pairs[0]
    for pair in pairs[1:]:
        out = list(map(add, out, pair))
    return out


def max_magnitude(vectors):
    """The largest entry magnitude over the flat lists vectors, as a float."""
    return float(max((max(map(abs, v), default=0.0) for v in vectors), default=0.0))


def unit_vector(rng, size):
    """A list of size entries exp(2 pi i theta), theta drawn from rng.random()."""
    rect, turn, draw = cmath.rect, 2 * math.pi, rng.random
    return [rect(1.0, turn * draw()) for _ in range(size)]


def _x1_scaled(t, power):
    """The Tensor2 t with the coefficient at (i, j, k, l) multiplied by the
    LaurentPoly X1^power(i, j, k, l): a RatFunc stays a RatFunc, and any
    other entry becomes a LaurentPoly where that power is not 0."""
    out = {}
    for key, v in t.coeffs.items():
        e = power(*key)
        out[key] = LaurentPoly.monomial((e, 0, 0, 0)) * v if e else v
    return _adopt(Tensor2, t.n, out)


def gauge_conjugate(t, phi):
    """exp(-Phi^2 u) t exp(Phi^1 u) for a diagonal Phi = diag(phi).

    The coefficient at e_ij (x) e_kl picks up exp((phi_j - phi_k) u),
    realized as the LaurentPoly monomial X1^(2n(phi_j - phi_k)) with
    n = t.n (_x1_scaled): a RatFunc entry stays a RatFunc and a LaurentPoly
    one a LaurentPoly.  Returns t itself when Phi is 0.  Raises ValueError
    unless phi has t.n entries.
    """
    phi = [Fraction(x) for x in phi]
    if len(phi) != t.n:
        raise ValueError("Phi must have one diagonal entry per row")
    if not any(phi):
        return t
    return _x1_scaled(t, lambda i, j, k, l: 2 * t.n * (phi[j - 1] - phi[k - 1]))


def variables_used(t):
    """Names of the formal symbols actually appearing in a symbolic tensor."""
    used = set()
    for v in map(rf, t.coeffs.values()):
        for poly in (v.num, v.den):
            for idx, name in enumerate(VAR_NAMES):
                if name not in used and poly.uses_var(idx):
                    used.add(name)
    return used
