"""Sparse exact tensor algebra on Mat_n (x) Mat_n and Mat_n (x) Mat_n (x) Mat_n.

Coefficients are stored in dicts keyed by 1-based matrix-unit indices:

    Tensor2.coeffs[(i, j, k, l)]        coefficient of e_ij (x) e_kl
    Tensor3.coeffs[(i, j, k, l, m, p)]  coefficient of e_ij (x) e_kl (x) e_mp

which is printed as t_{ik}^{jl} (lower indices rows, upper columns).
Scalars are pluggable: Fraction for constant matrices, RatFunc for the
symbolic spectral matrices, complex for numeric sampling.  Any type with
+, -, *, / by int and truthiness for exact zero works; zero coefficients
are never stored.

Products of factors placed on legs of the 3-fold product, X_ab Y_cd and
T Y_cd, are contracted directly (``mul`` with ``legs``) instead of
materialising the n-fold embeddings, and sum every coefficient in the
same order as the embedded product, so results agree to the bit.

Tensors are immutable after construction; all operations are pure, so
instances can be shared freely between parallel workers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .scalars import monomial_rf, rf


def _prune(d):
    return {k: v for k, v in d.items() if v}


def _adopt(cls, n, coeffs):
    """A tensor around a dict the engine has just built, copied only to drop zeros."""
    t = object.__new__(cls)
    t.n = n
    t.coeffs = coeffs if all(coeffs.values()) else _prune(coeffs)
    return t


def _added(a, b):
    out = dict(a)
    get = out.get
    for k, v in b.items():
        cur = get(k)
        out[k] = v if cur is None else cur + v
    return out


def _subtracted(a, b):
    out = dict(a)
    get = out.get
    for k, v in b.items():
        cur = get(k)
        out[k] = -v if cur is None else cur - v
    return out


def _contract(left, right, left_cols, right_rows, pick, sort_by=None):
    """Sum of the products ca * cb over the entry pairs that meet.

    Entry (lk, ca) of left meets entry (rk, cb) of right when
    left_cols(lk) == right_rows(rk); the product lands at pick(lk + rk).
    Every coefficient is summed in a fixed order: left's entries in dict
    order, and for each of them the matching right entries in right's
    dict order, first sorted stably by sort_by(rk) when it is given.
    Float sums and the non-canonical form of RatFunc depend on this order.
    """
    items = right.items()
    if sort_by is not None:
        items = sorted(items, key=lambda item: sort_by(item[0]))
    buckets = {}
    for rk, cb in items:
        buckets.setdefault(right_rows(rk), []).append((rk, cb))
    out = {}
    get = out.get
    for lk, ca in left.items():
        for rk, cb in buckets.get(left_cols(lk), ()):
            key = pick(lk + rk)
            cur = get(key)
            prod = ca * cb
            out[key] = prod if cur is None else cur + prod
    return out


# Product tables for _contract.  The column and row getters index one
# factor's own key; the result key indexes the concatenation of both keys,
# (i, j, k, l, x, y, z, w) for two 2-leg factors, (i, j, k, l, p, q, x, y,
# z, w) for a 3-leg factor times a 2-leg one.
_MUL2 = (itemgetter(1, 3), itemgetter(0, 2), itemgetter(0, 5, 2, 7))
_MUL3 = (itemgetter(1, 3, 5), itemgetter(0, 2, 4), itemgetter(0, 7, 2, 9, 4, 11))

# X_ab Y_cd for two 2-leg factors placed on legs of the 3-fold product.
# X's column on the shared leg meets Y's row there; on its other leg Y
# meets the identity that embedding X puts there, and that identity index
# equals Y's row on that leg.  embed().mul() runs the identity index in
# ascending order, so Y's entries are sorted stably by that row.
# Value: (X column, Y row on the shared leg, result key, Y row on its
# other leg).
_LEG_PAIRS = {
    (12, 13): (itemgetter(1), itemgetter(0), itemgetter(0, 5, 2, 3, 6, 7), itemgetter(2)),
    (13, 12): (itemgetter(1), itemgetter(0), itemgetter(0, 5, 6, 7, 2, 3), itemgetter(2)),
    (12, 23): (itemgetter(3), itemgetter(0), itemgetter(0, 1, 2, 5, 6, 7), itemgetter(2)),
    (23, 12): (itemgetter(1), itemgetter(2), itemgetter(4, 5, 0, 7, 2, 3), itemgetter(0)),
    (13, 23): (itemgetter(3), itemgetter(2), itemgetter(0, 1, 4, 5, 2, 7), itemgetter(0)),
    (23, 13): (itemgetter(3), itemgetter(2), itemgetter(4, 5, 0, 1, 2, 7), itemgetter(0)),
}

# T Y_cd for a 3-leg T and a 2-leg Y placed on legs c, d: T's columns on
# those legs meet Y's rows.  Value: (T columns, Y rows, result key).
_T_LEGS = {
    12: (itemgetter(1, 3), itemgetter(0, 2), itemgetter(0, 7, 2, 9, 4, 5)),
    13: (itemgetter(1, 5), itemgetter(0, 2), itemgetter(0, 7, 2, 3, 4, 9)),
    23: (itemgetter(3, 5), itemgetter(0, 2), itemgetter(0, 1, 2, 7, 4, 9)),
}


class Tensor2:
    """Sparse element of Mat_n (x) Mat_n over a generic scalar."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = _prune(coeffs) if coeffs else {}

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        """1 (x) 1."""
        return cls(n, {(i, i, j, j): one for i in range(1, n + 1) for j in range(1, n + 1)})

    @classmethod
    def perm(cls, n, one=Fraction(1)):
        """P = sum e_ij (x) e_ji, the permutation (Casimir) tensor."""
        return cls(n, {(i, j, j, i): one for i in range(1, n + 1) for j in range(1, n + 1)})

    @classmethod
    def perm_diag(cls, n, one=Fraction(1)):
        """P^0 = sum e_ii (x) e_ii, the diagonal part of P."""
        return cls(n, {(i, i, i, i): one for i in range(1, n + 1)})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.n == other.n and (self - other).is_zero()

    __hash__ = None

    def __neg__(self):
        return _adopt(Tensor2, self.n, {k: -v for k, v in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, Tensor2) or self.n != other.n:
            return NotImplemented
        return _adopt(Tensor2, self.n, _added(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Tensor2) or self.n != other.n:
            return NotImplemented
        return _adopt(Tensor2, self.n, _subtracted(self.coeffs, other.coeffs))

    def scale(self, c):
        if not c:
            return Tensor2(self.n)
        return _adopt(Tensor2, self.n, {k: c * v for k, v in self.coeffs.items()})

    def mul(self, other, legs=None):
        """Componentwise matrix product, e_ij e_kl = delta_jk e_il per leg.

        With legs=(ab, cd), one of the six ordered pairs of distinct legs
        among 12, 13, 23, returns the Tensor3 self_ab other_cd, equal
        coefficient for coefficient (float bits included) to
        self.embed(ab).mul(other.embed(cd)) but without the embeddings.
        """
        if not isinstance(other, Tensor2):
            raise TypeError("Tensor2.mul needs a Tensor2 factor")
        if self.n != other.n:
            raise ValueError("tensor size mismatch")
        if legs is None:
            return _adopt(Tensor2, self.n, _contract(self.coeffs, other.coeffs, *_MUL2))
        if legs not in _LEG_PAIRS:
            raise ValueError(f"legs must be an ordered pair of distinct legs, got {legs!r}")
        return _adopt(Tensor3, self.n, _contract(self.coeffs, other.coeffs, *_LEG_PAIRS[legs]))

    def flip21(self):
        """Swap the two legs: coefficient of e_ij (x) e_kl moves to e_kl (x) e_ij."""
        flipped = {(k, l, i, j): v for (i, j, k, l), v in self.coeffs.items()}
        return _adopt(Tensor2, self.n, flipped)

    def embed(self, legs):
        """Place the tensor on the named legs of a 3-fold product (12, 13, 23)."""
        n = self.n
        out = {}
        if legs == 12:
            for (i, j, k, l), v in self.coeffs.items():
                for m in range(1, n + 1):
                    out[(i, j, k, l, m, m)] = v
        elif legs == 13:
            for (i, j, k, l), v in self.coeffs.items():
                for m in range(1, n + 1):
                    out[(i, j, m, m, k, l)] = v
        elif legs == 23:
            for (i, j, k, l), v in self.coeffs.items():
                for m in range(1, n + 1):
                    out[(m, m, i, j, k, l)] = v
        else:
            raise ValueError("legs must be one of 12, 13, 23")
        return _adopt(Tensor3, n, out)

    def project_traceless(self, legs):
        """Apply M -> M - (tr M / n) 1 on each selected leg (1 and/or 2)."""
        out = self
        for leg in legs:
            src = out.coeffs
            acc = dict(src)
            for key, v in src.items():
                r, s = (key[0], key[1]) if leg == 1 else (key[2], key[3])
                if r != s:
                    continue
                frac = v / self.n
                for m in range(1, self.n + 1):
                    nk = (m, m) + key[2:] if leg == 1 else key[:2] + (m, m)
                    cur = acc.get(nk)
                    acc[nk] = -frac if cur is None else cur - frac
            out = _adopt(Tensor2, self.n, acc)
        return out

    def map_scalars(self, fn):
        return _adopt(Tensor2, self.n, {k: fn(v) for k, v in self.coeffs.items()})

    def substitute(self, assignment):
        """Entrywise exact substitution for symbolic tensors."""
        return self.map_scalars(lambda v: rf(v).substitute(assignment))

    def evaluate(self, logs):
        """Entrywise numeric evaluation; scalars become complex."""
        return self.map_scalars(lambda v: _to_complex(v, logs))

    def lex_witness(self):
        """Lexicographically least nonzero coefficient (index, value)."""
        if not self.coeffs:
            return None
        key = min(self.coeffs)
        return key, self.coeffs[key]

    def max_abs(self):
        """Largest coefficient magnitude (numeric tensors)."""
        return max(map(abs, self.coeffs.values()), default=0.0)

    def pretty(self):
        lines = []
        for (i, j, k, l) in sorted(self.coeffs):
            lines.append(f"t_{{{i},{k}}}^{{{j},{l}}} = {self.coeffs[(i, j, k, l)]}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Tensor2(n={self.n}, nnz={len(self.coeffs)})"


class Tensor3:
    """Sparse element of Mat_n (x) Mat_n (x) Mat_n over a generic scalar."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = _prune(coeffs) if coeffs else {}

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.n == other.n and (self - other).is_zero()

    __hash__ = None

    def __neg__(self):
        return _adopt(Tensor3, self.n, {k: -v for k, v in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, Tensor3) or self.n != other.n:
            return NotImplemented
        return _adopt(Tensor3, self.n, _added(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Tensor3) or self.n != other.n:
            return NotImplemented
        return _adopt(Tensor3, self.n, _subtracted(self.coeffs, other.coeffs))

    def scale(self, c):
        if not c:
            return Tensor3(self.n)
        return _adopt(Tensor3, self.n, {k: c * v for k, v in self.coeffs.items()})

    def mul(self, other, legs=None):
        """Componentwise matrix product of two 3-leg tensors.

        With legs = 12, 13 or 23, other is a Tensor2 and the result is
        self other_legs, equal coefficient for coefficient (float bits
        included) to self.mul(other.embed(legs)) but without the embedding.
        """
        factor = Tensor3 if legs is None else Tensor2
        if not isinstance(other, factor):
            raise TypeError(f"Tensor3.mul with legs={legs!r} needs a {factor.__name__} factor")
        if self.n != other.n:
            raise ValueError("tensor size mismatch")
        if legs is None:
            return _adopt(Tensor3, self.n, _contract(self.coeffs, other.coeffs, *_MUL3))
        if legs not in _T_LEGS:
            raise ValueError("legs must be one of 12, 13, 23")
        return _adopt(Tensor3, self.n, _contract(self.coeffs, other.coeffs, *_T_LEGS[legs]))

    def project_traceless(self, legs):
        """Apply M -> M - (tr M / n) 1 on each selected leg (subset of 1,2,3)."""
        out = self
        for leg in legs:
            base = 2 * (leg - 1)
            src = out.coeffs
            acc = dict(src)
            for key, v in src.items():
                if key[base] != key[base + 1]:
                    continue
                frac = v / self.n
                for m in range(1, self.n + 1):
                    nk = key[:base] + (m, m) + key[base + 2:]
                    cur = acc.get(nk)
                    acc[nk] = -frac if cur is None else cur - frac
            out = _adopt(Tensor3, self.n, acc)
        return out

    def map_scalars(self, fn):
        return _adopt(Tensor3, self.n, {k: fn(v) for k, v in self.coeffs.items()})

    def lex_witness(self):
        if not self.coeffs:
            return None
        key = min(self.coeffs)
        return key, self.coeffs[key]

    def max_abs(self):
        """Largest coefficient magnitude (numeric tensors)."""
        return max(map(abs, self.coeffs.values()), default=0.0)

    def pretty(self):
        lines = []
        for (i, j, k, l, m, p) in sorted(self.coeffs):
            c = self.coeffs[(i, j, k, l, m, p)]
            lines.append(f"t_{{{i},{k},{m}}}^{{{j},{l},{p}}} = {c}")
        return "\n".join(lines)

    def __repr__(self):
        return f"Tensor3(n={self.n}, nnz={len(self.coeffs)})"


def _to_complex(v, logs):
    if isinstance(v, (int, float, complex, Fraction)):
        return complex(v)
    return v.evaluate(logs)


def weight_contract(t, w1, w2):
    """sum_ij w1_i w2_j coeff(i, i, j, j); w1, w2 are length-n vectors."""
    total = None
    for (i, j, k, l), v in t.coeffs.items():
        if i != j or k != l:
            continue
        piece = w1[i - 1] * w2[k - 1] * v
        total = piece if total is None else total + piece
    return Fraction(0) if total is None else total


def gauge_conjugate(t, phi, n):
    """exp(-Phi^2 u) t exp(Phi^1 u) for a diagonal Phi = diag(phi).

    The coefficient at e_ij (x) e_kl picks up exp((phi_j - phi_k) u),
    realized as the monomial X1^(2n(phi_j - phi_k)).  Entries are promoted
    to RatFunc when needed.
    """
    phi = [Fraction(x) for x in phi]
    if len(phi) != n:
        raise ValueError("Phi must have one diagonal entry per row")
    out = {}
    for (i, j, k, l), v in t.coeffs.items():
        rate = phi[j - 1] - phi[k - 1]
        if rate:
            v = monomial_rf(x1=2 * n * rate) * rf(v)
        out[(i, j, k, l)] = v
    return _adopt(Tensor2, t.n, out)


def weight_zero_ok(t):
    """Check the index rule i + k = j + l (resp. i+k+m = j+l+p) on support."""
    if isinstance(t, Tensor2):
        return all(i + k == j + l for (i, j, k, l) in t.coeffs)
    return all(i + k + m == j + l + p for (i, j, k, l, m, p) in t.coeffs)


def variables_used(t):
    """Names of the formal symbols actually appearing in a symbolic tensor."""
    from .scalars import VAR_NAMES, RatFunc

    used = set()
    for v in t.coeffs.values():
        if not isinstance(v, RatFunc):
            continue
        for poly in (v.num, v.den):
            for idx, name in enumerate(VAR_NAMES):
                if name not in used and poly.uses_var(idx):
                    used.add(name)
    return used
