"""Explicit construction of every r- and R-matrix in the workbench.

Constant classical matrices are built over Fraction; the quantum
matrices R(q), which have no denominator, over LaurentPoly; spectral
matrices over RatFunc; all in the symbols X1 = exp(u/(2n)) and
Y1 = exp(v), with q = exp(u/2) = X1^n.  Two independent routes exist for the quantum
matrix (the general form with the adjacency exponents, and the closed form for
associative structures) and for the two-parameter matrix r(u, v) (via
the quantum matrix, and via the diagonal-exponential kernel plus a gauge
factor); the verifiers assert the routes agree exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .scalars import LaurentPoly, RatFunc, monomial_rf, q_power, rf
from .tensors import Tensor2, _x1_scaled, gauge_conjugate
from .triples import (
    SCHEMA_VERSION,
    phi_from_s,
    prec_pairs,
    s_in_solution_space,
    s0_from_structure,
    positive_roots,
)

HALF = Fraction(1, 2)


def f_v():
    """The spectral coefficient e^v / (1 - e^v) as a RatFunc in Y1."""
    y1 = LaurentPoly.monomial((0, 0, 1, 0))
    return RatFunc(y1, LaurentPoly.const(1) - y1)


def _q_minus_qinv(n):
    """q - q^-1 with q = X1^n: the LaurentPoly every quantum builder uses."""
    return q_power(n, 1) - q_power(n, -1)


def q_minus_qinv(n):
    """q - q^-1 as a RatFunc, for the spectral matrices and Hecke's N."""
    return rf(_q_minus_qinv(n))


def _bd_matrix(n, diagonal, root, ordering=()):
    """The shape of every matrix built from a Belavin-Drinfeld triple:
    diagonal(i, j) on e_ii (x) e_jj, root on e_ji (x) e_ij for i < j, and for
    each (alpha, beta, low, high) of ordering, low at e_{-alpha} (x) e_beta and
    -high at e_beta (x) e_{-alpha}.  An entry met twice is summed in the
    order met; Tensor2 drops the zeros."""
    out = {(i, i, j, j): diagonal(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    for i, j in positive_roots(n):
        out[(j, i, i, j)] = root
    for (i, j), (k, l), low, high in ordering:
        for key, val in (((j, i, k, l), low), ((k, l, j, i), -high)):
            out[key] = out[key] + val if key in out else val
    return Tensor2(n, out)


def s_as_tensor(s):
    """The wedge datum as a diagonal Tensor2 over Fraction."""
    return _bd_matrix(s.n, s.get, 0)


def build_rst(n):
    """Standard constant solution: P^0/2 plus all e_{-alpha} (x) e_alpha."""
    return _bd_matrix(n, lambda i, j: HALF if i == j else 0, Fraction(1))


def _sign(alpha, c):
    """(-1)^(C(|alpha|-1)), the sign of an ordering term."""
    return Fraction(-1 if (c * (alpha.length - 1)) % 2 else 1)


def build_a(t):
    """The off-diagonal correction from the triple's ordering.

    Sum over alpha < beta of (-1)^(C(|alpha|-1)) (e_{-alpha} (x) e_beta -
    e_beta (x) e_{-alpha}); empty for the trivial triple.
    """
    signs = [(alpha, beta, _sign(alpha, c)) for alpha, beta, _, c, *_ in prec_pairs(t)]
    return _bd_matrix(t.n, lambda i, j: 0, 0, [(a, b, x, x) for a, b, x in signs])


def build_r_ts(t, s):
    """Classical r-matrix s + a + r_st; requires s to solve the s-system,
    and raises ValueError for an s of another size (s_in_solution_space).

    The unitarity normalization r + r^21 = P is checked on the result.
    """
    if not s_in_solution_space(t, s):
        raise ValueError("s does not solve the defining linear system")
    r = s_as_tensor(s) + build_a(t) + build_rst(t.n)
    if (r + r.flip21()) != Tensor2.perm(t.n):
        raise RuntimeError("r + r^21 = P violated")
    return r


def hat_r(r):
    """Spectral lift (r + e^v r^21) / (1 - e^v) of a constant solution.

    Each entry is -(r + Y1 r^21) / (Y1 - 1), the form RatFunc's
    constructor gives (r + Y1 r^21) / (1 - Y1): its denominator made
    monic, and 1 where the numerator equals it.  It is built in that form
    directly, over one denominator.
    """
    one, y1 = (0, 0, 0, 0), (0, 0, 1, 0)
    den = LaurentPoly({one: -1, y1: 1})
    flip = r.flip21()

    @cache
    def entry(a, b):  # the entry of the coefficients a of r and b of r^21
        num = LaurentPoly({one: -a, y1: -b})
        return RatFunc(1) if num.terms == den.terms else RatFunc.in_normal_form(num, den)

    return Tensor2(r.n, {key: entry(r.coeffs.get(key, 0), flip.coeffs.get(key, 0))
                         for key in set(r.coeffs) | set(flip.coeffs)})


def _q_conjugate(tensor, s):
    """q^s M q^s: scale the (a, b, c, d) entry by q^(s_ac + s_bd), q = X1^n."""
    return _x1_scaled(tensor, lambda a, b, c, d: tensor.n * (s.get(a, c) + s.get(b, d)))


def build_R_st(n):
    """Standard quantum matrix in q = X1^n, with LaurentPoly entries."""
    q = q_power(n, 1)
    return _bd_matrix(n, lambda i, j: q if i == j else LaurentPoly.const(1), _q_minus_qinv(n))


def build_R_ggs_general(t, s):
    """Quantum matrix from the general formula with the adjacency exponents.

    Valid for any triple and any rational s of its size (ValueError
    otherwise); the q^s conjugation is realized as monomial scaling on
    diagonal-unit pairs.  Entries are LaurentPolys.  A term's q-exponent is
    its prec_pairs exponent less its drop (rule X), without which QYBE and
    Hecke fail on 4 orientation-reversing triples at n = 6.  Rule X is
    empirical, checked only by those identities up to n = 9, not against
    Schedler's published GGS formula.
    """
    n = t.n
    if s.n != n:
        raise ValueError("size mismatch")
    qm = _q_minus_qinv(n)
    ordering = []
    for alpha, beta, _, c, exponent, drop in prec_pairs(t):
        cexp, sign = c * (alpha.length - 1), _sign(alpha, c)
        low = qm * (sign * q_power(n, -cexp - exponent + drop))
        high = qm * (sign * q_power(n, cexp + exponent - drop))
        ordering.append((alpha, beta, low, high))
    return _q_conjugate(build_R_st(n) + _bd_matrix(n, lambda i, j: 0, 0, ordering), s)


def build_R_ggs_assoc(a, s=None):
    """Quantum matrix from the closed associative-structure formula.

    Diagonal pairs carry q^(1 - 2 O(i,j)/n); the ordering terms carry
    q^(-+ 2 O(alpha,beta)/n); the leftover s - s0 acts by the outer
    q^(s - s0) conjugation, s - s0 = Phi^1 - Phi^2 (phi_from_s).  Every
    entry has weight zero, so for an admissible Phi that conjugation is
    the gauge conjugation by Phi (gauge_conjugate).  Entries are
    LaurentPolys: R(q) has no denominator.  Raises ValueError when s - s0
    is not an admissible gauge coboundary.
    """
    n = a.n
    qm, diagonal = _q_minus_qinv(n), cache(lambda d: q_power(n, 1 - Fraction(2 * d, n)))
    core = _bd_matrix(
        n, lambda i, j: diagonal(a.orbit_distance(i, j)), qm,
        [(alpha, beta, qm * q_power(n, Fraction(-2 * k, n)), qm * q_power(n, Fraction(2 * k, n)))
         for alpha, beta, k, *_ in prec_pairs(a.triple)])
    return core if s is None else gauge_conjugate(core, phi_from_s(a, s))


def baxterize(R):
    """Add the spectral term (e^v / (1 - e^v)) (q - q^-1) P to R(q)."""
    p_term = Tensor2.perm(R.n, f_v() * q_minus_qinv(R.n))
    return R.map_scalars(rf) + p_term


def build_y(a):
    """Diagonal-exponential kernel of the two-parameter matrix.

    (1 - e^-u)^-1 sum_ij e^(-O(i,j) u/n) e_ii (x) e_jj plus the constant
    lower-triangular part plus the ordering terms with e^(-+O(alpha,beta)u/n).
    """
    n = a.n
    den = LaurentPoly.const(1) - LaurentPoly.monomial((-2 * n, 0, 0, 0))
    diagonal = cache(lambda d: RatFunc(LaurentPoly.monomial((-2 * d, 0, 0, 0)), den))
    return _bd_matrix(
        n, lambda i, j: diagonal(a.orbit_distance(i, j)),
        rf(1), [(alpha, beta, monomial_rf(x1=-2 * k), monomial_rf(x1=2 * k))
                for alpha, beta, k, *_ in prec_pairs(a.triple)])


def build_r_uv(a, s=None, formula="both"):
    """The two-parameter matrix r(u, v) for an associative structure.

    formula selects the construction route:
      "quantum": e^v/(1-e^v) P + R_general(q) / (q - q^-1), q = e^(u/2);
      "kernel": e^v/(1-e^v) P + gauge-conjugated diagonal-exponential kernel;
      "both": build through both routes, assert exact equality.
    Raises ValueError when s - s0 is not an admissible coboundary.
    """
    n = a.n
    if s is None:
        s = s0_from_structure(a)
    phi = phi_from_s(a, s)
    p_term = Tensor2.perm(n, f_v())

    def via_quantum():
        R = build_R_ggs_general(a.triple, s)
        return p_term + R.scale(q_minus_qinv(n).inverse())

    def via_kernel():
        return p_term + gauge_conjugate(build_y(a), phi)

    if formula == "quantum":
        return via_quantum()
    if formula == "kernel":
        return via_kernel()
    if formula == "both":
        left, right = via_quantum(), via_kernel()
        if left != right:
            raise RuntimeError("construction routes for r(u,v) disagree")
        return left
    raise ValueError(f"unknown formula {formula!r}")


def scalar_to_json(value):
    v = rf(value)
    return {part: [[[str(e) for e in exps], str(p.terms[exps])] for exps in sorted(p.terms)]
            for part, p in (("num", v.num), ("den", v.den))}


def tensor2_to_json(t, provenance=None):
    entries = []
    for (i, j, k, l) in sorted(t.coeffs):
        entry = {"rows": [i, k], "cols": [j, l]}
        entry.update(scalar_to_json(t.coeffs[(i, j, k, l)]))
        entries.append(entry)
    doc = {"schema_version": SCHEMA_VERSION, "n": t.n, "entries": entries}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc
