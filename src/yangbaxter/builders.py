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

from .scalars import LaurentPoly, RatFunc, monomial_rf, q_power, rf
from .tensors import Tensor2, _x1_scaled, gauge_conjugate
from .triples import (
    SCHEMA_VERSION,
    SWedge,
    phi_coboundary,
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


def q_minus_qinv(n):
    """q - q^-1 with q = X1^n, as a RatFunc (the quantum builders form it
    as a LaurentPoly)."""
    return monomial_rf(x1=n) - monomial_rf(x1=-n)


def s_as_tensor(s):
    """The wedge datum as a diagonal Tensor2 over Fraction."""
    out = {}
    for i in range(1, s.n + 1):
        for j in range(1, s.n + 1):
            v = s.get(i, j)
            if v:
                out[(i, i, j, j)] = v
    return Tensor2(s.n, out)


def build_rst(n):
    """Standard constant solution: P^0/2 plus all e_{-alpha} (x) e_alpha."""
    out = {(i, i, i, i): HALF for i in range(1, n + 1)}
    for i, j in positive_roots(n):
        out[(j, i, i, j)] = Fraction(1)
    return Tensor2(n, out)


def build_a(t):
    """The off-diagonal correction from the triple's ordering.

    Sum over alpha < beta of (-1)^(C(|alpha|-1)) (e_{-alpha} (x) e_beta -
    e_beta (x) e_{-alpha}); empty for the trivial triple.
    """
    out = {}
    for alpha, beta, _, c, _ in prec_pairs(t):
        sign = Fraction(-1 if (c * (alpha.length - 1)) % 2 else 1)
        (i, j), (k, l) = alpha, beta
        for key, val in (((j, i, k, l), sign), ((k, l, j, i), -sign)):
            out[key] = out.get(key, Fraction(0)) + val
    return Tensor2(t.n, out)


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
    out = {}
    for key in set(r.coeffs) | set(flip.coeffs):
        num = LaurentPoly({one: -r.coeffs.get(key, 0), y1: -flip.coeffs.get(key, 0)})
        if num.terms == den.terms:
            out[key] = RatFunc(1)
        elif num.terms:
            out[key] = RatFunc.in_normal_form(num, den)
    return Tensor2(r.n, out)


def _q_conjugate(tensor, s):
    """q^s M q^s: scale the (a, b, c, d) entry by q^(s_ac + s_bd), q = X1^n."""
    return _x1_scaled(tensor, lambda a, b, c, d: tensor.n * (s.get(a, c) + s.get(b, d)))


def build_R_st(n):
    """Standard quantum matrix in q = X1^n, with LaurentPoly entries."""
    q = q_power(n, 1)
    qm = q - q_power(n, -1)
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[(i, i, j, j)] = q if i == j else LaurentPoly.const(1)
    for i, j in positive_roots(n):
        out[(j, i, i, j)] = qm
    return Tensor2(n, out)


def build_R_ggs_general(t, s):
    """Quantum matrix from the general formula with the adjacency exponents.

    Valid for any triple and any rational s of its size (ValueError
    otherwise); the q^s conjugation is realized as monomial scaling on
    diagonal-unit pairs.  Entries are LaurentPolys.
    """
    n = t.n
    if s.n != n:
        raise ValueError("size mismatch")
    qm = q_power(n, 1) - q_power(n, -1)
    core = build_R_st(n)
    extra = {}
    for alpha, beta, _, c, exponent in prec_pairs(t):
        cexp = c * (alpha.length - 1)
        sign = Fraction(-1 if cexp % 2 else 1)
        (i, j), (k, l) = alpha, beta
        low = qm * (sign * q_power(n, -cexp - exponent))
        high = qm * (sign * q_power(n, cexp + exponent))
        for key, val in (((j, i, k, l), low), ((k, l, j, i), -high)):
            extra[key] = extra.get(key, LaurentPoly.zero()) + val
    return _q_conjugate(core + Tensor2(n, extra), s)


def build_R_ggs_assoc(a, s=None):
    """Quantum matrix from the closed associative-structure formula.

    Diagonal pairs carry q^(1 - 2 O(i,j)/n); the ordering terms carry
    q^(-+ 2 O(alpha,beta)/n); the leftover s - s0 acts by the outer
    q^(s - s0) conjugation, s - s0 = Phi^1 - Phi^2 (phi_from_s).  Entries
    are LaurentPolys: R(q) has no denominator.  Raises ValueError when
    s - s0 is not an admissible gauge coboundary.
    """
    n = a.n
    diff = SWedge(n) if s is None else phi_coboundary(phi_from_s(a, s), n)
    qm = q_power(n, 1) - q_power(n, -1)
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[(i, i, j, j)] = q_power(n, 1 - Fraction(2 * a.orbit_distance(i, j), n))
    for i, j in positive_roots(n):
        out[(j, i, i, j)] = qm
    for alpha, beta, k, _, _ in prec_pairs(a.triple):
        (i, j), (kk, ll) = alpha, beta
        low = qm * q_power(n, Fraction(-2 * k, n))
        high = qm * q_power(n, Fraction(2 * k, n))
        for key, val in (((j, i, kk, ll), low), ((kk, ll, j, i), -high)):
            out[key] = out.get(key, LaurentPoly.zero()) + val
    return _q_conjugate(Tensor2(n, out), diff)


def baxterize(R):
    """Add the spectral term (e^v / (1 - e^v)) (q - q^-1) P to R(q)."""
    p_term = Tensor2.perm(R.n).scale(f_v() * q_minus_qinv(R.n))
    return R.map_scalars(rf) + p_term


def build_y(a):
    """Diagonal-exponential kernel of the two-parameter matrix.

    (1 - e^-u)^-1 sum_ij e^(-O(i,j) u/n) e_ii (x) e_jj plus the constant
    lower-triangular part plus the ordering terms with e^(-+O(alpha,beta)u/n).
    """
    n = a.n
    den = LaurentPoly.const(1) - LaurentPoly.monomial((-2 * n, 0, 0, 0))
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            num = LaurentPoly.monomial((-2 * a.orbit_distance(i, j), 0, 0, 0))
            out[(i, i, j, j)] = RatFunc(num, den)
    for i, j in positive_roots(n):
        out[(j, i, i, j)] = rf(1)
    for alpha, beta, k, _, _ in prec_pairs(a.triple):
        (i, j), (kk, ll) = alpha, beta
        for key, val in (((j, i, kk, ll), monomial_rf(x1=-2 * k)),
                         ((kk, ll, j, i), -monomial_rf(x1=2 * k))):
            out[key] = out.get(key, RatFunc.zero()) + val
    return Tensor2(n, out)


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
    p_term = Tensor2.perm(n).scale(f_v())

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

    def poly_terms(p):
        keys = sorted(p.terms)
        return [[[str(e) for e in exps], str(p.terms[exps])] for exps in keys]

    return {"num": poly_terms(v.num), "den": poly_terms(v.den)}


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
