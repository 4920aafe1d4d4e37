"""Matrix builders: explicit small cases, structural identities, routes."""

from fractions import Fraction

import pytest

from yangbaxter.builders import (
    baxterize,
    build_R_ggs_assoc,
    build_R_ggs_general,
    build_R_st,
    build_a,
    build_r_ts,
    build_r_uv,
    build_rst,
    build_y,
    f_v,
    hat_r,
    q_minus_qinv,
    s_as_tensor,
    tensor2_to_json,
)
from yangbaxter.scalars import RatFunc, LaurentPoly, rf
from yangbaxter.tensors import Tensor2, gauge_conjugate
from yangbaxter.triples import (
    BDTriple,
    SWedge,
    compatible_permutations,
    enumerate_triples,
    phi_coboundary,
    s0_from_structure,
    s_in_solution_space,
    solve_s_system,
)
from yangbaxter import verify

from conftest import (
    cg_structure, s_family, tensor2_from_json, trivial_structures, weight_zero_ok,
)

HALF = Fraction(1, 2)


def test_rst_n2_explicit():
    got = build_rst(2)
    want = Tensor2(2, {
        (1, 1, 1, 1): HALF,
        (2, 2, 2, 2): HALF,
        (2, 1, 1, 2): Fraction(1),
    })
    assert got == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rst_unitarity_normalization(n):
    r = build_rst(n)
    assert r + r.flip21() == Tensor2.perm(n)


def test_a_trivial_is_zero():
    assert build_a(BDTriple.make(4, {})).is_zero()


def test_a_cg3_explicit():
    a = build_a(BDTriple.make(3, {1: 2}))
    want = Tensor2(3, {(2, 1, 2, 3): Fraction(1), (2, 3, 2, 1): Fraction(-1)})
    assert a == want


def test_a_is_antisymmetric(reversing5):
    for t in [BDTriple.make(3, {1: 2}), BDTriple.make(4, {1: 2, 2: 3}), reversing5]:
        a = build_a(t)
        assert a.flip21() == -a


def test_r_ts_trivial_s0_is_rst():
    t = BDTriple.make(3, {})
    assert build_r_ts(t, SWedge(3)) == build_rst(3)


def test_r_ts_rejects_bad_s():
    t = BDTriple.make(3, {1: 2})
    with pytest.raises(ValueError):
        build_r_ts(t, SWedge(3, {(1, 2): Fraction(7)}))


def test_r_ts_normalization_check_raises(monkeypatch):
    # a symmetric correction breaks r + r^21 = P; the check must raise,
    # not assert, so that it survives python -O
    from yangbaxter import builders

    sym = Tensor2(3, {(1, 2, 2, 1): Fraction(1), (2, 1, 1, 2): Fraction(1)})
    monkeypatch.setattr(builders, "build_a", lambda t: sym)
    with pytest.raises(RuntimeError, match="r \\+ r\\^21 = P"):
        build_r_ts(BDTriple.make(3, {}), SWedge(3))


def test_r_ts_nu_for_all_enumerated():
    for n in (2, 3, 4):
        P = Tensor2.perm(n)
        for t in enumerate_triples(n):
            particular, basis = solve_s_system(t)
            for s in [particular] + [particular + b for b in basis]:
                r = build_r_ts(t, s)
                assert r + r.flip21() == P
                assert weight_zero_ok(r)


def test_hat_r_of_half_perm():
    n = 3
    r = Tensor2.perm(n).scale(HALF)
    got = hat_r(r)
    y1 = LaurentPoly.monomial((0, 0, 1, 0))
    scalar = RatFunc(LaurentPoly.const(1) + y1, LaurentPoly.const(2) - y1.scale(2))
    assert got == Tensor2.perm(n).scale(scalar)


def test_hat_r_unitary():
    for n in (2, 3):
        for t in enumerate_triples(n):
            particular, _ = solve_s_system(t)
            r = build_r_ts(t, particular)
            assert verify.unitarity_check(hat_r(r), "classical").passed


def _constructed_hat_r(r):
    """hat_r through RatFunc's constructor on every entry: its oracle."""
    y1 = LaurentPoly.monomial((0, 0, 1, 0))
    den = LaurentPoly.const(1) - y1
    flip = r.flip21()
    out = {}
    for key in set(r.coeffs) | set(flip.coeffs):
        num = LaurentPoly.const(r.coeffs.get(key, 0)) + y1.scale(
            Fraction(flip.coeffs.get(key, 0))
        )
        val = RatFunc(num, den)
        if val:
            out[key] = val
    return out


def test_hat_r_entries_are_in_the_constructors_form():
    """Every entry's terms, in order, are those RatFunc's constructor
    gives, on every r_{T,s} of the families with n <= 5, and an entry
    whose numerator equals its denominator is 1."""
    collapsed = 0
    for n in range(2, 6):
        for t in enumerate_triples(n):
            particular, basis = solve_s_system(t)
            for s in [particular] + [particular + b for b in basis]:
                r = build_r_ts(t, s)
                got, want = hat_r(r), _constructed_hat_r(r)
                assert list(got.coeffs) == list(want)
                for key, value in want.items():
                    entry = got.coeffs[key]
                    assert list(entry.num.terms.items()) == list(value.num.terms.items())
                    assert list(entry.den.terms.items()) == list(value.den.terms.items())
                    collapsed += value.den.terms == {(0, 0, 0, 0): 1}
    assert collapsed > 0


def test_R_st_hecke_and_trivial_ggs():
    for n in (2, 3, 4):
        assert verify.hecke_residual(build_R_st(n)).is_zero()
    t = BDTriple.make(2, {})
    (a,) = compatible_permutations(t)
    assert build_R_ggs_general(t, SWedge(2)) == build_R_st(2)
    assert build_R_ggs_assoc(a, s0_from_structure(a)) == build_R_st(2)


def test_ggs_semiclassical_term():
    """R = 1 + 2 r hbar + O(hbar^2) with q = e^(u/2): the u-linear term is r."""
    st = cg_structure(3)
    s0 = s0_from_structure(st)
    R = build_R_ggs_assoc(st, s0)
    const, linear = verify.u_coefficients(R, (0, 1), order=1)
    assert const == Tensor2.identity(3).map_scalars(rf)
    assert linear == build_r_ts(st.triple, s0).map_scalars(rf)


def test_ggs_formulas_agree_small_n():
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                assert build_R_ggs_general(t, s0) == build_R_ggs_assoc(st, s0)


def test_ggs_assoc_rejects_inadmissible_s():
    st = cg_structure(3)
    bad = s0_from_structure(st) + SWedge(3, {(1, 2): 1, (2, 3): -1})
    with pytest.raises(ValueError):
        build_R_ggs_assoc(st, bad)
    for m in (2, 4):  # an s of another size
        with pytest.raises(ValueError, match="size mismatch"):
            build_R_ggs_assoc(st, SWedge(m))


@pytest.mark.parametrize("m", [2, 4])
def test_r_ts_and_general_ggs_reject_an_s_of_another_size(m):
    """An s of size n - 1 or n + 1 raises, and is never cut short: SWedge(4)
    with a fourth row once built the n = 3 matrix of SWedge(3)."""
    t = BDTriple.make(3, {})
    wrong = SWedge(m, {(1, m): 1})
    for check in (build_r_ts, build_R_ggs_general, s_in_solution_space):
        with pytest.raises(ValueError, match="size mismatch"):
            check(t, wrong)


def test_quantum_builders_give_laurentpoly_entries():
    """R(q) has no denominator: every entry of the three quantum builders is
    a LaurentPoly, also where the q^s conjugation scales it.  A gauge
    conjugation keeps a RatFunc entry a RatFunc."""
    for n in (2, 3, 4):
        assert {type(v) for v in build_R_st(n).coeffs.values()} == {LaurentPoly}
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                for R in (build_R_ggs_general(t, s0), build_R_ggs_assoc(st, s0)):
                    assert {type(v) for v in R.coeffs.values()} == {LaurentPoly}
    st = cg_structure(3)
    phi = (Fraction(1), Fraction(0), Fraction(-1))
    gauged = build_R_ggs_assoc(st, s0_from_structure(st) + phi_coboundary(phi, 3))
    assert {type(v) for v in gauged.coeffs.values()} == {LaurentPoly}
    y = build_y(st)
    assert {type(v) for v in y.coeffs.values()} == {RatFunc}
    conjugated = gauge_conjugate(y, phi)
    assert conjugated != y
    assert {type(v) for v in conjugated.coeffs.values()} == {RatFunc}


def test_ggs_with_gauge_equals_conjugated():
    """q^(s-s0) conjugation reproduces the s != s0 matrix from the s0 one."""
    st = cg_structure(3)
    s0 = s0_from_structure(st)
    phi = (Fraction(1), Fraction(0), Fraction(-1))
    s = s0 + phi_coboundary(phi, 3)
    direct = build_R_ggs_assoc(st, s)
    base = build_R_ggs_assoc(st, s0)
    # q^{s-s0} M q^{s-s0} with s-s0 = Phi^1 - Phi^2 is exactly the u-gauge
    # with rate phi/2 per leg... realized through gauge_conjugate on X1
    conjugated = gauge_conjugate(base, phi)
    assert direct == conjugated


def test_ggs_assoc_is_the_q_power_conjugation_by_s_minus_s0():
    """build_R_ggs_assoc(a, s) equals its matrix at no s with entry
    (a, b, c, d) times q^(d_ac + d_bd), d = s - s0 and q = X1^n: the same
    keys, terms and term order, for every structure with n <= 5 at every
    point of its s-family where s - s0 is an admissible coboundary, and at
    rational Phi.  An s whose Phi is not admissible raises ValueError."""
    checked = rejected = 0
    for n in range(2, 6):
        for t in enumerate_triples(n):
            phis = [[Fraction(2 * i, 3) for i in range(n)],
                    [Fraction(i * i, 5) for i in range(n)],
                    *([Fraction(int(i == j)) for i in range(n)] for j in range(n))]
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                points = [(s, None) for s in s_family(t)]
                points += [(s0 + phi_coboundary(phi, n), all(
                    phi[a - 1] - phi[a] == phi[b - 1] - phi[b] for a, b in t.pairs))
                    for phi in phis]
                base = build_R_ggs_assoc(st)
                for s, admissible in points:
                    d = {(i, j): s.get(i, j) - s0.get(i, j)
                         for i in range(1, n + 1) for j in range(1, n + 1)}
                    coboundary = all(d[i, j] == d[i, 1] - d[j, 1] for i, j in d)
                    if admissible is None:
                        admissible = coboundary and all(
                            d[a, a + 1] == d[b, b + 1] for a, b in t.pairs)
                    if not admissible:
                        with pytest.raises(ValueError):
                            build_R_ggs_assoc(st, s)
                        rejected += 1
                        continue
                    want = {(a, b, c, e): LaurentPoly.monomial(
                                (n * (d[a, c] + d[b, e]), 0, 0, 0)) * v
                            for (a, b, c, e), v in base.coeffs.items()}
                    got = build_R_ggs_assoc(st, s).coeffs
                    assert list(got) == list(want)
                    assert [tuple(v.terms.items()) for v in got.values()] == [
                        tuple(v.terms.items()) for v in want.values()]
                    checked += 1
    assert checked > 100 and rejected


def _at_y1_zero(f):
    """f at Y1 = e^v = 0: the Y1-free terms of the numerator over those of
    the denominator, for an f with no negative power of Y1."""
    parts = []
    for poly in (f.num, f.den):
        assert min(poly.exponents_of(2)) >= 0
        parts.append(LaurentPoly({e: c for e, c in poly.terms.items() if not e[2]}))
    return RatFunc(*parts)


def test_baxterize_y_limit_and_semiclassical():
    st = cg_structure(3)
    s0 = s0_from_structure(st)
    R = build_R_ggs_assoc(st, s0)
    RB = baxterize(R)
    assert RB.map_scalars(_at_y1_zero) == R
    linear = verify.u_coefficients(RB, (1,), order=1)[0]
    assert linear == hat_r(build_r_ts(st.triple, s0))
    assert verify.qybe_spectral_residual(RB).is_zero()


def test_y_n2_explicit():
    (a2,) = trivial_structures(2)
    y = build_y(a2)
    den = LaurentPoly.const(1) - LaurentPoly.monomial((-4, 0, 0, 0))
    diag = RatFunc(LaurentPoly.const(1), den)
    cross = RatFunc(LaurentPoly.monomial((-2, 0, 0, 0)), den)
    want = Tensor2(2, {
        (1, 1, 1, 1): diag,
        (2, 2, 2, 2): diag,
        (1, 1, 2, 2): cross,
        (2, 2, 1, 1): cross,
        (2, 1, 1, 2): rf(1),
    })
    assert y == want


def test_y_flip_relation():
    """y(-u) + y^21(u) = P."""
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                y = build_y(st)
                lhs = y.substitute(((-1, 0), (1, 0))) + y.flip21()  # y(-u)
                assert lhs == Tensor2.perm(n).map_scalars(rf)


def test_y_satisfies_aybe():
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                assert verify.aybe_residual(build_y(st)).is_zero()


def test_y_satisfies_aybe_n4():
    for t in enumerate_triples(4):
        for st in compatible_permutations(t):
            assert verify.aybe_residual(build_y(st)).is_zero()


def test_y_diagonal_pole_structure():
    st = cg_structure(3)
    y = build_y(st)
    pole = verify.u_coefficients(y, (-1,))[0]
    assert pole == Tensor2.identity(3).map_scalars(rf)


def test_r_uv_routes_agree():
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                quantum = build_r_uv(st, s0, formula="quantum")
                kernel = build_r_uv(st, s0, formula="kernel")
                assert quantum == kernel
                assert weight_zero_ok(quantum)


def _scalar_types(t):
    """The types of every coefficient: of each polynomial of a RatFunc or
    LaurentPoly entry, and of every other entry itself."""
    types = set()
    for v in t.coeffs.values():
        if isinstance(v, (RatFunc, LaurentPoly)):
            polys = (v.num, v.den) if isinstance(v, RatFunc) else (v,)
            types |= {type(c) for p in polys for c in p.terms.values()}
        else:
            types.add(type(v))
    return types


def test_no_float_coefficient_in_any_n3_matrix():
    for t in enumerate_triples(3):
        for st in compatible_permutations(t):
            s0 = s0_from_structure(st)
            for m in (
                build_r_ts(t, s0),
                build_R_ggs_assoc(st, s0),
                build_R_ggs_general(t, s0),
                build_r_uv(st, s0, formula="quantum"),
                build_r_uv(st, s0, formula="kernel"),
            ):
                assert _scalar_types(m) <= {int, Fraction}


def test_r_uv_central_identity():
    """(q - q^-1) r(u,v) equals the Baxterized quantum matrix exactly."""
    for st in [trivial_structures(2)[0], cg_structure(3)]:
        n = st.n
        s0 = s0_from_structure(st)
        r = build_r_uv(st, s0, formula="kernel")
        lhs = r.scale(q_minus_qinv(n))
        rhs = baxterize(build_R_ggs_assoc(st, s0))
        assert lhs == rhs


def test_r_uv_rejects_inadmissible_s():
    st = cg_structure(3)
    bad = s0_from_structure(st) + SWedge(3, {(1, 2): 1, (2, 3): -1})
    with pytest.raises(ValueError):
        build_r_uv(st, bad)


def test_r_uv_with_gauge_family():
    st = cg_structure(3)
    s0 = s0_from_structure(st)
    phi = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    s = s0 + phi_coboundary(phi, 3)  # scalar Phi: s = s0
    assert s == s0
    phi2 = (Fraction(1), Fraction(0), Fraction(-1))
    s2 = s0 + phi_coboundary(phi2, 3)
    r = build_r_uv(st, s2, formula="both")
    assert verify.aybe_residual(r).is_zero()


def test_f_v_functional_equation():
    """f(v+v') (1 + f(v) + f(v')) = f(v) f(v') for f = e^v/(1-e^v)."""
    fv = f_v()
    fvp = fv.substitute(verify.SLOTS["u,v'"])
    fsum = fv.substitute(verify.SLOTS["u,v+v'"])
    assert (fsum * (1 + fv + fvp) - fv * fvp).is_zero()


def test_serialization_roundtrip():
    st = cg_structure(3)
    r = build_r_uv(st, formula="kernel")
    doc = tensor2_to_json(r, provenance={"selector": "cg m=1"})
    back = tensor2_from_json(doc)
    assert back == r
    # classical tensors coerce to rational-function entries
    rc = build_r_ts(st.triple, s0_from_structure(st))
    assert tensor2_from_json(tensor2_to_json(rc)) == rc.map_scalars(rf)


def test_pretty_printer_layout():
    text = build_rst(2).pretty()
    assert "t_{1,1}^{1,1} = 1/2" in text
    assert "t_{2,1}^{1,2} = 1" in text


def test_s_as_tensor_diagonal_support():
    s = SWedge(3, {(1, 2): Fraction(1, 6)})
    t = s_as_tensor(s)
    assert t.coeffs == {
        (1, 1, 2, 2): Fraction(1, 6),
        (2, 2, 1, 1): Fraction(-1, 6),
    }
