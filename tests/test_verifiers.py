"""Residual verifiers: positive certificates, engineered failures, numerics."""

import cmath
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from yangbaxter import builders, cli, tensors, verify
from yangbaxter.builders import (
    baxterize,
    build_R_ggs_general,
    build_R_st,
    build_r_ts,
    build_r_uv,
    build_rst,
    build_y,
    f_v,
    hat_r,
    q_minus_qinv,
)
from yangbaxter.scalars import PoleOrderError, X1, X2, Y1, LaurentPoly, rf
from yangbaxter.series import expand_in_u
from yangbaxter.tensors import Tensor2, Tensor3, gauge_conjugate, variables_used
from yangbaxter.triples import (
    BDTriple,
    SWedge,
    compatible_permutations,
    enumerate_triples,
    s0_from_structure,
    solve_s_system,
)

from conftest import (
    cg_structure, compiled_entries, embed, per_entry_apply, perm_diag, s_family,
    trivial_structures, weight_zero_ok,
)


def unit2(n, i, j, k, l, c=Fraction(1)):
    return Tensor2(n, {(i, j, k, l): c})


# --- the identity table ------------------------------------------------------


def test_identity_table_rows():
    # a row added later needs its own case in the tests below
    assert list(verify.IDENTITIES) == [
        "cybe", "cybe_spectral", "obstruction", "aybe", "qybe", "qybe_spectral",
        "unitarity_classical", "unitarity_assoc", "hecke",
    ]


def test_every_numeric_identity_has_a_row():
    assert set(verify.NUMERIC_IDENTITIES) <= set(verify.IDENTITIES)


# the legs a factor may take: the placements of tensors._PRODUCTS, which
# CompiledTensor2.apply takes too, and 21 for a tensor with its legs swapped
FACTOR_LEGS = {21} | {
    legs for _, placement in tensors._PRODUCTS
    for legs in (placement if isinstance(placement, tuple) else (placement,))
}


def _table_problems(rows):
    """(name, what, value) for each flaw of a table shaped as verify.IDENTITIES."""
    problems = []
    for name, (labels, terms, _) in rows.items():
        problems += [(name, "label", label) for label in labels if label not in verify.SLOTS]
        for k, (sign, *factors) in enumerate(terms):
            # _formula sums the terms in pairs, each opening with a + term
            if sign not in (1, -1) or k % 2 == 0 and sign != 1:
                problems.append((name, "sign", k))
            for slot, legs in factors:
                if not 0 <= slot < len(labels):
                    problems.append((name, "slot", slot))
                if legs not in FACTOR_LEGS:
                    problems.append((name, "legs", legs))
    return problems


def test_identity_table_is_well_formed():
    assert FACTOR_LEGS == {None, 12, 13, 23, 21}
    assert _table_problems(verify.IDENTITIES) == []
    malformed = {"bad": (("u,v", "v,u"), ((-1, (0, 12), (2, 13)), (2, (1, 32))), ())}
    assert _table_problems(malformed) == [
        ("bad", "label", "v,u"), ("bad", "sign", 0), ("bad", "slot", 2),
        ("bad", "sign", 1), ("bad", "legs", 32),
    ]


def _at(t, a, b, c, d):
    """t at the arguments (a u + b u', c v + d v')."""
    return t.substitute(((a, b), (c, d)))


def _commutators(a, b, c):
    """[a, b] + [a, c] + [b, c] of three Tensor3."""
    return (a.mul(b) - b.mul(a)) + (a.mul(c) - c.mul(a)) + (b.mul(c) - c.mul(b))


def _flipped(t):
    return Tensor2(t.n, {(k, l, i, j): v for (i, j, k, l), v in t.coeffs.items()})


def _hecke_factored(R):
    """(PR - q)(PR + q^-1) with q = X1^n, formed as the product of its two
    factors over RatFunc entries: a route to the Hecke residual apart from
    its row, which expands it."""
    m = Tensor2.perm(R.n).mul(R.map_scalars(rf))
    one = Tensor2.identity(R.n)
    q = rf(1) * X1 ** R.n
    return (m - one.scale(q)).mul(m + one.scale(q ** -1))


# each row of verify.IDENTITIES written out over embedded products
BY_HAND = {
    "cybe": lambda t: _commutators(embed(t, 12), embed(t, 13), embed(t, 23)),
    "cybe_spectral": lambda t: _commutators(
        embed(t, 12), embed(_at(t, 1, 0, 1, 1), 13), embed(_at(t, 1, 0, 0, 1), 23)
    ),
    "obstruction": lambda t: (
        embed(t, 12).mul(embed(t, 13)) - embed(t, 23).mul(embed(t, 12))
        + embed(t, 13).mul(embed(t, 23))
    ).project_traceless((1, 2, 3)),
    "aybe": lambda t: (
        embed(_at(t, 0, -1, 1, 0), 12).mul(embed(_at(t, 1, 1, 1, 1), 13))
        - embed(_at(t, 1, 1, 0, 1), 23).mul(embed(t, 12))
        + embed(_at(t, 1, 0, 1, 1), 13).mul(embed(_at(t, 0, 1, 0, 1), 23))
    ),
    "qybe": lambda t: (
        embed(t, 12).mul(embed(t, 13)).mul(embed(t, 23))
        - embed(t, 23).mul(embed(t, 13)).mul(embed(t, 12))
    ),
    "qybe_spectral": lambda t: (
        embed(t, 12).mul(embed(_at(t, 1, 0, 1, 1), 13)).mul(embed(_at(t, 1, 0, 0, 1), 23))
        - embed(_at(t, 1, 0, 0, 1), 23).mul(embed(_at(t, 1, 0, 1, 1), 13)).mul(embed(t, 12))
    ),
    "unitarity_classical": lambda t: t + _flipped(_at(t, 1, 0, -1, 0)),
    "unitarity_assoc": lambda t: t + _flipped(_at(t, -1, 0, -1, 0)),
    "hecke": _hecke_factored,
}


def _table_input(identity):
    """The n = 2 input that identity is checked on, at the trivial
    triple's structure and its s0."""
    from yangbaxter.builders import build_R_ggs_assoc

    st = trivial_structures(2)[0]
    s0 = s0_from_structure(st)
    r_ts = build_r_ts(st.triple, s0)
    return {
        "cybe": lambda: r_ts,
        "cybe_spectral": lambda: hat_r(r_ts),
        "obstruction": lambda: r_ts,
        "aybe": lambda: build_r_uv(st, s0, formula="quantum"),
        "qybe": lambda: build_R_ggs_assoc(st, s0),
        "qybe_spectral": lambda: baxterize(build_R_ggs_assoc(st, s0)),
        "unitarity_classical": lambda: hat_r(r_ts),
        "unitarity_assoc": lambda: build_r_uv(st, s0, formula="quantum"),
        "hecke": lambda: build_R_ggs_assoc(st, s0),
    }[identity]()


@pytest.mark.parametrize("identity", list(verify.IDENTITIES))
def test_identity_row_matches_the_identity_written_out(identity):
    """Each row, on its input with 1 added to the least coefficient, gives
    the residual of the identity written out by hand, entry by entry, and
    that residual is nonzero."""
    t = _perturbed(_table_input(identity))
    got, want = verify._residual(identity, t), BY_HAND[identity](t)
    assert not want.is_zero()
    assert got.coeffs.keys() == want.coeffs.keys()
    for key, value in got.coeffs.items():
        assert value == want.coeffs[key], key


# --- constant CYBE ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cybe_rst_zero(n):
    assert verify.cybe_residual(build_rst(n)).is_zero()


def test_cybe_nonzero_witness():
    # e21 (x) e12 alone: only [r12, r23] survives, giving
    # e21 (x) e11 (x) e12 - e21 (x) e22 (x) e12; checked against a hand
    # expansion of the matrix-unit products.
    r = unit2(2, 2, 1, 1, 2)
    res = verify.cybe_residual(r)
    assert res.coeffs == {
        (2, 1, 1, 1, 1, 2): Fraction(1),
        (2, 1, 2, 2, 1, 2): Fraction(-1),
    }
    assert res.lex_witness() == ((2, 1, 1, 1, 1, 2), Fraction(1))


def test_cybe_nilpotent_unit_is_a_solution():
    # every commutator shares a leg carrying e12 e12 = 0
    assert verify.cybe_residual(unit2(2, 1, 2, 1, 2)).is_zero()


def test_cybe_all_triples_full_basis():
    for n in (2, 3, 4):
        for t in enumerate_triples(n):
            particular, basis = solve_s_system(t)
            for s in [particular] + [particular + b for b in basis]:
                assert verify.cybe_residual(build_r_ts(t, s)).is_zero()


# --- spectral CYBE ---------------------------------------------------------


def test_cybe_spectral_hat_r():
    for n in (2, 3):
        for t in enumerate_triples(n):
            particular, _ = solve_s_system(t)
            rh = hat_r(build_r_ts(t, particular))
            assert verify.cybe_spectral_residual(rh).is_zero()
            assert verify.unitarity_check(rh, "classical").passed


def test_cybe_spectral_half_perm():
    # P/2 satisfies the normalization r + r^21 = P but is not a constant
    # CYBE solution for n >= 2 (the commutator sum leaves a permutation
    # term), so its spectral lift fails too; n = 1 is the trivial case.
    rh1 = hat_r(Tensor2.perm(1).scale(Fraction(1, 2)))
    assert verify.cybe_spectral_residual(rh1).is_zero()
    half = Tensor2.perm(3).scale(Fraction(1, 2))
    assert not verify.cybe_residual(half).is_zero()
    residual = verify.cybe_spectral_residual(hat_r(half))
    assert verify.report_from_residual("cybe_spectral", residual).witness == HALF_PERM_WITNESS
    assert verify.unitarity_check(hat_r(half), "classical").passed


# the failing witness of hat_r(P/2) at n = 3, as the RatFunc residual gives it
HALF_PERM_WITNESS = {
    "index": [1, 1, 1, 2, 2, 1],
    "value": (
        "(-1/4 + 1/2*Y2 - 1/4*Y2^2 + 1/2*Y1 - 1/2*Y1*Y2 - 1/2*Y1*Y2^2 + 1/2*Y1*Y2^3"
        " - 1/4*Y1^2 - 1/2*Y1^2*Y2 + 3/2*Y1^2*Y2^2 - 1/2*Y1^2*Y2^3 - 1/4*Y1^2*Y2^4"
        " + 1/2*Y1^3*Y2 - 1/2*Y1^3*Y2^2 - 1/2*Y1^3*Y2^3 + 1/2*Y1^3*Y2^4 - 1/4*Y1^4*Y2^2"
        " + 1/2*Y1^4*Y2^3 - 1/4*Y1^4*Y2^4) / (1 - 2*Y2 + Y2^2 - 2*Y1 + 2*Y1*Y2"
        " + 2*Y1*Y2^2 - 2*Y1*Y2^3 + Y1^2 + 2*Y1^2*Y2 - 6*Y1^2*Y2^2 + 2*Y1^2*Y2^3"
        " + Y1^2*Y2^4 - 2*Y1^3*Y2 + 2*Y1^3*Y2^2 + 2*Y1^3*Y2^3 - 2*Y1^3*Y2^4"
        " + Y1^4*Y2^2 - 2*Y1^4*Y2^3 + Y1^4*Y2^4)"
    ),
}


def _ratfunc_residual(identity, r):
    """A row of verify.IDENTITIES over RatFunc slots, each slot substituted:
    the oracle for the catalogue zero test."""
    labels, terms, project = verify.IDENTITIES[identity]
    slots = [r.substitute(verify.SLOTS[label]) for label in labels]
    return verify._formula(terms, slots).project_traceless(project)


def _ratfunc_cybe_spectral(r):
    return _ratfunc_residual("cybe_spectral", r)


def _constant_family(nmax, reversing5):
    """r_{T,s} at every s-point of every triple with n <= nmax and of the
    orientation-reversing n = 5 triple."""
    triples = [t for n in range(2, nmax + 1) for t in enumerate_triples(n)] + [reversing5]
    for t in triples:
        for s in s_family(t):
            yield build_r_ts(t, s)


def test_cybe_spectral_cleared_verdicts_match_ratfunc_oracle(reversing5):
    sizes = []
    for r in _constant_family(4, reversing5):
        rh = hat_r(r)
        sizes.append(rh.n)
        verdicts = (verify.cybe_spectral_residual(rh).is_zero(), _ratfunc_cybe_spectral(rh).is_zero())
        assert verdicts == (True, True)
        bad = _perturbed(rh)
        assert verify._catalogue_zero(bad, *verify.IDENTITIES["cybe_spectral"]) is False
        residual, oracle = verify.cybe_spectral_residual(bad), _ratfunc_cybe_spectral(bad)
        assert not oracle.is_zero()
        (key, value), (okey, ovalue) = residual.lex_witness(), oracle.lex_witness()
        assert (key, str(value)) == (okey, str(ovalue))
    # 45 matrices with n <= 4 and 4 of the reversing triple
    assert (len(sizes), sizes.count(5)) == (45 + 4, 4)


# constant CYBE and the lift obstruction: the public verifier of each row
CONSTANT_CHECKS = {"cybe": verify.cybe_residual, "obstruction": verify.lift_obstruction}


@pytest.mark.parametrize("check", list(CONSTANT_CHECKS))
def test_constant_graded_verdicts_match_fraction_oracle(check, reversing5):
    public = CONSTANT_CHECKS[check]
    slots, terms, project = verify.IDENTITIES[check]

    def oracle(r):
        # the row's formula over the input's own scalars, Fraction
        return verify._formula(terms, [r] * len(slots)).project_traceless(project)

    verdicts = []
    for r in _constant_family(4, reversing5):
        want = oracle(r)
        assert verify._catalogue_zero(r, slots, terms, project) == want.is_zero()
        assert public(r) == want
        verdicts.append(want.is_zero())
        bad = _perturbed(r)
        want = oracle(bad)
        assert not want.is_zero()
        assert verify._catalogue_zero(bad, slots, terms, project) is False
        got = public(bad)
        (key, value), (okey, ovalue) = got.lex_witness(), want.lex_witness()
        assert (key, str(value)) == (okey, str(ovalue))
    # 45 matrices with n <= 4 and 4 of the reversing triple; every one
    # solves the CYBE, and the obstruction vanishes at 10 of them, so both
    # verdicts are cross-checked
    assert len(verdicts) == 49
    assert verdicts.count(True) == (10 if check == "obstruction" else 49)


def test_one_catalogues_dict_across_the_exact_checks_keeps_verdicts(reversing5):
    """One catalogues dict kept across constant CYBE, spectral CYBE and
    the obstruction at every s-point, and AYBE at every structure, in the
    order of a verify run, gives each input the verdict it gets alone,
    and still fails perturbed inputs once it holds every catalogue."""
    catalogues = {}
    verdicts = Counter()
    passing = {}  # the last input each check passes

    def check(name, r):
        labels, terms, project = verify.IDENTITIES[name]
        got = verify._catalogue_zero(r, labels, terms, project, catalogues)
        assert got == verify._catalogue_zero(r, labels, terms, project), name
        verdicts[name, got] += 1
        if got:
            passing[name] = r

    triples = [t for n in (2, 3, 4) for t in enumerate_triples(n)] + [reversing5]
    for t in triples:
        family = [build_r_ts(t, s) for s in s_family(t)]
        for r in family:
            check("cybe", r)
            check("cybe_spectral", hat_r(r))
        for r in family:
            check("obstruction", r)
        for structure in compatible_permutations(t):
            s0 = s0_from_structure(structure)
            check("aybe", build_r_uv(structure, s0, formula="quantum"))
    assert verdicts == {
        ("cybe", True): 49, ("cybe_spectral", True): 49,
        ("obstruction", True): 10, ("obstruction", False): 39, ("aybe", True): 19,
    }
    # one entry per check and catalogue, against 185 checks
    assert len(catalogues) <= 12
    for name, r in passing.items():
        labels, terms, project = verify.IDENTITIES[name]
        assert verify._catalogue_zero(_perturbed(r), labels, terms, project, catalogues) is False


def test_spectral_combination_equals_constant_combination():
    """The three-slot spectral combination of hat_r collapses to the
    constant combination r12 r13 - r23 r12 + r13 r23."""
    for t in [BDTriple.make(2, {}), BDTriple.make(3, {1: 2})]:
        particular, _ = solve_s_system(t)
        r = build_r_ts(t, particular)
        rh = hat_r(r)
        a = embed(rh, 12)
        b = embed(rh.substitute(verify.SLOTS["u,v+v'"]), 13)
        c = embed(rh.substitute(verify.SLOTS["u,v'"]), 23)
        lhs = a.mul(b) - c.mul(a) + b.mul(c)
        rc = r.map_scalars(rf)
        rhs = (
            embed(rc, 12).mul(embed(rc, 13))
            - embed(rc, 23).mul(embed(rc, 12))
            + embed(rc, 13).mul(embed(rc, 23))
        )
        assert lhs == rhs


def test_unitarity_failure_witness():
    r = Tensor2.perm(2).scale((1 - Y1) ** -1)
    rep = verify.unitarity_check(r, "classical")
    assert rep.result == "fail"
    assert rep.witness is not None


def test_cybe_spectral_rejects_two_parameter_input():
    st = cg_structure(3)
    r = build_r_uv(st, formula="kernel")
    with pytest.raises(ValueError):
        verify.cybe_spectral_residual(r)


def test_cybe_spectral_rejects_x1_in_a_laurentpoly_entry():
    # an entry's type must not decide whether its symbols are seen
    r = Tensor2(2, {(1, 1, 1, 1): LaurentPoly.monomial((1, 0, 0, 0))})
    assert variables_used(r) == variables_used(r.map_scalars(rf)) == {"X1"}
    with pytest.raises(ValueError, match=r"Y1 only, found \['X1'\]"):
        verify.cybe_spectral_residual(r)


# --- QYBE and Hecke --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qybe_rst_zero(n):
    assert verify.qybe_residual(build_R_st(n)).is_zero()


def test_qybe_identity_tensor():
    assert verify.qybe_residual(Tensor2.identity(3).map_scalars(rf)).is_zero()


def test_qybe_cg3_general_formula():
    t = BDTriple.make(3, {1: 2})
    st = cg_structure(3)
    R = build_R_ggs_general(t, s0_from_structure(st))
    assert verify.qybe_residual(R).is_zero()
    assert verify.hecke_residual(R).is_zero()


def test_hecke_degenerate_failure():
    # R = P: PR = 1 (x) 1, residual (1 - q)(1 + 1/q) != 0
    res = verify.hecke_residual(Tensor2.perm(2).map_scalars(rf))
    assert not res.is_zero()
    assert res.lex_witness() is not None


# the orientation-reversing n = 6 triples on which the bare prec_pairs
# exponent fails QYBE and Hecke; rule X's drop changes a term of exactly these
REVERSING_N6 = [{1: 5, 2: 4, 4: 1}, {1: 5, 2: 4, 5: 2}, {1: 4, 4: 2, 5: 1}, {2: 5, 4: 2, 5: 1}]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_general_ggs_solves_qybe_and_hecke_at_every_s_point(n):
    for t in enumerate_triples(n):
        for s in s_family(t):
            R = build_R_ggs_general(t, s)
            assert verify.hecke_residual(R).is_zero(), (t, s)
            assert verify.qybe_residual(R).is_zero(), (t, s)


@pytest.mark.parametrize("t_map", REVERSING_N6)
def test_general_ggs_solves_qybe_and_hecke_on_reversing_n6_triples(t_map):
    t = BDTriple.make(6, t_map)
    for s in s_family(t):
        R = build_R_ggs_general(t, s)
        assert verify.hecke_residual(R).is_zero(), s
        assert verify.qybe_residual(R).is_zero(), s


def test_general_ggs_with_the_bare_exponent_fails_on_exactly_the_reversing_n6_triples(
    monkeypatch,
):
    """Negative control for rule X: without the drop, Hecke fails at the
    particular s of exactly the four REVERSING_N6 triples of the 115 at
    n = 6, and QYBE fails at every s-point of each of them."""
    pairs = builders.prec_pairs
    monkeypatch.setattr(builders, "prec_pairs", lambda t: [p[:5] + (0,) for p in pairs(t)])
    failing = {
        t.pairs for t in enumerate_triples(6)
        if not verify.hecke_residual(build_R_ggs_general(t, solve_s_system(t)[0])).is_zero()
    }
    assert failing == {BDTriple.make(6, t_map).pairs for t_map in REVERSING_N6}
    for t_map in REVERSING_N6:
        t = BDTriple.make(6, t_map)
        for s in s_family(t):
            assert not verify.qybe_residual(build_R_ggs_general(t, s)).is_zero(), (t, s)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hecke_row_keeps_the_verdicts_and_witnesses_of_the_factored_form(n):
    """The Hecke row, (PR)^2 - ((q - q^-1) PR + 1), gives the verdict and
    the witness (index and printed value) of (PR - q)(PR + q^-1) formed
    as factors: on R_assoc of every structure, which passes, and on it
    with 1 added to its least coefficient, which fails; and on the
    general GGS matrix of every triple at its particular s, whatever its
    verdict."""
    from yangbaxter.builders import build_R_ggs_assoc

    inputs = []
    for t in enumerate_triples(n):
        inputs.append((build_R_ggs_general(t, solve_s_system(t)[0]), None))
        for st in compatible_permutations(t):
            R = build_R_ggs_assoc(st, s0_from_structure(st))
            inputs += [(R, True), (_perturbed(R), False)]
    for R, passes in inputs:
        got, want = verify.hecke_residual(R), _hecke_factored(R)
        assert got.is_zero() == want.is_zero()
        assert passes is None or got.is_zero() == passes
        assert verify._witness(got) == verify._witness(want)


# --- AYBE ------------------------------------------------------------------


def test_aybe_baxterization_family():
    """y + f(v) P solves the AYBE iff f satisfies the functional equation;
    the K = -1 family member works, a constant f = 1 does not."""
    (a2,) = trivial_structures(2)
    y = build_y(a2)
    good = y + Tensor2.perm(2).scale(f_v())
    assert verify.aybe_residual(good).is_zero()
    bad = y + Tensor2.perm(2).map_scalars(rf)
    assert not verify.aybe_residual(bad).is_zero()


def test_aybe_all_structures_small_n():
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                r = build_r_uv(st, formula="kernel")
                assert verify.aybe_residual(r).is_zero()
                assert verify.unitarity_check(r, "associative").passed


def test_aybe_gauge_covariance():
    st = cg_structure(3)
    r = build_r_uv(st, formula="kernel")
    for phi in [(Fraction(1, 2),) * 3, (1, 0, -1), (1, Fraction(1, 3), Fraction(-1, 3))]:
        rp = gauge_conjugate(r, phi)
        assert verify.aybe_residual(rp).is_zero()
        assert verify.unitarity_check(rp, "associative").passed


def test_aybe_commutator_identity():
    """[r12(-u',v), r13(u+u',v+v')] + [r12(u,v), r23(u+u',v')] + [r13(u,v+v'), r23(u',v')]
    vanishes for a unitary solution (it is AYBE minus the reversed products)."""
    r = build_r_uv(cg_structure(3), formula="kernel")
    labels, _, _ = verify.IDENTITIES["aybe"]
    a, b, c, d, e, f = (r.substitute(verify.SLOTS[label]) for label in labels)
    commutators = (
        a.mul(b, legs=(12, 13)) - b.mul(a, legs=(13, 12))
        + d.mul(c, legs=(12, 23)) - c.mul(d, legs=(23, 12))
        + e.mul(f, legs=(13, 23)) - f.mul(e, legs=(23, 13))
    )
    assert commutators.is_zero()
    assert not a.mul(b, legs=(12, 13)).is_zero()  # the products themselves do not vanish


def _ratfunc_aybe(r):
    return _ratfunc_residual("aybe", r)


def _catalogue_aybe(r, memo=None):
    return verify._catalogue_zero(r, *verify.IDENTITIES["aybe"], memo=memo)


def _plus_one_at(t, key):
    coeffs = dict(t.coeffs)
    coeffs[key] = coeffs.get(key, 0) + 1
    return Tensor2(t.n, coeffs)


# g(u, v) e12 (x) e12 solves the AYBE for any scalar g: each of its three
# products meets e12 e12 = 0 on a leg; g e11 (x) e11 does not.  These g
# have denominators that are no product of binomials.
NON_BINOMIAL = (
    rf(1) / (1 + X1 + Y1 * Y1),
    (Y1 - 3) / (2 - Y1 + X1 ** 4 * Y1 ** 2),
)


def _aybe_inputs():
    """(name, r) of the AYBE inputs of the catalogue cross-check."""
    for n in (2, 3, 4):
        for t in enumerate_triples(n):
            for idx, st in enumerate(compatible_permutations(t)):
                for formula in ("quantum", "kernel"):
                    yield f"{formula} n={n} {t.t_map} #{idx}", build_r_uv(st, formula=formula)
    for n in (2, 3):
        for idx, st in enumerate(trivial_structures(n) + [cg_structure(n)]):
            yield f"y n={n} #{idx}", build_y(st)
    r = build_r_uv(cg_structure(3), formula="kernel")
    for phi in [(Fraction(1, 2),) * 3, (1, 0, -1), (1, Fraction(1, 3), Fraction(-1, 3))]:
        yield f"gauge {phi}", gauge_conjugate(r, phi)
    (a2,) = trivial_structures(2)
    y = build_y(a2)
    yield "baxterization good", y + Tensor2.perm(2).scale(f_v())
    yield "baxterization bad", y + Tensor2.perm(2).map_scalars(rf)
    for idx, g in enumerate(NON_BINOMIAL):
        yield f"non-binomial #{idx}", Tensor2(3, {(1, 2, 1, 2): g})
        yield f"non-binomial bad #{idx}", Tensor2(2, {(1, 1, 1, 1): g})


def _same_entries(a, b):
    """Whether two RatFunc tensors hold the same numerators and denominators."""
    return a.coeffs.keys() == b.coeffs.keys() and all(
        v.num.terms == b.coeffs[k].num.terms and v.den.terms == b.coeffs[k].den.terms
        for k, v in a.coeffs.items()
    )


def test_aybe_catalogue_verdicts_match_ratfunc_oracle():
    """The catalogue zero test and the RatFunc residual agree on every
    input, and each input with +1 at three of its entries fails both.
    aybe_residual returns the RatFunc residual for each input, and for
    each perturbed one below n = 4 (above, that would only build the
    oracle's residual a second time)."""
    verdicts = {}
    for name, r in _aybe_inputs():
        want = _ratfunc_aybe(r)
        assert _catalogue_aybe(r) == want.is_zero(), name
        assert _same_entries(verify.aybe_residual(r), want), name
        verdicts[name] = want.is_zero()
        # the diagonal keys too, where g e12 (x) e12 has no entry
        keys = sorted(r.coeffs.keys() | Tensor2.identity(r.n).coeffs.keys())
        for key in (keys[0], keys[len(keys) // 2], keys[-1]):
            bad = _plus_one_at(r, key)
            want = _ratfunc_aybe(bad)
            assert not want.is_zero(), (name, key)
            assert _catalogue_aybe(bad) is False, (name, key)
            if r.n < 4:
                assert _same_entries(verify.aybe_residual(bad), want), (name, key)
    assert len(verdicts) == 2 * (1 + 4 + 14) + 5 + 3 + 2 + 4
    failing = [name for name, ok in verdicts.items() if not ok]
    assert failing == ["baxterization bad", "non-binomial bad #0", "non-binomial bad #1"]


def test_aybe_catalogue_shared_across_inputs_keeps_verdicts():
    """One catalogues dict kept across inputs, as a verify run keeps it,
    gives each input the verdict it gets alone; an input whose constant
    tensors are larger repacks the catalogue's ints first."""
    catalogues = {}
    inputs = [r for _, r in _aybe_inputs() if r.n == 3][:8]
    big = inputs[0].scale(7)  # same functions, entries 7 times larger
    for r in inputs + [big, _plus_one_at(big, min(big.coeffs)), inputs[0]]:
        assert _catalogue_aybe(r, catalogues) == _catalogue_aybe(r)
    assert 0 < len(catalogues) < 8
    assert max(entry[1] for entry in catalogues.values()) >= 3 * 49


def test_catalogue_repacks_only_past_the_bound_of_its_digits(monkeypatch):
    """A catalogue seen before is packed again only for a matrix whose
    products need more than the digit width of its ints holds (the bound
    kronecker_ints returns), and every verdict stays that of a fresh memo."""
    packs = []
    pack = verify.kronecker_ints
    monkeypatch.setattr(verify, "kronecker_ints", lambda hs, c: packs.append(c) or pack(hs, c))
    memo = {}
    r = next(r for _, r in _aybe_inputs() if r.n == 3)
    assert _catalogue_aybe(r, memo) and packs
    ((key, (_, bound, _)),) = memo.items()

    def need(k):  # an AYBE product entry sums n products of two entries
        return 3 * max(abs(v) for _, a in r.scale(k).catalogue()[1] for v in a.coeffs.values()) ** 2

    k = max(k for k in range(1, 64) if need(k) <= bound)
    assert need(k + 1) > bound
    for scale, repacked in ((k, False), (k + 1, True)):
        before = len(packs)
        assert _catalogue_aybe(r.scale(scale), memo)
        assert len(packs) - before == repacked
        assert _catalogue_aybe(_perturbed(r.scale(scale)), memo) is False
    assert memo[key][1] >= need(k + 1)


def test_aybe_catalogue_denominator_vanishing_at_a_slot():
    # X1 / X2 - 1 is 0 at the slot u',v', where X1 -> X2: both routes refuse it
    r = Tensor2(2, {(1, 1, 1, 1): rf(1) / (X1 / X2 - 1)})
    with pytest.raises(ZeroDivisionError):
        _catalogue_aybe(r)
    with pytest.raises(ZeroDivisionError):
        verify.aybe_residual(r)


def test_passing_aybe_makes_no_ratfunc_products(monkeypatch):
    from yangbaxter.scalars import RatFunc

    r = build_r_uv(cg_structure(3), formula="quantum")
    calls = []
    mul = RatFunc.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counted)
    monkeypatch.setattr(RatFunc, "__rmul__", counted)
    assert verify.aybe_residual(r).is_zero()
    assert calls == []
    # the counter counts: a failing input builds its RatFunc witness
    assert not verify.aybe_residual(_perturbed(r)).is_zero()
    assert calls


def test_aybe_slot_weights_are_two_binomials_each():
    """For r(u,v) over D = (Y1 - 1)(X1^(2n) - 1), L / (Di Dj) is, up to a
    unit, (q - q^-1)(X1)(1 - Y2), (q - q^-1)(X2)(1 - Y1 Y2) and
    (q - q^-1)(X1 X2)(1 - Y1) with q = X1^n, and weight times Di Dj is
    the same L for every term."""
    n = 3
    factors, _ = build_r_uv(cg_structure(n), formula="quantum").catalogue()
    labels, terms, _ = verify.IDENTITIES["aybe"]
    weights = verify._slot_weights(factors, labels, terms)
    x1, x2 = LaurentPoly.monomial((1, 0, 0, 0)), LaurentPoly.monomial((0, 1, 0, 0))
    y1, y2 = LaurentPoly.monomial((0, 0, 1, 0)), LaurentPoly.monomial((0, 0, 0, 1))
    binomials = [
        (x1 ** (2 * n) - 1) * (y2 - 1),
        (x2 ** (2 * n) - 1) * (y1 * y2 - 1),
        ((x1 * x2) ** (2 * n) - 1) * (y1 - 1),
    ]
    for weight, want in zip(weights, binomials):
        assert weight.associate()[2] == want.associate()[2]
    one = LaurentPoly.const(1)
    dens = [
        math.prod((f.substitute(verify.SLOTS[label]) ** m for f, m in factors), start=one)
        for label in labels
    ]
    products = [
        weight * dens[i] * dens[j] * sign
        for weight, (sign, (i, _), (j, _)) in zip(weights, terms)
    ]
    assert products[0] == products[1] == products[2]


# --- lift obstruction and necessity -----------------------------------------------------


def test_obstruction_passes_for_associative():
    for st in [trivial_structures(2)[0], cg_structure(3), cg_structure(4)]:
        r = build_r_ts(st.triple, s0_from_structure(st))
        assert verify.lift_obstruction(r).is_zero()


def test_obstruction_reversing5_witness(reversing5):
    particular, basis = solve_s_system(reversing5)
    for s in [particular] + [particular + b for b in basis]:
        res = verify.lift_obstruction(build_r_ts(reversing5, s))
        assert res.coeffs.get((3, 1, 3, 4, 4, 5)) == Fraction(1)
        assert weight_zero_ok(res)


def test_obstruction_trivial_wrong_s_fails_on_diagonal():
    # s = 0 for n = 3 violates the diagonal system: t' = 0, not +-1/2
    res = verify.lift_obstruction(build_r_ts(BDTriple.make(3, {}), SWedge(3)))
    assert not res.is_zero()
    key, value = res.lex_witness()
    i, j, k, l, m, p = key
    assert (i, k, m) == (j, l, p)  # diagonal witness
    assert value == Fraction(1, 18)


# --- lift and Laurent data -------------------------------------------------


def test_check_lift_positive():
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                r = build_r_uv(st, s0, formula="kernel")
                assert verify.check_lift(r, build_r_ts(t, s0)).passed


def test_check_lift_ignores_higher_order():
    st = cg_structure(3)
    s0 = s0_from_structure(st)
    r = build_r_uv(st, s0, formula="kernel")
    # (e^u - 1)(1 x 1) vanishes to first order at u = 0
    bump = Tensor2.identity(3).scale(rf(1) * X1**6 - 1)
    assert verify.check_lift(r + bump, build_r_ts(st.triple, s0)).passed


def test_check_lift_detects_extra_pole():
    st = cg_structure(3)
    s0 = s0_from_structure(st)
    r = build_r_uv(st, s0, formula="kernel")
    extra = Tensor2.identity(3).scale((1 - X1**-6) ** -1)
    rep = verify.check_lift(r + extra, build_r_ts(st.triple, s0))
    assert rep.result == "fail"
    assert rep.witness is not None


def test_check_lift_expands_each_entry_once(monkeypatch):
    # the u^-1 and u^0 coefficients come from one expansion per distinct
    # entry: the 17 entries of r hold 7 scalars, term for term
    calls = []
    expand = verify.expand_in_u

    def counted(f, n, order):
        calls.append(order)
        return expand(f, n, order)

    monkeypatch.setattr(verify, "expand_in_u", counted)
    st = cg_structure(3)
    s0 = s0_from_structure(st)
    r = build_r_uv(st, s0, formula="kernel")
    assert verify.check_lift(r, build_r_ts(st.triple, s0)).passed
    assert (len(calls), len(r.coeffs)) == (7, 17)
    calls.clear()
    assert verify.pr_limit_check(r).passed
    assert len(calls) == 7


def _entries(tensors):
    """Each tensor's entries as printed, to compare expansions term for term."""
    return [{k: str(v) for k, v in t.coeffs.items()} for t in tensors]


def test_lift_memo_warm_gives_what_a_fresh_one_gives():
    """One memo kept across every structure with n <= 4, as a verify run
    keeps it (catalogues included), gives each r(u,v) the u-coefficients
    and lift report that a fresh memo and no memo give."""
    memo, entries = {}, 0
    for n in (2, 3, 4):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                r, r_ts = build_r_uv(st, s0, formula="quantum"), build_r_ts(t, s0)
                assert verify.aybe_residual(r, memo).is_zero()
                warm = _entries(verify.u_coefficients(r, (-1, 0), memo=memo))
                assert warm == _entries(verify.u_coefficients(r, (-1, 0), memo={}))
                assert warm == _entries(verify.u_coefficients(r, (-1, 0)))
                report = verify.check_lift(r, r_ts, memo=memo)
                assert report.passed and report == verify.check_lift(r, r_ts, memo={})
                entries += len(r.coeffs)
    # 490 entries over 19 structures hold 21 distinct scalars
    assert entries == 490 and sum(key[0] == "u" for key in memo) == 21


def test_lift_memo_keeps_the_witness_of_a_perturbed_matrix():
    """r_quantum with 1 added to its lex-least coefficient fails the lift
    with one witness, warm or cold."""
    memo = {}
    for n in (2, 3, 4):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                r, r_ts = build_r_uv(st, s0, formula="quantum"), build_r_ts(t, s0)
                assert verify.check_lift(r, r_ts, memo=memo).passed
                warm = verify.check_lift(_perturbed(r), r_ts, memo=memo)
                assert warm.result == "fail" and warm.witness is not None
                assert warm == verify.check_lift(_perturbed(r), r_ts, memo={})
                assert warm == verify.check_lift(_perturbed(r), r_ts)


def _projection_first_rbar(r):
    """The limit of r by the old order: project, then expand each entry."""
    projected = r.map_scalars(rf).project_traceless((1, 2))
    out = {}
    for key, value in projected.coeffs.items():
        pole, const = expand_in_u(value, r.n, 0)
        assert not pole
        if const:
            out[key] = const
    return Tensor2(r.n, out)


def test_pr_limit_expands_before_it_projects(monkeypatch):
    # the rbar handed to spectral CYBE equals the projection-first limit
    seen = []
    cybe = verify.cybe_spectral_residual

    def recorded(rbar):
        seen.append(rbar)
        return cybe(rbar)

    monkeypatch.setattr(verify, "cybe_spectral_residual", recorded)
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                r = build_r_uv(st, formula="kernel")
                seen.clear()
                assert verify.pr_limit_check(r).passed
                (rbar,) = seen
                assert rbar == _projection_first_rbar(r)


def test_pr_limit_positive():
    for st in [trivial_structures(2)[0], cg_structure(3)]:
        r = build_r_uv(st, formula="kernel")
        assert verify.pr_limit_check(r).passed
        # expansion coefficients live in Y1 only
        for c in verify.u_coefficients(r, (-1, 0, 1), order=1):
            assert variables_used(c) <= {"Y1"}


def test_pr_limit_n4_structures_and_perturbations():
    structures = [st for t in enumerate_triples(4) for st in compatible_permutations(t)]
    assert len(structures) == 14
    for st in structures:
        r = build_r_uv(st, formula="kernel")
        assert verify.pr_limit_check(r).passed
        # the least coefficient + 1 breaks the limit
        key, _ = r.lex_witness()
        rep = verify.pr_limit_check(r + Tensor2(4, {key: rf(1)}))
        assert rep.result == "fail"
        assert rep.witness is not None


def test_pr_limit_unitarity_failure():
    n = 2
    pole = Tensor2.identity(n).scale((1 - X1 ** (-2 * n)) ** -1)
    bad = pole + perm_diag(n).scale(rf(1) * Y1)
    rep = verify.pr_limit_check(bad)
    assert rep.result == "fail"


def test_pr_limit_surviving_pole():
    n = 2
    r = perm_diag(n).scale((1 - X1 ** (-2 * n)) ** -1)
    with pytest.raises(PoleOrderError):
        verify.pr_limit_check(r)


def test_pr_limit_constant_in_u():
    # no u-dependence, no pole: passes iff the base classical matrix does
    t = BDTriple.make(2, {})
    particular, _ = solve_s_system(t)
    rh = hat_r(build_r_ts(t, particular))
    assert verify.pr_limit_check(rh).passed


# --- central identity ------------------------------------------------------


def test_central_identity():
    for st in [trivial_structures(2)[0], cg_structure(3)]:
        from yangbaxter.builders import build_R_ggs_assoc

        s0 = s0_from_structure(st)
        lhs = build_r_uv(st, s0, formula="quantum").scale(q_minus_qinv(st.n))
        rhs = baxterize(build_R_ggs_assoc(st, s0))
        assert lhs == rhs


# --- numeric mode ----------------------------------------------------------


def test_numeric_qybe_rst_n10():
    R = build_R_st(10)
    rep = verify.numeric_residual("qybe", {"R": R}, 10, samples=3, tolerance=1e-9, seed=3)
    assert rep.passed
    assert rep.max_abs_residual < 1e-9


def test_numeric_aybe_naive_promotion_fails(reversing5):
    """Gluing the spectral P-term onto the quantum matrix of a
    non-associative triple does not solve the AYBE."""
    particular, _ = solve_s_system(reversing5)
    R = build_R_ggs_general(reversing5, particular)
    naive = Tensor2.perm(5).scale(f_v()) + R.scale(q_minus_qinv(5).inverse())
    rep = verify.numeric_residual(
        "aybe", {"r": naive}, 5, samples=4, tolerance=1e-9, seed=11
    )
    assert rep.result == "fail"
    assert rep.max_abs_residual > 1e-3


def test_numeric_matches_symbolic_verdicts():
    """Symbolic pass implies numeric pass on the small-n corpus."""
    for n in (2, 3):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                r = build_r_uv(st, formula="kernel")
                assert verify.aybe_residual(r).is_zero()
                rep = verify.numeric_residual(
                    "aybe", {"r": r}, n, samples=2, tolerance=1e-9, seed=5
                )
                assert rep.passed


def test_numeric_hecke_and_unitarity():
    st = cg_structure(4)
    from yangbaxter.builders import build_R_ggs_assoc

    R = build_R_ggs_assoc(st, s0_from_structure(st))
    assert verify.numeric_residual("hecke", {"R": R}, 4, 3, 1e-9, 2).passed
    r = build_r_uv(st, formula="kernel")
    assert verify.numeric_residual("unitarity_assoc", {"r": r}, 4, 3, 1e-9, 2).passed


def _compiled(identity, t):
    """The tensor of each slot of the identity's row (verify._slot_inputs)
    compiled, each distinct one once, as verify.numeric_residual does."""
    inputs = verify._slot_inputs(identity, t)
    forms = {id(s): s.float_form() for s in inputs}
    return [forms[id(s)] for s in inputs]


def _evaluated(t, logs):
    """t with each entry evaluated on its own at logs, from its float form."""
    return t.map_scalars(
        lambda c: c.float_form().evaluate(logs) if hasattr(c, "float_form") else complex(c)
    )


def _sample_vector(n, legs, seed=4):
    rng = random.Random(seed)
    return [cmath.rect(1.0, 2 * cmath.pi * rng.random()) for _ in range(n ** legs)]


def _rows(column):
    """A column tensor (Tensor.column) as {row index tuple: value}."""
    return {key[0::2]: v for key, v in column.coeffs.items()}


def test_numeric_engine_matches_dense_oracle():
    """Sparse numeric AYBE applied to x equals a from-scratch dense-loop
    residual applied to the same x, entrywise, for both a solution and a
    non-solution."""
    from conftest import dense_apply, dense_numeric_aybe

    point = (0.31 + 0.52j, -0.44 + 0.27j, 0.62 - 0.35j, -0.53 + 0.41j)
    x = _sample_vector(2, 3)
    good = build_r_uv(trivial_structures(2)[0], formula="kernel")
    naive = Tensor2.perm(2).scale(f_v()) + build_R_st(2).scale(
        q_minus_qinv(2).inverse()
    ) + Tensor2(2, {(1, 2, 1, 2): rf(1) * X1})  # deliberately broken
    for r in (good, naive):
        residual, _ = verify._numeric_tensors("aybe", _compiled("aybe", r), 2, point, x)
        sketched = _rows(residual)
        dense = dense_apply(dense_numeric_aybe(r, 2, point), x, 2, 3)
        for key in set(sketched) | set(dense):
            lhs = sketched.get(key, 0j)
            rhs = dense.get(key, 0j)
            assert abs(lhs - rhs) < 1e-12, (key, lhs, rhs)
    # and the broken matrix really does fail while the good one passes
    res_good, _ = verify._numeric_tensors("aybe", _compiled("aybe", good), 2, point, x)
    res_bad, _ = verify._numeric_tensors("aybe", _compiled("aybe", naive), 2, point, x)
    assert res_good.max_abs() < 1e-12
    assert res_bad.max_abs() > 1e-3


def _perturbed(t):
    """t with 1 added to its lexicographically least coefficient."""
    return _plus_one_at(t, min(t.coeffs))


def test_laurentpoly_quantum_matrices_keep_the_ratfunc_verdicts_and_witnesses():
    """QYBE, Hecke and the cross-formula difference give the same verdict,
    witness index and printed value on the LaurentPoly quantum matrices as
    on the same matrices over RatFunc, for every structure with n <= 4, as
    built and with its least coefficient + 1 (which fails all three)."""
    from yangbaxter.builders import build_R_ggs_assoc

    checks = {
        "qybe": lambda R, general: verify.qybe_residual(R),
        "hecke": lambda R, general: verify.hecke_residual(R),
        "cross-formula-ggs": lambda R, general: general - R,
    }
    results = Counter()
    for n in (2, 3, 4):
        for t in enumerate_triples(n):
            for st in compatible_permutations(t):
                s0 = s0_from_structure(st)
                general = build_R_ggs_general(t, s0)
                built = build_R_ggs_assoc(st, s0)
                for R in (built, _perturbed(built)):
                    for name, check in checks.items():
                        got = verify.report_from_residual(name, check(R, general))
                        want = verify.report_from_residual(
                            name, check(R.map_scalars(rf), general.map_scalars(rf)))
                        assert got == want, (name, st)
                        results[got.result] += 1
    assert results == {"pass": 57, "fail": 57}


def test_numeric_formulas_match_symbolic():
    """Every numeric identity, on a perturbed input, equals its symbolic
    residual evaluated at the same point and applied to the same vector,
    entry by entry."""
    from conftest import dense_apply
    from yangbaxter.builders import build_R_ggs_assoc
    from yangbaxter.scalars import log_point

    n = 2
    point = (0.31 + 0.52j, -0.44 + 0.27j, 0.62 - 0.35j, -0.53 + 0.41j)
    st = trivial_structures(n)[0]
    s0 = s0_from_structure(st)
    r_uv = _perturbed(build_r_uv(st, s0, formula="kernel"))
    R = _perturbed(build_R_ggs_assoc(st, s0))
    RB = _perturbed(baxterize(build_R_ggs_assoc(st, s0)))
    r_v = _perturbed(hat_r(build_r_ts(st.triple, s0)))

    def unitarity(r):
        # written out here, independently of the slot table
        return r.map_scalars(rf) + r.flip21().substitute(((-1, 0), (-1, 0)))

    cases = {
        "aybe": ({"r": r_uv}, verify.aybe_residual),
        "unitarity_assoc": ({"r": r_uv}, unitarity),
        "qybe": ({"R": R}, verify.qybe_residual),
        "hecke": ({"R": R}, _hecke_factored),
        "qybe_spectral": ({"R": RB}, verify.qybe_spectral_residual),
        "cybe_spectral": ({"r": r_v}, verify.cybe_spectral_residual),
    }
    assert set(cases) == set(verify.NUMERIC_IDENTITIES)
    logs = log_point(*point, n)
    for identity, (tensors, symbolic) in cases.items():
        legs = verify._sample_legs(identity)
        x = _sample_vector(n, legs)
        (t,) = tensors.values()
        numeric, _ = verify._numeric_tensors(identity, _compiled(identity, t), n, point, x)
        assert numeric.max_abs() > 1e-3, identity
        exact = symbolic(t).map_scalars(
            lambda c: c.evaluate(logs) if hasattr(c, "evaluate") else complex(c)
        )
        sketched = _rows(numeric)
        applied = dense_apply(exact.coeffs, x, n, legs)
        for key in set(sketched) | set(applied):
            lhs = sketched.get(key, 0j)
            rhs = applied.get(key, 0j)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (identity, key, lhs, rhs)
    with pytest.raises(ValueError):
        verify._numeric_tensors("cybe", _compiled("cybe", r_v), n, point, _sample_vector(n, 3))


def test_numeric_scale_is_per_sample(monkeypatch):
    """A large-scale sample must not excuse a bad small-scale one."""
    outcomes = iter([
        (Tensor2.column(1, [1e-6]), [[1.0]]),
        (Tensor2.column(1, [0j]), [[1e6]]),
    ])
    monkeypatch.setattr(verify, "_numeric_tensors", lambda *args: next(outcomes))
    rep = verify.numeric_residual("aybe", {"r": Tensor2(1)}, 1, 2, 1e-9, 0)
    assert rep.result == "fail"
    assert rep.max_abs_residual == 1e-6


def test_numeric_nan_residual_fails_and_is_reported(monkeypatch):
    """A NaN residual entry fails its sample and is the reported maximum,
    after a number in its column or alone, and before or after another
    sample."""
    nan = float("nan")
    assert cmath.isnan(Tensor2.column(2, [1e-20, nan, 0.0, 0.0]).max_abs())
    for columns in ([[1e-20, nan]], [[nan]], [[nan], [1e-20]], [[1e-20], [nan]]):
        outcomes = iter([
            (Tensor2.column(2, [complex(v) for v in c] + [0j] * (4 - len(c))), [[1.0]])
            for c in columns
        ])
        monkeypatch.setattr(verify, "_numeric_tensors", lambda *args: next(outcomes))
        rep = verify.numeric_residual("aybe", {"r": Tensor2(1)}, 1, len(columns), 1e-9, 0)
        assert rep.result == "fail", columns
        assert cmath.isnan(rep.max_abs_residual), columns


def _counted_scales(monkeypatch):
    """A list of the parts of every sample whose scale numeric_residual
    computes (tensors.max_magnitude), as they are computed."""
    calls = []
    monkeypatch.setattr(
        verify, "max_magnitude", lambda parts: calls.append(parts) or tensors.max_magnitude(parts)
    )
    return calls


def test_numeric_verdict_computes_the_scale_only_when_it_can_matter(monkeypatch):
    """A sample's verdict is max |residual x| < tolerance * max(1, scale)
    over a grid of residuals, scales and tolerances with 0, NaN and inf,
    and its scale is computed exactly when the residual is not below the
    tolerance."""
    nan, inf = float("nan"), float("inf")
    calls = _counted_scales(monkeypatch)
    for err in (0.0, 5e-324, 1e-10, 1e-9, 0.5, 1.0, 3.0, 1e300, inf, nan):
        for scale in (0.0, 0.5, 1.0, 2.0, 1e9, 1e300, inf, nan):
            sample = (Tensor2.column(1, [complex(err)]), [[scale]])
            monkeypatch.setattr(verify, "_numeric_tensors", lambda *args: sample)
            for tol in (5e-324, 1e-9, 1.0, 1e300):
                calls.clear()
                rep = verify.numeric_residual("aybe", {"r": Tensor2(1)}, 1, 1, tol, 0)
                assert rep.passed == (err < tol * max(1.0, scale)), (err, scale, tol)
                assert len(calls) == (not err < tol), (err, scale, tol)


def test_numeric_run_below_tolerance_never_computes_a_scale(monkeypatch, capsys):
    """Every sample of the seeded n = 4 numeric run is below the default
    tolerance, so no scale is computed; at tolerance 1e-15 some are not."""
    calls = _counted_scales(monkeypatch)
    argv = "verify --n 4 --mode numeric --suite all --samples 5 --seed 7".split()
    assert cli.main(argv) == 0 and not calls
    assert cli.main(argv + ["--tolerance", "1e-15"]) == 1 and calls
    capsys.readouterr()


def test_numeric_hecke_fails_on_perturbed_cg_inputs():
    """At n = 8, numeric Hecke passes on R_assoc of every Cremmer-Gervais
    structure, and fails once one entry is raised by 1: the least one, an
    entry off the diagonal pairs, or a key R does not have."""
    from yangbaxter.builders import build_R_ggs_assoc

    for _, (st,) in cli._listing(8, 6)[1:]:
        R = build_R_ggs_assoc(st, s0_from_structure(st))
        assert verify.numeric_residual("hecke", {"R": R}, 8, 2, 1e-9, 3).passed
        off = next(k for k in R.coeffs if k[0] != k[1])
        for key in (min(R.coeffs), off, (1, 2, 1, 2)):
            bad = verify.numeric_residual("hecke", {"R": _plus_one_at(R, key)}, 8, 2, 1e-9, 3)
            assert bad.result == "fail" and bad.max_abs_residual > 1e-3, key


@pytest.mark.parametrize("suite, identity, matrix", [
    pytest.param(*row, id=row[1]) for row in cli.NUMERIC_CHECKS
])
def test_numeric_checks_fail_on_a_perturbed_input(suite, identity, matrix):
    """Each numeric check of the CLI passes on its CG n = 4 input and fails
    once the least coefficient of that input is raised by 1."""
    st = cg_structure(4)
    m = cli._Matrices(st.triple, s0_from_structure(st), st)
    key = verify.NUMERIC_IDENTITIES[identity]
    good = verify.numeric_residual(identity, {key: matrix(m)}, 4, 3, 1e-9, 5)
    bad = verify.numeric_residual(identity, {key: _perturbed(matrix(m))}, 4, 3, 1e-9, 5)
    assert good.passed and good.max_abs_residual < 1e-9
    assert bad.result == "fail"
    assert bad.max_abs_residual > 1e-3
    # the same with the draws of one memo, shared as a run shares them
    memo = {}
    for tensor, report in ((matrix(m), good), (_perturbed(matrix(m)), bad)):
        shared = verify.numeric_residual(identity, {key: tensor}, 4, 3, 1e-9, 5, memo=memo)
        assert shared == report


@pytest.mark.parametrize("seed", range(5))
def test_numeric_residual_of_one_entry_is_its_magnitude(seed):
    """The sample vector has entries of modulus 1, so a residual with one
    nonzero entry M reads |M|, to rounding."""
    # r + r^21 for a constant r = c e_12 (x) e_12 is 2c e_12 (x) e_12
    r = Tensor2(2, {(1, 2, 1, 2): Fraction(-5, 2)})
    rep = verify.numeric_residual("unitarity_assoc", {"r": r}, 2, 3, 1e-9, seed)
    assert rep.result == "fail"
    assert abs(rep.max_abs_residual - 5.0) <= 2 * 5.0 * sys.float_info.epsilon


@pytest.mark.parametrize("seed", range(5))
def test_numeric_residual_whose_rows_sum_to_zero_still_fails(seed):
    """A residual that maps the all-ones vector to 0 is caught: the sample
    vector's entries have random phases."""
    # r + r^21 = 2c (e_11 (x) e_11 - e_12 (x) e_12): its one nonzero row sums to 0
    r = Tensor2(2, {(1, 1, 1, 1): Fraction(3), (1, 2, 1, 2): Fraction(-3)})
    rep = verify.numeric_residual("unitarity_assoc", {"r": r}, 2, 3, 1e-9, seed)
    assert rep.result == "fail"
    assert rep.max_abs_residual > 1e-3


def _reference_evaluate(value, logs):
    """Reference loop: one entry's value, converting every coefficient
    and exponent to float on the spot and exponentiating every term.  A
    LaurentPoly is its polynomial's value, with no denominator."""

    def poly(p):
        total = 0j
        for exps, c in p.terms.items():
            z = 0j
            for e, lg in zip(exps, logs):
                if e:
                    z += float(e) * lg
            total += float(c) * cmath.exp(z)
        return total

    if isinstance(value, LaurentPoly):
        return poly(value)
    if not hasattr(value, "num"):
        return complex(value)
    return poly(value.num) / poly(value.den)


def test_float_form_evaluates_to_the_same_bits_on_cg8_inputs():
    """Every input numeric mode samples at n = 8 (trivial and CG), in float
    form, evaluates entry by entry to the bits of the reference loop."""
    from yangbaxter.scalars import log_point

    rng = random.Random(8)
    points = [
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4))
        for _ in range(3)
    ]
    inputs = []
    for t, structures in cli._listing(8, 6):
        for st in structures:
            m = cli._Matrices(t, s0_from_structure(st), st)
            inputs += [m.r_kernel, m.R_assoc, hat_r(m.r_ts)]
    assert len(inputs) == 15
    for tensor in inputs:
        floats = tensor.float_form()
        for point in points:
            logs = log_point(*point, 8)
            got = compiled_entries(tensor, floats.at(logs))
            want = {k: _reference_evaluate(v, logs) for k, v in tensor.coeffs.items()}
            assert got.keys() == want.keys()
            for key, value in got.items():
                bits = (value.real.hex(), value.imag.hex())
                assert bits == (want[key].real.hex(), want[key].imag.hex()), key


def test_float_form_evaluates_each_distinct_scalar_once_on_cg8_inputs(monkeypatch):
    """One evaluation of a float form at a point evaluates each scalar
    once per distinct ordered terms (a RatFunc's numerator's and
    denominator's, a LaurentPoly's own), not once per entry.  A RatFunc
    counts once: its inner LaurentPoly evaluations are not counted."""
    from yangbaxter.scalars import RatFunc, log_point

    inputs = []
    for t, structures in cli._listing(8, 6):
        for st in structures:
            m = cli._Matrices(t, s0_from_structure(st), st)
            inputs += [m.r_kernel, m.R_assoc, hat_r(m.r_ts)]
    assert len(inputs) == 15
    calls, inside = [], []
    evaluate_rf, evaluate_poly = RatFunc.evaluate, LaurentPoly.evaluate

    def counted_rf(self, logs, powers=None):
        calls.append(self)
        inside.append(self)
        try:
            return evaluate_rf(self, logs, powers)
        finally:
            inside.pop()

    def counted_poly(self, logs, powers=None):
        if not inside:
            calls.append(self)
        return evaluate_poly(self, logs, powers)

    monkeypatch.setattr(RatFunc, "evaluate", counted_rf)
    monkeypatch.setattr(LaurentPoly, "evaluate", counted_poly)
    logs = log_point(0.3 + 0.2j, -0.4 + 0.1j, 0.5 - 0.6j, 0.2 + 0.7j, 8)
    kinds = Counter()
    for tensor in inputs:
        distinct = {
            (tuple(v.num.terms.items()), tuple(v.den.terms.items()))
            if isinstance(v, RatFunc) else (tuple(v.terms.items()),)
            for v in tensor.coeffs.values()
        }
        kinds.update(type(v).__name__ for v in tensor.coeffs.values())
        floats = tensor.float_form()
        calls.clear()
        floats.at(logs)
        assert len(calls) == len(distinct) == len(floats.scalars) < len(tensor.coeffs)
    # both kinds of scalar are met: R's entries are LaurentPolys, r(u,v)'s RatFuncs
    assert kinds["LaurentPoly"] and kinds["RatFunc"]


def _cg4_numeric_inputs():
    """Each numeric identity's CG n = 4 input, least coefficient + 1."""
    from yangbaxter.builders import build_R_ggs_assoc

    st = cg_structure(4)
    s0 = s0_from_structure(st)
    r_uv = build_r_uv(st, s0, formula="kernel")
    R = build_R_ggs_assoc(st, s0)
    inputs = {
        "aybe": r_uv,
        "unitarity_assoc": r_uv,
        "qybe": R,
        "hecke": R,
        "qybe_spectral": baxterize(R),
        "cybe_spectral": hat_r(build_r_ts(st.triple, s0)),
    }
    assert set(inputs) == set(verify.NUMERIC_IDENTITIES)
    return {identity: _perturbed(t) for identity, t in inputs.items()}


def test_numeric_products_apply_each_shared_factor_once(monkeypatch):
    """Within one sample, a factor (with the factors right of it) that
    ends several of the formula's products is applied to the vector once."""
    point = (0.31 + 0.52j, -0.44 + 0.27j, 0.62 - 0.35j, -0.53 + 0.41j)
    calls = []
    apply = tensors.CompiledTensor2.apply

    def counted(self, x, legs=None):
        calls.append(legs)
        return apply(self, x, legs)

    monkeypatch.setattr(tensors.CompiledTensor2, "apply", counted)
    expected = {
        "cybe_spectral": 9, "hecke": 3, "aybe": 6, "qybe": 6,
        "qybe_spectral": 6, "unitarity_assoc": 2,
    }
    for identity, t in _cg4_numeric_inputs().items():
        key, legs = verify.NUMERIC_IDENTITIES[identity], verify._sample_legs(identity)
        calls.clear()
        verify._numeric_tensors(identity, _compiled(identity, t), 4, point, _sample_vector(4, legs))
        assert len(calls) == expected[identity], identity


@pytest.mark.parametrize("n", [3, 4])
def test_every_slot_means_the_same_in_both_modes(n):
    """A slot's symbolic substitution, evaluated at a sample point, equals
    the input evaluated at the slot's arguments, as numeric mode does."""
    from yangbaxter.builders import build_R_ggs_assoc
    from yangbaxter.scalars import log_point

    st = cg_structure(n)
    s0 = s0_from_structure(st)
    inputs = (build_r_uv(st, s0, formula="kernel"), build_R_ggs_assoc(st, s0))
    rng = random.Random(n)
    for _ in range(3):
        point, _ = verify._clear_point(rng)
        u, up, v, vp = point
        for label, slot in verify.SLOTS.items():
            uu, vv = verify._slot_arguments(slot, point)
            for t in inputs:
                at_slot = t.substitute(slot)
                symbolic = compiled_entries(at_slot, at_slot.float_form().at(log_point(*point, n)))
                numeric = compiled_entries(t, t.float_form().at(log_point(uu, up, vv, vp, n)))
                assert symbolic.keys() == numeric.keys(), label
                for k, value in numeric.items():
                    assert cmath.isclose(symbolic[k], value, rel_tol=1e-12), (label, k)
    assert len(verify.SLOTS) == 9


def _applied_afresh(vector, factors, applied):
    """Reference route: every factor of every product applied to the vector
    anew, entry by entry."""
    for t, legs in reversed(factors):
        vector = per_entry_apply(t, vector, legs)
    t, legs = factors[0]
    return (Tensor2 if legs is None else Tensor3).column(t.n, vector)


# each numeric residual written out from its products p, in the grouping
# of the float sums it is checked against
GROUPED_SUMS = {
    "cybe_spectral": lambda p: ((p[0] - p[1]) + (p[2] - p[3])) + (p[4] - p[5]),
    "aybe": lambda p: (p[0] - p[1]) + p[2],
    "qybe": lambda p: p[0] - p[1],
    "qybe_spectral": lambda p: p[0] - p[1],
    "unitarity_assoc": lambda p: p[0] + p[1],
    "hecke": lambda p: p[0] - p[1],
}


def test_numeric_sharing_keeps_the_bits_of_the_unshared_route():
    """The residual column and the scale equal, bit for bit, the route
    that evaluates every entry's scalar on its own, applies every factor
    of every product anew and sums the products as written out."""
    from yangbaxter.scalars import log_point

    point = (0.31 + 0.52j, -0.44 + 0.27j, 0.62 - 0.35j, -0.53 + 0.41j)
    _, up, _, vp = point

    def bits(z):
        return z.real.hex(), z.imag.hex()

    for identity, t in _cg4_numeric_inputs().items():
        x = _sample_vector(4, verify._sample_legs(identity))
        residual, parts = verify._numeric_tensors(identity, _compiled(identity, t), 4, point, x)
        scale = tensors.max_magnitude(parts)
        labels, terms, _ = verify.IDENTITIES[identity]
        slots = []
        for s, label in zip(verify._slot_inputs(identity, t), labels):
            uu, vv = verify._slot_arguments(verify.SLOTS[label], point)
            slots.append(_evaluated(s, log_point(uu, up, vv, vp, 4)))
        parts = [
            _applied_afresh(x, [
                (slots[i].flip21(), None) if legs == 21 else (slots[i], legs)
                for i, legs in factors
            ], None)
            for _, *factors in terms
        ]
        want = GROUPED_SUMS[identity](parts)
        want_scale = max(part.max_abs() for part in parts)
        assert residual.coeffs.keys() == want.coeffs.keys(), identity
        for k, value in residual.coeffs.items():
            assert bits(value) == bits(want.coeffs[k]), (identity, k)
        assert scale.hex() == want_scale.hex(), identity
        assert residual.max_abs() > 1e-3, identity


def _reference_residual(identity, t, n, point, x):
    """The residual list by the route the compiled one replaced: each
    slot's entries evaluated one by one into a Tensor2, each product's
    factors applied entry by entry (conftest.per_entry_apply), the right
    one first, and the products summed by tensors.signed_sum."""
    from yangbaxter.scalars import log_point

    _, up, _, vp = point
    labels, terms, _ = verify.IDENTITIES[identity]
    slots = []
    for s, label in zip(verify._slot_inputs(identity, t), labels):
        uu, vv = verify._slot_arguments(verify.SLOTS[label], point)
        slots.append(_evaluated(s, log_point(uu, up, vv, vp, n)))
    parts = []
    for _, *factors in terms:
        y = x
        for i, legs in reversed(factors):
            y = per_entry_apply(slots[i], y, legs)
        parts.append(y)
    return tensors.signed_sum([sign for sign, *_ in terms], parts)


def _numeric_inputs(n):
    """(identity, input) for every numeric identity on every structure of
    the n listing: all six up to n = 4, the CLI's numeric checks beyond."""
    out = []
    for t, structures in cli._listing(n, 6):
        for st in structures:
            m = cli._Matrices(t, s0_from_structure(st), st)
            out += [(identity, matrix(m)) for _, identity, matrix in cli.NUMERIC_CHECKS]
            if n <= 4:
                out.append(("qybe_spectral", baxterize(m.R_assoc)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_compiled_route_keeps_the_bits_of_the_per_entry_route(n, monkeypatch):
    """The residual list numeric mode turns into a column equals, entry by
    entry and to the bit, the one the per-entry route makes, on every
    numeric identity of every structure at n <= 4 and on the trivial and
    Cremmer-Gervais inputs at n = 8.  unitarity_assoc covers the flipped
    slot, and n = 1 lanes of one index."""
    lists = []
    for cls in (Tensor2, Tensor3):
        monkeypatch.setattr(cls, "column", classmethod(
            lambda c, size, values, column=cls.column: lists.append(values) or column(size, values)
        ))

    def bits(values):
        return [(type(z).__name__, float(z.real).hex(), float(z.imag).hex()) for z in values]

    rng = random.Random(n)
    inputs = _numeric_inputs(n)
    assert {identity for identity, _ in inputs} == set(verify.NUMERIC_IDENTITIES) - (
        {"qybe_spectral"} if n > 4 else set())
    for identity, t in inputs:
        point, _ = verify._clear_point(rng)
        x = tensors.unit_vector(rng, n ** verify._sample_legs(identity))
        lists.clear()
        verify._numeric_tensors(identity, _compiled(identity, t), n, point, x)
        (got,) = lists
        assert bits(got) == bits(_reference_residual(identity, t, n, point, x)), identity


def test_numeric_memo_shared_by_a_run_gives_the_reports_of_fresh_draws():
    """One memo shared by every numeric check of a run gives the reports
    that drawing afresh per check gives, draws once per vector size, and
    leaves the vectors it holds unchanged."""
    checks = [
        (identity, {verify.NUMERIC_IDENTITIES[identity]: t})
        for identity, t in _numeric_inputs(4)
    ]
    memo = {}
    shared = [verify.numeric_residual(i, t, 4, 3, 1e-9, 6, memo=memo) for i, t in checks]
    fresh = [verify.numeric_residual(i, t, 4, 3, 1e-9, 6) for i, t in checks]
    assert shared == fresh and len(shared) > 10
    assert sorted(memo) == [("numeric draws", 6, 3, 16), ("numeric draws", 6, 3, 64)]
    for key, draws in memo.items():
        identity = "hecke" if key[3] == 16 else "aybe"
        again = {}
        verify.numeric_residual(identity, dict(checks)[identity], 4, 3, 1e-9, 6, memo=again)
        (redrawn,) = again.values()
        assert [(p, k, [(z.real.hex(), z.imag.hex()) for z in x]) for p, k, x in draws] == [
            (p, k, [(z.real.hex(), z.imag.hex()) for z in x]) for p, k, x in redrawn]


def test_float_form_refuses_exact_operations():
    """A float form evaluates, but arithmetic, comparison and printing,
    which promise exact coefficients, raise, also through a RatFunc."""
    from yangbaxter.scalars import LaurentPoly, log_point

    poly = LaurentPoly({(1, 0, 0, 0): Fraction(1, 3), (0, 0, 1, 0): 2})
    quotient = rf(poly) / rf(poly + 1)
    logs = log_point(0.3 + 0.2j, 0.1j, 0.7, -0.4j, 2)
    for exact in (poly, quotient):
        floats = exact.float_form()
        assert floats.evaluate(logs) == exact.evaluate(logs)
        assert floats and not floats.is_zero()
        for refused in (
            lambda: floats + exact, lambda: exact + floats, lambda: floats - 1,
            lambda: floats * floats, lambda: -floats, lambda: floats ** 2,
            lambda: floats == exact, lambda: exact == floats, lambda: str(floats),
        ):
            with pytest.raises(TypeError):
                refused()


@pytest.mark.parametrize("samples", [0, -1])
def test_numeric_rejects_sample_count_below_one(samples):
    r = build_r_uv(trivial_structures(3)[0], formula="kernel")
    with pytest.raises(ValueError, match="samples"):
        verify.numeric_residual("aybe", {"r": r}, 3, samples, 1e-9, 0)


@pytest.mark.parametrize("tolerance", [0.0, -1e-9, float("nan"), float("inf")])
def test_numeric_rejects_tolerance_not_finite_and_positive(tolerance):
    r = build_r_uv(trivial_structures(3)[0], formula="kernel")
    with pytest.raises(ValueError, match="tolerance"):
        verify.numeric_residual("aybe", {"r": r}, 3, 2, tolerance, 0)


def test_numeric_resampling_is_capped(monkeypatch):
    draws = []

    def reject(values):
        draws.append(values)
        if len(draws) > verify.MAX_REJECTIONS:
            raise AssertionError("resampling went past its cap")
        return False

    monkeypatch.setattr(verify, "_clear_of_poles", reject)
    r = build_r_uv(trivial_structures(2)[0], formula="kernel")
    with pytest.raises(RuntimeError, match="GUARD_DISTANCE"):
        verify.numeric_residual("aybe", {"r": r}, 2, 3, 1e-9, 0)
    assert len(draws) == verify.MAX_REJECTIONS


def test_numeric_determinism():
    st = cg_structure(3)
    r = build_r_uv(st, formula="kernel")
    rep1 = verify.numeric_residual("aybe", {"r": r}, 3, 4, 1e-9, 42)
    rep2 = verify.numeric_residual("aybe", {"r": r}, 3, 4, 1e-9, 42)
    assert rep1.max_abs_residual == rep2.max_abs_residual
    assert rep1.as_dict() == rep2.as_dict()


# --- reports ---------------------------------------------------------------


def test_report_json_shape():
    rep = verify.report_from_residual(
        "cybe", verify.cybe_residual(build_rst(2)), provenance={"n": 2}
    )
    doc = rep.as_dict()
    assert doc["identity"] == "cybe"
    assert doc["result"] == "pass"
    assert doc["witness"] is None
    assert doc["provenance"] == {"n": 2}
    failing = verify.report_from_residual(
        "cybe", verify.cybe_residual(unit2(2, 2, 1, 1, 2))
    )
    assert failing.result == "fail"
    assert failing.witness == {"index": [2, 1, 1, 1, 1, 2], "value": "1"}
