"""Acceptance suite: one test per criterion, one printed line each.

Every check is exact (symbolic) unless the criterion itself is numeric;
the stated runtime budgets are asserted with the wall clock.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from yangbaxter import cli, verify
from yangbaxter.builders import (
    baxterize,
    build_R_ggs_assoc,
    build_R_ggs_general,
    build_r_ts,
    build_r_uv,
    f_v,
    q_minus_qinv,
    s_as_tensor,
)
from yangbaxter.scalars import Y1, rf
from yangbaxter.tensors import Tensor2, gauge_conjugate
from yangbaxter.triples import (
    BDTriple,
    compatible_permutations,
    enumerate_cg_triples,
    enumerate_triples,
    is_valid,
    prec_pairs,
    s0_from_structure,
    solve_s_system,
)

from conftest import weight_contract


@contextmanager
def criterion(number, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s)")


def all_structures(n):
    out = []
    for t in enumerate_triples(n):
        out.extend(compatible_permutations(t))
    return out


def s_choices(t):
    particular, basis = solve_s_system(t)
    return [particular] + [particular + b for b in basis]


def test_criterion_01_cg_census():
    with criterion(1, "CG census phi(n), n=2..8", budget=1.0):
        expected = {2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4}
        for n, count in expected.items():
            cg = enumerate_cg_triples(n)
            assert len(cg) == count
            for _, t in cg:
                assert is_valid(t)


def test_criterion_02_classical_layer():
    with criterion(2, "classical layer n<=4 (CYBE, r+r21=P)", budget=30.0):
        for n in range(2, 5):
            P = Tensor2.perm(n)
            for t in enumerate_triples(n):
                for s in s_choices(t):
                    r = build_r_ts(t, s)
                    assert r + r.flip21() == P
                    assert verify.cybe_residual(r).is_zero()


def test_criterion_03_ggs_layer():
    with criterion(3, "GGS layer n<=4 (QYBE, Hecke, both formulas)", budget=300.0):
        for n in range(2, 5):
            for structure in all_structures(n):
                s0 = s0_from_structure(structure)
                general = build_R_ggs_general(structure.triple, s0)
                closed = build_R_ggs_assoc(structure, s0)
                assert general == closed
                for R in (general, closed):
                    assert verify.qybe_residual(R).is_zero()
                    assert verify.hecke_residual(R).is_zero()


def structures_for_associative_layer():
    out = [(st, st.triple) for n in (2, 3) for st in all_structures(n)]
    for _, t in enumerate_cg_triples(4):
        (st,) = compatible_permutations(t)
        out.append((st, t))
    return out


def test_criterion_04_associative_layer():
    with criterion(4, "associative layer n<=3 + CG4 (AYBE, unitarity, lift)", budget=600.0):
        for st, t in structures_for_associative_layer():
            s0 = s0_from_structure(st)
            r = build_r_uv(st, s0, formula="both")
            assert verify.aybe_residual(r).is_zero()
            assert verify.unitarity_check(r, "associative").passed
            assert verify.check_lift(r, build_r_ts(t, s0)).passed


def test_criterion_05_central_identity():
    with criterion(5, "central identity (q - 1/q) r(u,v) = Baxterized GGS"):
        for st, _ in structures_for_associative_layer():
            s0 = s0_from_structure(st)
            lhs = build_r_uv(st, s0, formula="kernel").scale(q_minus_qinv(st.n))
            rhs = baxterize(build_R_ggs_assoc(st, s0))
            assert lhs == rhs


def test_criterion_06_ps_lemma():
    with criterion(6, "adjacency exponent = 1 - (a x b)s, n<=5, basis s"):
        for n in range(2, 6):
            for t in enumerate_triples(n):
                pairs = prec_pairs(t)
                if not pairs:
                    continue
                for s in s_choices(t):
                    st = s_as_tensor(s)
                    for alpha, beta, _, _, lhs, _ in pairs:
                        rhs = 1 - weight_contract(
                            st, alpha.weights(n), beta.weights(n)
                        )
                        assert lhs == rhs


def test_criterion_07_necessity():
    with criterion(7, "necessity: obstruction off the associative class"):
        # the orientation-reversing n=5 triple carries the exact witness 1
        reversing = BDTriple.make(5, {1: 4, 2: 3})
        for s in s_choices(reversing):
            residual = verify.lift_obstruction(build_r_ts(reversing, s))
            assert residual.coeffs.get((3, 1, 3, 4, 4, 5)) == Fraction(1)
        # every non-associative triple with n <= 4 fails the check for every s
        # (the enumeration shows the class is empty below n = 5, so the
        # n = 5 non-associative triples are checked as well)
        for n in (2, 3, 4):
            for t in enumerate_triples(n):
                if not compatible_permutations(t):
                    for s in s_choices(t):
                        assert not verify.lift_obstruction(build_r_ts(t, s)).is_zero()
        nonassoc5 = [
            t for t in enumerate_triples(5) if not compatible_permutations(t)
        ]
        assert len(nonassoc5) == 2
        for t in nonassoc5:
            for s in s_choices(t):
                assert not verify.lift_obstruction(build_r_ts(t, s)).is_zero()


def test_criterion_08_gauge_covariance():
    with criterion(8, "gauge covariance for CG n=3, three Phi values"):
        m, t = enumerate_cg_triples(3)[0]
        (st,) = compatible_permutations(t)
        r = build_r_uv(st, formula="kernel")
        assert verify.aybe_residual(r).is_zero()
        phis = [
            (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0), Fraction(-1)),
            (Fraction(1), Fraction(1, 3), Fraction(-1, 3)),
        ]
        for phi in phis:
            conjugated = gauge_conjugate(r, phi)
            assert verify.aybe_residual(conjugated).is_zero()
            assert verify.unitarity_check(conjugated, "associative").passed


def test_criterion_09_baxterization_equation():
    with criterion(9, "Baxterization functional equation and K=-1"):
        fv = f_v()
        fvp = fv.substitute(verify.SLOTS["u,v'"])
        fsum = fv.substitute(verify.SLOTS["u,v+v'"])
        assert rf(fsum * (1 + fv + fvp) - fv * fvp).is_zero()
        # unitarity constraint at K = -1: 1/(e^{-v}-1) + 1/(e^{v}-1) = -1
        k_term = (Y1**-1 - 1) ** -1 + (Y1 - 1) ** -1 + 1
        assert rf(k_term).is_zero()
        # and e^v/(1-e^v) is the K = -1 family member: f + f(-v) = -1
        assert rf(fv + fv.substitute(verify.SLOTS["u,-v"]) + 1).is_zero()


def test_criterion_10_numeric_kernel():
    with criterion(10, "numeric AYBE, CG n=8, 100 samples < 1e-9", budget=10.0):
        m, t = enumerate_cg_triples(8)[0]
        (st,) = compatible_permutations(t)
        r = build_r_uv(st, formula="kernel")
        report = verify.numeric_residual(
            "aybe", {"r": r}, 8, samples=100, tolerance=1e-9, seed=7
        )
        assert report.passed
        assert report.max_abs_residual < 1e-9


def test_criterion_11_compatible_permutation_count():
    with criterion(11, "trivial n=4 has 3! compatible permutations"):
        perms = compatible_permutations(BDTriple.make(4, {}))
        assert len(perms) == 6
        assert len({p.tilde_t for p in perms}) == 6


def test_criterion_12_numeric_cg16(capsys):
    with criterion(12, "numeric AYBE and CYBE, trivial+CG n=16, 3 samples", budget=10.0):
        code = cli.main([
            "verify", "--n", "16", "--mode", "numeric", "--suite", "aybe,cybe",
            "--samples", "3",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        # the trivial shift cycle and 8 CG structures, two suites each
        assert doc["summary"] == {"total": 18, "passed": 18}
        assert all(r["max_abs_residual"] < 1e-9 for r in doc["reports"])
