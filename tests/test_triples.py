"""Triple combinatorics: validation, enumeration, orderings, s-systems."""

import functools
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from yangbaxter.triples import (
    AssocStructure,
    BDTriple,
    Root,
    SWedge,
    compatible_permutations,
    enumerate_cg_triples,
    enumerate_triples,
    is_orientation_preserving,
    is_valid,
    make_structure,
    phi_coboundary,
    positive_roots,
    prec_pairs,
    s0_from_structure,
    s_in_solution_space,
    simple_root,
    solve_linear,
    solve_s_system,
    structure_count,
    t_orbit,
    validate_triple,
)
from yangbaxter import triples
from yangbaxter.builders import (
    build_R_ggs_assoc, build_R_ggs_general, build_r_ts, build_y, s_as_tensor,
)

from conftest import (
    cg_structure,
    check_s0_identities,
    dense_solve_linear,
    phi_space,
    segment_walk,
    trivial_structures,
    weight_contract,
)

FIXTURES = Path(__file__).parent / "fixtures"


def brute_force_triples(n):
    """Independent validity check via explicit root vectors in Z^n."""

    def vec(a):
        v = [0] * n
        v[a - 1], v[a] = 1, -1
        return tuple(v)

    def ip(x, y):
        return sum(p * q for p, q in zip(x, y))

    found = []
    simples = list(range(1, n))
    for k in range(0, n):
        for g1 in itertools.combinations(simples, k):
            for g2 in itertools.combinations(simples, k):
                for img in itertools.permutations(g2):
                    T = dict(zip(g1, img))
                    if not all(
                        ip(vec(a), vec(b)) == ip(vec(T[a]), vec(T[b]))
                        for a in g1
                        for b in g1
                    ):
                        continue
                    nilpotent = True
                    for a in g1:
                        x, steps = a, 0
                        while x in T and steps <= n:
                            x, steps = T[x], steps + 1
                        if steps > n:
                            nilpotent = False
                            break
                    if nilpotent:
                        found.append(T)
    return found


def test_validate_examples(reversing5):
    assert is_valid(BDTriple.make(3, {1: 2}))
    bad = validate_triple(BDTriple.make(2, {1: 1}))
    assert any("nilpotent" in msg for msg in bad)
    assert is_valid(reversing5)


def test_validate_inner_product_violation():
    bad = validate_triple(BDTriple.make(4, {1: 1, 2: 3}))
    assert any("inner product" in msg for msg in bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_against_brute_force(n):
    ours = enumerate_triples(n)
    oracle = brute_force_triples(n)
    assert len(ours) == len(oracle)
    assert {t.pairs for t in ours} == {
        tuple(sorted(T.items())) for T in oracle
    }


def test_enumeration_counts_match_fixture():
    counts = json.loads((FIXTURES / "triple_counts.json").read_text())
    for n_str, expected in counts.items():
        n = int(n_str)
        ts = enumerate_triples(n)
        assert len(ts) == expected["triples"]
        assert sum(1 for t in ts if compatible_permutations(t)) == expected["associative"]
        assert (
            sum(len(compatible_permutations(t)) for t in ts)
            == expected["structures"]
        )


def test_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_triples(7)


def test_enumeration_contains_trivial_and_is_sorted():
    ts = enumerate_triples(3)
    assert ts[0].is_trivial
    keys = [t.sort_key() for t in ts]
    assert keys == sorted(keys)


def test_enumeration_closed_under_duality():
    for n in (3, 4, 5):
        ts = set(enumerate_triples(n))
        for t in ts:
            assert is_valid(t.inverse())
            assert t.inverse() in ts


def test_cg_counts_and_membership():
    # phi(n) for n = 2..8: 1, 2, 2, 4, 2, 6, 4
    phi = {2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4}
    for n, expected in phi.items():
        cg = enumerate_cg_triples(n)
        assert len(cg) == expected
        for _, t in cg:
            assert is_valid(t)
    for n in (3, 4, 5, 6):
        everything = set(enumerate_triples(n))
        for _, t in enumerate_cg_triples(n):
            assert t in everything


def test_cg3_explicit():
    (m1, t1), (m2, t2) = enumerate_cg_triples(3)
    assert (m1, t1.gamma1, t1.gamma2, t1.t_map) == (1, (1,), (2,), {1: 2})
    assert (m2, t2.t_map) == (2, {2: 1})


def _pair(t, alpha, beta):
    """The (k, C, exponent, drop) that prec_pairs carries for alpha < beta, or None."""
    found = [rest for a, b, *rest in prec_pairs(t) if (a, b) == (alpha, beta)]
    assert len(found) <= 1
    return tuple(found[0]) if found else None


def test_prec_order_examples(reversing5):
    cg3 = BDTriple.make(3, {1: 2})
    assert _pair(cg3, simple_root(1), simple_root(2))[0] == 1
    trivial = BDTriple.make(4, {})
    assert prec_pairs(trivial) == ()
    cg4 = BDTriple.make(4, {1: 2, 2: 3})
    assert _pair(cg4, simple_root(1), simple_root(3))[0] == 2
    assert _pair(cg4, simple_root(3), simple_root(1)) is None


def test_orientation_examples(reversing5):
    # length-1 roots carry label 0 by convention
    cg3 = BDTriple.make(3, {1: 2})
    assert _pair(cg3, simple_root(1), simple_root(2))[1] == 0
    # the n=5 reversing pair e1-e3 -> e3-e5
    assert _pair(reversing5, Root(1, 3), Root(3, 5))[1] == 1
    # CG n=4: e1-e3 -> e2-e4 preserves
    cg4 = BDTriple.make(4, {1: 2, 2: 3})
    assert _pair(cg4, Root(1, 3), Root(2, 4))[1] == 0
    assert _pair(cg4, Root(1, 3), Root(1, 4)) is None


def test_is_orientation_preserving(reversing5):
    for n in range(2, 7):
        for _, t in enumerate_cg_triples(n):
            assert is_orientation_preserving(t)
    assert not is_orientation_preserving(reversing5)
    assert is_orientation_preserving(BDTriple.make(4, {}))


def test_ps_examples(reversing5):
    cg3 = BDTriple.make(3, {1: 2})
    assert _pair(cg3, simple_root(1), simple_root(2))[2] == Fraction(1, 2)
    # disjoint non-adjacent segments with no intermediates
    assert _pair(reversing5, simple_root(1), simple_root(4))[2] == 0
    cg4 = BDTriple.make(4, {1: 2, 2: 3})
    assert _pair(cg4, simple_root(1), simple_root(3))[2] == 1


def _chain_exponent(t, alpha, beta):
    """The adjacency exponent and rule X's drop from their definitions on
    the chain alpha < ... < beta.

    The exponent is 1/2([a<.b] + [b<.a]) + [exists gamma strictly between
    with a<.gamma] + [exists gamma with gamma<.a], where <. is
    left-adjacency of segments; the drop is [exists gamma with a<.gamma,
    and no gamma' with gamma'<.b] + [exists gamma with gamma<.a, and no
    gamma' with b<.gamma'].  Both over a fresh walk of alpha's T-orbit
    for this one pair.
    """
    def adjacent(a, b):
        return a.j == b.i

    chain = {}
    for k, img, _ in t_orbit(t, alpha):
        chain[k] = img
    k = next(k for k, img in chain.items() if img == beta)
    between = [chain[a] for a in range(1, k)]
    right = any(adjacent(alpha, g) for g in between)
    left = any(adjacent(g, alpha) for g in between)
    exponent = Fraction(int(adjacent(alpha, beta)) + int(adjacent(beta, alpha)), 2)
    exponent += int(right) + int(left)
    drop = int(right and not any(adjacent(g, beta) for g in between))
    drop += int(left and not any(adjacent(beta, g) for g in between))
    return exponent, drop


def test_prec_pairs_exponent_matches_the_chain_definition():
    """The exponent and drop carried by prec_pairs' one walk per root equal,
    in value and in type, the chain definitions on every pair of every
    triple at n <= 7.  A drop is 0 or 1, and is nonzero on 4 pairs of 4
    triples at n = 6 and on 24 pairs of 20 triples at n = 7."""
    pairs, dropped_terms, dropped_triples = 0, Counter(), {}
    for n in range(2, 8):
        for t in enumerate_triples(n, bound=7):
            for alpha, beta, k, c, exponent, drop in prec_pairs(t):
                want, want_drop = _chain_exponent(t, alpha, beta)
                assert (exponent, type(exponent)) == (want, type(want)), (t, alpha, beta)
                assert (drop, type(drop)) == (want_drop, int), (t, alpha, beta)
                assert drop in (0, 1)
                if drop:
                    dropped_terms[n] += 1
                    dropped_triples.setdefault(n, set()).add(t.pairs)
                pairs += 1
    assert pairs == 2736
    assert dropped_terms == {6: 4, 7: 24}
    assert {n: len(ts) for n, ts in dropped_triples.items()} == {6: 4, 7: 20}


def test_ggs_general_walks_each_orbit_once(monkeypatch):
    """The four builders that read the ordering of CG n = 8 (build_a through
    build_r_ts, build_R_ggs_general, build_R_ggs_assoc and build_y) walk
    each positive root's T-orbit once between them: 28 walks, not one more
    per pair or per builder."""
    st = cg_structure(8)
    s0 = s0_from_structure(st)
    walks = []
    walk = triples.t_orbit

    def counted(t, alpha):
        walks.append(alpha)
        return walk(t, alpha)

    monkeypatch.setattr(triples, "t_orbit", counted)
    prec_pairs.cache_clear()
    build_r_ts(st.triple, s0)
    build_R_ggs_general(st.triple, s0)
    build_R_ggs_assoc(st, s0)
    build_y(st)
    assert sorted(walks) == positive_roots(8)


def test_ps_lemma_against_s_contraction():
    """The exponent of prec_pairs = 1 - (alpha (x) beta) s for every solution s."""
    for n in range(2, 6):
        for t in enumerate_triples(n):
            particular, basis = solve_s_system(t)
            for s in [particular] + [particular + b for b in basis]:
                st = s_as_tensor(s)
                for alpha, beta, _, _, exponent, _ in prec_pairs(t):
                    contraction = weight_contract(
                        st, alpha.weights(n), beta.weights(n)
                    )
                    assert exponent == 1 - contraction


def test_s_basis_directions_move_only_the_cartan_part():
    """Along every basis direction b of the s-family, r_{T,s} changes only
    in e_ii (x) e_jj entries.  Cartan tensors commute, so the CYBE
    residuals stay affine in s and the per-s rows at the particular s and
    particular + each basis vector cover the whole family."""
    directions = 0
    for n in range(2, 6):
        for t in enumerate_triples(n):
            particular, basis = solve_s_system(t)
            base = build_r_ts(t, particular)
            for b in basis:
                moved = build_r_ts(t, particular + b) - base
                assert all(i == j and k == l for i, j, k, l in moved.coeffs), (t, b)
                directions += 1
    assert directions == 166


def test_compatible_permutations_counts(reversing5):
    # trivial triple: (n-1)! single n-cycles
    for n in (2, 3, 4, 5):
        perms = compatible_permutations(BDTriple.make(n, {}))
        import math

        assert len(perms) == math.factorial(n - 1)
    assert compatible_permutations(reversing5) == []
    cg3 = BDTriple.make(3, {1: 2})
    (only,) = compatible_permutations(cg3)
    assert only.tilde_t == (2, 3, 1)


def test_make_structure_validation():
    cg3 = BDTriple.make(3, {1: 2})
    with pytest.raises(ValueError):
        make_structure(cg3, (3, 2, 1))  # not compatible with T
    with pytest.raises(ValueError):
        make_structure(BDTriple.make(4, {}), (2, 1, 4, 3))  # two 2-cycles
    ok = make_structure(cg3, (2, 3, 1))
    assert isinstance(ok, AssocStructure)


def test_orbit_distance_identities():
    for n in (3, 4, 5):
        for structure in trivial_structures(n)[:3] + [cg_structure(n)]:
            for i in range(1, n + 1):
                assert structure.orbit_distance(i, i) == 0
                for j in range(1, n + 1):
                    o_ij = structure.orbit_distance(i, j)
                    if i != j:
                        assert o_ij + structure.orbit_distance(j, i) == n
                    for k in range(1, n + 1):
                        assert (
                            structure.orbit_distance(i, k)
                            == (o_ij + structure.orbit_distance(j, k)) % n
                        )


def test_translation_property_of_assoc_pairs():
    """For alpha = e_a - e_b < beta = e_c - e_d with k steps: tilde T^k
    translates a -> c, b -> d and d - c = b - a."""
    for n in (3, 4):
        for t in enumerate_triples(n):
            for structure in compatible_permutations(t):
                for alpha, beta, k, c, _, _ in prec_pairs(t):
                    assert c == 0
                    assert structure.orbit_distance(alpha.i, beta.i) == k
                    assert structure.orbit_distance(alpha.j, beta.j) == k
                    assert beta.j - beta.i == alpha.j - alpha.i


def test_s0_examples():
    a3 = cg_structure(3)
    s0 = s0_from_structure(a3)
    assert s0.get(1, 2) == Fraction(1, 6)
    assert s0.get(1, 3) == Fraction(-1, 6)
    assert s0.get(2, 3) == Fraction(1, 6)
    (a2,) = trivial_structures(2)
    assert s0_from_structure(a2) == SWedge(2)


def test_s0_matches_cg_residue_formula():
    """Closed form 1/2 - Res((j-i)/m)/n on Cremmer-Gervais structures."""
    for n in (3, 4, 5, 7):
        for m, t in enumerate_cg_triples(n):
            (structure,) = compatible_permutations(t)
            s0 = s0_from_structure(structure)
            minv = next(x for x in range(1, n) if (x * m) % n == 1)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    res = ((j - i) * minv) % n
                    res = res if res else n
                    assert s0.get(i, j) == Fraction(1, 2) - Fraction(res, n)


def test_s0_satisfies_both_systems():
    for n in (2, 3, 4, 5):
        for t in enumerate_triples(n):
            for structure in compatible_permutations(t):
                s0 = s0_from_structure(structure)
                assert check_s0_identities(s0, structure)
                assert s_in_solution_space(t, s0)


def test_tra_rejects_shifted_s():
    a3 = cg_structure(3)
    s0 = s0_from_structure(a3)
    # any nonzero traceless-wedge shift leaves the s0 identities
    shifted = s0 + SWedge(3, {(1, 2): Fraction(1), (2, 3): Fraction(1), (1, 3): Fraction(-2)})
    assert not check_s0_identities(shifted, a3)


def test_solve_s_unique_traceless_cg3():
    t = BDTriple.make(3, {1: 2})
    particular, basis = solve_s_system(t)
    assert len(basis) == 1
    # the affine line particular + c*b crosses the traceless wedge once;
    # solve row-sum(1) = 0 for c and check the crossing equals s0
    b = basis[0]
    num = sum(particular.get(1, j) for j in range(1, 4))
    den = sum(b.get(1, j) for j in range(1, 4))
    assert den != 0
    c = -num / den
    s = particular + b.scale(c)
    for i in range(1, 4):
        assert sum(s.get(i, j) for j in range(1, 4)) == 0
    assert s == s0_from_structure(cg_structure(3))


def test_solve_s_trivial_triple_dimension():
    for n in (2, 3, 4):
        particular, basis = solve_s_system(BDTriple.make(n, {}))
        assert particular == SWedge(n)
        assert len(basis) == n * (n - 1) // 2


def dense_in_solution_space(t, s):
    """The s-system as dense dot products: for each pair (a, b) and each j,
    sum_i (alpha_a - alpha_b)_i s_ij = (alpha_a + alpha_b)_j / 2."""
    n = t.n
    for a, b in t.pairs:
        wa, wb = simple_root(a).weights(n), simple_root(b).weights(n)
        for j in range(1, n + 1):
            lhs = sum((wa[i - 1] - wb[i - 1]) * s.get(i, j) for i in range(1, n + 1))
            if lhs != Fraction(wa[j - 1] + wb[j - 1], 2):
                return False
    return True


def test_sparse_membership_agrees_with_dense_dot_products():
    for n in (2, 3, 4, 5):
        for t in enumerate_triples(n):
            particular, basis = solve_s_system(t)
            for s in [particular] + [particular + b for b in basis]:
                assert s_in_solution_space(t, s) and dense_in_solution_space(t, s)
            if t.is_trivial:
                continue  # no equations: every s solves the system
            # a unit shift of s_ij with (alpha_a - alpha_b)_i != 0 breaks row j
            a, b = t.pairs[0]
            wa, wb = simple_root(a).weights(n), simple_root(b).weights(n)
            i = next(i for i in range(1, n + 1) if wa[i - 1] != wb[i - 1])
            j = 1 if i != 1 else 2
            bad = particular + SWedge(n, {(i, j) if i < j else (j, i): 1})
            assert not dense_in_solution_space(t, bad)
            assert not s_in_solution_space(t, bad)


def test_s0_plus_phi_span_solves_system():
    for n in (3, 4):
        for t in enumerate_triples(n):
            for structure in compatible_permutations(t):
                s0 = s0_from_structure(structure)
                for phi in phi_space(t):
                    s = s0 + phi_coboundary(phi, n)
                    assert s_in_solution_space(t, s)


def test_phi_space_examples():
    assert len(phi_space(BDTriple.make(3, {}))) == 3
    basis = phi_space(BDTriple.make(3, {1: 2}))
    assert len(basis) == 2
    for phi in basis:
        assert phi[0] - phi[1] == phi[1] - phi[2]
    # the identity matrix is always admissible
    for n in (2, 3, 4):
        for t in enumerate_triples(n):
            span = phi_space(t)
            ones = [Fraction(1)] * n
            # solve ones = sum c_i basis_i by checking the defining constraints
            for a, b in t.pairs:
                assert ones[a - 1] - ones[a] == ones[b - 1] - ones[b]
            assert span  # never empty: contains at least the identity direction


def test_triple_json_roundtrip(reversing5):
    for t in [BDTriple.make(3, {1: 2}), reversing5, BDTriple.make(4, {})]:
        doc = t.to_json()
        assert BDTriple.from_json(doc) == t
    structure = cg_structure(4)
    doc = structure.to_json()
    # a structure document is its triple's document plus tilde T
    assert make_structure(BDTriple.from_json(doc), tuple(doc["tilde_t"])) == structure


# --- the sparse solver, the orbit walk and the structure count against
# --- the dense Gauss-Jordan, the left-end tracker and the listing ---------


@functools.cache
def triples_up_to_7():
    return tuple(t for n in range(2, 8) for t in enumerate_triples(n, bound=7))


def cg_triples(top, m_of=lambda n: range(1, n + 1)):
    return [t for n in range(2, top + 1) for m, t in enumerate_cg_triples(n) if m in m_of(n)]


# the dense oracle takes seconds per CG triple at n = 16, so above n = 12
# it runs on the two CG triples m = 1 and m = n - 1 of each n
ORACLE_CG = cg_triples(12) + cg_triples(16, lambda n: (1, n - 1) if n > 12 else ())


def test_sparse_solver_matches_the_dense_gauss_jordan():
    assert len(triples_up_to_7()) == 606 and len(ORACLE_CG) == 53
    for t in triples_up_to_7() + tuple(ORACLE_CG):
        unknowns, rows, rhs = triples._s_system_rows(t)
        dense = [[Fraction(row.get(c, 0)) for c in range(len(unknowns))] for row in rows]
        got = solve_linear(rows, rhs, len(unknowns))
        assert got == dense_solve_linear(dense, rhs, len(unknowns)), t
        particular, basis = got
        assert all(type(x) is Fraction for v in [particular, *basis] for x in v), t


def test_sparse_solver_result_does_not_depend_on_row_order():
    rng = random.Random(17)
    for t in [t for t in triples_up_to_7() if t.n <= 5] + cg_triples(9):
        unknowns, rows, rhs = triples._s_system_rows(t)
        expected = solve_linear(rows, rhs, len(unknowns))
        order = list(range(len(rows)))
        rng.shuffle(order)
        shuffled = solve_linear([rows[k] for k in order], [rhs[k] for k in order], len(unknowns))
        assert shuffled == expected, t


def test_sparse_solver_reports_an_inconsistent_system():
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    assert solve_linear(rows, [1, 3], 2) == (None, [])
    assert solve_linear(rows, [1, 2], 2) == ([1, 0], [[-1, 1]])
    assert solve_linear([{}], [1], 2) == (None, [])


def test_orbit_walk_matches_the_left_end_tracker():
    reversed_images = 0
    for t in triples_up_to_7() + tuple(cg_triples(16)):
        for alpha in positive_roots(t.n):
            walk = list(t_orbit(t, alpha))
            assert walk == list(segment_walk(t, alpha)), (t, alpha)
            reversed_images += sum(c for _, _, c in walk)
    assert reversed_images > 0  # orientation reversals are covered


def test_orbit_walk_rejects_an_image_that_is_not_a_segment():
    # not a valid triple: alpha_1 + alpha_2 would map to alpha_1 + alpha_3
    t = BDTriple.make(4, {1: 1, 2: 3})
    with pytest.raises(RuntimeError, match="not a segment"):
        list(t_orbit(t, Root(1, 3)))


def test_structure_count_matches_the_listing():
    for t in triples_up_to_7():
        assert structure_count(t) == len(compatible_permutations(t)), t
    # a Cremmer-Gervais triple forces its one n-cycle
    assert [structure_count(t) for t in cg_triples(16)] == [1] * len(cg_triples(16))
    assert structure_count(BDTriple.make(12, {})) == 39916800
