"""Tensor engine: spec examples, dense-oracle cross-checks, algebra laws."""

import math
from fractions import Fraction

import pytest

from yangbaxter.scalars import X1, Y1, Y2, LaurentPoly, RatFunc, rf
from yangbaxter.tensors import (
    CompiledTensor2,
    Tensor2,
    Tensor3,
    apply_product,
    gauge_conjugate,
    max_magnitude,
    product_sum,
    signed_sum,
    unit_vector,
)
from yangbaxter.verify import SLOTS

from conftest import (
    compiled_entries,
    dense2,
    dense2_from_grid,
    dense2_mul,
    dense3_embed,
    dense3_mul,
    dense3_to_tensor,
    embed,
    per_entry_apply,
    perm_diag,
    random_sparse_tensor2,
    weight_contract,
    weight_zero_ok,
)


def unit2(n, i, j, k, l, c=Fraction(1)):
    return Tensor2(n, {(i, j, k, l): c})


def test_embed_identity():
    one = Tensor2.identity(2)
    t3 = embed(one, 13)
    # 1 (x) 1 on legs 13 with identity inserted on leg 2 = 1 (x) 1 (x) 1
    expected = {
        (i, i, k, k, j, j): Fraction(1)
        for i in (1, 2)
        for j in (1, 2)
        for k in (1, 2)
    }
    assert t3.coeffs == expected


def test_embed_unit_on_23():
    t = unit2(2, 1, 2, 2, 1)
    got = embed(t, 23)
    expected = {(m, m, 1, 2, 2, 1): Fraction(1) for m in (1, 2)}
    assert got.coeffs == expected


def test_p12_t13_exchange(rng):
    # P^12 t^13 = t^23 P^12 for the permutation tensor
    for n in (2, 3):
        P = Tensor2.perm(n)
        for _ in range(5):
            t = random_sparse_tensor2(n, rng)
            lhs = embed(P, 12).mul(embed(t, 13))
            rhs = embed(t, 23).mul(embed(P, 12))
            assert lhs == rhs


def test_mul2_perm_squares_to_identity():
    for n in (2, 3, 4):
        P = Tensor2.perm(n)
        assert P.mul(P) == Tensor2.identity(n)


def test_perm_swaps_vectors():
    # P(w (x) v) = v (x) w, read off coefficientwise: P e_i1 ... via units:
    # (P (w (x) v))_{ab} = w_b v_a; check on basis vectors w = e_i, v = e_k
    # through P . (e_i1 (x) e_k1) = e_k1 (x) e_i1.
    n = 3
    P = Tensor2.perm(n)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            rank_one = unit2(n, i, 1, k, 1)
            assert P.mul(rank_one) == unit2(n, k, 1, i, 1)


def test_mul2_orthogonal_units_vanish():
    assert unit2(2, 1, 1, 1, 1).mul(unit2(2, 2, 2, 2, 2)).is_zero()


def test_mul_size_mismatch():
    import pytest

    with pytest.raises(ValueError):
        Tensor2.perm(2).mul(Tensor2.perm(3))


def test_mul2_against_dense_oracle(rng):
    n = 3
    for _ in range(5):
        a = random_sparse_tensor2(n, rng, nnz=5)
        b = random_sparse_tensor2(n, rng, nnz=5)
        got = a.mul(b)
        want = dense2_from_grid(dense2_mul(dense2(a), dense2(b), n), n)
        assert got == want


def test_mul3_against_dense_oracle(rng):
    n = 2
    for _ in range(3):
        a = random_sparse_tensor2(n, rng, nnz=4)
        b = random_sparse_tensor2(n, rng, nnz=4)
        got = embed(a, 12).mul(embed(b, 13))
        want = dense3_to_tensor(
            dense3_mul(dense3_embed(a, 12, n), dense3_embed(b, 13, n), n), n
        )
        assert got == want


# --- fused leg products against the materialised embeddings -------------

LEG_PAIRS = [(12, 13), (13, 12), (12, 23), (23, 12), (13, 23), (23, 13)]


def _coefficient(kind, rng):
    if kind == "fraction":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if kind == "complex":
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    # rational functions with unequal denominators: sums cross-multiply, so
    # their printed form depends on the order of summation
    num = rf(Fraction(rng.randint(1, 3))) * Y1 ** rng.randint(-1, 1)
    return num / (1 - Y1 ** rng.randint(1, 2))


def _random_coeffs(n, legs, kind, rng, nnz):
    return {
        tuple(rng.randint(1, n) for _ in range(2 * legs)): _coefficient(kind, rng)
        for _ in range(nnz)
    }


def _exact(t):
    """Entries in dict order with each value's repr: equal iff bits and order agree."""
    return [(key, repr(value)) for key, value in t.coeffs.items()]


KINDS = [("fraction", 3, 20), ("complex", 3, 20), ("ratfunc", 2, 6)]


@pytest.mark.parametrize("kind, n, nnz", KINDS)
@pytest.mark.parametrize("legs", LEG_PAIRS)
def test_fused_leg_product_matches_embedding(rng, legs, kind, n, nnz):
    for _ in range(4):
        a = Tensor2(n, _random_coeffs(n, 2, kind, rng, nnz))
        b = Tensor2(n, _random_coeffs(n, 2, kind, rng, nnz))
        got = a.mul(b, legs=legs)
        want = embed(a, legs[0]).mul(embed(b, legs[1]))
        assert isinstance(got, Tensor3)
        assert got.coeffs == want.coeffs
        assert _exact(got) == _exact(want)


@pytest.mark.parametrize("kind, n, nnz", KINDS)
@pytest.mark.parametrize("legs", [12, 13, 23])
def test_fused_three_leg_product_matches_embedding(rng, legs, kind, n, nnz):
    for _ in range(4):
        t = Tensor3(n, _random_coeffs(n, 3, kind, rng, 3 * nnz))
        b = Tensor2(n, _random_coeffs(n, 2, kind, rng, nnz))
        got = t.mul(b, legs=legs)
        want = t.mul(embed(b, legs))
        assert got.coeffs == want.coeffs
        assert _exact(got) == _exact(want)


def _dyadic(rng):
    """A small rational with a power-of-two denominator: exact as a float,
    and so are the sums of a few products of such numbers."""
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4)))


def _dyadic_tensor(n, rng, nnz):
    return Tensor2(n, {tuple(rng.randint(1, n) for _ in range(4)): _dyadic(rng)
                       for _ in range(nnz)})


@pytest.mark.parametrize("legs", [None, 12, 13, 23, 21])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_is_the_product_with_a_column(rng, legs, n):
    """T x, T compiled (CompiledTensor2.apply), equals T times x held as a
    column, on the embedding for placed legs, and on the swapped legs for
    21.  Dyadic entries keep the float sums exact."""
    k = 2 if legs in (None, 21) else 3
    column = Tensor2.column if k == 2 else Tensor3.column
    for _ in range(4):
        t = _dyadic_tensor(n, rng, 3 * n)
        x = [_dyadic(rng) for _ in range(n ** k)]
        placed = t if legs is None else t.flip21() if legs == 21 else embed(t, legs)
        assert column(n, t.float_form().apply(x, legs)) == placed.mul(column(n, x))


def _bits(values):
    """Each entry's type and the hex of both parts, so signed zeros and an
    untouched int 0 count."""
    return [(type(z).__name__, float(z.real).hex(), float(z.imag).hex()) for z in values]


@pytest.mark.parametrize("legs", [None, 12, 13, 23, 21])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lane_kernel_keeps_the_bits_of_the_per_entry_loop(rng, legs, n):
    """The lane kernel gives every entry the float sums of the per-entry
    loop it replaced (conftest.per_entry_apply), to the bit: complex
    coefficients, sparse and full, applied to unit vectors.  At n = 1 each
    lane has one index."""
    size = n ** (2 if legs in (None, 21) else 3)
    for nnz in (1, 2 * n, n ** 4):
        coeffs = {
            tuple(rng.randint(1, n) for _ in range(4)):
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nnz)
        }
        t = Tensor2(n, coeffs)
        x = unit_vector(rng, size)
        before = _bits(x)
        want = per_entry_apply(t, x, legs)
        # a float form of complex entries: one scalar per entry, its plan
        # made by the first apply and reused by the second
        compiled = t.float_form().at(())
        assert isinstance(compiled, CompiledTensor2) and len(compiled.scalars) == len(t.coeffs)
        for _ in range(2):
            assert _bits(compiled.apply(x, legs)) == _bits(want)
        assert list(compiled.lanes) == [legs]
        assert _bits(x) == before


@pytest.mark.parametrize("legs", [None, 12, 13, 23, 21])
def test_lane_kernel_differs_from_the_per_entry_loop_only_in_zero_signs(legs):
    """Each output row starts from its first product, not from int 0, so a
    product with a -0.0 part keeps it where the per-entry loop's 0 + p
    makes it +0.0.  The values are still equal under == and in magnitude,
    to the bit, and an output row with no entry stays int 0."""
    n = 3
    # the first output row of each lane has two entries, the second one,
    # the others none
    t = Tensor2(n, {
        (1, 1, 1, 1): complex(-1.0, -0.0), (1, 2, 2, 1): complex(0.5, 0.25),
        (1, 3, 1, 2): complex(-2.0, -0.0),
    })
    size = n ** (2 if legs in (None, 21) else 3)
    x = [complex(1.0 + k % 3, 0.0) for k in range(size)]
    got = t.float_form().apply(x, legs)
    want = per_entry_apply(t, x, legs)
    assert got == want
    assert [float(abs(z)).hex() for z in got] == [float(abs(z)).hex() for z in want]
    types = [type(z) for z in got]
    assert types == [type(z) for z in want] and int in types
    # the case this test exists for: a -0.0 kept by the kernel only
    signs = [(z.imag.hex(), w.imag.hex()) for z, w in zip(got, want) if type(z) is complex]
    assert ("-0x0.0p+0", "0x0.0p+0") in signs


def _zero_signs_dropped(values):
    """_bits with each zero part read as "0": the kernel may differ from
    the per-entry loop in the sign of an exact zero only."""
    return [(type(z).__name__, *(float(p).hex() if p else "0" for p in (z.real, z.imag)))
            for z in values]


def test_kernel_continues_a_long_row_in_further_statements(rng):
    """One output row of 5041 products, every column of row (1, 1) at
    n = 71, compiles and sums as the per-entry loop does."""
    n = 71
    t = Tensor2(n, {(1, j, 1, l): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for j in range(1, n + 1) for l in range(1, n + 1)})
    x = unit_vector(rng, n * n)
    got = t.float_form().apply(x)
    assert _bits(got) == _bits(per_entry_apply(t, x))
    assert type(got[0]) is complex and got[1:] == [0] * (n * n - 1)


@pytest.mark.parametrize("legs", [None, 12, 13, 23, 21])
def test_kernel_keeps_the_bits_of_the_per_entry_loop_on_special_floats(rng, legs):
    """NaN, inf, -0.0 and 1e308 in the scalars, and so inf - inf and
    overflow in the sums, give the per-entry loop's bits but for the sign
    of a zero."""
    n = 3
    special = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 0.5)
    size = n ** (2 if legs in (None, 21) else 3)
    for _ in range(10):
        t = Tensor2(n, {
            tuple(rng.randint(1, n) for _ in range(4)):
            complex(rng.choice(special), rng.choice(special)) for _ in range(2 * n * n)
        })
        x = unit_vector(rng, size)
        assert _zero_signs_dropped(t.float_form().apply(x, legs)) == _zero_signs_dropped(
            per_entry_apply(t, x, legs))


@pytest.mark.parametrize("legs", [None, 12, 13, 23, 21])
def test_kernel_of_an_empty_tensor_and_at_n_1(rng, legs):
    """An empty tensor gives int 0 on every row; at n = 1 a lane has one
    entry.  Both as the per-entry loop."""
    for n, coeffs in ((3, {}), (1, {}), (1, {(1, 1, 1, 1): complex(0.25, -2.0)})):
        t = Tensor2(n, coeffs)
        x = unit_vector(rng, n ** (2 if legs in (None, 21) else 3))
        got = t.float_form().apply(x, legs)
        assert _bits(got) == _bits(per_entry_apply(t, x, legs))
        assert (type(got[0]) is int) == (not coeffs)


def test_at_copies_share_one_kernel(rng, monkeypatch):
    """Two at() copies of one float form, applied on three legs, build one kernel."""
    from yangbaxter import tensors

    built = []
    kernel = tensors._kernel

    def counted(*args):
        built.append(args)
        return kernel(*args)

    monkeypatch.setattr(tensors, "_kernel", counted)
    n = 3
    x = unit_vector(rng, n ** 3)
    t = Tensor2(n, {(1, 2, 2, 1): X1 + 1, (2, 2, 3, 3): Y1 * 2, (3, 1, 3, 1): Fraction(1, 2)})
    form = t.float_form()
    first, second = form.at((0.1j, 0.2, 0.3, 0.4j)), form.at((0.5, 0.6j, 0.7, 0.8))
    for copy, legs in ((first, 12), (second, 13), (first, 23), (second, 12)):
        want = per_entry_apply(Tensor2(n, compiled_entries(t, copy)), x, legs)
        assert copy.apply(x, legs) == want
    assert len(built) == 1 and first.kernel is second.kernel is form.kernel


def test_column_and_apply_examples():
    assert Tensor2.column(2, [5, 0, 0, 7]).coeffs == {(1, 1, 1, 1): 5, (2, 1, 2, 1): 7}
    # a vector of the wrong length is refused, not cut short or padded
    for cls, values in ((Tensor2, [1, 2]), (Tensor2, [1] * 5), (Tensor3, [1] * 4)):
        with pytest.raises(ValueError, match="vector of length"):
            cls.column(2, values)
    # e_12 (x) 1 on legs 2, 3 of V (x) V (x) V moves entry (i, 2, m) to (i, 1, m)
    x = list(range(8))
    y = (unit2(2, 1, 2, 1, 1) + unit2(2, 1, 2, 2, 2)).float_form().apply(x, 23)
    assert y == [2, 3, 0, 0, 6, 7, 0, 0]
    assert unit2(2, 1, 2, 1, 1).float_form().apply([1, 2, 3, 4]) == [3, 0, 0, 0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_product_is_the_formed_product_on_a_column(rng, n):
    """a12 b13 c23 and P Q applied to x, right factor first, are lists
    that as columns equal the formed products times x held as a column.
    Dyadic entries keep the float sums exact."""
    a, b, c = (_dyadic_tensor(n, rng, 3 * n) for _ in range(3))
    fa, fb, fc = (t.float_form() for t in (a, b, c))
    x = [_dyadic(rng) for _ in range(n ** 3)]
    formed = a.mul(b, legs=(12, 13)).mul(c, legs=23)
    got = apply_product(x, ((fa, 12), (fb, 13), (fc, 23)))
    assert isinstance(got, list) and len(got) == n ** 3
    assert Tensor3.column(n, got) == formed.mul(Tensor3.column(n, x))
    y = x[: n * n]
    got = apply_product(y, ((fa, None), (fb, None)))
    assert isinstance(got, list) and len(got) == n * n
    assert Tensor2.column(n, got) == a.mul(b).mul(Tensor2.column(n, y))


def test_apply_product_applies_a_shared_suffix_once(rng, monkeypatch):
    """With one applied dict, products ending in the same factors apply
    them once, and each result equals the one made without the dict."""
    n = 3
    a, b, c = (_dyadic_tensor(n, rng, 3 * n).float_form() for _ in range(3))
    x = [_dyadic(rng) for _ in range(n ** 3)]
    products = (((a, 12), (b, 13)), ((c, 23), (b, 13)), ((b, 12), (b, 13)), ((a, 13), (b, 13)))
    fresh = [apply_product(x, factors) for factors in products]
    calls = []
    apply = CompiledTensor2.apply

    def counted(self, x, legs=None):
        calls.append((self, legs))
        return apply(self, x, legs)

    monkeypatch.setattr(CompiledTensor2, "apply", counted)
    applied = {}
    assert [apply_product(x, factors, applied) for factors in products] == fresh
    # b13 once, then each product's left factor: a12, c23, b12, a13
    assert len(calls) == 5
    assert apply_product(x, ((a, 12), (b, 13)), applied) == fresh[0]
    assert len(calls) == 5


def _planted_vectors(rng, count, size):
    """count lists of random complex entries with exact zeros of every
    kind planted, some at the same index in every list."""
    zeros = (0, 0j, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0))
    shared = rng.sample(range(size), 3)
    vectors = []
    for _ in range(count):
        v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)]
        for i in shared + rng.sample(range(size), 6):
            v[i] = rng.choice(zeros)
        vectors.append(v)
    return vectors


@pytest.mark.parametrize("count", [1, 2, 3, 6])
def test_signed_sum_keeps_the_bits_of_the_column_sums(rng, count):
    """signed_sum equals the columns summed with Tensor + and - in the same
    grouping, (c0 +- c1) + (c2 +- c3) + ...: the same entries after zeros
    are dropped, each to the bit.  max_magnitude is the columns' largest
    max_abs."""
    n = 3
    for _ in range(10):
        vectors = _planted_vectors(rng, count, n ** 3)
        signs = [rng.choice((1, -1)) for _ in vectors]
        columns = [Tensor3.column(n, v) for v in vectors]
        pairs = [
            columns[k] if k + 1 == count
            else columns[k] + columns[k + 1] if signs[k + 1] > 0 else columns[k] - columns[k + 1]
            for k in range(0, count, 2)
        ]
        want = sum(pairs[1:], pairs[0]).coeffs
        got = Tensor3.column(n, signed_sum(signs, vectors)).coeffs
        assert got.keys() == want.keys() and len(got) < n ** 3
        for k, z in got.items():
            assert (z.real.hex(), z.imag.hex()) == (want[k].real.hex(), want[k].imag.hex())
        assert max_magnitude(vectors).hex() == max(c.max_abs() for c in columns).hex()
    assert max_magnitude([[0, 0j, -0.0]]).hex() == (0.0).hex()


def test_float_form_shares_scalars_with_the_same_ordered_terms():
    """Entries with the same terms in the same order share one float form;
    equal entries with their terms in another order do not."""
    p = LaurentPoly({(1, 0, 0, 0): 2, (0, 0, 1, 0): Fraction(1, 3)})
    q = LaurentPoly({(0, 0, 1, 0): Fraction(1, 3), (1, 0, 0, 0): 2})
    assert p == q and list(p.terms) != list(q.terms)
    den = rf(1) - rf(Y1)
    t = Tensor2(2, {
        (1, 1, 1, 1): rf(p) / den, (1, 1, 2, 2): rf(p) / den, (2, 2, 1, 1): rf(q) / den,
        (2, 2, 2, 2): p, (1, 2, 2, 1): Fraction(3, 2),
    })
    assert list(t.coeffs[(1, 1, 1, 1)].num.terms) != list(t.coeffs[(2, 2, 1, 1)].num.terms)
    compiled = t.float_form()
    floats = compiled_entries(t, compiled)
    assert floats[(1, 1, 1, 1)] is floats[(1, 1, 2, 2)]
    assert floats[(2, 2, 1, 1)] is not floats[(1, 1, 1, 1)]
    assert floats[(1, 2, 2, 1)] == 1.5 + 0j
    assert len(compiled.scalars) == 4
    logs = (0.3 + 0.2j, 0.1j, 0.7, -0.4j)
    got = compiled_entries(t, compiled.at(logs))
    assert got == {k: v.evaluate(logs) if hasattr(v, "evaluate") else complex(v)
                   for k, v in t.coeffs.items()}
    assert list(got) == list(t.coeffs)


def test_unit_vector_draws_unit_modulus_entries_from_the_rng():
    import random

    x = unit_vector(random.Random(3), 50)
    assert len(x) == 50 and len(set(x)) == 50
    assert all(abs(abs(z) - 1) < 1e-15 for z in x)
    assert x == unit_vector(random.Random(3), 50)


def test_apply_rejects_unknown_legs_and_wrong_lengths():
    t = Tensor2.perm(2).float_form()
    with pytest.raises(ValueError, match="legs 32"):
        t.apply([0] * 4, 32)
    with pytest.raises(ValueError):
        t.apply([0] * 8, 21)
    with pytest.raises(ValueError):
        t.apply([0] * 8)
    with pytest.raises(ValueError):
        t.apply([0] * 4, 12)


def test_products_reject_unknown_legs_and_wrong_factors():
    a = Tensor2.perm(2)
    t = embed(a, 12)
    with pytest.raises(ValueError):
        a.mul(a, legs=(12, 12))
    with pytest.raises(ValueError):
        t.mul(a, legs=(12, 13))
    # a factor with the wrong number of legs would otherwise contract silently
    for bad in (lambda: a.mul(t), lambda: a.mul(t, legs=(12, 13)),
                lambda: t.mul(a), lambda: t.mul(t, legs=23)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("kind, n, nnz", KINDS)
def test_sub_equals_adding_the_negation(rng, kind, n, nnz):
    for _ in range(4):
        a = Tensor2(n, _random_coeffs(n, 2, kind, rng, nnz))
        shared = dict(list(a.coeffs.items())[:3])  # entries that cancel exactly in a - b
        b = Tensor2(n, {**_random_coeffs(n, 2, kind, rng, nnz), **shared})
        assert _exact(a - b) == _exact(a + (-b))
        x, y = embed(a, 13), embed(b, 12)
        assert _exact(x - y) == _exact(x + (-y))
        assert all((a - b).coeffs.values())


def test_flip21_examples():
    n = 4
    P = Tensor2.perm(n)
    assert P.flip21() == P
    assert unit2(n, 1, 2, 3, 4).flip21() == unit2(n, 3, 4, 1, 2)


def test_flip21_involution_and_antihomomorphism(rng):
    n = 3
    for _ in range(5):
        a = random_sparse_tensor2(n, rng)
        b = random_sparse_tensor2(n, rng)
        assert a.flip21().flip21() == a
        assert a.mul(b).flip21() == a.flip21().mul(b.flip21())


def test_p_conjugation_is_flip(rng):
    n = 3
    P = Tensor2.perm(n)
    for _ in range(5):
        t = random_sparse_tensor2(n, rng)
        assert P.mul(t).mul(P) == t.flip21()


def test_project_traceless_examples():
    n = 3
    one = Tensor2.identity(n)
    assert one.project_traceless((1,)).is_zero()
    p0 = perm_diag(n)
    got = p0.project_traceless((1, 2))
    want = p0 - one.scale(Fraction(1, n))
    assert got == want
    offdiag = unit2(n, 1, 2, 2, 1)
    assert offdiag.project_traceless((1, 2)) == offdiag


def test_weight_contract_examples():
    n = 2
    p0 = perm_diag(n)
    alpha = [Fraction(1), Fraction(-1)]
    assert weight_contract(p0, alpha, alpha) == 2
    # CG n=3 closed-form s contracted with alpha_1, alpha_2 -> 1/2
    s = Tensor2(3, {
        (1, 1, 2, 2): Fraction(1, 6), (2, 2, 1, 1): Fraction(-1, 6),
        (1, 1, 3, 3): Fraction(-1, 6), (3, 3, 1, 1): Fraction(1, 6),
        (2, 2, 3, 3): Fraction(1, 6), (3, 3, 2, 2): Fraction(-1, 6),
    })
    a1 = [Fraction(1), Fraction(-1), Fraction(0)]
    a2 = [Fraction(0), Fraction(1), Fraction(-1)]
    assert weight_contract(s, a1, a2) == Fraction(1, 2)
    # antisymmetric diagonal tensor against equal weights vanishes
    assert weight_contract(s, a1, a1) == 0


def test_gauge_conjugate_zero_phi():
    n = 3
    t = random_sparse_tensor2(n, __import__("random").Random(5), nnz=5)
    assert gauge_conjugate(t, [0, 0, 0]) == t.map_scalars(rf)


def test_gauge_conjugate_monomial_factors():
    # entry at e_ij (x) e_kl picks up exp((phi_j - phi_k) u)
    n = 2
    t = unit2(n, 1, 2, 2, 1)
    got = gauge_conjugate(t, [Fraction(1, 2), Fraction(0)])
    # phi_j - phi_k = phi_2 - phi_2 = 0 here
    assert got == t.map_scalars(rf)
    t2 = unit2(n, 2, 1, 2, 2)
    got2 = gauge_conjugate(t2, [Fraction(1, 2), Fraction(0)])
    # phi_1 - phi_2 = 1/2: factor e^{u/2} = X1^(2n/2) = X1^2
    assert got2.coeffs[(2, 1, 2, 2)] == rf(1) * X1**2


def test_gauge_conjugate_reads_n_from_the_tensor():
    """The monomial rate 2n comes from the tensor, and a phi of another
    length than t.n is refused."""
    t = unit2(3, 2, 1, 2, 2)
    got = gauge_conjugate(t, [Fraction(1, 2), Fraction(0), Fraction(0)])
    # phi_1 - phi_2 = 1/2: factor e^{u/2} = X1^(2n/2) = X1^3 at n = 3
    assert got.n == 3
    assert got.coeffs[(2, 1, 2, 2)] == rf(1) * X1**3
    for phi in ([Fraction(1, 2), Fraction(0)], [Fraction(1, 2), 0, 0, 0]):
        with pytest.raises(ValueError):
            gauge_conjugate(t, phi)


def test_weight_zero_rule():
    assert weight_zero_ok(Tensor2.perm(3))
    assert weight_zero_ok(Tensor2.identity(3))
    assert not weight_zero_ok(unit2(3, 1, 2, 1, 1))


def test_variables_used():
    from yangbaxter.scalars import Y1
    from yangbaxter.tensors import variables_used

    assert variables_used(Tensor2.perm(2)) == set()
    spectral = Tensor2.perm(2).scale((1 - Y1) ** -1).scale(rf(1) * X1)
    assert variables_used(spectral) == {"X1", "Y1"}


def test_substitute_keeps_laurent_entries_laurent():
    t = Tensor2(1, {(1, 1, 1, 1): LaurentPoly({(0, 0, 1, 0): 2, (0, 0, 0, 0): -1})})
    out = t.substitute(SLOTS["u,v+v'"])
    assert out.coeffs == {(1, 1, 1, 1): LaurentPoly({(0, 0, 1, 1): 2, (0, 0, 0, 0): -1})}
    assert isinstance(out.coeffs[(1, 1, 1, 1)], LaurentPoly)
    assert t.map_scalars(rf).substitute(SLOTS["u,v+v'"]).coeffs == {
        (1, 1, 1, 1): rf(2) * Y1 * Y2 - 1
    }
    # a number goes through rf
    number = Tensor2(1, {(1, 1, 1, 1): Fraction(3, 2)}).substitute(SLOTS["-u,-v"])
    assert type(number.coeffs[(1, 1, 1, 1)]) is RatFunc
    assert number.coeffs == {(1, 1, 1, 1): rf(Fraction(3, 2))}


def test_three_leg_pretty_and_repr():
    t = Tensor3(2, {
        (2, 2, 1, 1, 1, 2): Fraction(-3),
        (1, 2, 2, 1, 1, 1): Fraction(1, 2),
        (1, 1, 1, 1, 1, 1): Fraction(0),
    })
    assert t.pretty() == "t_{1,2,1}^{2,1,1} = 1/2\nt_{2,1,1}^{2,1,2} = -3"
    assert repr(t) == "Tensor3(n=2, nnz=2)"
    assert repr(Tensor2.perm(3)) == "Tensor2(n=3, nnz=9)"
    assert Tensor3(2).pretty() == ""


def test_three_leg_weight_zero_rule():
    assert weight_zero_ok(embed(Tensor2.perm(3), 13))
    assert weight_zero_ok(Tensor3(2, {(1, 2, 2, 1, 1, 1): Fraction(1)}))
    # i + k + m = 3 but j + l + p = 4
    assert not weight_zero_ok(Tensor3(2, {(1, 2, 1, 1, 1, 1): Fraction(1)}))


def test_three_leg_project_traceless_examples():
    # 1 (x) 1 (x) 1 has no traceless part on any leg
    one3 = embed(Tensor2.identity(2), 12)
    assert one3.project_traceless((1, 2, 3)).is_zero()
    assert one3.project_traceless((3,)).is_zero()
    # P_12 projected on legs 1 and 2 is (P - 1 (x) 1 / 2) (x) 1 at n = 2
    half = Fraction(1, 2)
    want = {}
    for m in (1, 2):
        want.update({
            (1, 1, 1, 1, m, m): half, (2, 2, 2, 2, m, m): half,
            (1, 1, 2, 2, m, m): -half, (2, 2, 1, 1, m, m): -half,
            (1, 2, 2, 1, m, m): Fraction(1), (2, 1, 1, 2, m, m): Fraction(1),
        })
    assert embed(Tensor2.perm(2), 12).project_traceless((1, 2)).coeffs == want
    # projecting leg 3 as well removes its identity factor, leaving zero
    assert embed(Tensor2.perm(2), 12).project_traceless((1, 2, 3)).is_zero()


def test_project_traceless_keeps_int_coefficients_exact():
    # an int coefficient is divided exactly, never as a float
    got = Tensor2.perm(3).map_scalars(int).project_traceless((1, 2))
    assert got == Tensor2.perm(3).project_traceless((1, 2))
    assert Fraction(2, 3) in got.coeffs.values()
    assert not any(isinstance(v, float) for v in got.coeffs.values())
    cube = embed(Tensor2.perm(3).map_scalars(int), 12).project_traceless((1, 2, 3))
    assert not any(isinstance(v, float) for v in cube.coeffs.values())
    # a multiple of n stays an int
    triple = Tensor2.perm(3).map_scalars(lambda v: 3 * int(v))
    assert {type(v) for v in triple.project_traceless((1,)).coeffs.values()} == {int}


def test_product_sum_is_the_sum_of_the_scaled_products(rng):
    for n in (2, 3):
        x, y, z = (random_sparse_tensor2(n, rng, nnz=6) for _ in range(3))
        terms = [(1, x, y, (12, 13)), (-2, y, x, (13, 12)), (3, z, x, (23, 12))]
        want = x.mul(y, legs=(12, 13)) - y.mul(x, legs=(13, 12)).scale(2)
        want = want + z.mul(x, legs=(23, 12)).scale(3)
        assert product_sum(terms) == want
        # terms sharing a right factor and legs are contracted once, on their sum
        terms.append((5, z, y, (12, 13)))
        assert product_sum(terms) == want + z.mul(y, legs=(12, 13)).scale(5)
        # terms that cancel leave no zero coefficient behind
        assert product_sum([(1, x, y, None), (-1, x, y, None)]).coeffs == {}
    with pytest.raises(ValueError):
        product_sum([(1, x, y, 12)])


def test_project_traceless_rejects_missing_legs():
    # a leg number the tensor does not have is an error, not some other leg
    for t, leg in ((Tensor2.perm(2), 3), (Tensor2.perm(2), 0), (embed(Tensor2.perm(2), 12), 0)):
        with pytest.raises(ValueError):
            t.project_traceless((leg,))


def _r_quantum(n):
    from yangbaxter.builders import build_r_uv

    from conftest import cg_structure

    return build_r_uv(cg_structure(n), formula="quantum")


def test_cleared_over_the_lcm_of_the_binomial_factors():
    """r(u,v) clears over (Y1 - 1)(X1^(2n) - 1), not over the product of
    its distinct entry denominators, which holds that lcm's factors twice:
    its catalogue's factors are the two binomials, each to the power 1
    (test_catalogue_sums_back_to_the_tensor checks the numerators)."""
    from yangbaxter.scalars import X1 as x1

    for n in (2, 3, 4):
        factors, _ = _r_quantum(n).catalogue()
        y, x = (rf(Y1).num - 1), (rf(x1 ** (2 * n)).num - 1)
        assert sorted(f.terms.items() for f, _ in factors) == sorted(
            p.terms.items() for p in (y, x)
        )
        assert [m for _, m in factors] == [1, 1]


def _mixed_denominators():
    """Entries over Y1 - 1, (Y1 - 1)^2, 1 and Y1, with Fraction coefficients."""
    y = rf(1) - Y1
    return Tensor2(2, {
        (1, 1, 1, 1): Fraction(1, 2) / y,
        (1, 2, 2, 1): Fraction(2, 3) * Y1 / (y * y),
        (2, 2, 1, 1): Fraction(3, 4),
        (2, 1, 1, 2): rf(Y1) ** -1,
    })


def test_catalogue_sums_back_to_the_tensor():
    inputs = [_r_quantum(n) for n in (2, 3, 4)]
    inputs += [_mixed_denominators(), Tensor2.perm(2).scale(Fraction(1, 2)), Tensor2(2)]
    for r in inputs:
        factors, functions = r.catalogue()
        den = rf(1)
        for f, m in factors:
            den = den * rf(f) ** m
        total = {}
        for f, a in functions:
            assert {type(c) for c in a.coeffs.values()} == {int}
            for key, c in a.coeffs.items():
                total[key] = total.get(key, rf(0)) + rf(f.scale(c))
        assert set(total) == set(r.coeffs)
        for key, value in r.coeffs.items():
            assert total[key] / den == value
    for r in inputs[:3]:
        # the numerators merge into few functions, each named once
        keys = [tuple(f.terms.items()) for f, _ in r.catalogue()[1]]
        assert len(set(keys)) == len(keys) < len(r.coeffs)
    # over (Y1 - 1)^2, the lcm of Y1 - 1 and (Y1 - 1)^2, not their product
    factors, _ = _mixed_denominators().catalogue()
    assert [(f.associate()[2], m) for f, m in factors] == [
        ((LaurentPoly.monomial((0, 0, 1, 0)) - 1).associate()[2], 2)
    ]
    # a constant tensor is one function, 1 over the lcm of its denominators
    assert Tensor2.perm(2).scale(Fraction(1, 2)).catalogue() == (
        (), ((LaurentPoly.const(Fraction(1, 2)), Tensor2.perm(2).map_scalars(int)),)
    )
    assert Tensor2(2).catalogue() == ((), ())


# sha256 of the kernel's output bits on the cg8 inputs below, recorded
# before the per-entry loop gave way to the generated kernel
CG8_APPLY_BITS_DIGEST = "9444017964f8dd59ef20c1154f1dc71651564663000c51fb7a6d74cbf9424265"


def test_apply_keeps_its_bits_on_cg8_inputs():
    """The first Cremmer-Gervais structure at n = 8: R_assoc, Hecke's M and
    N (verify._slot_inputs), r_kernel and hat_r(r_ts), each evaluated at
    one seeded sample point and applied on every legs value to one seeded
    unit vector, give output entries of the recorded types and bits."""
    import hashlib
    import random

    from yangbaxter import cli, verify
    from yangbaxter.builders import hat_r
    from yangbaxter.scalars import log_point
    from yangbaxter.triples import compatible_permutations, enumerate_cg_triples, s0_from_structure

    _, triple = next(iter(enumerate_cg_triples(8)))
    st = compatible_permutations(triple)[0]
    m = cli._Matrices(triple, s0_from_structure(st), st)
    inputs = [m.R_assoc, *verify._slot_inputs("hecke", m.R_assoc), m.r_kernel, hat_r(m.r_ts)]
    rng = random.Random(33)
    point, _ = verify._clear_point(rng)
    x = unit_vector(rng, 8 ** 3)
    digest = hashlib.sha256()
    for t in inputs:
        compiled = t.float_form().at(log_point(*point, 8))
        for legs in (None, 21, 12, 13, 23):
            y = compiled.apply(x if legs in (12, 13, 23) else x[:64], legs)
            digest.update(repr(_bits(y)).encode())
    assert digest.hexdigest() == CG8_APPLY_BITS_DIGEST


def test_apply_calls_its_kernel_once_looping_over_the_lanes(rng):
    """One apply is one kernel call whatever the legs: the kernel loops
    over the n lanes of a 3-leg vector itself."""
    n = 3
    t = _dyadic_tensor(n, rng, 3 * n)
    form = t.float_form()
    x = [_dyadic(rng) for _ in range(n ** 3)]
    form.apply(x, 12)
    calls, kernel = [], form.kernel[0]
    form.kernel[0] = lambda *args: calls.append(args) or kernel(*args)
    for legs in (12, 13, 23):
        assert form.apply(x, legs) == per_entry_apply(t, x, legs)
    assert form.apply(x[: n * n]) == per_entry_apply(t, x[: n * n])
    assert len(calls) == 4 and [len(gathers) for _, _, gathers in calls] == [n, n, n, 1]


def test_apply_at_n1_reads_each_one_entry_lane_as_a_sequence():
    """At n = 1 every lane holds one entry, which a slice getter still
    returns as a sequence for the kernel to unpack, on every placement."""
    form = Tensor2(1, {(1, 1, 1, 1): Fraction(2)}).float_form()
    assert form.apply([3.0]) == form.apply([3.0], 21) == [6.0]
    for legs in (12, 13, 23):
        assert form.apply([3.0], legs) == [6.0]


def _matrices(n):
    """(label, tensor) for the matrices the suites build at n: r_{T,s},
    hat_r(r_{T,s}) and the general R at each point of each triple's
    s-family, and R_assoc, its baxterization, the kernel Y and both routes
    of r(u,v) for each compatible structure at s0."""
    from yangbaxter import builders
    from yangbaxter.triples import compatible_permutations, enumerate_triples, s0_from_structure

    from conftest import s_family

    for t in enumerate_triples(n):
        for s in s_family(t):
            r = builders.build_r_ts(t, s)
            yield f"r_ts {t} {s}", r
            yield f"hat_r {t} {s}", builders.hat_r(r)
            yield f"R_general {t} {s}", builders.build_R_ggs_general(t, s)
        for a in compatible_permutations(t):
            s0 = s0_from_structure(a)
            R = builders.build_R_ggs_assoc(a, s0)
            yield f"R_assoc {a}", R
            yield f"baxterized {a}", builders.baxterize(R)
            yield f"y {a}", builders.build_y(a)
            for formula in ("quantum", "kernel"):
                yield f"r_uv {formula} {a}", builders.build_r_uv(a, s0, formula=formula)


def _text(v):
    """A scalar's type and its ordered terms (tensors._terms_key), every
    number by repr, so an int and an equal Fraction differ."""
    from yangbaxter.tensors import _terms_key

    return type(v).__name__, repr(_terms_key(v) or v)


def _maps(t):
    """(label, entries in dict order, each as _text) of every entrywise
    map the tensors memoise, and of the catalogue's functions, on t."""
    from yangbaxter.builders import q_minus_qinv

    def entries(u):
        return [(k, _text(v)) for k, v in u.coeffs.items()]

    flip = t.flip21()
    yield "neg", entries(-t)
    yield "add", entries(t + flip)
    yield "sub", entries(t - flip)
    for c in (q_minus_qinv(t.n), X1 + 2, Fraction(3, 2)):
        yield f"scale {c}", entries(t.scale(c))
    yield "rf", entries(t.map_scalars(rf))
    for label in ("u,-v", "-u,-v", "u,v+v'"):
        yield f"substitute {label}", entries(t.substitute(SLOTS[label]))
    factors, functions = t.catalogue()
    yield "catalogue", [(repr(sorted(f.terms.items())), m) for f, m in factors] + [
        (repr(list(f.terms.items())), sorted(a.coeffs.items())) for f, a in functions]


def test_memoised_maps_equal_the_per_entry_maps_on_every_matrix_up_to_n4(monkeypatch):
    """With each distinct scalar's work done once (tensors._memo and the
    builders' caches), every matrix with n <= 4 and every entrywise map
    of it and of it with its least coefficient + 1 has the entries, their
    order, their types and their ordered terms that the same code gives
    when every entry is computed on its own."""
    from yangbaxter import builders, tensors

    def plus_one(t):
        coeffs = dict(t.coeffs)
        key = min(coeffs)
        coeffs[key] = coeffs[key] + 1
        return Tensor2(t.n, coeffs)

    def run():
        out = []
        for n in (2, 3, 4):
            for label, t in _matrices(n):
                out.append((label, [(k, _text(v)) for k, v in t.coeffs.items()]))
                out += [(label, *m) for u in (t, plus_one(t)) for m in _maps(u)]
        return out

    memoised = run()
    monkeypatch.setattr(tensors, "_memo", lambda fn: fn)
    monkeypatch.setattr(builders, "cache", lambda fn: fn)
    assert run() == memoised
    assert len(memoised) > 3000


def test_a_laurentpoly_and_a_ratfunc_with_equal_terms_keep_their_own_results():
    """The memo keys a LaurentPoly apart from a RatFunc with the same
    numerator and denominator 1, so each keeps the type of its own result,
    in every memoised map and in the float form."""
    p = X1.num * 2 + 1
    t = Tensor2(2, {(1, 1, 1, 1): p, (1, 1, 2, 2): rf(p), (2, 2, 1, 1): p, (2, 2, 2, 2): rf(p)})
    lp, ratf = ["LaurentPoly", "RatFunc"] * 2, ["RatFunc"] * 4
    for u, types in ((-t, lp), (t.scale(3), lp), (t.map_scalars(lambda v: v * p), lp),
                     (t + t, lp), (t - t, []), (t.map_scalars(rf), ratf)):
        assert [type(v).__name__ for v in u.coeffs.values()] == types
    floats = compiled_entries(t, t.float_form())
    assert type(floats[(1, 1, 1, 1)]).__name__ == "_FloatPoly"
    assert type(floats[(1, 1, 2, 2)]) is RatFunc
    assert floats[(1, 1, 1, 1)] is floats[(2, 2, 1, 1)]
    assert floats[(1, 1, 2, 2)] is floats[(2, 2, 2, 2)]
