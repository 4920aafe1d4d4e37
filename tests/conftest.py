"""Shared fixtures and independent dense oracles.

The dense helpers re-implement the tensor products with plain nested
loops over full index ranges, deliberately avoiding the sparse engine,
so that engine results can be cross-checked against a second code path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from yangbaxter.scalars import LaurentPoly, RatFunc
from yangbaxter.triples import (
    BDTriple,
    Root,
    compatible_permutations,
    enumerate_cg_triples,
    simple_root,
    solve_linear,
    solve_s_system,
)
from yangbaxter.tensors import Tensor2, Tensor3


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def reversing5():
    """The orientation-reversing n=5 triple: T(a1)=a4, T(a2)=a3."""
    return BDTriple.make(5, {1: 4, 2: 3})


def cg_structure(n, m=1):
    for mm, t in enumerate_cg_triples(n):
        if mm == m:
            perms = compatible_permutations(t)
            assert len(perms) == 1
            return perms[0]
    raise ValueError(f"no CG triple with m={m}")


def trivial_structures(n):
    return compatible_permutations(BDTriple.make(n, {}))


def s_family(t):
    """The s-points of a triple: its particular s, and that plus each basis vector."""
    particular, basis = solve_s_system(t)
    return [particular] + [particular + b for b in basis]


def random_sparse_tensor2(n, rng, nnz=4):
    coeffs = {}
    for _ in range(nnz):
        key = tuple(rng.randint(1, n) for _ in range(4))
        coeffs[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Tensor2(n, coeffs)


def perm_diag(n):
    """P^0 = sum e_ii (x) e_ii, the diagonal part of P."""
    return Tensor2(n, {(i, i, i, i): Fraction(1) for i in range(1, n + 1)})


def tensor2_from_json(doc):
    """The tensor of a builders.tensor2_to_json document, entries as RatFunc."""

    def poly(terms):
        return LaurentPoly({tuple(map(Fraction, exps)): Fraction(c) for exps, c in terms})

    out = {}
    for entry in doc["entries"]:
        (i, k), (j, l) = entry["rows"], entry["cols"]
        out[(i, j, k, l)] = RatFunc(poly(entry["num"]), poly(entry["den"]))
    return Tensor2(doc["n"], out)


# --- oracles for the weight, s0 and gauge checks --------------------------


def weight_contract(t, w1, w2):
    """sum_ij w1_i w2_j coeff(i, i, j, j); w1, w2 are length-n vectors."""
    return sum(
        (w1[i - 1] * w2[k - 1] * v for (i, j, k, l), v in t.coeffs.items() if i == j and k == l),
        Fraction(0),
    )


def weight_zero_ok(t):
    """The index rule i + k = j + l (i + k + m = j + l + p on three legs) on the support."""
    return all(sum(key[0::2]) == sum(key[1::2]) for key in t.coeffs)


def check_s0_identities(s0, a):
    """[(e_i - e_{~T i}) (x) 1] s0 = 1/2 [(e_i + e_{~T i}) (x) 1] P' for every i, j.

    P' is the traceless projection of P^0.
    """
    n = a.n
    return all(
        s0.get(i, j) - s0.get(a.apply(i), j)
        == Fraction(int(i == j) + int(a.apply(i) == j), 2) - Fraction(1, n)
        for i in range(1, n + 1) for j in range(1, n + 1)
    )


def phi_space(t):
    """Rational basis of {Phi diagonal : (alpha, Phi) = (T alpha, Phi)}."""
    n = t.n
    rows = [
        {c: p - q for c, (p, q) in enumerate(zip(simple_root(a).weights(n),
                                                  simple_root(b).weights(n))) if p != q}
        for a, b in t.pairs
    ]
    return [tuple(v) for v in solve_linear(rows, [Fraction(0)] * len(rows), n)[1]]


# --- dense and segment-walk oracles for triples.py --------------------------


def dense_solve_linear(rows, rhs, ncols):
    """Particular solution and nullspace basis by dense Gauss-Jordan elimination.

    rows are full lists of Fractions.  Pivots are taken column by column
    on the first remaining row that is nonzero there, and each pivot row
    is cleared from all the others.  Returns (particular | None, basis).
    """
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] = rhs[r] * inv
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                # skipping the pivot row's zeros keeps the oracle fast enough at n = 16
                rows[k] = [x - f * y if y else x for x, y in zip(rows[k], rows[r])]
                rhs[k] = rhs[k] - f * rhs[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(rhs[r:]):
        return None, []
    particular = [Fraction(0)] * ncols
    for k, c in enumerate(pivots):
        particular[c] = rhs[k]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -rows[k][f]
        basis.append(v)
    return particular, basis


def segment_walk(t, alpha):
    """(k, T^k alpha, C) for k = 1, 2, ..., tracking the image of alpha's left end.

    Each step maps every simple summand of the current segment through T
    and takes the sorted images as the next segment; C is 0 when the
    tracked left end lands on the new segment's left end, 1 on its right
    end.
    """
    tm = t.t_map
    seg, left = alpha, alpha.i
    for k in range(1, t.n + 1):
        summands = list(seg.simples())
        if any(a not in tm for a in summands):
            return
        image = sorted(tm[a] for a in summands)
        lo = image[0]
        if image != list(range(lo, lo + len(summands))):
            raise RuntimeError("image of a segment is not a segment")
        seg, left = Root(lo, lo + len(summands)), tm[left]
        if alpha.length == 1 or left == seg.i:
            c = 0
        elif left == seg.j - 1:
            c = 1
        else:
            raise RuntimeError("the tracked left end left the segment endpoints")
        yield k, seg, c


# --- dense oracles (independent of the sparse engine) ---------------------


def embed(t, legs):
    """The Tensor2 t placed on legs 12, 13 or 23 of the 3-fold product.

    The identity fills the leg left out.  Entries come in t's dict order,
    each with the identity's index ascending, which is the order the fused
    products sum them in, so products of embeddings are their bit-exact
    reference.
    """
    gap = 2 * {12: 2, 13: 1, 23: 0}[legs]
    out = {}
    for key, v in t.coeffs.items():
        for m in range(1, t.n + 1):
            out[key[:gap] + (m, m) + key[gap:]] = v
    return Tensor3(t.n, out)


def dense2(t):
    n = t.n
    grid = [[[[Fraction(0) for _ in range(n)] for _ in range(n)]
             for _ in range(n)] for _ in range(n)]
    for (i, j, k, l), v in t.coeffs.items():
        grid[i - 1][j - 1][k - 1][l - 1] = v
    return grid


def dense2_mul(a, b, n):
    out = [[[[Fraction(0) for _ in range(n)] for _ in range(n)]
            for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for x in range(n):
                        for y in range(n):
                            out[i][j][k][l] += a[i][x][k][y] * b[x][j][y][l]
    return out


def dense2_from_grid(grid, n):
    coeffs = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if grid[i][j][k][l]:
                        coeffs[(i + 1, j + 1, k + 1, l + 1)] = grid[i][j][k][l]
    return Tensor2(n, coeffs)


def dense3_embed(t, legs, n):
    """Dense 6-index array embedding of a Tensor2 on the given legs."""
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    for m in range(1, n + 1):
                        for p in range(1, n + 1):
                            if legs == 12:
                                v = t.coeffs.get((i, j, k, l), Fraction(0)) if m == p else Fraction(0)
                            elif legs == 13:
                                v = t.coeffs.get((i, j, m, p), Fraction(0)) if k == l else Fraction(0)
                            else:
                                v = t.coeffs.get((k, l, m, p), Fraction(0)) if i == j else Fraction(0)
                            if v:
                                out[(i, j, k, l, m, p)] = v
    return out


def dense3_mul(a, b, n):
    out = {}
    for (i, x, k, y, m, z), va in a.items():
        for jj in range(1, n + 1):
            for ll in range(1, n + 1):
                for pp in range(1, n + 1):
                    vb = b.get((x, jj, y, ll, z, pp))
                    if vb:
                        key = (i, jj, k, ll, m, pp)
                        out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def dense3_to_tensor(d, n):
    return Tensor3(n, d)


def dense_numeric_aybe(r, n, point):
    """Dense complex AYBE residual, written from scratch with plain loops.

    Evaluates the base matrix at each slot argument and assembles
    r12(-u',v) r13(u+u',v+v') - r23(u+u',v') r12(u,v) + r13(u,v+v') r23(u',v')
    without touching the sparse engine, for cross-checking it.
    """
    u, up, v, vp = point

    def dense_at(uu, vv):
        grid = [[[[0j for _ in range(n)] for _ in range(n)]
                 for _ in range(n)] for _ in range(n)]
        logs = (uu / (2 * n), 0j, vv, 0j)
        for (i, j, k, l), val in r.coeffs.items():
            grid[i - 1][j - 1][k - 1][l - 1] = val.evaluate(logs)
        return grid

    A = dense_at(-up, v)
    B = dense_at(u + up, v + vp)
    C = dense_at(u + up, vp)
    D = dense_at(u, v)
    E = dense_at(u, v + vp)
    F = dense_at(up, vp)
    out = {}
    rng_n = range(n)
    for i in rng_n:
        for j in rng_n:
            for k in rng_n:
                for l in rng_n:
                    for m in rng_n:
                        for p in rng_n:
                            acc = 0j
                            for t in rng_n:
                                acc += A[i][t][k][l] * B[t][j][m][p]
                                acc -= C[k][t][m][p] * D[i][j][t][l]
                                acc += E[i][j][m][t] * F[k][l][t][p]
                            if acc != 0:
                                out[(i + 1, j + 1, k + 1, l + 1, m + 1, p + 1)] = acc
    return out


def dense_apply(coeffs, x, n, legs):
    """A tensor, given by its coefficient dict, applied to the flat vector x.

    Plain loops over every row and column index tuple on legs legs, x in
    row-major index order; returns {row index tuple: value} for the
    nonzero rows.
    """
    out = {}
    indices = list(product(range(1, n + 1), repeat=legs))
    for rows in indices:
        acc = 0j
        for pos, cols in enumerate(indices):
            key = tuple(i for pair in zip(rows, cols) for i in pair)
            v = coeffs.get(key)
            if v:
                acc += v * x[pos]
        if acc != 0:
            out[rows] = acc
    return out


def per_entry_apply(t, x, legs=None):
    """Reference route for CompiledTensor2.apply: the entry-by-entry loop
    the lane kernel replaced, kept to check it against bit for bit.

    For each entry in dict order, its product is added into every entry of
    the result it reaches, one index of the free leg after another; legs 21
    applies t.flip21() on V (x) V.
    """
    n = t.n
    if legs == 21:
        t, legs = t.flip21(), None
    if legs is None:
        size, sa, sb, free = n * n, n, 1, (0,)
    else:
        strides = (n * n, n, 1)
        a, b, f = {12: (0, 1, 2), 13: (0, 2, 1), 23: (1, 2, 0)}[legs]
        size, sa, sb = n ** 3, strides[a], strides[b]
        free = range(0, n * strides[f], strides[f])
    assert len(x) == size
    base = sa + sb
    y = [0] * size
    for (i, j, k, l), c in t.coeffs.items():
        row = i * sa + k * sb - base
        col = j * sa + l * sb - base
        for f in free:
            y[row + f] += c * x[col + f]
    return y


def compiled_entries(t, compiled):
    """The entries of a Tensor2's compiled form (Tensor2.float_form), before
    or after CompiledTensor2.at, as {index: scalar} in t's dict order: the
    form has one row (r, c, s) per entry of t, its index read off r and c."""
    n, rows = t.n, compiled.rows
    assert len(rows) == len(t.coeffs)
    scalars = {
        (r // n + 1, c // n + 1, r % n + 1, c % n + 1): compiled.scalars[s] for r, c, s in rows
    }
    return {key: scalars[key] for key in t.coeffs}
