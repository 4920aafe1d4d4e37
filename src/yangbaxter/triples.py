"""Belavin-Drinfeld triples for sl(n) and their combinatorics.

Covers validation and exhaustive enumeration of triples, the root
ordering alpha < beta under iteration of T with the orientation label
and the adjacency exponent of each pair, compatible cyclic
permutations and the resulting associative structures, the closed
formula for s0, the exact rational linear system for the continuous
datum s, and the gauge Phi that moves s0 to an admissible s.

Roots e_i - e_j are encoded as pairs (i, j); simple roots are indexed
1..n-1 with alpha_a = e_a - e_{a+1}.  A positive root (i, j), i < j, is
the segment with simple summands a = i..j-1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

SCHEMA_VERSION = 1


class Root(NamedTuple):
    i: int
    j: int

    @property
    def positive(self):
        return self.i < self.j

    @property
    def length(self):
        return abs(self.j - self.i)

    def simples(self):
        """Simple-root indices of a positive segment."""
        if not self.positive:
            raise ValueError("simples() is defined for positive roots")
        return range(self.i, self.j)

    def weights(self, n):
        """Coordinate vector of e_i - e_j in Z^n."""
        w = [Fraction(0)] * n
        w[self.i - 1] += 1
        w[self.j - 1] -= 1
        return w


def simple_root(a):
    return Root(a, a + 1)


def root_inner(a, b):
    """Inner product of two simple roots alpha_a, alpha_b of A_{n-1}."""
    if a == b:
        return 2
    if abs(a - b) == 1:
        return -1
    return 0


def _json_int(value):
    """An integer of a JSON document, given as a number or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


class BDTriple(NamedTuple):
    """A triple (Gamma_1, Gamma_2, T), stored as sorted (a, T(a)) pairs."""

    n: int
    pairs: tuple

    @classmethod
    def make(cls, n, mapping):
        pairs = tuple(sorted((int(a), int(b)) for a, b in dict(mapping).items()))
        return cls(n, pairs)

    @property
    def gamma1(self):
        return tuple(a for a, _ in self.pairs)

    @property
    def gamma2(self):
        return tuple(sorted(b for _, b in self.pairs))

    @property
    def t_map(self):
        return dict(self.pairs)

    @property
    def is_trivial(self):
        return not self.pairs

    def sort_key(self):
        return (len(self.pairs), self.gamma1, tuple(b for _, b in self.pairs))

    def inverse(self):
        """The dual triple (Gamma_2, Gamma_1, T^-1)."""
        return BDTriple.make(self.n, {b: a for a, b in self.pairs})

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "gamma1": list(self.gamma1),
            "gamma2": list(self.gamma2),
            "t_map": {str(a): b for a, b in self.pairs},
        }

    @classmethod
    def from_json(cls, doc):
        """The triple of a to_json document.

        Raises ValueError when doc is not an object with n and a t_map
        object, when n or an entry of t_map is not an integer, when t_map
        names a root twice (as "1" and "01"), or when a stated gamma1 or
        gamma2 differs from the t_map's.
        """
        try:
            n, items = doc["n"], doc["t_map"].items()
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError("expected an object with n and a t_map object") from exc
        mapping = {}
        for a, b in items:
            if _json_int(a) in mapping:
                raise ValueError(f"t_map names root {_json_int(a)} twice")
            mapping[_json_int(a)] = _json_int(b)
        t = cls.make(_json_int(n), mapping)
        for key in ("gamma1", "gamma2"):
            stated, derived = doc.get(key), list(getattr(t, key))
            if stated is not None and (
                not isinstance(stated, list) or sorted(map(_json_int, stated)) != derived
            ):
                raise ValueError(f"{key} {stated!r} differs from the t_map's {derived}")
        return t


def validate_triple(t):
    """Check the triple axioms; returns a list of violations (empty = valid).

    (a) T preserves the inner product on Gamma_1;
    (b) T is nilpotent (every T-orbit leaves Gamma_1).
    Structural defects (indices out of range, non-bijective map) are
    reported the same way rather than raised.
    """
    issues = []
    tm = t.t_map
    g1 = t.gamma1
    for a, b in t.pairs:
        if not (1 <= a <= t.n - 1 and 1 <= b <= t.n - 1):
            issues.append(f"index out of range in pair ({a},{b})")
    if len(set(tm.values())) != len(tm):
        issues.append("T is not injective")
    for a, b in itertools.combinations(g1, 2):
        if root_inner(a, b) != root_inner(tm[a], tm[b]):
            issues.append(
                f"inner product not preserved on ({a},{b}): "
                f"({a},{b}) -> ({tm[a]},{tm[b]})"
            )
    for a in g1:
        x = a
        for _ in range(t.n):
            if x not in tm:
                break
            x = tm[x]
        else:
            issues.append(f"T is not nilpotent: orbit of {a} never leaves Gamma_1")
    return issues


def is_valid(t):
    return not validate_triple(t)


def enumerate_triples(n, bound=6):
    """All valid BD triples for sl(n), canonically ordered.

    Exhaustive search over subset pairs and bijections; n is capped by
    `bound` because the search is exponential.
    """
    if n > bound:
        raise ValueError(f"enumeration bound exceeded: n={n} > {bound}")
    simples = range(1, n)
    found = []
    for size in range(0, n):
        for g1 in itertools.combinations(simples, size):
            for g2 in itertools.combinations(simples, size):
                for image in itertools.permutations(g2):
                    t = BDTriple.make(n, dict(zip(g1, image)))
                    if is_valid(t):
                        found.append(t)
    found.sort(key=BDTriple.sort_key)
    return found


def _res(x, n):
    """Residue of x modulo n, in {1, ..., n}."""
    r = x % n
    return r if r else n


def enumerate_cg_triples(n):
    """Generalized Cremmer-Gervais triples, one per m coprime to n.

    Gamma_1 = Gamma \\ {alpha_{n-m}}, Gamma_2 = Gamma \\ {alpha_m},
    T(alpha_i) = alpha_{Res(i+m)}.
    """
    out = []
    for m in range(1, n + 1):
        if math.gcd(m, n) != 1:
            continue
        mapping = {
            i: _res(i + m, n)
            for i in range(1, n)
            if i != n - m
        }
        out.append((m, BDTriple.make(n, mapping)))
    return out


def t_orbit(t, alpha):
    """Yield (k, T^k alpha, C) for k = 1, 2, ... while T^k is defined.

    The walk carries the images of alpha's simple summands, in alpha's
    order.  C is the orientation label of T^k on alpha: 1 when the first
    image is the right end of the segment (it is reversed), else 0, as for
    length-1 segments, where the sign exponent |alpha|-1 vanishes anyway.
    """
    tm = t.t_map
    images = list(alpha.simples())
    for k in range(1, t.n + 1):
        if any(a not in tm for a in images):
            return
        images = [tm[a] for a in images]
        lo = min(images)
        if sorted(images) != list(range(lo, lo + len(images))):
            raise RuntimeError("image of a segment is not a segment; invalid triple?")
        yield k, Root(lo, lo + len(images)), int(images[0] != lo)


def positive_roots(n):
    return [Root(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _adjacent(a, b):
    """a lessdot b: segment a lies immediately left-adjacent to segment b."""
    return a.j == b.i


def prec_pairs(t):
    """All (alpha, beta, k, C, exponent, drop) with T^k alpha = beta, k >= 1.

    exponent is the combinatorial exponent of the quantum formula,
    1/2([a<.b] + [b<.a]) + [exists gamma strictly between with a<.gamma]
    + [exists gamma with gamma<.a], where <. is left-adjacency of
    segments and gamma runs over T^m alpha, 0 < m < k; it always equals
    1 - (alpha (x) beta) s.  drop is what rule X takes off it in
    the GGS matrix: [a<.gamma, and no gamma'<.b] + [gamma<.a, and no
    b<.gamma'], gamma' over the same images.  Each root's T-orbit is
    walked once, recording whether an earlier image lay right- or
    left-adjacent to alpha and where each earlier image starts and ends.
    """
    out = []
    for alpha in positive_roots(t.n):
        right, left, starts, ends = 0, 0, set(), set()
        for k, beta, c in t_orbit(t, alpha):
            ab, ba = int(_adjacent(alpha, beta)), int(_adjacent(beta, alpha))
            drop = int(right and beta.i not in ends) + int(left and beta.j not in starts)
            out.append((alpha, beta, k, c, Fraction(ab + ba, 2) + right + left, drop))
            right, left = right | ab, left | ba
            starts.add(beta.i)
            ends.add(beta.j)
    return out


def is_orientation_preserving(t):
    return all(c == 0 for (_, _, _, c, _, _) in prec_pairs(t))


class AssocStructure(NamedTuple):
    """A triple together with a compatible cyclic permutation tilde T.

    tilde_t[i-1] is the image of i; the permutation must be a single
    n-cycle with T(alpha_a) = alpha_b implying tilde_t: a -> b, a+1 -> b+1.
    """

    triple: BDTriple
    tilde_t: tuple

    @property
    def n(self):
        return self.triple.n

    def apply(self, i):
        return self.tilde_t[i - 1]

    def orbit_distance(self, i, j):
        """O(i, j): least k >= 0 with tilde_T^k(i) = j."""
        x = i
        for k in range(self.n):
            if x == j:
                return k
            x = self.apply(x)
        raise RuntimeError("tilde T is not a single n-cycle")

    def to_json(self):
        return dict(self.triple.to_json(), tilde_t=list(self.tilde_t))


def _is_n_cycle(images):
    """Whether the permutation images of 1..n returns 1 only after n steps."""
    x = 1
    for _ in range(len(images) - 1):
        x = images[x - 1]
        if x == 1:
            return False
    return images[x - 1] == 1


def tilde_t_constraints(t):
    """Partial map forced on tilde T by the triple, or None on conflict."""
    forced = {}
    for a, b in t.pairs:
        for src, dst in ((a, b), (a + 1, b + 1)):
            if forced.get(src, dst) != dst:
                return None
            forced[src] = dst
    if len(set(forced.values())) != len(forced):
        return None
    return forced


def _chains(t):
    """The forced partial map of tilde T split into maximal chains.

    A forced permutation is read as one chain starting at 1.  Returns
    None when no n-cycle extends the map: the triple forces a conflict,
    or a cycle shorter than n.
    """
    forced = tilde_t_constraints(t)
    if forced is None:
        return None
    targets = set(forced.values())
    chains = []
    for start in [i for i in range(1, t.n + 1) if i not in targets] or [1]:
        chain = [start]
        while chain[-1] in forced and forced[chain[-1]] != start:
            chain.append(forced[chain[-1]])
        chains.append(chain)
    return chains if sum(len(c) for c in chains) == t.n else None


def structure_count(t):
    """Number of associative structures on the triple, none of them built.

    Every n-cycle extending the forced map arranges its chains in a
    circle, so the count is (#chains - 1)! and reaches (n-1)! for the
    trivial triple.
    """
    chains = _chains(t)
    return 0 if chains is None else math.factorial(len(chains) - 1)


def compatible_permutations(t):
    """All associative structures on the triple (empty iff none exist).

    One per circular arrangement of the forced chains, sorted by tilde T.
    """
    chains = _chains(t)
    if chains is None:
        return []
    out = []
    for arrangement in itertools.permutations(chains[1:]):
        order = [node for chain in (chains[0], *arrangement) for node in chain]
        images = dict(zip(order, order[1:] + order[:1]))
        out.append(make_structure(t, tuple(images[i] for i in range(1, t.n + 1))))
    out.sort(key=lambda s: s.tilde_t)
    return out


def make_structure(t, tilde_t):
    """Validate and build an associative structure."""
    tilde_t = tuple(int(x) for x in tilde_t)
    if sorted(tilde_t) != list(range(1, t.n + 1)):
        raise ValueError("tilde T must be a permutation of 1..n")
    if not _is_n_cycle(tilde_t):
        raise ValueError("tilde T must be a single n-cycle")
    forced = tilde_t_constraints(t)
    if forced is None:
        raise ValueError("triple admits no compatible permutation")
    for src, dst in forced.items():
        if tilde_t[src - 1] != dst:
            raise ValueError(f"tilde T conflicts with T at {src}")
    return AssocStructure(t, tilde_t)


class SWedge:
    """Antisymmetric rational n x n array: the h-wedge-h datum.

    entries[i][j] (1-based accessor get(i, j)) is the coefficient of
    e_ii (x) e_jj; the diagonal is zero.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n, upper=None):
        rows = [[Fraction(0)] * n for _ in range(n)]
        if upper:
            for (i, j), val in upper.items():
                if i == j:
                    raise ValueError("diagonal entries of s must vanish")
                val = Fraction(val)
                rows[i - 1][j - 1] += val
                rows[j - 1][i - 1] -= val
        self.n = n
        self.rows = tuple(tuple(r) for r in rows)

    def get(self, i, j):
        return self.rows[i - 1][j - 1]

    def upper_items(self):
        for i, j in positive_roots(self.n):
            yield (i, j), self.get(i, j)

    def __eq__(self, other):
        return isinstance(other, SWedge) and self.rows == other.rows

    __hash__ = None

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        return SWedge(
            self.n,
            {(i, j): self.get(i, j) + other.get(i, j) for (i, j), _ in self.upper_items()},
        )

    def scale(self, c):
        return SWedge(self.n, {(i, j): c * v for (i, j), v in self.upper_items()})

    def __str__(self):
        entries = ", ".join(
            f"s_{i}{j}={v}" for (i, j), v in self.upper_items() if v
        )
        return f"SWedge(n={self.n}, {entries or '0'})"

    __repr__ = __str__

    def to_json(self):
        return {f"{i},{j}": str(v) for (i, j), v in self.upper_items() if v}


def s0_from_structure(a):
    """The closed-form datum s0: entries 1/2 - O(i,j)/n off the diagonal."""
    n = a.n
    return SWedge(n, {(i, j): Fraction(1, 2) - Fraction(a.orbit_distance(i, j), n)
                      for i, j in positive_roots(n)})


def _minus(row, f, other):
    """The sparse row row - f * other, exact zeros dropped."""
    out = dict(row)
    for c, v in other.items():
        out[c] = out.get(c, 0) - f * v
    return {c: v for c, v in out.items() if v}


def solve_linear(rows, rhs, ncols):
    """Particular solution and nullspace basis of an exact linear system.

    rows are sparse {column: coefficient}, augmented by their right side
    in column ncols.  Each row in turn is reduced by the pivot rows, pivots
    on its least column and is eliminated from the other pivot rows.  The
    result is the reduced row echelon form, which is unique, whatever the
    row order.  Returns (particular | None, basis); entries are Fractions.
    """
    pivots = {}  # pivot column -> augmented row with coefficient 1 there
    for row, b in zip(rows, rhs):
        row = {c: Fraction(v) for c, v in {**row, ncols: b}.items() if v}
        for c in [c for c in row if c in pivots]:
            row = _minus(row, row[c], pivots[c])
        if not row:
            continue
        p = min(row)
        if p == ncols:  # 0 = b with b nonzero
            return None, []
        row = {c: v / row[p] for c, v in row.items()}
        for c, prow in pivots.items():
            if p in prow:
                pivots[c] = _minus(prow, prow[p], row)
        pivots[p] = row
    zero = Fraction(0)
    particular = [pivots[c].get(ncols, zero) if c in pivots else zero for c in range(ncols)]
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [-pivots[c].get(f, zero) if c in pivots else zero for c in range(ncols)]
            v[f] = Fraction(1)
            basis.append(v)
    return particular, basis


def _s_system_rows(t):
    """Rows of the linear system for s (unknowns s_ij, i < j, row-major).

    Each row is a sparse {column: int coefficient}.
    """
    n = t.n
    unknowns = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    col = {u: c for c, u in enumerate(unknowns)}
    rows, rhs = [], []
    for a, b in t.pairs:
        wa, wb = simple_root(a).weights(n), simple_root(b).weights(n)
        x = [p - q for p, q in zip(wa, wb)]  # alpha_a - alpha_b as a weight vector
        y = [p + q for p, q in zip(wa, wb)]  # alpha_a + alpha_b
        support = [i for i in range(1, n + 1) if x[i - 1]]
        for j in range(1, n + 1):
            row = {}
            for i in support:
                if i < j:
                    row[col[(i, j)]] = x[i - 1]
                elif i > j:
                    row[col[(j, i)]] = -x[i - 1]
            rows.append(row)
            rhs.append(Fraction(y[j - 1], 2))
    return unknowns, rows, rhs


def s_in_solution_space(t, s):
    """Membership test for the affine solution space of the s-system;
    ValueError("size mismatch") for an s of another size than t."""
    if s.n != t.n:
        raise ValueError("size mismatch")
    unknowns, rows, rhs = _s_system_rows(t)
    vec = [s.get(i, j) for (i, j) in unknowns]
    return all(sum(c * vec[k] for k, c in row.items()) == b for row, b in zip(rows, rhs))


def solve_s_system(t):
    """Affine solution space of the s-system: (particular, basis).

    The system is always solvable for a valid triple; an inconsistent
    system indicates an internal error.
    """
    unknowns, rows, rhs = _s_system_rows(t)
    particular, basis = solve_linear(rows, rhs, len(unknowns))
    if particular is None:
        raise RuntimeError("s-system inconsistent for a valid triple")

    def to_swedge(vec):
        return SWedge(t.n, {u: v for u, v in zip(unknowns, vec) if v})

    return to_swedge(particular), [to_swedge(v) for v in basis]


def phi_coboundary(phi, n):
    """The wedge Phi (x) 1 - 1 (x) Phi, entries phi_i - phi_j."""
    phi = [Fraction(x) for x in phi]
    return SWedge(n, {(i, j): phi[i - 1] - phi[j - 1] for i, j in positive_roots(n)})


def phi_from_s(a, s):
    """Recover Phi with s - s0 = Phi^1 - Phi^2, normalized to phi_1 = 0.

    Raises ValueError when s is not n x n, s - s0 is not such a coboundary,
    or Phi fails the admissibility constraint (alpha, Phi) = (T alpha, Phi).
    """
    n = a.n
    if s.n != n:
        raise ValueError("size mismatch")
    s0 = s0_from_structure(a)
    phi = [Fraction(0)] + [s.get(j, 1) - s0.get(j, 1) for j in range(2, n + 1)]
    for i, j in positive_roots(n):  # s, s0 and Phi^1 - Phi^2 are antisymmetric
        if s.get(i, j) - s0.get(i, j) != phi[i - 1] - phi[j - 1]:
            raise ValueError("s - s0 is not of the form Phi^1 - Phi^2")
    for a_, b_ in a.triple.pairs:
        if phi[a_ - 1] - phi[a_] != phi[b_ - 1] - phi[b_]:
            raise ValueError("Phi violates (alpha, Phi) = (T alpha, Phi)")
    return tuple(phi)


def triple_flags(t):
    """Summary flags used by the CLI listing."""
    count = structure_count(t)
    return {
        "valid": is_valid(t),
        "orientation_preserving": is_orientation_preserving(t),
        "associative": count > 0,
        "compatible_permutations": count,
    }
