"""Residual computation for every identity in the workbench.

Each identity is a row of IDENTITIES: signed products of one to three
slots.  A slot is the input matrix at shifted arguments (SLOTS), or for
Hecke a tensor built from it (_slot_inputs).  Symbolic mode certifies
exact zero: rows of two-factor products (CYBE, AYBE, the lift
obstruction) are decided on int tensors (_catalogue_zero), and a
residual over exact rational functions (_formula) is built only when
that fails, or for another row.  Numeric mode applies the residual of
each slot's compiled tensor at seeded complex sample points to a seeded
vector of modulus-1 entries (Freivalds' check), product by product as
flat lists (tensors.apply_product).  Verifiers never mutate their inputs;
failure reports carry the lexicographically least nonzero coefficient.
"""

from __future__ import annotations

import cmath
import random
from typing import NamedTuple

from .scalars import LaurentPoly, PoleOrderError, kronecker_ints, log_point, rf
from .series import expand_in_u
from .tensors import (
    Tensor2, Tensor3, apply_product, max_magnitude, product_sum, signed_sum, unit_vector,
    variables_used,
)
from .builders import build_r_ts, hat_r, q_minus_qinv  # noqa: F401 - perfbench rebinds build_r_ts

# Slots, keyed by their (u, v) arguments.  The input matrix carries (u, v)
# as (X1, Y1).  A slot's row ((a, b), (c, d)) shifts the arguments to
# (a u + b u', c v + d v'): symbolic mode substitutes X1 -> X1^a X2^b and
# Y1 -> Y1^c Y2^d (LaurentPoly.substitute), except at u,v, which is the
# input itself; numeric mode evaluates the input at the shifted arguments
# of the sample point (_slot_arguments).
SLOTS = {
    "u,v": ((1, 0), (1, 0)),
    "u,-v": ((1, 0), (-1, 0)),
    "-u,-v": ((-1, 0), (-1, 0)),
    "-u',v": ((0, -1), (1, 0)),
    "u',v'": ((0, 1), (0, 1)),
    "u,v'": ((1, 0), (0, 1)),
    "u,v+v'": ((1, 0), (1, 1)),
    "u+u',v'": ((1, 1), (0, 1)),
    "u+u',v+v'": ((1, 1), (1, 1)),
}

# Each identity as signed products of its slots a, b, c, ... (0, 1, 2,
# ...): name -> (slot labels, terms, traceless legs).  A term is
# (sign, factor, ...), a factor (slot, legs) with legs as for _product, or
# 21 for the slot with its two legs swapped.
# [a12, b13] + [a12, c23] + [b13, c23]
_CYBE = (
    (1, (0, 12), (1, 13)), (-1, (1, 13), (0, 12)),
    (1, (0, 12), (2, 23)), (-1, (2, 23), (0, 12)),
    (1, (1, 13), (2, 23)), (-1, (2, 23), (1, 13)),
)
# a12 b13 c23 - c23 b13 a12
_QYBE = ((1, (0, 12), (1, 13), (2, 23)), (-1, (2, 23), (1, 13), (0, 12)))
_UNITARITY = ((1, (0, None)), (1, (1, 21)))  # a + b^21
IDENTITIES = {
    "cybe": (("u,v",) * 3, _CYBE, ()),
    "cybe_spectral": (("u,v", "u,v+v'", "u,v'"), _CYBE, ()),
    # r12 r13 - r23 r12 + r13 r23, zero exactly when r lifts
    "obstruction": (("u,v",) * 3, (
        (1, (0, 12), (1, 13)), (-1, (2, 23), (0, 12)), (1, (1, 13), (2, 23))), (1, 2, 3)),
    # r12(-u',v) r13(u+u',v+v') - r23(u+u',v') r12(u,v) + r13(u,v+v') r23(u',v')
    "aybe": (("-u',v", "u+u',v+v'", "u+u',v'", "u,v", "u,v+v'", "u',v'"), (
        (1, (0, 12), (1, 13)), (-1, (2, 23), (3, 12)), (1, (4, 13), (5, 23))), ()),
    "qybe": (("u,v",) * 3, _QYBE, ()),
    "qybe_spectral": (("u,v", "u,v+v'", "u,v'"), _QYBE, ()),
    # r(v) + r^21(-v) and r(u,v) + r^21(-u,-v)
    "unitarity_classical": (("u,v", "u,-v"), _UNITARITY, ()),
    "unitarity_assoc": (("u,v", "-u,-v"), _UNITARITY, ()),
    # a a - b = (PR - q)(PR + q^-1), a = PR and b = (q - q^-1) PR + 1 (_slot_inputs)
    "hecke": (("u,v",) * 2, ((1, (0, None), (0, None)), (-1, (1, None))), ()),
}

class VerifyReport(NamedTuple):
    """Structured outcome of one identity check."""

    identity: str
    mode: str
    result: str
    witness: dict | None = None
    samples: int | None = None
    resamples: int | None = None
    tolerance: float | None = None
    max_abs_residual: float | None = None
    provenance: dict | None = None

    @property
    def passed(self):
        return self.result == "pass"

    def as_dict(self):
        """The fields as a dict; nested values are shared, not copied."""
        return self._asdict()


def _witness(tensor):
    w = tensor.lex_witness()
    if w is None:
        return None
    key, value = w
    return {"index": list(key), "value": str(value)}


def report_from_residual(identity, residual, provenance=None):
    """Wrap a symbolic residual tensor into a pass/fail report."""
    ok = residual.is_zero()
    return VerifyReport(
        identity=identity,
        mode="symbolic",
        result="pass" if ok else "fail",
        witness=None if ok else _witness(residual),
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# evaluating the identities


def _product(*factors):
    """The product of factors, each (tensor, legs), left to right.

    legs places a Tensor2 on legs 12, 13 or 23 of the 3-fold product; None
    takes a tensor on its own legs, and 21 takes a lone Tensor2 with its
    two legs swapped (flip21).
    """
    (a, ab), *rest = factors
    if not rest:
        return a.flip21() if ab == 21 else a
    (b, cd), *rest = rest
    out = a.mul(b, legs=None if ab is None else (ab, cd))
    for c, legs in rest:
        out = out.mul(c, legs=legs)
    return out


def _formula(terms, slots):
    """The signed sum of the terms' products over slots (a row of IDENTITIES).

    The terms are summed in consecutive pairs, (t0 +- t1) + (t2 +- t3)
    + ..., each pair opening with a + term, which fixes the order of
    every RatFunc sum; tensors.signed_sum sums numeric products the same way.
    """
    parts = [_product(*((slots[i], legs) for i, legs in factors)) for _, *factors in terms]
    pairs = [
        parts[k] if k + 1 == len(parts)
        else parts[k] + parts[k + 1] if terms[k + 1][0] > 0 else parts[k] - parts[k + 1]
        for k in range(0, len(parts), 2)
    ]
    return sum(pairs[1:], pairs[0])


def _slot_inputs(identity, t):
    """The tensor each slot of the identity's row takes at (u, v): the
    input t, except Hecke's two slots, which take M = P t and
    N = (q - q^-1) M + 1 with q = X1^n, each built once per call."""
    if identity != "hecke":
        return [t] * len(IDENTITIES[identity][0])
    m = Tensor2.perm(t.n).mul(t)
    return [m, m.scale(q_minus_qinv(t.n)) + Tensor2.identity(t.n)]


def _slot_weights(factors, labels, terms):
    """The weight L / (Di Dj) of each term, signed; ZeroDivisionError when
    a factor of D vanishes at a slot, as the RatFunc route raises.

    Di is the product of factors (f, m) at slot i.  There each f is a
    unit times an associate (LaurentPoly.associate), so Di Dj is a unit
    times a product of associates, and L is their least common multiple
    over the terms (LaurentPoly.common_denominator).
    """
    dens = []
    for label in labels:
        c, e, ps = 1, (0, 0, 0, 0), []
        for f, m in factors:
            f = f.substitute(SLOTS[label])
            if not f:
                raise ZeroDivisionError(f"a denominator vanishes at the slot {label}")
            fc, fe, p = f.associate()
            c *= fc ** m
            e = tuple(x + m * y for x, y in zip(e, fe))
            ps += [p] * m
        dens.append((c, e, ps))
    pairs = [(dens[i], dens[j]) for _, (i, _), (j, _) in terms]
    _, cofactors = LaurentPoly.common_denominator([
        (ci * cj, tuple(x + y for x, y in zip(ei, ej)), pi + pj)
        for (ci, ei, pi), (cj, ej, pj) in pairs
    ])
    return [cofactor.scale(sign) for cofactor, (sign, *_) in zip(cofactors, terms)]


def _catalogue_polys(factors, functions, labels, terms):
    """The h = (L / Di Dj) sign f(slot i) g(slot j) of every term and pair
    of functions (f, g), in that order (_slot_weights)."""
    weights = _slot_weights(factors, labels, terms)
    at_slot = [[f.substitute(SLOTS[label]) for f, _ in functions] for label in labels]
    hs = []
    for weight, (_, (i, _), (j, _)) in zip(weights, terms):
        for fi in at_slot[i]:
            left = weight * fi
            hs += [left * gj for gj in at_slot[j]]
    return hs


def _catalogue_zero(r, labels, terms, project=(), memo=None):
    """Whether the residual sum_t sign x_i y_j over the slots of r named by
    labels is zero, after the traceless projection of the legs in
    project; ZeroDivisionError when a slot's denominator vanishes.

    Decided on the scalar catalogue of r (Tensor.catalogue): r = sum_f f
    A_f / D, each A_f a tensor with int coefficients.  L times the
    residual (_slot_weights) is sum_t sum_(f, g) h C, with the constant
    C = (A_f)_ab (A_g)_cd on the term's legs and the polynomial
    h = (L / Di Dj) sign f(slot i) g(slot j).  Monomials are linearly
    independent, so the residual is zero exactly when, at every monomial,
    the sum of the C weighted by the h's coefficients is: one int sum
    (tensors.product_sum) of the h packed into ints (kronecker_ints)
    decides them all.  The projection is applied to that sum, each h
    scaled by n per projected leg to keep it in int.  Every term forms
    C for every pair (f, g); in a commutator the pairs diagonal on both
    legs cancel in that sum.

    memo, if given, is the dict the caller keeps for one run: it holds
    the h per catalogue (shared by the matrices of one n) with their ints
    and the largest bound their width supports, so a catalogue seen
    before costs only the products, repacked only past that bound.
    """
    factors, functions = r.catalogue()
    key = (labels, terms, tuple((tuple(f.terms.items()), m) for f, m in factors),
           tuple(tuple(f.terms.items()) for f, _ in functions))
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = (_catalogue_polys(factors, functions, labels, terms), 0, None)
    hs, cmax, ints = memo[key]
    # an entry of a product C sums at most n products of two entries, and
    # n times a leg's projection is at most 2n times an entry's size
    n = r.n
    top = max((abs(v) for _, a in functions for v in a.coeffs.values()), default=0)
    need = n * top ** 2 * (2 * n) ** len(project)
    if need > cmax:
        ints, cmax = kronecker_ints(hs, need)
        memo[key] = (hs, cmax, ints)
    scale = n ** len(project)
    flat = iter(ints)
    products = []
    for _, (_, ab), (_, cd) in terms:
        for _, a in functions:
            for _, b in functions:
                c = next(flat) * scale
                if c:
                    products.append((c, a, b, (ab, cd)))
    return not products or product_sum(products).project_traceless(project).is_zero()


def _residual(identity, t, memo=None):
    """The residual of a row of IDENTITIES at t.

    A row whose products all have two factors is first tested on the
    scalar catalogue of t (_catalogue_zero, which also says what memo
    holds), and a zero there is returned as the zero tensor;
    otherwise the residual is built over the slots of t, for its witness.
    """
    labels, terms, project = IDENTITIES[identity]
    two_factor = all(len(term) == 3 for term in terms)
    if two_factor and _catalogue_zero(t, labels, terms, project, memo):
        return Tensor3(t.n)
    slots = [s if label == "u,v" else s.substitute(SLOTS[label])
             for s, label in zip(_slot_inputs(identity, t), labels)]
    return _formula(terms, slots).project_traceless(project)


def cybe_residual(r, memo=None):
    """[r12, r13] + [r12, r23] + [r13, r23] for a constant r (_residual)."""
    return _residual("cybe", r, memo)


def cybe_spectral_residual(r, memo=None):
    """Spectral CYBE residual for r = r(Y1) (_residual).

    Slots carry arguments x, x+y, y realized as Y1, Y1*Y2, Y2; the input
    must not involve the other formal symbols.
    """
    extra = variables_used(r) - {"Y1"}
    if extra:
        raise ValueError(f"spectral CYBE input must depend on Y1 only, found {sorted(extra)}")
    return _residual("cybe_spectral", r, memo)


def unitarity_check(r, kind, provenance=None):
    """Classical r(v) + r^21(-v) = 0, associative r(u,v) + r^21(-u,-v) = 0."""
    identity = {"classical": "unitarity_classical", "associative": "unitarity_assoc"}.get(kind)
    if identity is None:
        raise ValueError("kind must be 'classical' or 'associative'")
    return report_from_residual(f"unitarity_{kind}", _residual(identity, r), provenance)


def qybe_residual(R):
    """R12 R13 R23 - R23 R13 R12 for a constant quantum matrix."""
    return _residual("qybe", R)


def qybe_spectral_residual(R):
    """Spectral QYBE residual for a Baxterized R(q, v)."""
    return _residual("qybe_spectral", R)


def hecke_residual(R):
    """(PR - q)(PR + q^-1) with q = X1^n, expanded (_residual)."""
    return _residual("hecke", R)


def aybe_residual(r, memo=None):
    """r12(-u',v) r13(u+u',v+v') - r23(u+u',v') r12(u,v) + r13(u,v+v') r23(u',v')
    (_residual)."""
    return _residual("aybe", r, memo)


def lift_obstruction(r, memo=None):
    """Fully traceless projection of r12 r13 - r23 r12 + r13 r23 (_residual).

    Zero exactly when the constant matrix admits a two-parameter lift.
    """
    return _residual("obstruction", r, memo)


def u_coefficients(r, powers, order=0, memo=None):
    """Tensors of the u^p coefficients of r, p in powers, expanding each entry once;
    ValueError for a power outside -1 .. order.  memo, if given, is the dict
    the caller keeps for one run of checks: it holds each expansion under
    its entry's ordered terms, so an entry equal term for term to one met
    before is not expanded again."""
    if not all(-1 <= power <= order for power in powers):
        raise ValueError(f"powers {powers} are not all in -1 .. {order}")
    outs = [{} for _ in powers]
    memo = {} if memo is None else memo
    for key, value in r.coeffs.items():
        f = rf(value)
        terms = ("u", r.n, order, tuple(f.num.terms.items()), tuple(f.den.terms.items()))
        if terms not in memo:
            memo[terms] = expand_in_u(f, r.n, order)
        series = memo[terms]
        for out, power in zip(outs, powers):
            c = series[power + 1]
            if c:
                out[key] = c
    return [Tensor2(r.n, out) for out in outs]


def check_lift(r, r_ts, provenance=None, memo=None):
    """Laurent data of a two-parameter matrix at u = 0.

    Passes when the u^-1 coefficient is 1 (x) 1 and the u^0 coefficient
    equals hat_r(r_ts), the spectral lift of the classical matrix r_{T,s}
    of the same (t, s).  memo is as for u_coefficients.
    """
    pole, const = u_coefficients(r, (-1, 0), memo=memo)
    diff_pole = pole - Tensor2.identity(r.n).map_scalars(rf)
    diff_const = const - hat_r(r_ts)
    if not diff_pole.is_zero():
        return report_from_residual("lift", diff_pole, provenance)
    return report_from_residual("lift", diff_const, provenance)


def pr_limit_check(r, provenance=None):
    """Take u -> 0 and project both legs away from the identity.

    The traceless projection is linear, so it is applied to the u^-1 and
    u^0 coefficients of r.  The limit must exist (the projection kills the
    pole; a surviving one raises PoleOrderError) and be a unitary spectral
    CYBE solution.
    """
    pole, rbar = (c.project_traceless((1, 2)) for c in u_coefficients(r, (-1, 0)))
    if not pole.is_zero():
        raise PoleOrderError("pole survives the traceless projection")
    residual = cybe_spectral_residual(rbar)
    if residual.is_zero():
        residual = _residual("unitarity_classical", rbar)
    return report_from_residual("pr_limit", residual, provenance)


# ---------------------------------------------------------------------------
# numeric mode

GUARD_DISTANCE = 1e-3
LOG_BAND = (0.3, 1.5)
# Rejected draws in a row after which sampling gives up; a rejection
# happens with probability about 1e-3 per draw.
MAX_REJECTIONS = 1000


# numeric identity -> the key of its input in numeric_residual's tensors
NUMERIC_IDENTITIES = {
    "aybe": "r", "unitarity_assoc": "r", "cybe_spectral": "r", "qybe": "R", "qybe_spectral": "R",
    "hecke": "R",
}


def _sample(rng):
    """One complex number with modulus in the sampling band."""
    radius = rng.uniform(*LOG_BAND)
    angle = rng.uniform(0.0, 2.0 * cmath.pi)
    return radius * cmath.exp(1j * angle)


def _clear_of_poles(values):
    """Keep every spectral denominator bounded away from zero."""
    for z in values:
        for sign in (1, -1):
            if abs(1 - cmath.exp(sign * z)) < GUARD_DISTANCE:
                return False
    return True


def _clear_point(rng):
    """A sample point (u, u', v, v') clear of the poles, and the draws rejected before it."""
    for rejected in range(MAX_REJECTIONS):
        point = tuple(_sample(rng) for _ in range(4))
        u, up, v, vp = point
        if _clear_of_poles((u, up, u + up, v, vp, v + vp)):
            return point, rejected
    raise RuntimeError(
        f"{MAX_REJECTIONS} sample points in a row came within GUARD_DISTANCE"
        f" = {GUARD_DISTANCE} of a spectral pole"
    )


def _slot_arguments(slot, point):
    """The slot's (u, v) at a sample point (u, u', v, v'): a u + b u' and c v + d v'.

    Only the nonzero terms are summed, u before u', and a coefficient of
    1 or -1 only sets the sign, so the floats are those of the written-out sum.
    """
    out = []
    for coeffs, args in zip(slot, (point[:2], point[2:])):
        terms = [z if c == 1 else -z if c == -1 else c * z for c, z in zip(coeffs, args) if c]
        out.append(sum(terms[1:], terms[0]))
    return out


def _input_key(identity):
    if identity not in NUMERIC_IDENTITIES:
        raise ValueError(f"unknown numeric identity {identity!r}")
    return NUMERIC_IDENTITIES[identity]


def _sample_legs(identity):
    """The legs of the identity's sample vector: 3 when a factor of its
    row sits on legs 12, 13 or 23, else 2."""
    terms = IDENTITIES[identity][1]
    return 3 if any(legs in (12, 13, 23) for _, *factors in terms for _, legs in factors) else 2


def _numeric_tensors(identity, compiled, n, point, x):
    """The identity's residual at one sample point, applied to the vector x.

    compiled holds each slot's tensor (_slot_inputs) compiled, evaluated
    once per distinct tensor and slot.  Returns (residual, parts): parts
    are the row's products applied to x as flat lists, sharing one dict of
    the factors applied to x (tensors.apply_product), whose max_magnitude
    is the sample's scale, and the residual is their signed sum in
    _formula's order (tensors.signed_sum) as a column (Tensor.column).
    """
    _input_key(identity)  # ValueError for an identity numeric mode lacks
    labels, terms, _ = IDENTITIES[identity]
    _, up, _, vp = point
    evaluated = {}
    for t, label in zip(compiled, labels):
        if (id(t), label) not in evaluated:
            uu, vv = _slot_arguments(SLOTS[label], point)
            evaluated[id(t), label] = t.at(log_point(uu, up, vv, vp, n))
    slots = [evaluated[id(t), label] for t, label in zip(compiled, labels)]
    applied = {}
    parts = [apply_product(x, [(slots[i], legs) for i, legs in factors], applied)
             for _, *factors in terms]
    column = Tensor3.column if _sample_legs(identity) == 3 else Tensor2.column
    return column(n, signed_sum([sign for sign, *_ in terms], parts)), parts


def numeric_residual(identity, tensors, n, samples, tolerance, seed, provenance=None,
                     memo=None):
    """Sampled residual check, relative to each sample's own scale.

    Each sample draws a point (u, u', v, v') and then a vector x of
    entries exp(2 pi i theta), from one random.Random(seed), and applies
    the residual at that point to x.  A sample passes iff
    max |residual x| < tolerance * max(1, scale), the scale from
    _numeric_tensors computed only for a residual not below tolerance;
    the check passes iff every sample does, and reports the largest entry
    over all samples, NaN if one is (a NaN fails).  Points within
    GUARD_DISTANCE of a spectral pole are rejected and counted.  Each slot
    tensor is compiled once, kept with it (Tensor2.float_form).  memo, if
    given, is the dict the caller keeps for one run of checks: it holds
    the draws per (seed, samples, vector size), shared, not copied.
    Raises ValueError unless samples >= 1 and 0 < tolerance < inf.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if not 0 < tolerance < cmath.inf:
        raise ValueError(f"tolerance must be a finite number above 0, got {tolerance!r}")
    compiled = [t.float_form() for t in _slot_inputs(identity, tensors[_input_key(identity)])]
    memo = {} if memo is None else memo
    size = n ** _sample_legs(identity)
    key = ("numeric draws", seed, samples, size)
    if key not in memo:
        rng = random.Random(seed)
        memo[key] = [(*_clear_point(rng), unit_vector(rng, size)) for _ in range(samples)]
    worst, resamples, ok = 0.0, 0, True
    for point, rejected, x in memo[key]:
        resamples += rejected
        residual, parts = _numeric_tensors(identity, compiled, n, point, x)
        err = residual.max_abs()
        worst = err if cmath.isnan(err) else max(worst, err)
        ok = ok and (err < tolerance or err < tolerance * max(1.0, max_magnitude(parts)))
    return VerifyReport(
        identity, "numeric", "pass" if ok else "fail", samples=samples, resamples=resamples,
        tolerance=tolerance, max_abs_residual=worst, provenance=provenance,
    )
