"""Batch front-end: enumerate triples, build matrices, run verification suites.

Exit codes: 0 all checks passed, 1 at least one residual failed, 2 usage
or internal error.  All documents are JSON with sorted keys, so a fixed
seed reproduces byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cached_property

from . import builders, triples, verify
from .triples import BDTriple

class CliError(Exception):
    """Usage or configuration error; maps to exit code 2."""


def _emit(doc, path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        out_dir = os.environ.get("YANGBAXTER_OUTPUT_DIR")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        _write_atomically(path, text)
    else:
        sys.stdout.write(text)


def _write_atomically(path, text):
    """Write through a fresh file in the target directory, then rename it over path.

    A reader sees the old file or the new one, never a partial write, and
    a failed write leaves the old file and no temporary file behind; it
    raises CliError naming path, not the temporary file.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # mode "x" gives the permissions a new file gets from open(path, "w")
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cmd_enumerate(args):
    n = args.n
    if args.filter == "cg":
        listed = [t for _, t in triples.enumerate_cg_triples(n)]
    elif n > args.bound:
        raise CliError(f"enumeration bound exceeded: n={n} > --bound {args.bound}")
    else:
        listed = triples.enumerate_triples(n, bound=args.bound)
    rows = []
    for t in listed:
        flags = triples.triple_flags(t)
        if args.filter == "associative" and not flags["associative"]:
            continue
        doc = t.to_json()
        doc.update(flags)
        rows.append(doc)
    _emit(
        {
            "schema_version": triples.SCHEMA_VERSION,
            "n": n,
            "filter": args.filter,
            "count": len(rows),
            "triples": rows,
        },
        args.output,
    )
    return 0


def _parse_fractions(text, n, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise CliError(f"{what} needs {n} comma-separated rationals")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational in {what}: {exc}") from exc


def _select_triple(args):
    """The triple named on the command line."""
    n = args.n
    if args.cg is not None:
        for m, t in triples.enumerate_cg_triples(n):
            if m == args.cg:
                return t
        raise CliError(f"no Cremmer-Gervais triple with m={args.cg} for n={n}")
    if args.trivial:
        return BDTriple.make(n, {})
    if not args.triple_file:
        raise CliError("need one of --cg, --trivial, --triple-file")
    try:
        with open(args.triple_file, encoding="utf-8") as handle:
            t = BDTriple.from_json(json.load(handle))
    except OSError as exc:
        raise CliError(
            f"bad --triple-file: cannot read {args.triple_file}: {exc.strerror or exc}"
        ) from exc
    except ValueError as exc:  # not JSON, or not a triple document
        raise CliError(f"bad --triple-file: {exc}") from exc
    if t.n != n:
        raise CliError("triple file has a different n")
    bad = triples.validate_triple(t)
    if bad:
        raise CliError("invalid triple: " + "; ".join(bad))
    return t


def _structure(t, perm):
    """t's one compatible structure, or the one a valid --perm names, or
    None when t has none.

    Structures are only listed when exactly one exists; more without
    --perm is a usage error, told from their count ((n-1)! for the
    trivial triple).  An invalid --perm is a usage error when t has
    compatible structures at all.
    """
    if not perm:
        count = triples.structure_count(t)
        if count > 1:
            raise CliError(f"{count} compatible permutations; pick one with --perm")
        return triples.compatible_permutations(t)[0] if count else None
    try:
        return triples.make_structure(t, tuple(int(x) for x in perm.split(",")))
    except ValueError as exc:
        if triples.structure_count(t):
            raise CliError(f"bad --perm: {exc}") from exc
        return None


def _nonassociative_witness(m):
    """(index, value) of a lift-obstruction coefficient of r_{T,s}."""
    t, residual = m.triple, verify.lift_obstruction(m.r_ts)
    # an orientation reversal pins a stable witness independent of s
    for a, b in t.pairs:
        key = (a + 2, a, b - 1, b, b, b + 1)
        if t.t_map.get(a + 1) == b - 1 and key in residual.coeffs:
            return key, residual.coeffs[key]
    return residual.lex_witness()


def _selected_s(structure, args):
    s0 = triples.s0_from_structure(structure)
    if args.phi:
        phi = _parse_fractions(args.phi, structure.n, "--phi")
        s = s0 + triples.phi_coboundary(phi, structure.n)
        try:
            triples.phi_from_s(structure, s)
        except ValueError as exc:
            raise CliError(f"bad --phi: {exc}") from exc
        return s, phi
    return s0, None


class _Matrices:
    """The matrices of a triple at one s, each built at most once.

    r_{T,s} exists for every triple; the quantum and two-parameter
    matrices need the associative structure.
    """

    def __init__(self, triple, s, structure=None, memo=None):
        self.triple, self.s, self.structure = triple, s, structure
        # one dict shared by the holders of a verify run (verify's memo)
        self.memo = memo

    @cached_property
    def r_ts(self):
        return builders.build_r_ts(self.triple, self.s)

    @cached_property
    def R_assoc(self):
        return builders.build_R_ggs_assoc(self.structure, self.s)

    @cached_property
    def r_quantum(self):
        return builders.build_r_uv(self.structure, self.s, formula="quantum")

    @cached_property
    def r_kernel(self):
        return builders.build_r_uv(self.structure, self.s, formula="kernel")


# build --target: the tensor of a holder, given --formula.
BUILD_TARGETS = {
    "classical": lambda m, formula: m.r_ts,
    "ggs": lambda m, formula: m.R_assoc,
    "ruv": lambda m, formula: builders.build_r_uv(m.structure, m.s, formula=formula),
    "baxterized": lambda m, formula: builders.baxterize(m.R_assoc),
}


def cmd_build(args):
    t = _select_triple(args)
    structure = _structure(t, args.perm)
    if structure is None:
        # r_{T,s} exists for every triple: build it at the particular s
        s, _ = triples.solve_s_system(t)
        m = _Matrices(t, s)
        if args.target != "classical":
            index, value = _nonassociative_witness(m)
            _emit({
                "error": "triple is not associative; no two-parameter lift exists",
                "triple": t.to_json(),
                "witness": {"index": list(index), "value": str(value)},
            }, args.output)
            return 2
        if args.perm or args.phi:
            raise CliError("--perm and --phi need an associative triple")
        provenance = dict(t.to_json(), s=s.to_json(), selector="particular")
    else:
        selector = (f"cg m={args.cg}" if args.cg is not None
                    else "explicit permutation" if args.perm else "unique permutation")
        s, phi = _selected_s(structure, args)
        m = _Matrices(t, s, structure)
        provenance = dict(structure.to_json(), s=s.to_json(), selector=selector)
        if phi is not None:
            provenance["phi"] = [str(x) for x in phi]
        if args.target == "ruv":
            provenance["formula"] = args.formula
    provenance["target"] = args.target
    tensor = BUILD_TARGETS[args.target](m, args.formula)
    doc = builders.tensor2_to_json(tensor, provenance=provenance)
    if args.pretty:
        doc["pretty"] = tensor.pretty().splitlines()
    _emit(doc, args.output)
    return 0


def _listing(n, bound):
    """The (triple, structures) pairs driving the verify suites.

    Beyond the exhaustive-enumeration bound the listing falls back to the
    triples that exist closed-form for every n: the trivial one and the
    Cremmer-Gervais family (whose m = 1 member is the trivial one at
    n = 2, listed once).  There the trivial triple's (n-1)! compatible
    cycles give way to the standard shift cycle, built without listing
    the others.
    """
    if n <= bound:
        listed = triples.enumerate_triples(n, bound=bound)
        return [(t, triples.compatible_permutations(t)) for t in listed]
    cg = [t for _, t in triples.enumerate_cg_triples(n) if not t.is_trivial]
    listed = [BDTriple.make(n, {})] + cg
    shift = tuple(i % n + 1 for i in range(1, n + 1))
    return [
        (t, [triples.make_structure(t, shift)] if t.is_trivial
         else triples.compatible_permutations(t))
        for t in listed
    ]


def _s_family(t, base_prov, memo):
    """Holders at the particular s of t and at particular + each basis vector."""
    particular, basis = triples.solve_s_system(t)
    family = [(particular, "particular")]
    family += [(particular + b, f"particular+basis{idx}") for idx, b in enumerate(basis)]
    return [
        (_Matrices(t, s, memo=memo), dict(base_prov, s=label)) for s, label in family
    ]


def _exponent_report(m, prov):
    """The adjacency exponent of every alpha < beta against 1 - (alpha (x) beta) s."""
    s, witness = m.s, None
    for alpha, beta, _, _, lhs, _ in triples.prec_pairs(m.triple):
        (a, b), (c, d) = alpha, beta
        rhs = 1 - (s.get(a, c) - s.get(a, d) - s.get(b, c) + s.get(b, d))
        if lhs != rhs:
            witness = {"index": list(alpha) + list(beta), "value": f"{lhs} != {rhs}"}
            break
    return verify.VerifyReport(
        "exponent", "symbolic", "pass" if witness is None else "fail",
        witness=witness, provenance=prov,
    )


def _residual(identity, formula):
    """A check reporting formula's residual tensor as identity."""
    return lambda m, prov: verify.report_from_residual(identity, formula(m), prov)


# the lift obstruction, a row of both PER_S_CHECKS and SYMBOLIC_CHECKS
_OBSTRUCTION = _residual("obstruction", lambda m: verify.lift_obstruction(m.r_ts, m.memo))

# The check plan, in report order.  Each row names the suite, then the
# matrix and the verifier.  Verifiers and builders are looked up through
# their module when the check runs, never stored, so a wrapper set on a
# module attribute after import still sees every call.
# Per-s rows: (suite, checks), each check(matrices, provenance) -> report,
# run at every s of a triple's family, one suite over the whole family before
# the next; the obstruction only for a triple with no compatible permutation.
PER_S_CHECKS = (
    ("cybe", (_residual("cybe", lambda m: verify.cybe_residual(m.r_ts, m.memo)),
              _residual("cybe_spectral", lambda m: verify.cybe_spectral_residual(
                  builders.hat_r(m.r_ts), m.memo)))),
    ("exponent", (_exponent_report,)),
    ("obstruction", (_OBSTRUCTION,)),
)
# Symbolic rows of one associative structure at s0: (suite, check).
SYMBOLIC_CHECKS = (
    ("obstruction", _OBSTRUCTION),
    ("qybe", _residual("qybe", lambda m: verify.qybe_residual(m.R_assoc))),
    ("hecke", _residual("hecke", lambda m: verify.hecke_residual(m.R_assoc))),
    ("cross-formula", _residual("cross-formula-ggs", lambda m: (
        builders.build_R_ggs_general(m.triple, m.s) - m.R_assoc))),
    ("cross-formula", _residual("cross-formula-ruv", lambda m: m.r_quantum - m.r_kernel)),
    ("aybe", _residual("aybe", lambda m: verify.aybe_residual(m.r_quantum, m.memo))),
    ("unitarity", lambda m, prov: verify.unitarity_check(m.r_quantum, "associative", prov)),
    ("lift", lambda m, prov: verify.check_lift(m.r_quantum, m.r_ts, prov, m.memo)),
    ("central", _residual("central", lambda m: (
        m.r_quantum.scale(builders.q_minus_qinv(m.triple.n)) - builders.baxterize(m.R_assoc)))),
)
# Numeric rows: (suite, identity, matrix); verify.numeric_residual samples the
# identity's formula on the matrix.
NUMERIC_CHECKS = (
    ("aybe", "aybe", lambda m: m.r_kernel),
    ("unitarity", "unitarity_assoc", lambda m: m.r_kernel),
    ("qybe", "qybe", lambda m: m.R_assoc),
    ("hecke", "hecke", lambda m: m.R_assoc),
    ("cybe", "cybe_spectral", lambda m: builders.hat_r(m.r_ts)),
)
SUITES = tuple(dict.fromkeys(suite for suite, _ in PER_S_CHECKS + SYMBOLIC_CHECKS))
NUMERIC_SUITES = tuple(dict.fromkeys(suite for suite, _, _ in NUMERIC_CHECKS))


def _verify(args):
    numeric, suites = args.mode == "numeric", args.suites
    if numeric:
        bad = suites - set(NUMERIC_SUITES)
        if bad:
            raise CliError(f"suites not available in numeric mode: {sorted(bad)}")
        if args.samples < 1:
            raise CliError("--samples must be at least 1 in numeric mode")
        if not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise CliError("--tolerance must be a finite number > 0")
    reports = []
    memo = {}
    for t, structures in _listing(args.n, args.bound):
        base_prov = {"triple": t.to_json()}
        per_s = set() if numeric else suites
        if structures or not args.include_nonassociative:
            # per s, the obstruction is shown only for a triple with no structure
            per_s = per_s - {"obstruction"}
        rows = [checks for suite, checks in PER_S_CHECKS if suite in per_s]
        family = _s_family(t, base_prov, memo) if rows else []
        reports += [check(m, prov) for checks in rows for m, prov in family for check in checks]
        for structure in structures:
            m = _Matrices(t, triples.s0_from_structure(structure), structure, memo)
            prov = dict(base_prov, tilde_t=list(structure.tilde_t), s="s0")
            if not numeric:
                reports += [check(m, prov) for suite, check in SYMBOLIC_CHECKS if suite in suites]
                continue
            for suite, identity, matrix in NUMERIC_CHECKS:
                if suite in suites:
                    key = verify.NUMERIC_IDENTITIES[identity]
                    reports.append(verify.numeric_residual(
                        identity, {key: matrix(m)}, n=structure.n, samples=args.samples,
                        tolerance=args.tolerance, seed=args.seed, provenance=prov, memo=memo,
                    ))
    return reports


def cmd_verify(args):
    reports = _verify(args)
    failed = [r for r in reports if not r.passed]
    doc = {
        "schema_version": triples.SCHEMA_VERSION,
        "config": {
            "n": args.n,
            "mode": args.mode,
            "suites": sorted(args.suites),
            "samples": args.samples if args.mode == "numeric" else None,
            "tolerance": args.tolerance if args.mode == "numeric" else None,
            "seed": args.seed if args.mode == "numeric" else None,
        },
        "summary": {"total": len(reports), "passed": len(reports) - len(failed)},
        "reports": [r.as_dict() for r in reports],
    }
    _emit(doc, args.output)
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="yangbaxter",
        description="enumerate Belavin-Drinfeld data, build r-matrices, verify identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list BD triples with flags")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--filter", choices=("all", "associative", "cg"), default="all")
    p_enum.add_argument("--bound", type=int, default=6)
    p_enum.add_argument("--output")

    p_build = sub.add_parser("build", help="serialize a matrix")
    p_build.add_argument("--n", type=int, required=True)
    selector = p_build.add_mutually_exclusive_group()
    selector.add_argument("--cg", type=int)
    selector.add_argument("--trivial", action="store_true")
    selector.add_argument("--triple-file")
    p_build.add_argument("--perm", help='tilde T image list, e.g. "2,3,1"')
    p_build.add_argument("--phi", help="diagonal gauge entries, comma rationals")
    p_build.add_argument("--target", choices=tuple(BUILD_TARGETS), required=True)
    p_build.add_argument("--formula", choices=("quantum", "kernel", "both"), default="both")
    p_build.add_argument("--pretty", action="store_true")
    p_build.add_argument("--output")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--mode", choices=("symbolic", "numeric"), default="symbolic")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--samples", type=int, default=100)
    p_verify.add_argument("--tolerance", type=float, default=1e-9)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bound", type=int, default=6)
    p_verify.add_argument("--include-nonassociative", action="store_true")
    p_verify.add_argument("--output")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n < 1:
            raise CliError("--n must be at least 1")
        if args.command in ("enumerate", "verify") and args.bound < 0:
            raise CliError("--bound must be at least 0")
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "verify":
            suites = {s.strip() for s in args.suite.split(",")}
            if suites == {"all"}:
                suites = set(NUMERIC_SUITES if args.mode == "numeric" else SUITES)
            elif "all" in suites:
                raise CliError("--suite all cannot be combined with other suites")
            unknown = suites - set(SUITES)
            if unknown:
                raise CliError(f"unknown suites: {sorted(unknown)}")
            args.suites = suites
            return cmd_verify(args)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        import traceback  # only here, to keep it out of every start-up

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
