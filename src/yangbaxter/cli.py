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

from . import builders, triples, verify
from .tensors import weight_contract
from .triples import BDTriple

SUITES = (
    "cybe",
    "qybe",
    "hecke",
    "aybe",
    "unitarity",
    "lift",
    "central",
    "obstruction",
    "exponent",
    "cross-formula",
)

NUMERIC_SUITES = ("cybe", "qybe", "hecke", "aybe", "unitarity")


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
    a failed write leaves the old file and no temporary file behind.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    # mode "x" gives the permissions a new file gets from open(path, "w")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _structure_provenance(structure, s=None, extra=None):
    doc = structure.to_json()
    if s is not None:
        doc["s"] = s.to_json()
    if extra:
        doc.update(extra)
    return doc


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
    except ValueError as exc:
        raise CliError(f"bad rational in {what}: {exc}") from exc


def _select_structure(args):
    """Resolve the CLI selector to a unique associative structure."""
    n = args.n
    if args.cg is not None:
        for m, t in triples.enumerate_cg_triples(n):
            if m == args.cg:
                perms = triples.compatible_permutations(t)
                return perms[0], {"selector": f"cg m={m}"}
        raise CliError(f"no Cremmer-Gervais triple with m={args.cg} for n={n}")
    if args.trivial:
        t = BDTriple.make(n, {})
    elif args.triple_file:
        with open(args.triple_file, encoding="utf-8") as handle:
            t = BDTriple.from_json(json.load(handle))
        if t.n != n:
            raise CliError("triple file has a different n")
        bad = triples.validate_triple(t)
        if bad:
            raise CliError("invalid triple: " + "; ".join(bad))
    else:
        raise CliError("need one of --cg, --trivial, --triple-file")
    perms = triples.compatible_permutations(t)
    if not perms:
        raise NonAssociativeError(t)
    if args.perm:
        try:
            images = tuple(int(x) for x in args.perm.split(","))
            structure = triples.make_structure(t, images)
        except ValueError as exc:
            raise CliError(f"bad --perm: {exc}") from exc
        return structure, {"selector": "explicit permutation"}
    if len(perms) > 1:
        raise CliError(
            f"{len(perms)} compatible permutations; pick one with --perm"
        )
    return perms[0], {"selector": "unique permutation"}


class NonAssociativeError(Exception):
    def __init__(self, triple):
        self.triple = triple
        super().__init__("triple is not associative")


def _nonassociative_witness(t):
    s, _ = triples.solve_s_system(t)
    residual = verify.lift_obstruction(builders.build_r_ts(t, s))
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


def cmd_build(args):
    try:
        structure, selector = _select_structure(args)
    except NonAssociativeError as exc:
        # r_{T,s} exists for every triple: build it at the particular s
        if args.target != "classical":
            raise
        if args.perm or args.phi:
            raise CliError("--perm and --phi need an associative triple") from exc
        s, _ = triples.solve_s_system(exc.triple)
        extra = {"selector": "particular", "target": args.target}
        provenance = _structure_provenance(exc.triple, s, extra)
        return _emit_tensor(builders.build_r_ts(exc.triple, s), provenance, args)
    s, phi = _selected_s(structure, args)
    provenance = _structure_provenance(structure, s, selector)
    if phi is not None:
        provenance["phi"] = [str(x) for x in phi]
    provenance["target"] = args.target
    if args.target == "classical":
        tensor = builders.build_r_ts(structure.triple, s)
    elif args.target == "ggs":
        tensor = builders.build_R_ggs_assoc(structure, s)
    elif args.target == "baxterized":
        tensor = builders.baxterize(builders.build_R_ggs_assoc(structure, s))
    elif args.target == "ruv":
        provenance["formula"] = args.formula
        tensor = builders.build_r_uv(structure, s, formula=args.formula)
    else:
        raise CliError(f"unknown target {args.target!r}")
    return _emit_tensor(tensor, provenance, args)


def _emit_tensor(tensor, provenance, args):
    doc = builders.tensor2_to_json(tensor, provenance=provenance)
    if args.pretty:
        doc["pretty"] = tensor.pretty().splitlines()
    _emit(doc, args.output)
    return 0


def _triples_at(n, bound):
    """Triples driving the verify suites.

    Beyond the exhaustive-enumeration bound the listing falls back to the
    triples that exist closed-form for every n: the trivial one and the
    Cremmer-Gervais family.
    """
    if n <= bound:
        return triples.enumerate_triples(n, bound=bound), "exhaustive"
    listed = [BDTriple.make(n, {})]
    listed += [t for _, t in triples.enumerate_cg_triples(n)]
    return listed, "trivial+cg"


def _structures_for(t, source):
    perms = triples.compatible_permutations(t)
    if source == "exhaustive" or not t.is_trivial:
        return perms
    # the trivial triple has (n-1)! compatible cycles; beyond the
    # enumeration bound keep only the standard shift cycle
    shift = tuple(i % t.n + 1 for i in range(1, t.n + 1))
    return [triples.make_structure(t, shift)]


def _s_choices(t):
    particular, basis = triples.solve_s_system(t)
    yield "particular", particular
    for idx, b in enumerate(basis):
        yield f"particular+basis{idx}", particular + b


def _exponent_report(t, label, s, base_prov):
    stensor = builders.s_as_tensor(s)
    witness = None
    for alpha, beta, _, _ in triples.prec_pairs(t):
        lhs = triples.adjacency_exponent(t, alpha, beta)
        rhs = 1 - weight_contract(stensor, alpha.weights(t.n), beta.weights(t.n))
        if lhs != rhs:
            witness = {"index": list(alpha) + list(beta), "value": f"{lhs} != {rhs}"}
            break
    return verify.VerifyReport(
        "exponent", "symbolic", "pass" if witness is None else "fail",
        witness=witness, provenance=dict(base_prov, s=label),
    )


def _verify_symbolic(args):
    reports = []
    suites = args.suites
    listed, source = _triples_at(args.n, args.bound)
    for t in listed:
        base_prov = {"triple": t.to_json()}
        structures = _structures_for(t, source)
        if "cybe" in suites:
            for label, s in _s_choices(t):
                r = builders.build_r_ts(t, s)
                prov = dict(base_prov, s=label)
                reports.append(
                    verify.report_from_residual("cybe", verify.cybe_residual(r), prov)
                )
                reports.append(
                    verify.report_from_residual(
                        "cybe_spectral",
                        verify.cybe_spectral_residual(builders.hat_r(r)),
                        prov,
                    )
                )
        if "exponent" in suites:
            for label, s in _s_choices(t):
                reports.append(_exponent_report(t, label, s, base_prov))
        if "obstruction" in suites and not structures and args.include_nonassociative:
            # expected failures: the necessity obstruction on display
            for label, s in _s_choices(t):
                r = builders.build_r_ts(t, s)
                reports.append(
                    verify.report_from_residual(
                        "obstruction", verify.lift_obstruction(r), dict(base_prov, s=label)
                    )
                )
        for structure in structures:
            reports.extend(_structure_reports(structure, t, suites, base_prov))
    return reports


def _structure_reports(structure, t, suites, base_prov):
    reports = []
    base_prov = dict(base_prov, tilde_t=list(structure.tilde_t))
    s0 = triples.s0_from_structure(structure)
    prov = dict(base_prov, s="s0")
    if "obstruction" in suites:
        reports.append(
            verify.report_from_residual(
                "obstruction", verify.lift_obstruction(builders.build_r_ts(t, s0)), prov
            )
        )
    if suites & {"qybe", "hecke", "cross-formula"}:
        R_assoc = builders.build_R_ggs_assoc(structure, s0)
        if "qybe" in suites:
            reports.append(
                verify.report_from_residual(
                    "qybe", verify.qybe_residual(R_assoc), prov
                )
            )
        if "hecke" in suites:
            reports.append(
                verify.report_from_residual(
                    "hecke", verify.hecke_residual(R_assoc), prov
                )
            )
        if "cross-formula" in suites:
            R_general = builders.build_R_ggs_general(structure.triple, s0)
            reports.append(
                verify.report_from_residual("cross-formula-ggs", R_general - R_assoc, prov)
            )
    if suites & {"aybe", "unitarity", "lift", "central", "cross-formula"}:
        r_quantum = builders.build_r_uv(structure, s0, formula="quantum")
        if "cross-formula" in suites:
            r_kernel = builders.build_r_uv(structure, s0, formula="kernel")
            reports.append(
                verify.report_from_residual("cross-formula-ruv", r_quantum - r_kernel, prov)
            )
        if "aybe" in suites:
            reports.append(
                verify.report_from_residual(
                    "aybe", verify.aybe_residual(r_quantum), prov
                )
            )
        if "unitarity" in suites:
            reports.append(verify.unitarity_check(r_quantum, "associative", prov))
        if "lift" in suites:
            reports.append(verify.check_lift(r_quantum, structure.triple, s0, prov))
        if "central" in suites:
            lhs = r_quantum.scale(builders.q_minus_qinv(structure.n))
            rhs = builders.baxterize(builders.build_R_ggs_assoc(structure, s0))
            reports.append(verify.report_from_residual("central", lhs - rhs, prov))
    return reports


def _verify_numeric(args):
    reports = []
    bad = set(args.suites) - set(NUMERIC_SUITES)
    if bad:
        raise CliError(f"suites not available in numeric mode: {sorted(bad)}")
    if args.samples < 1:
        raise CliError("--samples must be at least 1 in numeric mode")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise CliError("--tolerance must be a finite number > 0")
    listed, source = _triples_at(args.n, args.bound)
    for t in listed:
        for structure in _structures_for(t, source):
            s0 = triples.s0_from_structure(structure)
            prov = {"triple": t.to_json(), "tilde_t": list(structure.tilde_t), "s": "s0"}
            common = dict(
                n=structure.n, samples=args.samples, tolerance=args.tolerance,
                seed=args.seed, provenance=prov,
            )
            if {"aybe", "unitarity"} & args.suites:
                r = builders.build_r_uv(structure, s0, formula="kernel")
                if "aybe" in args.suites:
                    reports.append(verify.numeric_residual("aybe", {"r": r}, **common))
                if "unitarity" in args.suites:
                    reports.append(
                        verify.numeric_residual("unitarity_assoc", {"r": r}, **common)
                    )
            if {"qybe", "hecke"} & args.suites:
                R = builders.build_R_ggs_assoc(structure, s0)
                if "qybe" in args.suites:
                    reports.append(verify.numeric_residual("qybe", {"R": R}, **common))
                if "hecke" in args.suites:
                    reports.append(verify.numeric_residual("hecke", {"R": R}, **common))
            if "cybe" in args.suites:
                r = builders.hat_r(builders.build_r_ts(t, s0))
                reports.append(
                    verify.numeric_residual("cybe_spectral", {"r": r}, **common)
                )
    return reports


def cmd_verify(args):
    if args.mode == "numeric":
        reports = _verify_numeric(args)
    else:
        reports = _verify_symbolic(args)
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
    p_build.add_argument("--cg", type=int)
    p_build.add_argument("--trivial", action="store_true")
    p_build.add_argument("--triple-file")
    p_build.add_argument("--perm", help='tilde T image list, e.g. "2,3,1"')
    p_build.add_argument("--phi", help="diagonal gauge entries, comma rationals")
    p_build.add_argument(
        "--target", choices=("classical", "ggs", "ruv", "baxterized"), required=True
    )
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
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "verify":
            if args.suite == "all":
                suites = set(NUMERIC_SUITES if args.mode == "numeric" else SUITES)
            else:
                suites = {s.strip() for s in args.suite.split(",")}
            unknown = suites - set(SUITES)
            if unknown:
                raise CliError(f"unknown suites: {sorted(unknown)}")
            args.suites = suites
            return cmd_verify(args)
        raise CliError(f"unknown command {args.command!r}")
    except NonAssociativeError as exc:
        index, value = _nonassociative_witness(exc.triple)
        _emit(
            {
                "error": "triple is not associative; no two-parameter lift exists",
                "triple": exc.triple.to_json(),
                "witness": {"index": list(index), "value": str(value)},
            },
            getattr(args, "output", None),
        )
        return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
