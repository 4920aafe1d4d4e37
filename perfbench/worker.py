"""Benchmark worker: one fresh process per certification.

Usage: ``python3 perfbench/worker.py ROOT`` where ROOT is the checkout
holding ``src/yangbaxter``.  The worker imports the package, prints
``ready`` and then reads one JSON request line from stdin:

    {"kind": "setup"}                       exit at once (set-up timing)
    {"kind": "verify", "argv": [...], "trace": false}
    {"kind": "control", "n": 4, "identities": [...], "numeric": {...}}

It answers with one JSON line on stdout.  ``verify`` prints ``start``
just before it runs ``yangbaxter.cli.main(argv)`` in-process with its
stdout captured, then returns the captured text, the wall and CPU time
of the call and the peak resident memory of the process; with ``trace``
it first wraps the package (see tracer.py) and also returns the
per-layer table.
``control`` perturbs one coefficient of a built matrix and returns the
verdict the public verifier gives on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_verify(package, argv, trace, proto):
    tracer = None
    if trace:
        # imported here, so that untraced set-up time does not include it
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(package)
    main = package.cli.main
    captured = io.StringIO()
    proto.write("start\n")
    proto.flush()
    cpu0 = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = main(argv)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    reply = {
        "rc": rc,
        "stdout": captured.getvalue(),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        reply["layers"] = layer_metrics(tracer, wall)
    return reply


def _perturbed(tensor):
    """The same matrix with 1 added to its lexicographically least coefficient."""
    coeffs = dict(tensor.coeffs)
    key = min(coeffs)
    coeffs[key] = coeffs[key] + 1
    return type(tensor)(tensor.n, coeffs)


def run_control(package, n, identities, numeric):
    """Verdicts of the public verifiers on perturbed matrices.

    Symbolic controls use the trivial triple's first associative
    structure; numeric ones the first Cremmer-Gervais structure, sampled
    with the workload's own seed and sample count.
    """
    builders, triples, verify = package.builders, package.triples, package.verify
    if numeric:
        _, t = triples.enumerate_cg_triples(n)[0]
    else:
        t = triples.BDTriple.make(n, {})
    structure = triples.compatible_permutations(t)[0]
    s0 = triples.s0_from_structure(structure)
    inputs = {
        "aybe": lambda: builders.build_r_uv(
            structure, s0, formula="kernel" if numeric else "quantum"
        ),
        "qybe": lambda: builders.build_R_ggs_assoc(structure, s0),
        "hecke": lambda: builders.build_R_ggs_assoc(structure, s0),
        "cybe_spectral": lambda: builders.hat_r(builders.build_r_ts(t, s0)),
    }
    symbolic = {
        "aybe": verify.aybe_residual,
        "qybe": verify.qybe_residual,
        "hecke": verify.hecke_residual,
        "cybe_spectral": verify.cybe_spectral_residual,
    }
    out = []
    for identity in identities:
        bad = _perturbed(inputs[identity]())
        if numeric:
            name = "R" if identity in ("qybe", "hecke") else "r"
            report = verify.numeric_residual(identity, {name: bad}, n, **numeric)
        else:
            report = verify.report_from_residual(identity, symbolic[identity](bad))
        out.append(report.as_dict())
    return {"reports": out}


def main():
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    import yangbaxter
    import yangbaxter.cli  # noqa: F401 - cli is not imported by the package root

    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    request = json.loads(sys.stdin.readline())
    kind = request["kind"]
    if kind == "setup":
        reply = {}
    elif kind == "verify":
        reply = run_verify(yangbaxter, request["argv"], request["trace"], proto)
    elif kind == "control":
        reply = run_control(
            yangbaxter, request["n"], request["identities"], request["numeric"]
        )
    else:
        raise ValueError(f"unknown request {kind!r}")
    reply["package"] = os.path.abspath(yangbaxter.__file__)
    proto.write(json.dumps(reply) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
