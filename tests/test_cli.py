"""Command-line front-end: exit codes, document shapes, round trips."""

import json

import pytest

from yangbaxter import builders, cli, triples
from yangbaxter.builders import build_r_ts, build_r_uv
from yangbaxter import verify
from yangbaxter.tensors import Tensor2

from conftest import cg_structure, tensor2_from_json


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_enumerate_cg_counts(capsys):
    code, doc = run_cli(capsys, "enumerate", "--n", "3", "--filter", "cg")
    assert code == 0
    assert doc["count"] == 2
    assert all(t["valid"] for t in doc["triples"])


def test_enumerate_all_n2(capsys):
    code, doc = run_cli(capsys, "enumerate", "--n", "2", "--filter", "all")
    assert code == 0
    assert doc["count"] == 1
    (t,) = doc["triples"]
    assert t["associative"] and t["compatible_permutations"] == 1


def test_enumerate_n5_flags_reversing_triple(capsys):
    code, doc = run_cli(capsys, "enumerate", "--n", "5", "--filter", "all")
    assert code == 0
    reversing = [
        t for t in doc["triples"]
        if t["gamma1"] == [1, 2] and t["t_map"] == {"1": 4, "2": 3}
    ]
    assert len(reversing) == 1
    assert not reversing[0]["associative"]
    assert not reversing[0]["orientation_preserving"]


def test_enumerate_bound_exceeded(capsys):
    code = cli.main(["enumerate", "--n", "9", "--filter", "all"])
    assert code == 2


def test_build_ggs_trivial_n2_is_rst(capsys):
    code, doc = run_cli(
        capsys, "build", "--n", "2", "--trivial", "--perm", "2,1", "--target", "ggs"
    )
    assert code == 0
    tensor = tensor2_from_json(doc)
    from yangbaxter.builders import build_R_st

    assert tensor == build_R_st(2)
    assert doc["provenance"]["tilde_t"] == [2, 1]


def test_build_cg_with_its_own_perm_keeps_the_cg_selector(capsys):
    argv = ("build", "--n", "3", "--cg", "1", "--target", "classical")
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["provenance"]["selector"] == "cg m=1"
    assert run_cli(capsys, *argv, "--perm", "2,3,1") == (code, doc)


def test_build_of_a_triple_with_one_structure_names_it_unique(capsys):
    """With no --perm and no --cg, the one compatible permutation is built
    and labelled as the unique one; naming it with --perm builds the same."""
    argv = ("build", "--n", "2", "--trivial", "--target", "ggs")
    code, doc = run_cli(capsys, *argv)
    assert code == 0 and doc["provenance"]["selector"] == "unique permutation"
    assert doc["provenance"]["tilde_t"] == [2, 1]
    again, explicit = run_cli(capsys, *argv, "--perm", "2,1")
    assert again == 0 and explicit["provenance"]["selector"] == "explicit permutation"
    assert tensor2_from_json(explicit) == tensor2_from_json(doc)


def test_build_ruv_has_unit_pole(capsys):
    code, doc = run_cli(
        capsys, "build", "--n", "3", "--cg", "1", "--target", "ruv"
    )
    assert code == 0
    tensor = tensor2_from_json(doc)
    pole = verify.u_coefficients(tensor, (-1,))[0]
    from yangbaxter.tensors import Tensor2
    from yangbaxter.scalars import rf

    assert pole == Tensor2.identity(3).map_scalars(rf)


def test_build_nonassociative_exit2_with_witness(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "n": 5,
        "gamma1": [1, 2],
        "gamma2": [3, 4],
        "t_map": {"1": 4, "2": 3},
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(
        capsys, "build", "--n", "5", "--triple-file", str(path), "--target", "ruv"
    )
    assert code == 2
    assert out["witness"]["index"] == [3, 1, 3, 4, 4, 5]
    assert out["witness"]["value"] == "1"


def test_build_roundtrip_reverifies(capsys):
    code, doc = run_cli(
        capsys, "build", "--n", "2", "--trivial", "--perm", "2,1", "--target", "ruv"
    )
    assert code == 0
    parsed = tensor2_from_json(doc)
    assert parsed == build_r_uv(cg_structure(2), formula="kernel")
    assert verify.aybe_residual(parsed).is_zero()


def test_verify_symbolic_all_pass_n2(capsys):
    code, doc = run_cli(
        capsys, "verify", "--n", "2", "--suite",
        "cybe,qybe,hecke,aybe,unitarity,lift,central,obstruction,exponent,cross-formula",
    )
    assert code == 0
    assert doc["summary"]["passed"] == doc["summary"]["total"] > 0


def test_verify_symbolic_all_suites_n3(capsys):
    code, doc = run_cli(capsys, "verify", "--n", "3", "--suite", "all")
    assert code == 0
    assert doc["summary"]["passed"] == doc["summary"]["total"] == 60


def test_verify_numeric_beyond_enumeration_bound(capsys):
    # above --bound the verify command falls back to trivial + CG families
    code, doc = run_cli(
        capsys, "verify", "--n", "8", "--mode", "numeric", "--suite", "qybe",
        "--samples", "2", "--seed", "7",
    )
    assert code == 0
    assert doc["summary"]["total"] == 5  # trivial shift cycle + 4 CG structures
    assert doc["summary"]["passed"] == 5


def test_verify_numeric_suite_all_means_numeric_suites(capsys):
    code, doc = run_cli(
        capsys, "verify", "--n", "3", "--mode", "numeric", "--samples", "2", "--seed", "1",
    )
    assert code == 0
    assert doc["config"]["suites"] == sorted(cli.NUMERIC_SUITES)
    assert {r["identity"] for r in doc["reports"]} == {
        "aybe", "unitarity_assoc", "qybe", "hecke", "cybe_spectral",
    }
    # an explicit suite outside numeric mode is still a usage error
    code = cli.main(["verify", "--n", "3", "--mode", "numeric", "--suite", "aybe,lift"])
    assert code == 2
    assert "suites not available in numeric mode: ['lift']" in capsys.readouterr().err


def test_verify_obstruction_include_nonassociative_exit1(capsys):
    code, doc = run_cli(
        capsys, "verify", "--n", "5", "--suite", "obstruction",
        "--include-nonassociative", "--bound", "5",
    )
    assert code == 1
    failing = [r for r in doc["reports"] if r["result"] == "fail"]
    assert failing
    assert all(r["witness"] is not None for r in failing)


def test_verify_numeric_deterministic(capsys):
    """The same --seed gives the same stdout bytes, for every numeric suite."""
    args = [
        "verify", "--n", "3", "--mode", "numeric", "--suite", "all",
        "--samples", "4", "--tolerance", "1e-9", "--seed", "7",
    ]
    outs = []
    for argv in (args, args, args[:-1] + ["8"]):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_structures_beyond_the_bound_list_no_trivial_cycles(monkeypatch):
    """Above --bound the trivial triple keeps only the shift cycle, built
    directly: listing its (n-1)! compatible cycles is out of reach at n = 16."""
    compatible = triples.compatible_permutations

    def refuse_trivial(t):
        if t.is_trivial:
            raise AssertionError("compatible_permutations called on the trivial triple")
        return compatible(t)

    monkeypatch.setattr(triples, "compatible_permutations", refuse_trivial)
    (trivial, (structure,)), *cg = cli._listing(16, 6)
    assert trivial == triples.BDTriple.make(16, {})
    assert structure.tilde_t == tuple(range(2, 17)) + (1,)
    assert cg == [(t, compatible(t)) for _, t in triples.enumerate_cg_triples(16)]


@pytest.mark.parametrize("n", [1, 2])
def test_listing_beyond_the_bound_holds_the_trivial_triple_once(capsys, n):
    """Cremmer-Gervais m = 1 is the trivial triple at n <= 2; past --bound
    it is listed once, as within it."""
    listed = [t for t, _ in cli._listing(n, 0)]
    assert listed == [triples.BDTriple.make(n, {})]
    beyond = run_cli(capsys, "verify", "--n", "2", "--bound", "1", "--suite", "unitarity")
    within = run_cli(capsys, "verify", "--n", "2", "--bound", "6", "--suite", "unitarity")
    assert beyond == within and beyond[1]["summary"]["total"] == 1


def test_build_with_a_valid_perm_lists_no_structures(capsys, monkeypatch):
    """A valid --perm is built directly: listing the trivial triple's 11!
    compatible cycles at n = 12 is out of reach."""
    def refuse(t):
        raise AssertionError("compatible_permutations called")

    monkeypatch.setattr(triples, "compatible_permutations", refuse)
    shift = ",".join(str(i % 12 + 1) for i in range(1, 13))
    code, doc = run_cli(capsys, "build", "--n", "12", "--trivial", "--perm", shift,
                        "--target", "classical")
    assert code == 0
    assert doc["provenance"]["selector"] == "explicit permutation"


def test_build_byte_deterministic(capsys):
    args = ["build", "--n", "3", "--cg", "1", "--target", "ruv"]
    cli.main(args)
    first = capsys.readouterr().out
    cli.main(args)
    second = capsys.readouterr().out
    assert first == second


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--n", "2", "--suite", "nope"]) == 2


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YANGBAXTER_OUTPUT_DIR", str(tmp_path))
    code = cli.main(["enumerate", "--n", "2", "--output", "out.json"])
    assert code == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["count"] == 1


def test_output_file_is_replaced_atomically(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    code = cli.main(["enumerate", "--n", "2", "--output", str(target)])
    assert code == 2
    assert "rename failed" in capsys.readouterr().err
    # the old file is untouched and no temporary file is left behind
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]
    monkeypatch.undo()
    assert cli.main(["enumerate", "--n", "2", "--output", str(target)]) == 0
    assert json.loads(target.read_text())["count"] == 1
    assert list(tmp_path.iterdir()) == [target]


def test_output_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert cli.main(["enumerate", "--n", "2", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


NONASSOCIATIVE = [
    t for n in range(2, 7) for t in triples.enumerate_triples(n)
    if not triples.compatible_permutations(t)
]


def test_nonassociative_triples_up_to_n6():
    assert [t.n for t in NONASSOCIATIVE] == [5] * 2 + [6] * 24


@pytest.mark.parametrize(
    "t", NONASSOCIATIVE, ids=[f"n{t.n}-{i}" for i, t in enumerate(NONASSOCIATIVE)]
)
def test_nonassociative_witness_is_an_obstruction_coefficient(tmp_path, capsys, t):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(t.to_json()))
    code, out = run_cli(
        capsys, "build", "--n", str(t.n), "--triple-file", str(path), "--target", "ruv"
    )
    assert code == 2
    # the witness value may depend on s, so compare with the particular
    # solution, the one the CLI builds
    residual = verify.lift_obstruction(build_r_ts(t, triples.solve_s_system(t)[0]))
    index = tuple(out["witness"]["index"])
    assert index in residual.coeffs
    assert out["witness"]["value"] == str(residual.coeffs[index])


def assert_usage_error(capsys, argv, message=""):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)
    assert "internal error" not in captured.err


NUMERIC_N3 = ("verify", "--n", "3", "--mode", "numeric", "--suite", "aybe")


@pytest.mark.parametrize("argv", [
    NUMERIC_N3 + ("--samples", "0"),
    NUMERIC_N3 + ("--samples", "-2"),
    ("verify", "--n", "0"),
    ("verify", "--n", "-3"),
    ("build", "--n", "-2", "--trivial", "--target", "classical"),
    ("build", "--n", "0", "--trivial", "--target", "ggs"),
    ("enumerate", "--n", "0"),
], ids=" ".join)
def test_sizes_and_sample_counts_below_one_are_usage_errors(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("tolerance", ["nan", "0", "-1e-9", "inf"])
def test_tolerance_must_be_finite_and_positive(capsys, tolerance):
    assert_usage_error(
        capsys, NUMERIC_N3 + ("--samples", "2", f"--tolerance={tolerance}"), "--tolerance"
    )


@pytest.mark.parametrize("argv, message", [
    (("build", "--n", "3", "--trivial", "--perm", "a", "--target", "ggs"), "bad --perm"),
    (("build", "--n", "3", "--cg", "1", "--perm", "9,9,9", "--target", "classical"),
     "bad --perm"),
    (("build", "--n", "3", "--cg", "1", "--perm", "3,1,2", "--target", "classical"),
     "bad --perm"),
    (("build", "--n", "3", "--cg", "1", "--target", "ruv", "--phi", "1,0,0"), "bad --phi"),
    (("build", "--n", "3", "--trivial", "--perm", "2,3,1", "--phi", "1/0,0,0",
      "--target", "classical"), "bad rational in --phi"),
], ids=["perm", "cg-perm-malformed", "cg-perm-incompatible", "phi", "phi-zero-denominator"])
def test_bad_perm_and_phi_are_usage_errors(capsys, argv, message):
    assert_usage_error(capsys, argv, message)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ('{"n": 3', "Expecting"),
    ('{"n": 3}', "expected an object with n and a t_map object"),
    ('{"n": 3, "t_map": {"1": "two"}}', "invalid literal"),
    ('{"n": 3, "t_map": {"1": 2, "01": 2}}', "t_map names root 1 twice"),
    ('{"n": 3, "gamma1": [2], "t_map": {"1": 2}}', "gamma1 [2] differs from the t_map's [1]"),
    ('{"n": 3, "gamma2": [1], "t_map": {"1": 2}}', "gamma2 [1] differs from the t_map's [2]"),
    ('{"n": 3, "gamma1": 1, "t_map": {"1": 2}}', "gamma1 1 differs from the t_map's [1]"),
], ids=["missing", "not-json", "no-t_map", "non-integer", "root-twice", "gamma1",
        "gamma2", "gamma-not-a-list"])
def test_bad_triple_file_is_a_usage_error(tmp_path, capsys, content, message):
    path = tmp_path / "triple.json"
    if content is not None:
        path.write_text(content)
    argv = ("build", "--n", "3", "--triple-file", str(path), "--target", "classical")
    assert_usage_error(capsys, argv, "bad --triple-file: " + message)


@pytest.mark.parametrize("selectors", [
    ("--trivial", "--cg", "1"),
    ("--cg", "1", "--triple-file", "missing.json"),
    ("--triple-file", "missing.json", "--trivial"),
], ids=["trivial-cg", "cg-file", "file-trivial"])
def test_conflicting_triple_selectors_are_a_usage_error(capsys, selectors):
    """Two of --cg, --trivial and --triple-file: argparse exits 2 naming
    both, before any matrix is built or any file read."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--n", "3", *selectors, "--target", "classical"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = [arg for arg in selectors if arg.startswith("--")]
    assert "not allowed with argument" in captured.err
    assert all(name in captured.err for name in named)


def test_self_contradicting_triple_file_is_a_usage_error(tmp_path, capsys):
    """The keys "1" and "01" name one root, and the stated Gamma_1, Gamma_2
    contradict the t_map: neither may silently pick a triple."""
    path = tmp_path / "triple.json"
    path.write_text('{"n": 4, "gamma1": [3], "gamma2": [1], "t_map": {"1": 3, "01": 2}}')
    argv = ("build", "--n", "4", "--triple-file", str(path), "--target", "classical")
    assert_usage_error(capsys, argv, "bad --triple-file: t_map names root 1 twice")
    path.write_text('{"n": 4, "gamma1": [3], "gamma2": [1], "t_map": {"1": 3}}')
    assert_usage_error(capsys, argv, "bad --triple-file: gamma1 [3] differs from the t_map's [1]")


def test_build_counts_structures_without_listing_them(capsys, monkeypatch):
    """Without --perm the trivial triple's 11! structures at n = 12 are
    counted from the forced chains, none of them built."""
    def refuse(t):
        raise AssertionError("compatible_permutations called")

    monkeypatch.setattr(triples, "compatible_permutations", refuse)
    argv = ("build", "--n", "12", "--trivial", "--target", "classical")
    assert_usage_error(capsys, argv, "39916800 compatible permutations; pick one with --perm")


def test_enumerate_flags_count_structures_without_listing_them(capsys, monkeypatch):
    def refuse(t):
        raise AssertionError("compatible_permutations called")

    monkeypatch.setattr(triples, "compatible_permutations", refuse)
    code, doc = run_cli(capsys, "enumerate", "--n", "5")
    assert code == 0
    counts = {json.dumps(row["t_map"], sort_keys=True): row["compatible_permutations"]
              for row in doc["triples"]}
    assert counts["{}"] == 24 and counts['{"1": 4, "2": 3}'] == 0


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "9"),
], ids=" ".join)
def test_enumerate_above_bound_is_a_usage_error(capsys, argv):
    assert_usage_error(capsys, argv, "enumeration bound exceeded")


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "4", "--bound", "-2"),
    ("enumerate", "--n", "2", "--filter", "cg", "--bound", "-1"),
    ("verify", "--n", "3", "--bound", "-1", "--suite", "exponent"),
], ids=" ".join)
def test_negative_bound_is_a_usage_error(capsys, argv):
    assert_usage_error(capsys, argv, "--bound must be at least 0")


@pytest.mark.parametrize("suite", ["all,aybe", "aybe,all"])
def test_suite_all_cannot_be_combined_with_other_suites(capsys, suite):
    assert_usage_error(capsys, ("verify", "--n", "3", "--suite", suite),
                       "--suite all cannot be combined with other suites")


def test_build_classical_for_nonassociative_triple(tmp_path, capsys, reversing5):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(reversing5.to_json()))
    code, doc = run_cli(
        capsys, "build", "--n", "5", "--triple-file", str(path), "--target", "classical"
    )
    assert code == 0
    s = triples.solve_s_system(reversing5)[0]
    assert doc["provenance"] == dict(
        reversing5.to_json(), s=s.to_json(), selector="particular", target="classical"
    )
    r = tensor2_from_json(doc)
    assert verify.cybe_residual(r).is_zero()
    assert r + r.flip21() == Tensor2.perm(5)


@pytest.mark.parametrize("option", [("--perm", "2,3,4,5,1"), ("--phi", "0,0,0,0,0")])
def test_perm_and_phi_need_an_associative_triple(tmp_path, capsys, reversing5, option):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(reversing5.to_json()))
    argv = ("build", "--n", "5", "--triple-file", str(path), "--target", "classical")
    assert_usage_error(capsys, argv + option, "--perm and --phi")


def test_internal_error_prints_its_traceback(capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(builders, "build_r_ts", boom)
    assert cli.main(["verify", "--n", "2", "--suite", "cybe"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert captured.err.rstrip("\n").endswith("internal error: boom")


def test_verify_builds_each_quantum_matrix_once_per_structure(capsys, monkeypatch):
    calls = []
    build = builders.build_R_ggs_assoc

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(builders, "build_R_ggs_assoc", counting)
    code, doc = run_cli(capsys, "verify", "--n", "3", "--suite", "all")
    assert code == 0
    structures = [r for r in doc["reports"] if r["identity"] == "qybe"]
    assert len(calls) == len(structures) == 4


def _count_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that counts its calls in calls[name]."""
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_per_s_suites_build_r_ts_once_per_s(capsys, monkeypatch):
    # the orientation-reversing n = 5 triple has no compatible permutation
    # and a 3-dimensional s-family: cybe and the on-display obstruction
    # share one r_{T,s} for each of its 4 values of s
    reversing = triples.BDTriple.make(5, {1: 4, 2: 3})
    monkeypatch.setattr(triples, "enumerate_triples", lambda n, bound: [reversing])
    calls = {}
    _count_calls(monkeypatch, builders, "build_r_ts", calls)
    code, doc = run_cli(capsys, "verify", "--n", "5", "--suite", "cybe,obstruction",
                        "--include-nonassociative", "--bound", "5")
    assert code == 1
    assert {r["provenance"]["s"] for r in doc["reports"]} == {
        "particular", "particular+basis0", "particular+basis1", "particular+basis2"}
    assert calls == {"build_r_ts": 4}


def test_lift_compares_with_the_holders_r_ts(capsys, monkeypatch):
    # r_{T,s} at s0 is built once per structure for the obstruction and
    # the lift: check_lift takes the holder's, it builds none of its own
    calls = {}
    for module in (builders, verify):
        _count_calls(monkeypatch, module, "build_r_ts", calls)
    code, doc = run_cli(capsys, "verify", "--n", "3", "--suite", "obstruction,lift")
    assert code == 0 and len(doc["reports"]) == 8
    assert calls == {"build_r_ts": 4}


def test_no_memo_outlives_a_verify_run(capsys, monkeypatch):
    # each run expands its distinct entries afresh: a memo kept past a run
    # would leave the second run fewer expansions
    calls = {}
    _count_calls(monkeypatch, verify, "expand_in_u", calls)
    counts = []
    for _ in range(2):
        assert run_cli(capsys, "verify", "--n", "3", "--suite", "lift,aybe")[0] == 0
        counts.append(calls.pop("expand_in_u"))
    assert counts[0] == counts[1] > 0


# Names the perfbench span tracer groups by layer.  It rebinds them on their
# module after import, so the CLI must look each one up at call time.
TRACED = {
    verify: ("cybe_spectral_residual", "aybe_residual", "qybe_residual", "hecke_residual",
             "check_lift", "lift_obstruction", "numeric_residual"),
    builders: ("build_r_ts", "hat_r", "build_R_ggs_assoc", "build_R_ggs_general",
               "build_r_uv", "baxterize"),
}


def test_cli_calls_traced_names_through_their_module(capsys, monkeypatch):
    calls = {}
    for module, names in TRACED.items():
        for name in names:
            _count_calls(monkeypatch, module, name, calls)
    assert run_cli(capsys, "verify", "--n", "2", "--suite", "all")[0] == 0
    assert run_cli(capsys, "verify", "--n", "2", "--mode", "numeric", "--samples", "1")[0] == 0
    assert sorted(calls) == sorted(name for names in TRACED.values() for name in names)


@pytest.mark.parametrize("argv", [
    "verify --n 4 --mode numeric --suite aybe,unitarity,qybe,hecke,cybe --samples 1",
    "verify --n 4 --suite all",
])
def test_verify_computes_each_structures_s0_once(capsys, argv):
    """The CLI, phi_from_s and the builders each ask for a structure's s0,
    which is computed once per structure of the listing."""
    triples.s0_from_structure.cache_clear()
    code, doc = run_cli(capsys, *argv.split())
    assert code == 0 and doc["summary"]["passed"] == doc["summary"]["total"]
    structures = sum(len(found) for _, found in cli._listing(4, 6))
    assert structures == 14
    info = triples.s0_from_structure.cache_info()
    assert info.misses == structures and info.hits >= 2 * structures
