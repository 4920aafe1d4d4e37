"""Golden output: stdout digests and exit codes of exact-arithmetic commands.

Every build and symbolic verify document is byte-deterministic, so a
refactor of the scalar, tensor or builder layers must leave these digests
unchanged.  Seeded numeric commands are pinned too: their floats are
summed in a fixed order, so a change to the vector layer that reorders a
sum shows here.  Their digests also pin the platform's libm, as `cmath`
results may differ in the last ulp across platforms.  After a deliberate
change of output, print the new digests with `command_digest` and update
the table.
"""

import hashlib
import json

import pytest

from yangbaxter import builders, cli, triples
from yangbaxter.tensors import _terms_key

from conftest import s_family

TRIPLE_FILE = "reversing5.json"

# the orientation-reversing n = 5 triple: T(a1) = a4, T(a2) = a3
REVERSING5 = {
    "schema_version": 1,
    "n": 5,
    "gamma1": [1, 2],
    "gamma2": [3, 4],
    "t_map": {"1": 4, "2": 3},
}

GOLDEN = {
    "build --n 3 --cg 1 --target classical --pretty": (
        0, "1ab33706fd7dec5665dc758719b84d9b1f2a3c5e098bfcdf19d0a43e5c62ad0e"
    ),
    "build --n 3 --cg 1 --target ggs --pretty": (
        0, "c726844f65d6dda2c90eb372d06805adf31ab741353f3adce4655ee9e0799ffd"
    ),
    "build --n 3 --cg 1 --target baxterized --pretty": (
        0, "098ff281e88225aff5db8b4be9944d21592c66c66f29bac981428890f1646f4d"
    ),
    # an exponent that fractional gauge exponents sum to an integer prints
    # as one (X1^2, not X1^(2)), here and in the two n = 5 ruv commands
    "build --n 3 --cg 1 --target ruv --pretty": (
        0, "aa0705369a82751d4565ffdbb993105335114121ecefa83ef4ef7eed44183334"
    ),
    # fractional q-powers, printed from LaurentPoly entries
    "build --n 5 --cg 2 --target ggs --pretty": (
        0, "57e109c1453bd5b6fc6b8ee6ce0d22aadfdf91f3401b1e720da1a449fc3637d1"
    ),
    "build --n 5 --cg 2 --target ruv --pretty": (
        0, "d3a8b1e9adca5c92a841e8ecf628e534c89a9eaa55b8c30b008ece49b0f4cb0c"
    ),
    "build --n 5 --cg 2 --target ruv --formula quantum --pretty": (
        0, "642a3f17e6d42dc338a1c6f1eb500c45d9c7c0507ba4a609779c733f99280d13"
    ),
    "build --n 2 --trivial --perm 2,1 --target ruv --pretty": (
        0, "f6489fa44c1bededbf99ff93eab404115091c86385ef8fb0d90582f4bb71daf1"
    ),
    "build --n 3 --trivial --perm 2,3,1 --target ruv --phi 0,1/4,1/2 --pretty": (
        0, "59d3f787b729a554c99b17fce1fe995b908f13b6560c48534bd337e881b33315"
    ),
    f"build --n 5 --triple-file {TRIPLE_FILE} --target ruv": (
        2, "d90ebeeb4ec5c69b83edd5147f49fde2dd8ff6706ee5d601cc8bf183f6af4409"
    ),
    # r_{T,s} of a triple with no compatible permutation, at the particular s
    f"build --n 5 --triple-file {TRIPLE_FILE} --target classical --pretty": (
        0, "3219e7c7b781baee7aceed9d95a1bfa5b7adfa3927c6d81cb9b2723c2b48ac01"
    ),
    "build --n 3 --trivial --perm 3,1,2 --target baxterized --pretty": (
        0, "19aa39f65f45c3070399dedf250d96787c126da2e3b7fc9cba098d4c4a0e4c62"
    ),
    "enumerate --n 5": (
        0, "6c55fea0ea736b426d73841a261be6168268692a4aad48f308d9a8ef3d6b26e0"
    ),
    "verify --n 2": (
        0, "770a9b663cadefec625cde7a66169a9af09b7a1dc2a66a8a6360d6c9ceb6e50f"
    ),
    "verify --n 3 --suite all": (
        0, "720e1e8be50d7182631c9d6942c384b4c475b05d4222a056223496c2c7d6d298"
    ),
    "verify --n 4 --suite qybe,hecke,obstruction,exponent": (
        0, "9323d4063962e9d4a8a4dce2dd184abfceb6c5605fffa343d6514f2140a67f76"
    ),
    # the benchmark's constant workload, QYBE and Hecke over LaurentPoly entries
    "verify --n 5 --suite qybe,hecke,obstruction,exponent": (
        0, "40a7ed1a26ff24661c794d57935e91c85e05791c1a291e7fb15e94c9711a34f9"
    ),
    "verify --n 5 --suite obstruction --include-nonassociative --bound 5": (
        1, "f7e34ed2fefd2c796106abc9423d097345863cc0bd1a5e4c2f418e3a4317d326"
    ),
    # cybe and cybe_spectral at every s of every n = 4 triple's family
    "verify --n 4 --suite cybe": (
        0, "b893848a7b74f5eb56b3d0fc5a7b819d44225912848fd43817194c3b055ff2aa"
    ),
    "verify --n 5 --suite cybe": (
        0, "eaa5c7debca335c7258b6c0b02f35a405231219ad8cbbdb36d35847c6a3752ca"
    ),
    # exits 1 by design: the witnesses of the two non-associative triples
    "verify --n 5 --suite obstruction,cybe --include-nonassociative --bound 5": (
        1, "b61d247e1c15132ee0b48dd0a3025df7715a69a88ef411c50297ae03160851bd"
    ),
    # AYBE of r(u,v) on every n = 4 and n = 5 structure
    "verify --n 4 --suite aybe": (
        0, "542b131c28906e36e6c04e0fd021dd0062aa190b19407507855fbdb4c3f0dea3"
    ),
    "verify --n 5 --suite aybe": (
        0, "cb37609c4473683be2f4f2a73a602b91c04a4590ff7690aebc94931e42965cde"
    ),
    # every suite at n = 4, the benchmark's spectral workload
    "verify --n 4 --suite all": (
        0, "ab8ba6fb61e6a936f1f05ff050462e7ff24ea5ca9a8629fc66201bc9f01c0434"
    ),
    # the Laurent data of r(u,v) on every n = 5 structure
    "verify --n 5 --suite lift": (
        0, "d2b9b5ec60ed8c606d41fe63ba9b7fc1dc82181b8f9d015b2623b3607a9f32ac"
    ),
    # every suite on the trivial+CG listing beyond the enumeration bound
    "verify --n 4 --suite all --bound 3": (
        0, "573b8fee77b8f0abb87ea225015f1dbcec53a7d69886877df8504d733003c9ed"
    ),
    # seeded numeric mode, the benchmark's numeric workload at two seeds and
    # every numeric suite at n = 4; these digests also pin this platform's
    # libm (cmath.exp and complex division)
    "verify --n 8 --mode numeric --suite aybe,unitarity,qybe,hecke,cybe --samples 20 --seed 0": (
        0, "42ce0c15f55e37e3fc16973fdbf41664bca4763992a3dd01ce4c287b3761a339"
    ),
    "verify --n 8 --mode numeric --suite aybe,unitarity,qybe,hecke,cybe --samples 20 --seed 1": (
        0, "8662cff2c658021b506d9cc4779377f73cc86e8f0d89aceaf96cc34bce7d845a"
    ),
    "verify --n 4 --mode numeric --suite all --samples 5 --seed 7": (
        0, "2fc7b0e4c8aa7a22d2feadc53a59bf34cedff5195eb9ddd50d80e88834075b37"
    ),
    # a tolerance so tight that most samples reach the scale: pins the
    # per-sample verdicts of the relative rule (69 of 70 reports pass)
    "verify --n 4 --mode numeric --suite all --samples 5 --seed 7 --tolerance 1e-15": (
        1, "5abefc4192abad54b79a5d5b775d9ef0a1be89acfccb30ac768db240ed149002"
    ),
}

# every builder's entries and terms in order (test_builders_keep_their_entry_and_term_order)
BUILDER_ORDER_DIGEST = "81c84a4ec110c2bc0bd388ceb27f42a6819bdc1f9701e3f054d1117a084f68a9"


def command_digest(command, tmp_path, capsys):
    """Exit code and sha256 of stdout for one command line."""
    (tmp_path / TRIPLE_FILE).write_text(json.dumps(REVERSING5))
    argv = [
        str(tmp_path / TRIPLE_FILE) if arg == TRIPLE_FILE else arg
        for arg in command.split()
    ]
    capsys.readouterr()
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_matches_golden_digest(command, tmp_path, capsys):
    assert command_digest(command, tmp_path, capsys) == GOLDEN[command]


def _builder_calls():
    """(label, tensor) for every Belavin-Drinfeld builder at n <= 4: each
    triple, each point of its s-family, each compatible structure at no s,
    at s0 and at every family point that is an admissible gauge of s0."""
    for n in range(2, 5):
        yield f"build_rst({n})", builders.build_rst(n)
        yield f"build_R_st({n})", builders.build_R_st(n)
        for t in triples.enumerate_triples(n):
            yield f"build_a({t})", builders.build_a(t)
            family = s_family(t)
            for s in family:
                yield f"s_as_tensor({s})", builders.s_as_tensor(s)
                yield f"build_R_ggs_general({t}, {s})", builders.build_R_ggs_general(t, s)
            for a in triples.compatible_permutations(t):
                yield f"build_y({a})", builders.build_y(a)
                yield f"build_R_ggs_assoc({a})", builders.build_R_ggs_assoc(a)
                for s in [triples.s0_from_structure(a)] + family:
                    try:
                        tensor = builders.build_R_ggs_assoc(a, s)
                    except ValueError:
                        continue
                    yield f"build_R_ggs_assoc({a}, {s})", tensor


def _scalar_text(v):
    """A scalar's ordered terms (tensors._terms_key), numbers as text, so an
    exponent reads the same whether it is held as int or as Fraction."""
    terms = _terms_key(v)
    if terms is None:
        return str(v)
    return repr([[(tuple(map(str, e)), str(c)) for e, c in part] for part in terms])


def test_builders_keep_their_entry_and_term_order():
    """Entry order and term order decide float sums and the text of
    witnesses, so every builder must keep both, not only its values."""
    digest = hashlib.sha256()
    for label, tensor in _builder_calls():
        digest.update(f"{label}\n".encode())
        for key, v in tensor.coeffs.items():
            digest.update(f"{key} {_scalar_text(v)}\n".encode())
    assert digest.hexdigest() == BUILDER_ORDER_DIGEST
