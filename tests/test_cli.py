import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk import corpus
from freewalk.cli import main
from freewalk.report import dumps_json

F = Fraction


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "positive.json").write_text(dumps_json(corpus.positive_matrices().to_json_dict()))
    (tmp_path / "diag.json").write_text(dumps_json(corpus.diagonal_point_mass().to_json_dict()))
    (tmp_path / "mat.json").write_text(
        json.dumps({"field": {"kind": "archimedean"}, "d": 2, "entries": ["1", "2", "0", "1"]})
    )
    (tmp_path / "mat_padic.json").write_text(
        json.dumps({"field": {"kind": "nonarchimedean", "prime": 2}, "d": 2, "entries": ["2", "0", "0", "1/2"]})
    )
    (tmp_path / "gens.json").write_text(
        json.dumps(
            {
                "field": {"kind": "archimedean"},
                "d": 2,
                "generators": [
                    ["100", "0", "0", "1/100"],
                    ["10001/200", "9999/200", "9999/200", "10001/200"],
                ],
            }
        )
    )
    (tmp_path / "idents.json").write_text(
        json.dumps(
            {
                "field": {"kind": "archimedean"},
                "d": 2,
                "generators": [["1", "0", "0", "1"], ["1", "0", "0", "1"]],
            }
        )
    )
    return tmp_path


def _config(workdir, **kw):
    doc = {"schema": "freewalk/config/v1", "seed": 20240601}
    doc.update(kw)
    path = workdir / f"{doc['kind']}.config.json"
    path.write_text(json.dumps(doc))
    return path


def test_kak_subcommand(workdir, capsys):
    assert main(["kak", str(workdir / "mat.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"field", "d", "k", "a", "u", "v", "h"}
    assert float(out["a"][0]) == pytest.approx(1 + 2**0.5, abs=1e-9)

    assert main(["kak", str(workdir / "mat_padic.json")]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["a"] == ["1/2", "2"]


def test_kak_rejects_bad_input(workdir, capsys):
    bad = workdir / "bad_matrix.json"
    bad.write_text(json.dumps({"field": {"kind": "archimedean"}, "d": 2, "entries": ["1", "2", "3"]}))
    assert main(["kak", str(bad)]) == 2


def test_certify_exit_codes(workdir, capsys):
    code = main(["certify", str(workdir / "gens.json"), "--r", "0.5", "--eps", "0.02"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "certified-free"
    assert doc["mode"] == "float"

    code = main(["certify", str(workdir / "gens.json"), "--r", "0.5", "--eps", "0.02", "--exact"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "certified-interval"

    code = main(["certify", str(workdir / "idents.json"), "--r", "0.5", "--eps", "0.02"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not-certified"


def test_certify_writes_certificate(workdir):
    out = workdir / "certout"
    code = main(
        ["certify", str(workdir / "gens.json"), "--r", "0.5", "--eps", "0.02", "--out", str(out)]
    )
    assert code == 0
    assert json.loads((out / "certificate.json").read_text())["verdict"] == "certified-free"


def test_certify_reads_out_env_per_call(workdir, monkeypatch):
    # the parser is built once per process, so FREEWALK_OUT set after the
    # first call must still reach certify
    monkeypatch.delenv("FREEWALK_OUT", raising=False)
    gens = str(workdir / "gens.json")
    assert main(["certify", gens, "--r", "0.5", "--eps", "0.02"]) == 0
    out = workdir / "env-out"
    monkeypatch.setenv("FREEWALK_OUT", str(out))
    assert main(["certify", gens, "--r", "0.5", "--eps", "0.02"]) == 0
    assert json.loads((out / "certificate.json").read_text())["verdict"] == "certified-free"


def test_lyapunov_experiment(workdir, capsys):
    cfg = _config(
        workdir, kind="lyapunov", measure="diag.json", n=50, reps=10, out=str(workdir / "lyap")
    )
    assert main(["lyapunov", str(cfg)]) == 0
    csv = (workdir / "lyap" / "lyapunov.csv").read_text().splitlines()
    assert csv[0].startswith("n,lambda1_hat")
    row = csv[1].split(",")
    assert float(row[1]) == pytest.approx(0.6931, abs=5e-5)
    assert float(row[2]) == 0.0
    sidecar = json.loads((workdir / "lyap" / "lyapunov.json").read_text())
    assert sidecar["gap_positive"] is True
    assert sidecar["measure_hash"] == corpus.diagonal_point_mass().canonical_hash()
    assert sidecar["config"]["seed"] == 20240601


def test_decay_experiment_and_determinism(workdir):
    cfg = _config(
        workdir,
        kind="decay",
        measure="positive.json",
        measure2="positive.json",
        grid=[4, 8],
        reps=25,
        thresholds={"r_base": 0.8, "eps_base": 0.7},
        out=str(workdir / "d1"),
    )
    assert main(["decay", str(cfg)]) == 0
    assert main(["decay", str(cfg), "--out", str(workdir / "d2"), "--threads", "4"]) == 0
    for name in ("decay.csv", "decay.json"):
        a = (workdir / "d1" / name).read_bytes()
        b = (workdir / "d2" / name).read_bytes()
        assert a == b
    header = (workdir / "d1" / "decay.csv").read_text().splitlines()[0]
    assert header.startswith("n,p_hat,ci_lo,ci_hi,reps")


def test_direction_experiment(workdir):
    cfg = _config(
        workdir,
        kind="direction",
        measure="positive.json",
        grid=[4, 8],
        horizon=16,
        reps=10,
        x=["1", "1"],
        out=str(workdir / "dir"),
    )
    assert main(["direction", str(cfg)]) == 0
    lines = (workdir / "dir" / "direction.csv").read_text().splitlines()
    assert lines[0] == "n,p_hat,ci_lo,ci_hi,reps,curve"
    curves = {line.split(",")[-1] for line in lines[1:]}
    assert curves == {"direction", "kak_k", "kak_u"}
    sidecar = json.loads((workdir / "dir" / "direction.json").read_text())
    assert set(sidecar["fits"]) == {"direction", "kak_k", "kak_u"}


def test_independence_experiment(workdir):
    cfg = _config(
        workdir,
        kind="independence",
        measure="positive.json",
        grid=[5, 10],
        reps=50,
        out=str(workdir / "ind"),
    )
    assert main(["independence", str(cfg)]) == 0
    lines = (workdir / "ind" / "independence.csv").read_text().splitlines()
    assert len(lines) == 3


def test_invariant_experiment(workdir):
    cfg = _config(
        workdir,
        kind="invariant",
        measure="diag.json",
        n=10,
        reps=20,
        hyperplanes=[["1", "0"], ["0", "1"]],
        thresholds={"t": 0.9},
        out=str(workdir / "inv"),
    )
    assert main(["invariant", str(cfg)]) == 0
    sidecar = json.loads((workdir / "inv" / "invariant.json").read_text())
    assert sidecar["sup_fraction"] == 1.0


def test_tuple_experiment(workdir):
    cfg = _config(
        workdir,
        kind="tuple",
        measure="positive.json",
        n=12,
        reps=15,
        tuple_size=3,
        thresholds={"r_base": 0.8, "eps_base": 0.7},
        rho_hat=0.9,
        out=str(workdir / "tup"),
    )
    assert main(["tuple", str(cfg)]) == 0
    sidecar = json.loads((workdir / "tup" / "tuple.json").read_text())
    assert sidecar["prediction"] == pytest.approx(min(1.0, 6 * 0.9**12), rel=1e-6)


def test_config_validation_errors(workdir, capsys):
    missing = _config(workdir, kind="lyapunov", measure="absent.json", n=20, reps=10)
    assert main(["lyapunov", str(missing)]) == 2

    bad_schema = workdir / "bad.json"
    bad_schema.write_text(json.dumps({"schema": "nope", "kind": "lyapunov", "measure": "diag.json", "seed": 1}))
    assert main(["lyapunov", str(bad_schema)]) == 2

    no_seed = workdir / "noseed.json"
    no_seed.write_text(
        json.dumps({"schema": "freewalk/config/v1", "kind": "lyapunov", "measure": "diag.json", "n": 20, "reps": 10})
    )
    assert main(["lyapunov", str(no_seed)]) == 2

    bad_grid = _config(workdir, kind="decay", measure="positive.json", grid=[8, 8], reps=5,
                       thresholds={"r_base": 0.8, "eps_base": 0.7})
    assert main(["decay", str(bad_grid)]) == 2

    mismatch = _config(workdir, kind="decay", measure="positive.json", grid=[4], reps=5,
                       thresholds={"r_base": 0.8, "eps_base": 0.7})
    assert main(["lyapunov", str(mismatch)]) == 2

    bad_atom = workdir / "badatom.json"
    doc = corpus.diagonal_point_mass().to_json_dict()
    doc["atoms"][0][3] = "2"  # diag(2, 2): breaks det = 1
    bad_atom.write_text(json.dumps(doc))
    cfg = _config(workdir, kind="lyapunov", measure="badatom.json", n=20, reps=10)
    assert main(["lyapunov", str(cfg)]) == 2


def _assert_input_error(argv, env=None):
    # run at once: _config reuses one file name per experiment kind
    proc = subprocess.run([sys.executable, "-m", "freewalk.cli", *argv], capture_output=True, text=True,
                          env=None if env is None else {**os.environ, **env})
    assert proc.returncode == 2, (argv, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_non_finite_entries_exit_2(workdir):
    # measure, matrix and generator documents: inf and nan entries, and a
    # dimension d that is not an integer >= 2, are input errors (exit 2, no
    # traceback), never an uncaught exception
    real = {"kind": "archimedean"}
    for i, bad in enumerate(["inf", "nan", "-Infinity", "1/0", float("inf")]):
        measure = corpus.diagonal_point_mass().to_json_dict()
        measure["atoms"][0][0] = bad
        (workdir / f"m{i}.json").write_text(json.dumps(measure))
        cfg = _config(workdir, kind="lyapunov", measure=f"m{i}.json", n=20, reps=10)
        _assert_input_error(["lyapunov", str(cfg), "--out", str(workdir / "nf")])
    probs = corpus.diagonal_point_mass().to_json_dict()
    probs["probs"] = [float("inf")]
    (workdir / "probs.json").write_text(json.dumps(probs))
    _assert_input_error(["lyapunov", str(_config(workdir, kind="lyapunov", measure="probs.json", n=20, reps=10))])
    (workdir / "mat_inf.json").write_text(json.dumps({"field": real, "d": 2, "entries": ["1", "inf", "0", "1"]}))
    _assert_input_error(["kak", str(workdir / "mat_inf.json")])
    (workdir / "gens_nan.json").write_text(
        json.dumps({"field": real, "d": 2, "generators": [["1", "nan", "0", "1"], ["1", "0", "2", "1"]]})
    )
    _assert_input_error(["certify", str(workdir / "gens_nan.json"), "--r", "0.5", "--eps", "0.02", "--exact"])
    # d = 1e400 overflows int(); d = 0 and -1 with matching entry counts reach
    # the linear algebra; d = 1 (SL_1 is trivial, P^0 has no hyperplanes)
    for i, (d, count) in enumerate([("1e400", 4), ("0", 0), ("-1", 1), ("1", 1)]):
        flat = json.dumps(["1"] * count)
        head = f'"field": {json.dumps(real)}, "d": {d}'  # d as raw JSON text
        (workdir / f"mat_d{i}.json").write_text(f'{{{head}, "entries": {flat}}}')
        _assert_input_error(["kak", str(workdir / f"mat_d{i}.json")])
        (workdir / f"gens_d{i}.json").write_text(f'{{{head}, "generators": [{flat}, {flat}]}}')
        _assert_input_error(["certify", str(workdir / f"gens_d{i}.json"), "--r", "0.5", "--eps", "0.02"])
    line = {"schema": "freewalk/measure/v1", "field": real, "d": 1, "atoms": [["1"]], "probs": ["1"]}
    (workdir / "line.json").write_text(json.dumps(line))
    cfg = _config(workdir, kind="decay", measure="line.json", grid=[2, 4], reps=4,
                  thresholds={"r_base": 0.9, "eps_base": 0.5})
    _assert_input_error(["decay", str(cfg), "--out", str(workdir / "nf")])
    _assert_input_error(["lyapunov", str(_config(workdir, kind="lyapunov", measure="line.json", n=20, reps=10))])


def test_malformed_config_vectors_and_field_exit_2(workdir):
    # config vectors must have measure.d parseable entries, not all zero, and
    # the field spec needs a known kind and an integer prime
    cases = [
        dict(kind="direction", grid=[4], horizon=8, reps=4, x=["1", "2", "3"]),
        dict(kind="direction", grid=[4], horizon=8, reps=4, x=["abc", "1"]),
        dict(kind="direction", grid=[4], horizon=8, reps=4, x=["0", "0"]),
        dict(kind="invariant", n=10, reps=4, hyperplanes=[["1", "0"], ["1", "2", "3"]], thresholds={"t": 0.9}),
        dict(kind="independence", n=5, reps=4,
             phi1={"kind": "dist_to_point", "reference": ["1", "0", "0"]}),
        dict(kind="lyapunov", n=20, reps=10, field={}),
        dict(kind="lyapunov", n=20, reps=10, field={"kind": "nonarchimedean", "prime": "3"}),
    ]
    for case in cases:
        cfg = _config(workdir, measure="positive.json", **case)
        _assert_input_error([case["kind"], str(cfg), "--out", str(workdir / "bad-out")])


def test_float_prime_and_negative_seed_exit_2(workdir):
    # a prime must be an int: 3.0 compares equal to 3 but is not a prime of
    # a field, and the seed overrides meet the config's seed >= 0 rule
    q3 = {"kind": "nonarchimedean", "prime": 3.0}
    measure = corpus.padic_contracting(3).to_json_dict()
    measure["field"] = q3
    (workdir / "fq3.json").write_text(json.dumps(measure))
    cfg = _config(workdir, kind="lyapunov", measure="fq3.json", n=20, reps=10)
    _assert_input_error(["lyapunov", str(cfg), "--out", str(workdir / "fp")])
    (workdir / "mat_fq3.json").write_text(json.dumps({"field": q3, "d": 2, "entries": ["9", "0", "0", "1/9"]}))
    _assert_input_error(["kak", str(workdir / "mat_fq3.json")])
    (workdir / "gens_fq3.json").write_text(
        json.dumps({"field": q3, "d": 2, "generators": [["9", "0", "0", "1/9"], ["1", "1", "1", "2"]]})
    )
    for exact in ([], ["--exact"]):
        _assert_input_error(["certify", str(workdir / "gens_fq3.json"), "--r", "0.5", "--eps", "0.02", *exact])
    cfg = _config(workdir, kind="lyapunov", measure="positive.json", n=20, reps=10)
    _assert_input_error(["lyapunov", str(cfg), "--seed", "-1", "--out", str(workdir / "neg")])
    _assert_input_error(["lyapunov", str(cfg), "--out", str(workdir / "neg")], env={"FREEWALK_SEED": "-5"})


_BASE_CONFIGS = {
    "direction": {"grid": [4, 8], "horizon": 16, "reps": 4, "x": ["1", "2"]},
    "invariant": {"n": 10, "reps": 4, "hyperplanes": [["1", "0"], ["0", "1"]], "thresholds": {"t": 0.9}},
    "independence": {
        "grid": [5, 10],
        "reps": 4,
        "phi1": {"kind": "dist_to_point", "reference": ["1", "0"], "exponent": 1.0},
        "phi2": {"kind": "dist_to_hyperplane", "reference": ["0", "1"], "exponent": 0.5},
    },
}
_VECTOR_PATHS = {
    "direction": [("x",)],
    "invariant": [("hyperplanes", 0), ("hyperplanes", 1)],
    "independence": [("phi1", "reference"), ("phi2", "reference")],
}
_OPTIONAL = {"x", "phi1", "phi2"}  # absent, each takes a valid default
_SCALARS = st.sampled_from(["1", "-2", "1/3", 0.5, 7])
_bad_vectors = st.one_of(
    st.lists(_SCALARS, max_size=5).filter(lambda v: len(v) != 2),
    st.tuples(st.sampled_from(["abc", "1/0", "inf", "nan", "", "1/x"]), _SCALARS, st.booleans()).map(
        lambda t: [t[0], t[1]] if t[2] else [t[1], t[0]]
    ),
    st.lists(st.sampled_from(["0", 0, "0/5", 0.0, "-0"]), min_size=2, max_size=2),
)
_bad_fields = st.sampled_from([
    {},
    {"kind": "nonarchimedean", "prime": "3"},
    {"kind": "nonarchimedean"},
    {"kind": "nonarchimedean", "prime": 4},
    {"kind": "nonarchimedean", "prime": 3},  # disagrees with the real measure
    {"kind": "archimedean", "prime": 2},
    {"kind": "archimedean", "extra": 1},
    {"kind": "complex"},
])


def _base_config(kind: str) -> dict:
    return {"schema": "freewalk/config/v1", "kind": kind, "measure": "positive.json", "seed": 5,
            **copy.deepcopy(_BASE_CONFIGS[kind])}


@st.composite
def _broken_configs(draw):
    """A valid config with exactly one field broken: (kind, document)."""
    kind = draw(st.sampled_from(sorted(_BASE_CONFIGS)))
    doc = _base_config(kind)
    hows = ["value", "delete", "vector", "field", "unknown"] + (["horizon"] if kind == "direction" else [])
    how = draw(st.sampled_from(hows))
    if how == "horizon":  # below 2 * max(grid)
        parents, key, value = [], "horizon", draw(st.integers(1, 2 * max(doc["grid"]) - 1))
    elif how == "vector":
        *parents, key = draw(st.sampled_from(_VECTOR_PATHS[kind]))
        value = draw(_bad_vectors)
    elif how == "field":
        parents, key, value = [], "field", draw(_bad_fields)
    elif how == "unknown":
        parents, key, value = [], "bogus", 1
    else:
        parents = []
        key = draw(st.sampled_from(sorted(set(doc) - _OPTIONAL if how == "delete" else doc)))
        value = draw(st.sampled_from([None, "text", -1, [], {}]))
    target = doc
    for part in parents:
        target = target[part]
    if how == "delete":
        del target[key]
    else:
        target[key] = value
    return kind, doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "positive.json").write_text(dumps_json(corpus.positive_matrices().to_json_dict()))
    for kind in _BASE_CONFIGS:  # the unbroken configs run
        (root / "base.json").write_text(json.dumps(_base_config(kind)))
        assert main([kind, str(root / "base.json"), "--out", str(root / "out")]) == 0
    return root


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=_broken_configs())
def test_broken_config_field_exits_2_before_any_walk(fuzz_dir, case):
    kind, doc = case
    path = fuzz_dir / "broken.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    walk = mock.patch("freewalk.cli.find_proximal_element", side_effect=AssertionError("a walk ran"))
    with redirect_stderr(err), walk:
        code = main([kind, str(path), "--out", str(fuzz_dir / "broken-out")])
    assert code == 2, (doc, err.getvalue())
    assert err.getvalue().startswith("error: ")


_REAL, _Q2, _Q3 = ({"kind": "archimedean"}, {"kind": "nonarchimedean", "prime": 2},
                   {"kind": "nonarchimedean", "prime": 3})
# (document kind, a valid document, the key of its matrices)
_VALID_DOCUMENTS = [
    ("measure", corpus.positive_matrices().to_json_dict(), "atoms"),
    ("measure", corpus.padic_contracting(3).to_json_dict(), "atoms"),
    ("matrix", {"field": _REAL, "d": 2, "entries": ["1", "2", "0", "1"]}, "entries"),
    ("matrix", {"field": _Q2, "d": 2, "entries": ["2", "0", "0", "1/2"]}, "entries"),
    ("generators", {"field": _REAL, "d": 2, "generators": [["100", "0", "0", "1/100"],
                                                           ["10001/200", "9999/200", "9999/200", "10001/200"]]},
     "generators"),
    ("generators", {"field": _Q3, "d": 2, "generators": [["9", "0", "0", "1/9"], ["1", "1", "1", "2"]]},
     "generators"),
]
_bad_doc_fields = st.sampled_from([
    {"kind": "nonarchimedean", "prime": 3.0},
    {"kind": "nonarchimedean", "prime": 2.0},
    {"kind": "nonarchimedean", "prime": True},
    {"kind": "nonarchimedean", "prime": "3"},
    {"kind": "nonarchimedean", "prime": 4},
    {"kind": "nonarchimedean", "prime": -3},
    {"kind": "nonarchimedean"},
    {"kind": "archimedean", "prime": 2},
    {"kind": "complex"},
    {},
    {"kind": "archimedean", "extra": 1},
    {"kind": "nonarchimedean", "prime": 3, "bogus": True},
])
_bad_schemas = st.sampled_from(["nope", "freewalk/measure/v2", "freewalk/config/v1", None, 1, {}])
_bad_entries = st.sampled_from(["abc", "1/0", "", "inf", "nan", "1/x", None, [], {}])


@st.composite
def _broken_documents(draw):
    """A valid measure, matrix or generator document with exactly one part broken."""
    kind, doc, key = draw(st.sampled_from(_VALID_DOCUMENTS))
    doc = copy.deepcopy(doc)
    read = ["field", "d", key] + (["probs"] if kind == "measure" else [])
    how = draw(st.sampled_from(["delete", "value", "field", "entry"] + (["schema"] if kind == "measure" else [])))
    if how == "schema":
        doc["schema"] = draw(_bad_schemas)
    elif how == "delete":
        del doc[draw(st.sampled_from(read))]
    elif how == "value":
        doc[draw(st.sampled_from(read))] = draw(st.sampled_from([None, "text", -1, 2.5, [], {}]))
    elif how == "field":
        doc["field"] = draw(_bad_doc_fields)
    else:
        flat = doc[key] if kind == "matrix" else doc[key][draw(st.integers(0, len(doc[key]) - 1))]
        flat[draw(st.integers(0, len(flat) - 1))] = draw(_bad_entries)
    return kind, doc, draw(st.booleans())


def _document_argv(root, kind: str, exact: bool) -> list:
    if kind == "measure":
        return ["lyapunov", str(root / "lyapunov.json"), "--out", str(root / "out")]
    if kind == "matrix":
        return ["kak", str(root / "doc.json")]
    return ["certify", str(root / "doc.json"), "--r", "0.5", "--eps", "0.02"] + (["--exact"] if exact else [])


@pytest.fixture(scope="module")
def doc_fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("docfuzz")
    (root / "lyapunov.json").write_text(json.dumps(
        {"schema": "freewalk/config/v1", "kind": "lyapunov", "measure": "doc.json", "seed": 5, "n": 20, "reps": 10}
    ))
    for kind, doc, _ in _VALID_DOCUMENTS:  # the unbroken documents run
        (root / "doc.json").write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()):
            assert main(_document_argv(root, kind, False)) in (0, 1)
    return root


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=_broken_documents())
def test_broken_document_exits_2(doc_fuzz_dir, case):
    kind, doc, exact = case
    (doc_fuzz_dir / "doc.json").write_text(json.dumps(doc))
    argv = _document_argv(doc_fuzz_dir, kind, exact)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:  # at the command line, a traceback
            pytest.fail(f"{argv[0]} raised {exc!r} on {doc}")
    assert code == 2, (argv[0], doc, err.getvalue())
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_seed_override_and_env(workdir, monkeypatch):
    cfg = _config(
        workdir, kind="lyapunov", measure="positive.json", n=30, reps=10, out=str(workdir / "a")
    )
    assert main(["lyapunov", str(cfg)]) == 0
    assert main(["lyapunov", str(cfg), "--seed", "7", "--out", str(workdir / "b")]) == 0
    a = json.loads((workdir / "a" / "lyapunov.json").read_text())
    b = json.loads((workdir / "b" / "lyapunov.json").read_text())
    assert a["config"]["seed"] == 20240601 and b["config"]["seed"] == 7
    assert a["lambda1_hat"] != b["lambda1_hat"]

    monkeypatch.setenv("FREEWALK_SEED", "7")
    monkeypatch.setenv("FREEWALK_OUT", str(workdir / "c"))
    assert main(["lyapunov", str(cfg)]) == 0
    c = json.loads((workdir / "c" / "lyapunov.json").read_text())
    assert c["lambda1_hat"] == b["lambda1_hat"]

    # an override supplies the seed a config leaves out
    doc = json.loads(cfg.read_text())
    del doc["seed"]
    no_seed = workdir / "noseed.json"
    no_seed.write_text(json.dumps(doc))
    assert main(["lyapunov", str(no_seed), "--out", str(workdir / "d")]) == 0
    d = json.loads((workdir / "d" / "lyapunov.json").read_text())
    assert d["config"]["seed"] == 7 and d["lambda1_hat"] == b["lambda1_hat"]


def test_hypothesis_warning_for_isometry_measure(workdir, capsys):
    (workdir / "rot.json").write_text(dumps_json(corpus.rotation_point_mass().to_json_dict()))
    cfg = _config(
        workdir, kind="lyapunov", measure="rot.json", n=20, reps=10, out=str(workdir / "rot-out")
    )
    assert main(["lyapunov", str(cfg)]) == 0
    assert "no proximal element" in capsys.readouterr().err
    sidecar = json.loads((workdir / "rot-out" / "lyapunov.json").read_text())
    assert sidecar["proximal_probe"] is None

    cfg2 = _config(
        workdir, kind="lyapunov", measure="positive.json", n=20, reps=10, out=str(workdir / "pos-out")
    )
    assert main(["lyapunov", str(cfg2)]) == 0
    assert "no proximal element" not in capsys.readouterr().err
    sidecar2 = json.loads((workdir / "pos-out" / "lyapunov.json").read_text())
    assert sidecar2["proximal_probe"] is not None


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "freewalk.cli", "kak", str(workdir / "mat.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 2
