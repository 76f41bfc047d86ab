import copy
import hashlib
import io
import json
import os
import re
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
from freewalk.walks import load_measure

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


# det [[10**6, 10**6 - 1], [10**6 + 1, 10**6]] is exactly 1; the float LU determinant reads 1.0000086
_BIG_SL2Z = ["1000000", "999999", "1000001", "1000000"]


def test_kak_checks_determinant_exactly(workdir, capsys):
    path = workdir / "big.json"
    path.write_text(json.dumps({"field": {"kind": "archimedean"}, "d": 2, "entries": _BIG_SL2Z}))
    assert main(["kak", str(path)]) == 0
    assert float(json.loads(capsys.readouterr().out)["a"][0]) == pytest.approx(2e6, rel=1e-6)


def test_measure_determinant_checked_exactly(workdir):
    (workdir / "big_measure.json").write_text(
        json.dumps({"field": {"kind": "archimedean"}, "d": 2, "atoms": [_BIG_SL2Z], "probs": ["1"]}))
    cfg = _config(workdir, kind="lyapunov", measure="big_measure.json", n=20, reps=10, out=str(workdir / "big"))
    assert main(["lyapunov", str(cfg)]) == 0
    assert (workdir / "big" / "lyapunov.csv").exists()


@pytest.mark.parametrize("e", (8, 9, 20))
def test_pole_experiments_run_on_huge_sl2z_atoms(workdir, capsys, e):
    # [[N, N - 1], [N + 1, N]] has det 1; from N = 1e8 on a float LU calls it singular and its float
    # wedge cancels to 0, so the inverse atoms are rounded from the exact ones and no wedge is folded
    n = 10**e
    atoms = [[str(x) for x in (n, n - 1, n + 1, n)], [str(x) for x in (n, n + 1, n - 1, n)]]
    (workdir / "huge.json").write_text(
        json.dumps({"field": {"kind": "archimedean"}, "d": 2, "atoms": atoms, "probs": ["1/2", "1/2"]}))
    if e == 8:
        assert load_measure(workdir / "huge.json").inverse_atoms[0].tolist() == [[n, 1 - n], [-1 - n, n]]
    thresholds = {"r_base": 0.9, "eps_base": 0.5}
    for kind, fields in (("lyapunov", dict(n=20, reps=10)),
                         ("decay", dict(measure2="huge.json", grid=[4, 8], reps=6, thresholds=thresholds)),
                         ("tuple", dict(n=8, reps=4, tuple_size=3, thresholds=thresholds))):
        cfg = _config(workdir, kind=kind, measure="huge.json", out=str(workdir / "huge"), **fields)
        assert main([kind, str(cfg)]) == 0, capsys.readouterr().err
        assert (workdir / "huge" / f"{kind}.json").exists()


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
    "lyapunov": {"n": 20, "reps": 10},
    "decay": {"grid": [4, 8], "reps": 4, "thresholds": {"r_base": 0.8, "eps_base": 0.7}},
    "tuple": {"n": 8, "reps": 4, "tuple_size": 3, "rho_hat": 0.9, "thresholds": {"r_base": 0.8, "eps_base": 0.7}},
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
_THRESHOLD_PATHS = {
    "decay": [("thresholds", "r_base"), ("thresholds", "eps_base")],
    "tuple": [("thresholds", "r_base"), ("thresholds", "eps_base")],
    "invariant": [("thresholds", "t")],
}
_OPTIONAL = {"x", "phi1", "phi2", "rho_hat"}  # absent, each takes a valid default
_bad_thresholds = st.sampled_from([0, 0.0, 1, 1.0, 1.5, -0.25, None, "0.5", True, [], {}])
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
    hows = ["value", "delete", "field", "unknown"] + (["horizon"] if kind == "direction" else [])
    hows += ["vector"] * (kind in _VECTOR_PATHS) + ["threshold"] * (kind in _THRESHOLD_PATHS)
    hows += ["order"] * (kind in ("decay", "tuple")) + ["short"] * (kind == "lyapunov")
    how = draw(st.sampled_from(hows))
    if how == "horizon":  # below 2 * max(grid)
        parents, key, value = [], "horizon", draw(st.integers(1, 2 * max(doc["grid"]) - 1))
    elif how == "threshold":
        *parents, key = draw(st.sampled_from(_THRESHOLD_PATHS[kind]))
        value = draw(_bad_thresholds)
    elif how == "order":  # eps_base >= r_base
        parents, key = ["thresholds"], "eps_base"
        value = draw(st.sampled_from([0.8, 0.85, 0.99]))
    elif how == "short":  # the Lyapunov estimates need n >= 10 and reps >= 10
        parents, key, value = [], draw(st.sampled_from(["n", "reps"])), draw(st.integers(1, 9))
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


# README's per-kind list, one case per field a kind needs: (kind, path of the field, None to delete it or the
# value to set, the field the error line names)
_NEEDED_FIELDS = [
    ("lyapunov", ("n",), None, "n"),
    ("lyapunov", ("reps",), None, "reps"),
    ("lyapunov", ("n",), 9, "n"),
    ("lyapunov", ("reps",), 9, "reps"),
    ("decay", ("grid",), None, "grid"),
    ("decay", ("reps",), None, "reps"),
    ("decay", ("thresholds", "r_base"), None, "r_base"),
    ("decay", ("thresholds", "eps_base"), None, "eps_base"),
    ("direction", ("grid",), None, "grid"),
    ("direction", ("horizon",), None, "horizon"),
    ("direction", ("reps",), None, "reps"),
    ("independence", ("reps",), None, "reps"),
    ("independence", ("grid",), None, "n"),  # neither grid nor n
    ("invariant", ("n",), None, "n"),
    ("invariant", ("reps",), None, "reps"),
    ("invariant", ("hyperplanes",), None, "hyperplanes"),
    ("invariant", ("thresholds", "t"), None, "t"),
    ("tuple", ("n",), None, "n"),
    ("tuple", ("reps",), None, "reps"),
    ("tuple", ("tuple_size",), None, "tuple_size"),
    ("tuple", ("thresholds", "r_base"), None, "r_base"),
    ("tuple", ("thresholds", "eps_base"), None, "eps_base"),
]


@pytest.mark.parametrize(
    "kind, where, value, name", _NEEDED_FIELDS,
    ids=[f"{k}-{'.'.join(w)}-{'absent' if v is None else v}" for k, w, v, _ in _NEEDED_FIELDS],
)
def test_each_needed_field_exits_2_naming_it(fuzz_dir, kind, where, value, name):
    doc = _base_config(kind)
    *parents, key = where
    target = doc
    for part in parents:
        target = target[part]
    if value is None:
        del target[key]
    else:
        target[key] = value
    path = fuzz_dir / "needs.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    walk = mock.patch("freewalk.cli.find_proximal_element", side_effect=AssertionError("a walk ran"))
    with redirect_stderr(err), walk:
        code = main([kind, str(path), "--out", str(fuzz_dir / "needs-out")])
    assert code == 2, (doc, err.getvalue())
    assert err.getvalue().startswith("error: ")
    assert re.search(rf"\b{name}\b", err.getvalue()), err.getvalue()


def test_independence_takes_n_in_place_of_grid(fuzz_dir):
    doc = _base_config("independence")
    del doc["grid"]
    doc["n"] = 5
    (fuzz_dir / "n.json").write_text(json.dumps(doc))
    assert main(["independence", str(fuzz_dir / "n.json"), "--out", str(fuzz_dir / "n-out")]) == 0
    assert (fuzz_dir / "n-out" / "independence.csv").read_text().splitlines()[1].startswith("5,")


@pytest.mark.parametrize("measure2", ["sl3.json", "q3.json"])
def test_measure2_of_another_dimension_or_field_exits_2(workdir, measure2):
    (workdir / "sl3.json").write_text(dumps_json(corpus.sl3_integer().to_json_dict()))
    (workdir / "q3.json").write_text(dumps_json(corpus.padic_contracting(3).to_json_dict()))
    cfg = _config(workdir, kind="decay", measure="positive.json", measure2=measure2, grid=[4, 8], reps=4,
                  thresholds={"r_base": 0.8, "eps_base": 0.7})
    err = io.StringIO()
    walk = mock.patch("freewalk.cli.find_proximal_element", side_effect=AssertionError("a walk ran"))
    with redirect_stderr(err), walk:
        assert main(["decay", str(cfg), "--out", str(workdir / "m2")]) == 2
    assert err.getvalue() == "error: measure and measure2 must share field and dimension\n"


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
_bad_entries = st.sampled_from(["abc", "1/0", "", "inf", "nan", "1/x", None, [], {}, True, False])


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


_POINT = corpus.diagonal_point_mass().to_json_dict()
# JSON booleans read as 0 and 1, and a string iterates as its characters: each
# document is well formed but for that, and the command ran on it (exit 0 or 1)
_NON_SCALAR_DOCUMENTS = {
    "bool-atom": ("measure", {**_POINT, "atoms": [[True, False, False, True]]}),
    "string-atoms": ("measure", {**_POINT, "atoms": ["1001"]}),
    "bool-probs": ("measure", {**_POINT, "probs": [True]}),
    "string-probs": ("measure", {**_POINT, "probs": "1"}),
    "string-entries": ("matrix", {"field": _REAL, "d": 2, "entries": "2111"}),
    "bool-generators-q3": ("generators", {"field": _Q3, "d": 2,
                                          "generators": [[True, True, False, True], [True, False, True, True]]}),
}


@pytest.mark.parametrize("name", sorted(_NON_SCALAR_DOCUMENTS))
def test_non_scalar_document_exits_2(doc_fuzz_dir, name):
    kind, doc = _NON_SCALAR_DOCUMENTS[name]
    (doc_fuzz_dir / "doc.json").write_text(json.dumps(doc))
    _assert_input_error(_document_argv(doc_fuzz_dir, kind, True))


# an infinite r (1e309 parses to inf) is no threshold: like r <= 2 * eps it is
# an input error, not an OverflowError traceback or a "not certified" verdict
_NON_FINITE_R = {
    "real-exact-inf": ("gens.json", ["--r", "inf", "--exact"]),
    "real-exact-1e309": ("gens.json", ["--r", "1e309", "--exact"]),
    "q3-inf": ("gens_q3.json", ["--r", "inf"]),
    "real-float-inf": ("gens.json", ["--r", "inf"]),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_R))
def test_non_finite_r_exits_2(workdir, name):
    (workdir / "gens_q3.json").write_text(json.dumps(_VALID_DOCUMENTS[-1][1]))
    path, extra = _NON_FINITE_R[name]
    _assert_input_error(["certify", str(workdir / path), "--eps", "0.1", *extra])


def test_finite_r_above_one_is_never_met(workdir):
    (workdir / "gens_q3.json").write_text(json.dumps(_VALID_DOCUMENTS[-1][1]))
    for path, extra in (("gens.json", []), ("gens.json", ["--exact"]), ("gens_q3.json", [])):
        with redirect_stdout(io.StringIO()) as out:
            assert main(["certify", str(workdir / path), "--r", "1.5", "--eps", "0.1", *extra]) == 1
        assert "cross-margin" in json.loads(out.getvalue())["failures"]


def test_measure_config_and_matrix_files_share_one_reader(workdir):
    # a missing file and invalid JSON read alike whichever document it is
    broken = workdir / "broken.json"
    broken.write_text('{\n  "d": 2,\n  "field": }\n')
    absent = workdir / "absent.json"
    for path, want in (
        (absent, f"error: cannot read {absent}: [Errno 2] No such file or directory: '{absent}'\n"),
        (broken, f"error: {broken}: invalid JSON at line 3, column 12\n"),
    ):
        uses = _config(workdir, kind="lyapunov", measure=path.name, n=20, reps=10)
        for argv in (["lyapunov", str(uses)], ["lyapunov", str(path)], ["kak", str(path)],
                     ["certify", str(path), "--r", "0.5", "--eps", "0.02"]):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                assert main(argv) == 2, argv
            assert err.getvalue() == want, argv


# an output path that names a file, or lies under one, is an input error and not a
# traceback; for certify, exit 1 would read as "not certified".  It fails before any
# walk runs, and certify prints nothing it could not write.
_UNWRITABLE_OUT = {
    "experiment-at-file": ("lyapunov", "afile"),
    "experiment-under-file": ("lyapunov", "afile/sub"),
    "certify-at-file": ("certify", "afile"),
}


@pytest.mark.parametrize("name", sorted(_UNWRITABLE_OUT))
def test_unwritable_output_exits_2(workdir, name, monkeypatch):
    command, out = _UNWRITABLE_OUT[name]
    (workdir / "afile").write_text("")
    if command == "certify":
        argv = ["certify", str(workdir / "gens.json"), "--r", "0.5", "--eps", "0.02"]
    else:
        argv = ["lyapunov", str(_config(workdir, kind="lyapunov", measure="diag.json", n=20, reps=10))]
        monkeypatch.setattr("freewalk.cli.find_proximal_element", lambda *a, **k: pytest.fail("a walk ran"))
    err, stdout = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(stdout):
        assert main([*argv, "--out", str(workdir / out)]) == 2
    assert err.getvalue().startswith(f"error: cannot write {workdir / out}/"), err.getvalue()
    assert stdout.getvalue() == ""


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


def test_scalar_too_long_to_write_exits_2(workdir):
    measure = {"field": {"kind": "nonarchimedean", "prime": 3}, "d": 2, "probs": ["1"],
               "atoms": [["1e4300", "0", "0", "1e-4300"]]}
    (workdir / "long.json").write_text(json.dumps(measure))
    cfg = _config(workdir, kind="lyapunov", measure="long.json", n=20, reps=10, out=str(workdir / "long-out"))
    proc = subprocess.run([sys.executable, "-m", "freewalk.cli", "lyapunov", str(cfg)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_compact_rotation_group_has_no_positive_gap(workdir):
    # the rotations by arccos(3/5) about the z and x axes and their inverses generate a free
    # group inside SO(3): lambda_1 = lambda_2 = 0.  The float atoms are orthogonal only to
    # about 4e-17, which leaves a gap of the order of 1e-17 that more reps cannot resolve.
    a = [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]]
    b = [[1, 0, 0], [0, F(3, 5), F(-4, 5)], [0, F(4, 5), F(3, 5)]]
    rows = [a, [list(c) for c in zip(*a)], b, [list(c) for c in zip(*b)]]
    (workdir / "rotations.json").write_text(json.dumps({
        "field": {"kind": "archimedean"}, "d": 3, "probs": ["1/4"] * 4,
        "atoms": [[str(F(x)) for row in m for x in row] for m in rows]}))
    cfg = _config(workdir, kind="lyapunov", measure="rotations.json", n=100, reps=100, seed=1,
                  out=str(workdir / "rot-out"))
    assert main(["lyapunov", str(cfg)]) == 0
    sidecar = json.loads((workdir / "rot-out" / "lyapunov.json").read_text())
    assert 0 < sidecar["gap_hat"] < 1e-15 and sidecar["ci_half_widths"][2] < sidecar["gap_hat"]
    assert sidecar["gap_positive"] is False


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


# (name, measure files, kind, config fields): every experiment kind but
# direction on R (d = 2 and SL_3, whose decay is a d = 3 one), Q_2 and Q_3,
# and a decay and a tuple run whose second walk uses another measure
_SWEEP_MEASURES = {
    "positive.json": corpus.positive_matrices,
    "slow.json": corpus.slow_contracting,
    "sanov.json": corpus.sanov,
    "sl3.json": corpus.sl3_integer,
    "q2.json": lambda: corpus.padic_contracting(2),
    "q3.json": lambda: corpus.padic_contracting(3),
}
_SWEEP = [
    ("R-lyapunov", "positive.json", dict(kind="lyapunov", n=40, reps=10)),
    ("R-decay", "positive.json", dict(kind="decay", measure2="sanov.json", grid=[4, 8, 12, 16], reps=20,
                                      thresholds={"r_base": 0.95, "eps_base": 0.9})),
    ("R-tuple", "positive.json", dict(kind="tuple", measure2="slow.json", n=12, reps=6, tuple_size=3,
                                      grid=[4, 8], thresholds={"r_base": 0.8, "eps_base": 0.7})),
    ("R-invariant", "positive.json", dict(kind="invariant", n=20, reps=20,
                                          hyperplanes=[["1", "0"], ["0", "1"], ["1", "-1"]],
                                          thresholds={"t": 0.97})),
    ("R-independence", "slow.json", dict(kind="independence", grid=[5, 10], reps=20)),
    ("SL3-lyapunov", "sl3.json", dict(kind="lyapunov", n=20, reps=10)),
    ("SL3-decay", "sl3.json", dict(kind="decay", grid=[4, 8, 16], reps=10,
                                   thresholds={"r_base": 0.95, "eps_base": 0.9})),
    ("SL3-tuple", "sl3.json", dict(kind="tuple", n=10, reps=4, tuple_size=3, rho_hat=0.9,
                                   thresholds={"r_base": 0.9, "eps_base": 0.8})),
    ("SL3-invariant", "sl3.json", dict(kind="invariant", n=20, reps=20,
                                       hyperplanes=[["1", "0", "0"], ["0", "1", "-1"]], thresholds={"t": 0.9})),
    ("SL3-independence", "sl3.json", dict(kind="independence", grid=[5, 10], reps=20)),
    *(
        entry
        for q in ("q2", "q3")
        for entry in (
            (f"{q}-lyapunov", f"{q}.json", dict(kind="lyapunov", n=20, reps=10)),
            (f"{q}-decay", f"{q}.json", dict(kind="decay", grid=[4, 8], reps=6,
                                             thresholds={"r_base": 0.8, "eps_base": 0.7})),
            (f"{q}-tuple", f"{q}.json", dict(kind="tuple", n=8, reps=4, tuple_size=3, rho_hat=0.9,
                                             thresholds={"r_base": 0.8, "eps_base": 0.7})),
            (f"{q}-invariant", f"{q}.json", dict(kind="invariant", n=10, reps=10,
                                                 hyperplanes=[["0", "1"], ["1", "-1"]], thresholds={"t": 0.9})),
            (f"{q}-independence", f"{q}.json", dict(kind="independence", grid=[5, 10], reps=10)),
        )
    ),
]


def _sweep_digests(root) -> dict:
    """sha256 of every CSV and JSON file the sweep writes, by "<name>/<file>"."""
    for name, make in _SWEEP_MEASURES.items():
        (root / name).write_text(dumps_json(make().to_json_dict()))
    digests = {}
    for name, measure, fields in _SWEEP:
        kind = fields["kind"]
        (root / "sweep.json").write_text(json.dumps(
            {"schema": "freewalk/config/v1", "measure": measure, "seed": 7, **fields}))
        with redirect_stderr(io.StringIO()):
            assert main([kind, str(root / "sweep.json"), "--out", str(root / name)]) == 0
        for ext in ("csv", "json"):
            data = (root / name / f"{kind}.{ext}").read_bytes()
            digests[f"{name}/{kind}.{ext}"] = hashlib.sha256(data).hexdigest()
    return digests


# recorded before the float estimators folded all their walks at once and
# scored them through stacked geometry; the outputs must not move
_SWEEP_DIGESTS = {
    "R-lyapunov/lyapunov.csv": "2565da576f2987e8ec4159bc8cde81423b95469c459b70d5f99cf4235bc6bbe8",
    "R-lyapunov/lyapunov.json": "e94d9088cd0caae49d1b17957f453f8982ee3347ccc98bb7fd492ad4ef174e17",
    "R-decay/decay.csv": "0f761b41d1c5e0f2304a928a11be2b71519e5126e63bd5fa6431d46f0ae55b81",
    "R-decay/decay.json": "14a04afbd2ac26f1cdb162bb32f1d5ec98299defe49214f2410b4d3784a6e9e7",
    "R-tuple/tuple.csv": "51c4e0a6af3f916e19667089db2394c51899ee181f83786e3bb19d847dfcafe6",
    "R-tuple/tuple.json": "fccfd71a93944c5e9492135496fc9c34bcc422e47da356db31b54b2c55b832ee",
    "R-invariant/invariant.csv": "3266487cda4498a90bcbc41a826cdb613d6506be56589e029cfb93533e931a8f",
    "R-invariant/invariant.json": "d40aae53626e162dc21bc9c906bdcff096b953dd85d26856804af149bc0da194",
    "R-independence/independence.csv": "434dd759c7ec9c208ceca5778d6b063702481e60d7d51899200b702316cc0b88",
    "R-independence/independence.json": "d1d2d2fb6475c41d6e2edb058930cc276c4c2dc23011c8f2ce1ddcec9767d9bb",
    "SL3-lyapunov/lyapunov.csv": "9d423b835b39978ba14188ed8b39d1237fddb9662789e48588aed4e38fe98a4e",
    "SL3-lyapunov/lyapunov.json": "faa020508e168b8f926c4d0c2129968a27ef565eaf406874290b1b9f57e47ca4",
    "SL3-decay/decay.csv": "e96e57712d6fe458b6a00f05ecaedf27480bb3b592ad302f9475014f02380e4e",
    "SL3-decay/decay.json": "3cb91ae17b61c7569f98c3c7915c677dbcc80e82787592a3716932d2a00bcc50",
    "SL3-tuple/tuple.csv": "28667d3a8f403f144b27482fd95678b8cd2cefbf23ca0e701bf5fc7a9e6c28e1",
    "SL3-tuple/tuple.json": "f0d041686d10e44cc519c9492b38f83fb252e455ce3c98a58115cb4ba35665ac",
    "SL3-invariant/invariant.csv": "c0cb456dd0e76e972286c88feeab26982509b2ac6e04ec5ec438f210fb6bd9b3",
    "SL3-invariant/invariant.json": "06f2e1ff3f3e5793ef259e9dfa53816b1f98887e7bb68353ae2710c3fd84d79a",
    "SL3-independence/independence.csv": "24199367c313296b23194be67877da6b6251fb35950adc04c05331f0c6c11eb4",
    "SL3-independence/independence.json": "42b61cc7b5006105a161a025001361a0edfef1621101f39d912a608d94e55edb",
    "q2-lyapunov/lyapunov.csv": "f5a996b1e5962eb3e9e813f2496b79bd140342cd3dd5731dbc11059eccca368b",
    "q2-lyapunov/lyapunov.json": "cf1a65210c3d956a29f222d45b0c60fb4348d2349db523842be22bae6a10c406",
    "q2-decay/decay.csv": "752a474516866becc3e5622a74530fbbda1111a9f24ecd30336e5972dcdde20a",
    "q2-decay/decay.json": "6d6a73f752a1e930014d92cdd30267753a05ac8d425be9eafb92900dc271bd76",
    "q2-tuple/tuple.csv": "ff5dcef16de1b7b0ca70477672a01872b1970425bb736cbc5056551d9cecc9ee",
    "q2-tuple/tuple.json": "7935e7b582efe3dea0c129d7b7ea972e3fc8b90b32146c1e6400c8fc80d85d2a",
    "q2-invariant/invariant.csv": "4e9e2b66030bdc7969b38099031d2fe8246e12e4549fa7ac3c6bb235d6a3f4b7",
    "q2-invariant/invariant.json": "d4f56d0841a14466de844545078e31315dd743b0f1cba4604a5fc4329ca27109",
    "q2-independence/independence.csv": "a9fb5c2cf6da415532e7b7f4d612e8849d23673661b9c6f953ea3626f83eef14",
    "q2-independence/independence.json": "d7a9f7a5cb5c35405bd4038cf988875cacb42b69220b35928d6b9be8933b09fa",
    "q3-lyapunov/lyapunov.csv": "532e11cd8848d978df28c8fe8177c197d3152bcdb747432a3a0ee4977ff4566b",
    "q3-lyapunov/lyapunov.json": "58d574955c69b37c7d92a9850e3b20c283c5c56b07627721951455d8268e6d4c",
    "q3-decay/decay.csv": "bfb6b50e5dd5d82274a24b430b33d6b30d2237242ffa7f116e58130a5cbd213f",
    "q3-decay/decay.json": "8642882a3d373736c2c0b2ca557b625e4c6f51e288b9837b830383e7992a2c86",
    "q3-tuple/tuple.csv": "ff5dcef16de1b7b0ca70477672a01872b1970425bb736cbc5056551d9cecc9ee",
    "q3-tuple/tuple.json": "7f7732c18798bc415e6a2f26a95f25e6879e3388f622654f077f165bfe16fdaa",
    "q3-invariant/invariant.csv": "185533a3ba4f344baea48c338f55b37877e51c07e8b7171f307346be7ccb9854",
    "q3-invariant/invariant.json": "874005b1ddafd2ac89b8d407ae0df6ddbdf6655b3b8fc3486dab2ceb3fd3ecab",
    "q3-independence/independence.csv": "ab76479904570a542411672716ff18f6045ac139a2637c5b2a8c5acee59ef388",
    "q3-independence/independence.json": "d850034573cfd4df4dbe6a95e1f78d5eefce717a7953bf37efda1a99f0efb3e1",
}


def test_experiment_outputs_match_recorded_digests(tmp_path):
    assert _sweep_digests(tmp_path) == _SWEEP_DIGESTS
