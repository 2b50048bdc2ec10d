import hashlib
import json

import numpy as np
import pytest

import stieltjeskit as sk
from stieltjeskit.cli import run

from genutil import RANDOM_KINDS, psd, random_pair, random_s0


def write_repr(tmp_path, r, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(sk.repr_to_json(r)))
    return str(path)


def one_atom_pair(rng, alpha=0.0):
    A, B = psd(rng, 2), psd(rng, 2)
    return sk.StieltjesPair(alpha, A, sk.MatrixMeasure(2, sk.right_ray(alpha), [(alpha, B)]))


def test_certify_pass_exit_zero(tmp_path, capsys):
    path = write_repr(tmp_path, one_atom_pair(np.random.default_rng(0)))
    code = run(["certify", "--kind", "s", "--input", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["verdict"] == "pass"
    assert report["certificate"]["grid"]["seed"] == 42


def test_certify_failure_exit_two(tmp_path, capsys):
    rng = np.random.default_rng(1)
    p = one_atom_pair(rng)
    path = write_repr(tmp_path, p)
    # a plain pair with nonzero gamma is not in the bounded subclass
    code = run(["certify", "--kind", "s0", "--input", path])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["verdict"] == "fail"
    margins = {c["name"]: c for c in report["certificate"]["conditions"]}
    assert margins["y_norm_bounded"]["margin"] < -1e-6
    assert len(margins["y_norm_bounded"]["witness_z"]) == 2


def test_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["certify", "--input", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize("defect", ["ragged_gamma", "nan_gamma", "atom_at_infinity"])
def test_malformed_representation_exit_one(tmp_path, capsys, defect):
    obj = sk.repr_to_json(one_atom_pair(np.random.default_rng(13)))
    if defect == "ragged_gamma":
        obj["gamma"][1] = obj["gamma"][1][:1]
    elif defect == "nan_gamma":
        obj["gamma"][0][0] = [float("nan"), 0.0]
    else:
        obj["mu"]["atoms"][0]["t"] = float("inf")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))  # json writes NaN and Infinity as bare tokens
    assert run(["certify", "--input", str(path)]) == 1
    assert "error" in json.loads(capsys.readouterr().err)


def test_missing_file_exit_one(tmp_path, capsys):
    assert run(["eval", "--input", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


def test_moments_of_endpoint_atom(tmp_path, capsys):
    rng = np.random.default_rng(2)
    B = psd(rng, 2)
    p = sk.StieltjesPair(0.0, np.zeros((2, 2)), sk.MatrixMeasure(2, sk.right_ray(0.0), [(0.0, B)]))
    path = write_repr(tmp_path, p)
    assert run(["moments", "--m", "2", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    s = [np.array([[complex(re, im) for re, im in row] for row in m]) for m in report["moments"]]
    np.testing.assert_allclose(s[0], B)
    np.testing.assert_allclose(s[1], np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(s[2], np.zeros((2, 2)), atol=0)
    assert report["hankel_min_eigenvalue"] >= -1e-12


def test_params_s0_mass(tmp_path, capsys):
    rng = np.random.default_rng(3)
    s = random_s0(rng, q=2)
    path = write_repr(tmp_path, s)
    assert run(["params", "--kind", "s0", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    mass = np.array([[complex(re, im) for re, im in row] for row in report["mass"]["value"]])
    np.testing.assert_allclose(mass, sk.total_mass(s.sigma), atol=1e-7)


def test_params_class_mismatch_exit_two(tmp_path, capsys):
    p = one_atom_pair(np.random.default_rng(4))
    path = write_repr(tmp_path, p)
    assert run(["params", "--kind", "sdot", "--input", path]) == 2
    capsys.readouterr()


def test_params_raw_mode(tmp_path, capsys):
    p = one_atom_pair(np.random.default_rng(5))
    path = write_repr(tmp_path, p)
    assert run(["params", "--mode", "plain_iy", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    gamma = np.array([[complex(re, im) for re, im in row] for row in report["limit"]["value"]])
    np.testing.assert_allclose(gamma, p.gamma, atol=1e-7)


def test_convert_round_trip_files(tmp_path, capsys):
    rng = np.random.default_rng(6)
    p = random_pair(rng, q=2)
    path = write_repr(tmp_path, p)
    out1 = str(tmp_path / "kk.json")
    assert run(["convert", "--kind", "kk_pair", "--input", path, "--out", out1]) == 0
    kk_report = json.loads(open(out1).read())
    kk_path = tmp_path / "kk_repr.json"
    kk_path.write_text(json.dumps(kk_report["representation"]))
    assert run(["convert", "--kind", "stieltjes_pair", "--input", str(kk_path)]) == 0
    back = sk.repr_from_json(json.loads(capsys.readouterr().out)["representation"])
    np.testing.assert_allclose(back.gamma, p.gamma, atol=1e-14)
    np.testing.assert_allclose(back.mu.nodes, p.mu.nodes)


def test_eval_deterministic_reports(tmp_path):
    p = one_atom_pair(np.random.default_rng(7))
    path = write_repr(tmp_path, p)
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["eval", "--input", path, "--grid-seed", "5", "--out", o1]) == 0
    assert run(["eval", "--input", path, "--grid-seed", "5", "--out", o2]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()


def test_transform_dual_and_transpose(tmp_path, capsys):
    rng = np.random.default_rng(8)
    p = random_pair(rng, q=2)
    path = write_repr(tmp_path, p)
    assert run(["transform", "--op", "dual", "--beta", "1.0", "--input", path]) == 0
    dual = sk.repr_from_json(json.loads(capsys.readouterr().out)["representation"])
    assert dual.KIND == "t_pair" and dual.beta == 1.0
    assert run(["transform", "--op", "transpose", "--input", path]) == 0
    t = sk.repr_from_json(json.loads(capsys.readouterr().out)["representation"])
    np.testing.assert_array_equal(t.gamma, p.gamma.T)


def test_transform_pinv_map_dump(tmp_path, capsys):
    p = one_atom_pair(np.random.default_rng(9))
    path = write_repr(tmp_path, p)
    assert run(["transform", "--op", "pinv_map", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["grid"]) == 20
    for rec in report["grid"]:
        assert len(rec["z"]) == 2 and len(rec["F"]) == 2


def test_report_full_battery(tmp_path, capsys):
    p = one_atom_pair(np.random.default_rng(10))
    path = write_repr(tmp_path, p)
    assert run(["report", "--input", path, "--m", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["verdict"] == "pass"
    assert len(report["moments"]) == 4
    assert "samples" in report


def test_tolerance_bounds_enforced(tmp_path, capsys):
    p = one_atom_pair(np.random.default_rng(11))
    path = write_repr(tmp_path, p)
    assert run(["certify", "--input", path, "--tol", "0.5"]) == 1
    capsys.readouterr()


def test_dual_requires_target(tmp_path, capsys):
    p = one_atom_pair(np.random.default_rng(12))
    path = write_repr(tmp_path, p)
    assert run(["transform", "--op", "dual", "--input", path]) == 1
    capsys.readouterr()


# Default certificate class of each representation kind.
KIND_CLASS = {
    "stieltjes_pair": "s",
    "kk_pair": "s",
    "nevanlinna": "s",
    "s0": "s0",
    "sinf_triple": "sinf",
    "t_pair": "t",
    "t0": "t0",
    "tinf_triple": "tinf",
}


def make_kind(kind, rng):
    if kind in RANDOM_KINDS:
        return RANDOM_KINDS[kind](rng, q=2)
    kk = sk.convert(random_pair(rng, q=2), "kk_pair")
    return kk if kind == "kk_pair" else sk.convert(kk, "nevanlinna")


@pytest.mark.parametrize("command", ["certify", "report"])
@pytest.mark.parametrize("kind", sorted(KIND_CLASS))
def test_every_kind_passes_its_default_class(tmp_path, capsys, kind, command):
    r = make_kind(kind, np.random.default_rng(20))
    path = write_repr(tmp_path, r)
    assert run([command, "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["verdict"] == "pass"
    assert report["certificate"]["kind"] == KIND_CLASS[kind]
    if command == "report":
        assert report["kind"] == kind
        assert len(report["samples"]) == 20
        assert len(report["moments"]) == 3


# convert --kind kk_pair, dual and transpose reach their output through
# elementwise arithmetic only (reweighting, t -> a + b - t, transposition),
# so the bytes do not depend on the BLAS build.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["convert", "--kind", "kk_pair"], "d865f600183df6192bdd7bd9ac5a28cd3caac76e6216f96923696cbdf2539600"),
        (["transform", "--op", "dual", "--beta", "1.5"], "72e0786c061958f18e67059edc258109cde3c1a64dc99eb8b3f046a1f3b55c5b"),
        (["transform", "--op", "transpose"], "8a27614f5ad10dc64a2047bd7d5d945ddbd63f836c1b1918b64d3c011261c34c"),
    ],
)
def test_elementwise_outputs_are_byte_stable(tmp_path, capsys, argv, digest):
    path = write_repr(tmp_path, random_pair(np.random.default_rng(2024), q=3, n_atoms=6))
    assert run(argv + ["--input", path]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
