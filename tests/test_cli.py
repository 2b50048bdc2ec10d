import argparse
import hashlib
import json

import numpy as np
import pytest

import stieltjeskit as sk
from stieltjeskit.classifier import CLASSES, sample_points
from stieltjeskit.cli import _build_parser, run
from stieltjeskit.representations import KINDS

from genutil import psd, random_kind, random_pair, random_s0, random_sinf, random_t0, random_tinf, random_tpair


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


@pytest.mark.parametrize("make, claims", [(random_sinf, ("s", "s0", "sdot")), (random_tinf, ("t", "t0", "tdot"))])
def test_params_diverging_plain_limit_exit_two(tmp_path, capsys, make, claims):
    path = write_repr(tmp_path, make(np.random.default_rng(3), q=2))  # E != 0
    for claimed in claims:
        assert run(["params", "--kind", claimed, "--input", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail" and report["claimed"] == claimed
        assert "diverges" in report["reason"]


def far_atom(side, t):
    """An S0Measure with one atom at t, or its T0Measure mirror at -t; W = 1e-3."""
    if side == "right":
        return sk.S0Measure(0.0, sk.MatrixMeasure(1, sk.right_ray(0.0), [(t, 1e-3 * np.eye(1))]))
    return sk.T0Measure(0.0, sk.MatrixMeasure(1, sk.left_ray(0.0), [(-t, 1e-3 * np.eye(1))]))


@pytest.mark.parametrize("side, claim", [("right", "s0"), ("left", "t0")])
def test_params_and_certify_of_an_atom_far_out(tmp_path, capsys, side, claim):
    path = write_repr(tmp_path, far_atom(side, 1e8))
    assert run(["params", "--kind", claim, "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    mass = np.array([[complex(re, im) for re, im in row] for row in report["mass"]["value"]])
    np.testing.assert_allclose(mass, [[1e-3]], rtol=1e-9)
    assert run(["certify", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["verdict"] == "pass"


@pytest.mark.parametrize("side", ["right", "left"])
def test_params_of_a_node_past_the_last_rung_exit_one(tmp_path, capsys, side):
    assert run(["params", "--input", write_repr(tmp_path, far_atom(side, 1e15))]) == 1
    assert "lies past the last rung" in json.loads(capsys.readouterr().err)["error"]


def test_certify_alpha_past_the_nodes_exit_two(tmp_path, capsys):
    # A member claimed off [alpha + 1e4, inf): its node at 1.22 is a pole in the gap.
    p = random_pair(np.random.default_rng(5), q=2)
    path = write_repr(tmp_path, p)
    assert run(["certify", "--alpha", repr(p.alpha + 1e4), "--input", path]) == 2
    cert = json.loads(capsys.readouterr().out)["certificate"]
    holomorphic = next(c for c in cert["conditions"] if c["name"] == "holomorphic")
    assert cert["verdict"] == "fail" and holomorphic["margin"] < -0.99
    assert holomorphic["witness_z"] == [float(p.mu.nodes[0]), 0.0]


def test_certify_beta_past_the_nodes_exit_two(tmp_path, capsys):
    # A t-pair member claimed off (-inf, beta - 1e4]: its nodes lie in the gap.
    t = random_tpair(np.random.default_rng(5), q=2)
    path = write_repr(tmp_path, t)
    assert run(["certify", "--beta", repr(t.beta), "--input", path]) == 0
    capsys.readouterr()
    assert run(["certify", "--beta", repr(t.beta - 1e4), "--input", path]) == 2
    cert = json.loads(capsys.readouterr().out)["certificate"]
    holomorphic = next(c for c in cert["conditions"] if c["name"] == "holomorphic")
    assert holomorphic["margin"] < -0.99 and holomorphic["witness_z"] == [float(t.mu.nodes[-1]), 0.0]


def test_moments_of_a_bare_measure_file(tmp_path, capsys):
    s = random_s0(np.random.default_rng(6), q=2)
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps(s.sigma.to_json()))
    assert run(["moments", "--m", "2", "--input", str(measure)]) == 0
    bare = json.loads(capsys.readouterr().out)
    assert run(["moments", "--m", "2", "--input", write_repr(tmp_path, s)]) == 0
    assert bare == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", ["certify", "eval", "report"])
def test_nevanlinna_on_a_left_ray_is_evaluated_on_its_gap(tmp_path, capsys, command):
    nu = sk.MatrixMeasure(1, sk.left_ray(0.0), [(-1.0, [[1.0]]), (-3.0, [[1.0]])])
    path = write_repr(tmp_path, sk.NevanlinnaTriple(np.eye(1), np.zeros((1, 1)), nu))
    assert run([command, "--input", path]) == 0  # the gap point -4.427 lies on nu's ray, off F's excluded set
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


@pytest.mark.parametrize("command", ["certify", "report"])
@pytest.mark.parametrize("kind", sorted(KIND_CLASS))
def test_every_kind_passes_its_default_class(tmp_path, capsys, kind, command):
    r = random_kind(kind, np.random.default_rng(20), q=2)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--kind", "s_via_pair"],
        ["params", "--kind", "stieltjes_pair"],
        ["params", "--mode", "radial", "--phi", "0"],  # along the pair's own excluded ray
        ["moments", "--m", "-1"],
    ],
)
def test_failures_are_json_errors_exit_one(tmp_path, capsys, argv):
    path = write_repr(tmp_path, one_atom_pair(np.random.default_rng(14)))
    assert run(argv + ["--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


# The flags each command reads, besides --input and --out.
COMMAND_FLAGS = {
    "eval": {"--grid-seed"},
    "certify": {"--kind", "--alpha", "--beta", "--grid-seed", "--tol"},
    "params": {"--kind", "--mode", "--phi"},
    "convert": {"--kind", "--alpha"},
    "transform": {"--op", "--alpha", "--beta", "--grid-seed"},
    "moments": {"--m"},
    "report": {"--kind", "--grid-seed", "--tol", "--m"},
}
FLAG_VALUES = {
    "--kind": "s",
    "--alpha": "0.0",
    "--beta": "1.0",
    "--grid-seed": "3",
    "--tol": "1e-9",
    "--mode": "plain_iy",
    "--phi": "3.0",
    "--m": "2",
    "--op": "transpose",
}
REQUIRED = {"convert": ["--kind", "kk_pair"], "transform": ["--op", "transpose"]}


def subparsers():
    return next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_declares_the_flags_it_reads():
    for name, parser in subparsers().items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == COMMAND_FLAGS[name] | {"--input", "--out"}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_rejects_a_flag_it_does_not_read(tmp_path, capsys, command):
    path = write_repr(tmp_path, one_atom_pair(np.random.default_rng(15)))
    for flag in sorted(set(FLAG_VALUES) - COMMAND_FLAGS[command]):
        assert run([command, "--input", path, *REQUIRED.get(command, []), flag, FLAG_VALUES[flag]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in json.loads(captured.err)["error"]  # not taken as a prefix


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--no-such-flag"],
        ["eval", "--grid-seed", "x"],
        ["certify", "--kind", "stieltjes_pair"],
        ["convert", "--kind", "s"],
        ["convert"],  # --kind is required
        ["transform", "--op", "inverse"],
        ["no-such-command"],
    ],
)
def test_usage_errors_are_json_errors_exit_one(tmp_path, capsys, argv):
    path = write_repr(tmp_path, one_atom_pair(np.random.default_rng(16)))
    assert run(argv + ["--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["certify", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_kind_flag_offers_the_classes_and_the_kinds():
    assert all(spec.default_class in CLASSES for spec in KINDS.values())
    for name, parser in subparsers().items():
        kind = next((a for a in parser._actions if a.dest == "kind"), None)
        if name == "convert":
            assert set(kind.choices) == set(KINDS) and kind.required
        elif "--kind" in COMMAND_FLAGS[name]:
            assert set(kind.choices) == set(CLASSES) and not kind.required


@pytest.mark.parametrize("command", ["eval", "report", "transform"])
def test_grid_points_are_the_sample_points(tmp_path, capsys, command):
    p = one_atom_pair(np.random.default_rng(17), alpha=0.5)
    path = write_repr(tmp_path, p)
    extra = ["--op", "pinv_map"] if command == "transform" else []
    assert run([command, "--input", path, "--grid-seed", "9", *extra]) == 0
    report = json.loads(capsys.readouterr().out)
    grid = report["samples" if command == "report" else "grid"]
    assert [complex(*rec["z"]) for rec in grid] == sample_points(0.5, "right", n=20, seed=9)
    assert report["tol"] is None


@pytest.mark.parametrize(
    "make, claims",
    [(random_pair, ("t", "tdot")), (random_s0, ("t", "tdot")), (random_tpair, ("s", "sdot")), (random_t0, ("s", "sdot"))],
)
def test_params_claim_for_the_other_side_is_a_mismatch(tmp_path, capsys, make, claims):
    path = write_repr(tmp_path, make(np.random.default_rng(18), q=2))
    for claimed in claims:
        assert run(["params", "--kind", claimed, "--input", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail" and report["claimed"] == claimed
        assert "ray" in report["reason"]


@pytest.mark.parametrize(
    "r",
    [
        random_tpair(np.random.default_rng(19), q=2),
        random_t0(np.random.default_rng(19), q=2),
        random_tinf(np.random.default_rng(19), q=2, ranks=(None, 0, None)),  # E = 0: the gap limit exists
    ],
    ids=["t_pair", "t0", "tinf_triple"],
)
def test_params_radial_default_phi_follows_the_side(tmp_path, capsys, r):
    path = write_repr(tmp_path, r)
    assert run(["params", "--mode", "radial", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["phi"] == 0.0
    assert run(["params", "--mode", "radial", "--phi", "0.25", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["phi"] == 0.25


# certify --kind X for every class.  With q = 1 and one atom every weight is
# real, so each product is exact and the bytes do not depend on the BLAS build.
CERTIFY_DIGESTS = {
    ("pair", "s"): "bd8e8f5df230beeb9a0e6c01c91635a3154394996fd8d4267a59a86c73a7980a",
    ("pair", "s_via_pair"): "fc88c8ea9b3fbf2f334874f66eefa0600c2c133a357b1afe0ff28b8177c0a876",
    ("pair", "s0"): "ac678bcf3fd0aa3b8ed11f9f24d40caf221bcbb5bcab7dedc150b29408223291",
    ("pair", "sdot"): "54ea8478060216b18b8d2b1b59b295640755ab085441f99e3ee5c0a6b278f733",
    ("pair", "sinf"): "704d72fce39c9e42a93439dd27122803c3b031ff11ba82e5c582008123ca0321",
    ("pair", "t"): "78a6c4657e443bbb8b0246874563aaeac63c46e32fa0ddbb8fdb5aaa8f500499",
    ("pair", "t_via_pair"): "0bb409cce1ddc401a6848dc80bc33ccaf43a8b09d7aba71e2c1cc38a9f452bbd",
    ("pair", "t0"): "2205abccbf3b744c7b588ae01ba108baf5e365925a2682093e22fcfc4aeeccdb",
    ("pair", "tdot"): "f6c0c903dfea61a203bae94f19bbfaf749ae515de22176c3c74ffb9c101efc51",
    ("pair", "tinf"): "908205ac4571f707a65f84d6bcd6d006ce267e6c00fa60c7cccc86e1b299ca51",
    ("t_pair", "s"): "4c540912713fea5238b2d3d6a85598804c35592914b38f8c948ddb17136245c1",
    ("t_pair", "s_via_pair"): "86466eef26cc138240b14c634a44bac00adf0d9fff151c5ce521ff63596d5c94",
    ("t_pair", "s0"): "36749faa962531a6ac402e6d5d101721b69da2ac00d4fbdddb3ef8383332506a",
    ("t_pair", "sdot"): "d4a7494b79186f62a20154408f749b8353768a93b2970db1bb945a70059dbf36",
    ("t_pair", "sinf"): "065b0c58ac53a10d0bd225ee79ca5b03eb979be42a265ec55e2f796c2f69f447",
    ("t_pair", "t"): "610596f59ae7a1d84c9a9babdef36aa1cccba416ce884bc81945a6865cfb4245",
    ("t_pair", "t_via_pair"): "e73e42e3c78ca31480d4fc7d3193e7a83a5d4fbc043645457b470d7c73db69a1",
    ("t_pair", "t0"): "7281e79bdfc5fe28954bb2f3c95c24226ffdde773799b3bf7e087b226a40846c",
    ("t_pair", "tdot"): "f09870d13e30b3c530bf364ece58f6e29a94951ebd2cbfa4e902f61625521cb4",
    ("t_pair", "tinf"): "ec137ca95b9a46a6da556e75a2757a71817a8fd768efc56890b1b3ccf871e2d0",
}
MEMBER_CLASSES = {"pair": {"s", "s_via_pair"}, "t_pair": {"t", "t_via_pair"}}


@pytest.mark.parametrize("name, make", [("pair", random_pair), ("t_pair", random_tpair)])
@pytest.mark.parametrize("kind", list(CLASSES))
def test_certificates_are_byte_stable(tmp_path, capsys, name, make, kind):
    path = write_repr(tmp_path, make(np.random.default_rng(2025), q=1, n_atoms=1))
    assert run(["certify", "--kind", kind, "--input", path]) == (0 if kind in MEMBER_CLASSES[name] else 2)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CERTIFY_DIGESTS[name, kind]

# params (the default class, every --kind and three --mode values) and the two
# pinv transforms on the inputs above: the exit code and the digest of stdout
# and stderr together.
PARAMS_DIGESTS = {
    ("pair", ""): (0, "82074467119c64f164dc198ddef79a4520fe4234e01292d4ac6db7373400264e"),
    ("pair", "--kind s"): (0, "82074467119c64f164dc198ddef79a4520fe4234e01292d4ac6db7373400264e"),
    ("pair", "--kind s_via_pair"): (1, "6473a6a3b856186e63fbdee5cf228a24007c4d906682354f7eb88972b46b933b"),
    ("pair", "--kind s0"): (2, "55114fcdc22fee0c8cad86d7035b8f06cabc3f60a37fb1e64d5b01901d680d9f"),
    ("pair", "--kind sdot"): (2, "a875e248aee7fa9f9835b03de2816f702038dba55b225d4cda5f0b7823724b99"),
    ("pair", "--kind sinf"): (1, "82d77bc8eac7afeea60da3ba4e9c6e687fbd5aceda160a6f76fbb8a6f2329c48"),
    ("pair", "--kind t"): (2, "3dedb9ac241278fd18eb14e810bedba2d41bb29cf2f9d6192d646b2f06ff9fe2"),
    ("pair", "--kind t_via_pair"): (1, "f67634a0ff99cab4f374699117f66a52e892ae27c32d9a7454d789ef6b55c6fd"),
    ("pair", "--kind t0"): (2, "db617f42071a09e63c1ca35eee01903d01a0b35793c1f24c53ece5d82dfdc5c4"),
    ("pair", "--kind tdot"): (2, "8f64349721464c8bb1636dce92326f9acd6f8a44e6fb8cea645aab8a5085e140"),
    ("pair", "--kind tinf"): (1, "468ef109cbe164ca27560a80cfa6b1a8d286f6f273aa012f4c84a2b3dc6dfe5a"),
    ("pair", "--mode plain_iy"): (0, "ac92e28bd7d4c7d9d3265dc6c5ae842064841dc3d44660640c523dbcd3d8fa9c"),
    ("pair", "--mode y_scaled"): (1, "62fa54c115063325b1232b3b812d1e4b16af64d3810a141bbe1a2c7fc33649cc"),
    ("pair", "--mode radial"): (0, "03c2c4b83edba493c5541357696a382752d34bf0e67779e226cec08eb6756a9b"),
    ("pair", "--op pinv_map"): (0, "8c319eef2d6d308271b544ef93c0954cea57ca12bcce5821c8295fd4937ae5bb"),
    ("pair", "--op neg_pinv"): (0, "8cb4440d345ef881dd554027d69683c0920e5fc93561c919936ba643b99be5cd"),
    ("t_pair", ""): (0, "6bca1292379ae74ee60ce821e7690ba5fecdd28bbcb351481e28d9d5691e749c"),
    ("t_pair", "--kind s"): (2, "6dd87814dcafa9203bab1972ab1032c38b2cb7dea70f20693be48ece92bbea47"),
    ("t_pair", "--kind s_via_pair"): (1, "6473a6a3b856186e63fbdee5cf228a24007c4d906682354f7eb88972b46b933b"),
    ("t_pair", "--kind s0"): (2, "6ff578bea1ff1becf4ac7c9b0911d71bc4a643818200863dc76113d36cc4d29e"),
    ("t_pair", "--kind sdot"): (2, "3a18bd48280564a9b1ad26253d01da74da9d241ab749554201fbab638265eec9"),
    ("t_pair", "--kind sinf"): (1, "82d77bc8eac7afeea60da3ba4e9c6e687fbd5aceda160a6f76fbb8a6f2329c48"),
    ("t_pair", "--kind t"): (0, "6bca1292379ae74ee60ce821e7690ba5fecdd28bbcb351481e28d9d5691e749c"),
    ("t_pair", "--kind t_via_pair"): (1, "f67634a0ff99cab4f374699117f66a52e892ae27c32d9a7454d789ef6b55c6fd"),
    ("t_pair", "--kind t0"): (2, "ce23b528f96b99960c9aa22db7f81863e04ec57af39a9da89ec10a3666dcf1e3"),
    ("t_pair", "--kind tdot"): (2, "9eafd270a5f2d434ca73ea33db366294ccb3f268bb242e1e5ca522c22a71b347"),
    ("t_pair", "--kind tinf"): (1, "468ef109cbe164ca27560a80cfa6b1a8d286f6f273aa012f4c84a2b3dc6dfe5a"),
    ("t_pair", "--mode plain_iy"): (0, "3d30a6b1d394c40a31781147085ae749b4d87e31572cdfe23f9111b6cb54bac0"),
    ("t_pair", "--mode y_scaled"): (1, "62fa54c115063325b1232b3b812d1e4b16af64d3810a141bbe1a2c7fc33649cc"),
    ("t_pair", "--mode radial"): (0, "dfa00784feead145bb38c74816febba965157cfb647c38ba2bea11013770d4e7"),
    ("t_pair", "--op pinv_map"): (0, "3e569157bd1ed2411cbcf104a409b7b9c1c8c17c1715f9b7458dc26617ed02da"),
    ("t_pair", "--op neg_pinv"): (0, "b976bbd1b7f0a2ee0e646dc85efa9118ef14333118d18fdfec86e7a42df020b1"),
}


@pytest.mark.parametrize("name, make", [("pair", random_pair), ("t_pair", random_tpair)])
@pytest.mark.parametrize("flags", list(dict.fromkeys(flags for _, flags in PARAMS_DIGESTS)))
def test_params_and_pinv_transforms_are_byte_stable(tmp_path, capsys, name, make, flags):
    path = write_repr(tmp_path, make(np.random.default_rng(2025), q=1, n_atoms=1))
    code, digest = PARAMS_DIGESTS[name, flags]
    command = "transform" if flags.startswith("--op") else "params"
    assert run([command, *flags.split(), "--input", path]) == code
    captured = capsys.readouterr()
    assert hashlib.sha256((captured.out + captured.err).encode()).hexdigest() == digest
