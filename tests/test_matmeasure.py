import copy
import json
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stieltjeskit as sk
from stieltjeskit import matmeasure
from stieltjeskit.matmeasure import EPS_MERGE, EPS_PSD, as_psd, matrix_from_json, matrix_to_json, norm2, svd_rank

from genutil import measure_left, measure_right, psd

I2 = np.eye(2)


# --- construction / canonicalization ---


def test_atoms_sorted_merged_and_zero_dropped():
    W = psd(np.random.default_rng(0), 2)
    mu = sk.MatrixMeasure(
        2,
        sk.right_ray(0.0),
        [(3.0, W), (1.0, W), (1.0 + 1e-14, W), (2.0, np.zeros((2, 2)))],
    )
    assert [t for t, _ in mu.atoms] == [1.0, 3.0]
    np.testing.assert_allclose(mu.atoms[0][1], 2 * W, rtol=0, atol=0)


def test_canonicalization_idempotent():
    rng = np.random.default_rng(3)
    mu = measure_right(rng, 3, 0.5)
    again = sk.MatrixMeasure(mu.q, mu.support, mu.atoms)
    assert again == mu and again != sk.image_measure(mu, 1.0, 1.0)
    assert len(again.atoms) == len(mu.atoms)
    for (t1, W1), (t2, W2) in zip(mu.atoms, again.atoms):
        assert t1 == t2
        assert np.array_equal(W1, W2)


@pytest.mark.parametrize(
    "copier",
    [lambda mu: pickle.loads(pickle.dumps(mu)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("n_atoms", [0, 4])
def test_copies_of_a_measure_are_read_only(copier, n_atoms):
    mu = measure_right(np.random.default_rng(4), 2, 0.5, n_atoms=n_atoms) if n_atoms else sk.MatrixMeasure(2, sk.right_ray(0.5))
    dup = copier(mu)
    assert dup == mu
    for arr in (dup.nodes, dup.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = -5.0


def test_node_outside_support_rejected():
    with pytest.raises(sk.SupportViolation):
        sk.MatrixMeasure(2, sk.right_ray(0.0), [(-1.0, I2)])
    with pytest.raises(sk.SupportViolation):
        sk.MatrixMeasure(2, sk.open_right_ray(0.0), [(0.0, I2)])
    with pytest.raises(sk.SupportViolation):
        sk.MatrixMeasure(2, sk.open_left_ray(1.0), [(1.0, I2)])


def test_non_psd_weight_rejected():
    with pytest.raises(sk.NotPsd):
        sk.MatrixMeasure(2, sk.whole_line(), [(0.0, np.diag([1.0, -1.0]))])
    with pytest.raises(sk.NotHermitian):
        sk.MatrixMeasure(2, sk.whole_line(), [(0.0, np.array([[1.0, 1.0], [0.0, 1.0]]))])


@pytest.mark.parametrize("check_psd", [False, True])
@pytest.mark.parametrize("defects", [0, 1, 3])
def test_the_hermitian_gate_runs_one_eigvalsh(monkeypatch, check_psd, defects):
    """One stacked eigvalsh over H and the skew parts of the defective matrices; none without defects or psd."""
    rng = np.random.default_rng(defects)
    M = np.stack([psd(rng, 3) for _ in range(5)])
    for k in range(defects):  # a last-bit defect, as a product of Hermitian matrices leaves
        M[k, 0, 1] = M[k, 0, 1] * (1.0 + 2.0**-52)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(A.shape) or eigvalsh(A))
    for name in ("norm2", "_scaled_gram"):
        monkeypatch.setattr(matmeasure, name, lambda *_: pytest.fail("the gate reads no Gram norm"))
    H = matmeasure._hermitian_stack(M, check_psd)
    assert calls == ([(5 + defects, 3, 3)] if check_psd else [(2 * defects, 3, 3)] if defects else [])
    assert np.array_equal(H, 0.5 * (M + M.conj().swapaxes(1, 2))) and not H.flags.writeable


@pytest.mark.parametrize("check_psd", [False, True])
def test_the_hermiticity_defect_is_measured_against_one_plus_the_norm_of_h(check_psd):
    """||M - M*||_2 = 2 d here, against EPS_PSD (1 + ||H||_2) = 1e-10 (1 + 1e6)."""
    H = np.diag([1e6, 0.0])
    for d, ok in ((0.49e-4, True), (0.51e-4, False)):
        M = H + np.array([[0.0, 1j * d], [1j * d, 0.0]])  # skew part K = [[0, d], [d, 0]]
        if ok:
            assert np.array_equal(matmeasure._hermitian_stack(M[None], check_psd)[0], H)
        else:
            with pytest.raises(sk.NotHermitian):
                matmeasure._hermitian_stack(M[None], check_psd)


# --- canonicalization on the stack against a per-atom reference ---


def _reference_canonical(q, support, atoms):
    """Canonical (t, W) list, or the exception raised.

    Each check runs on the whole stack before the next: every weight's
    shape, then finiteness, then hermiticity, then PSD; then the nodes.
    """
    norm = lambda M: np.linalg.norm(M, 2)  # noqa: E731
    try:
        Ws = [np.asarray(W, dtype=complex) for _, W in atoms]
        if any(W.shape != (q, q) for W in Ws):
            raise sk.DimensionMismatch("not q x q")
        if not all(np.isfinite(W).all() for W in Ws):
            raise sk.StieltjesKitError("non-finite")
        if any(norm(W - W.conj().T) > EPS_PSD * (1.0 + norm(W)) for W in Ws):
            raise sk.NotHermitian("not Hermitian")
        Hs = [0.5 * (W + W.conj().T) for W in Ws]
        if any(np.linalg.eigvalsh(H)[0] < -EPS_PSD * (1.0 + norm(H)) for H in Hs):
            raise sk.NotPsd("not PSD")
        cleaned = [(float(t), H) for (t, _), H in zip(atoms, Hs)]
        if not all(np.isfinite(t) for t, _ in cleaned):
            raise sk.SupportViolation("non-finite node")
        cleaned.sort(key=lambda tw: tw[0])
        merged = []
        for t, W in cleaned:
            if merged and abs(t - merged[-1][0]) <= EPS_MERGE * (1.0 + abs(t)):
                merged[-1] = (merged[-1][0], merged[-1][1] + W)
            else:
                merged.append((t, W))
        out = [(t, W) for t, W in merged if np.any(W)]
        if not all(support.contains(t) for t, _ in out):
            raise sk.SupportViolation("outside")
        return out
    except sk.StieltjesKitError as exc:
        return exc


def _ill_conditioned_psd(rng, q):
    """U diag(lam) U* with eigenvalues spread over 16 decades, some exactly zero."""
    U = np.linalg.qr(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))[0]
    lam = 10.0 ** rng.uniform(-12.0, 4.0, size=q) * (rng.random(q) < 0.8)
    M = (U * lam) @ U.conj().T
    if rng.random() < 0.5:  # a last-bit hermiticity defect, well inside EPS_HERM
        M = M + 1e-14 * np.abs(M).max() * (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))
    return M


def _random_atoms(rng, q, support, n, defect):
    e = support.endpoint
    sign = -1.0 if support.kind in ("left_ray", "open_left_ray") else 1.0
    nodes = []
    for _ in range(n):
        pick = rng.random()
        if nodes and pick < 0.3:  # near-duplicate of an earlier node, either side of EPS_MERGE
            t0 = nodes[int(rng.integers(len(nodes)))]
            f = rng.choice([0.25, 0.5, 0.99, 1.01, 2.0])
            nodes.append(t0 + rng.choice([-1, 1]) * f * EPS_MERGE * (1.0 + abs(t0)))
        elif pick < 0.45:
            nodes.append(e)  # endpoint atom: in a closed ray, outside an open one
        else:
            nodes.append(e + sign * 10.0 ** rng.uniform(-8.0, 8.0))
    weights = [
        np.zeros((q, q)) if rng.random() < 0.15 else _ill_conditioned_psd(rng, q) for _ in range(n)
    ]
    for defect in defect if isinstance(defect, tuple) else (defect,):  # a pair: two defects, each at a random atom
        if defect and n:
            k = int(rng.integers(n))
            W = psd(rng, q)
            scale = 1.0 + np.linalg.norm(W, 2)
            weights[k] = {
                "herm": W + 1e-4 * scale * np.triu(np.ones((q, q)), 1),
                "psd": W - (np.linalg.eigvalsh(W)[-1] + 1e-3 * scale) * np.eye(q),
                "nan": np.where(np.eye(q) > 0, np.nan, W),
                "inf": W + np.diag([np.inf] + [0.0] * (q - 1)),
                "size": psd(rng, q + 1),
                "square": np.ones((q, q + 1)),
            }.get(defect, weights[k])
            if defect == "inf_node":
                nodes[k] = sign * np.inf
    return list(zip(nodes, weights))


SUPPORTS = ("right_ray", "open_right_ray", "left_ray", "open_left_ray", "line")
DEFECTS = (None, None, None, "herm", "psd", "nan", "inf", "size", "square", "inf_node")
# Two defects in one stack: the check order, not the atoms' order, decides which one raises.
TWO_DEFECTS = (
    ("psd", "nan"), ("psd", "herm"), ("herm", "inf"), ("nan", "size"), ("psd", "square"), ("inf_node", "psd")
)


@given(
    seed=st.integers(0, 10**6),
    q=st.integers(1, 4),
    n=st.integers(0, 12),
    kind=st.sampled_from(SUPPORTS),
    defect=st.sampled_from(DEFECTS + TWO_DEFECTS),
)
@settings(max_examples=300, deadline=None)
def test_stacked_canonicalization_matches_per_atom_reference(seed, q, n, kind, defect):
    rng = np.random.default_rng(seed)
    endpoint = 0.0 if kind == "line" else float(rng.choice([0.0, 1.0, -1.0]) * 10.0 ** rng.uniform(-8.0, 8.0))
    support = sk.SupportSet(kind, endpoint)
    atoms = _random_atoms(rng, q, support, n, defect)
    expected = _reference_canonical(q, support, atoms)
    if isinstance(expected, Exception):
        with pytest.raises(sk.StieltjesKitError) as exc:
            sk.MatrixMeasure(q, support, atoms)
        assert type(exc.value) is type(expected)
        return
    mu = sk.MatrixMeasure(q, support, atoms)
    assert mu.nodes.tolist() == [t for t, _ in expected]
    assert mu.weights.shape == (len(expected), q, q)
    for W, (_, W_ref) in zip(mu.weights, expected):
        assert np.array_equal(W, W_ref)
    assert not mu.nodes.flags.writeable and not mu.weights.flags.writeable
    assert sk.MatrixMeasure.from_arrays(q, support, mu.nodes, mu.weights) == mu


@pytest.mark.parametrize(
    "atoms, error",
    [
        ([(1.0, -I2), (2.0, np.diag([np.nan, 1.0]))], sk.StieltjesKitError),  # a NaN atom after a non-PSD one
        ([(1.0, np.diag([np.inf, 1.0])), (2.0, np.eye(3))], sk.DimensionMismatch),
        ([(1.0, -I2), (2.0, np.triu(np.ones((2, 2))))], sk.NotHermitian),
        ([(np.inf, I2), (2.0, -I2)], sk.NotPsd),  # the weights are checked before the nodes
    ],
    ids=["finite_before_psd", "shape_before_finite", "hermitian_before_psd", "weights_before_nodes"],
)
def test_each_check_runs_on_the_whole_stack_before_the_next(atoms, error):
    for order in (atoms, atoms[::-1]):
        with pytest.raises(sk.StieltjesKitError) as exc:
            sk.MatrixMeasure(2, sk.whole_line(), order)
        assert type(exc.value) is error


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: sk.SupportSet("ray"), sk.UnsupportedKind),
        (lambda: sk.SupportSet(["right_ray"]), sk.UnsupportedKind),
        (lambda: sk.right_ray(np.inf), sk.StieltjesKitError),
        (lambda: sk.left_ray(np.nan), sk.StieltjesKitError),
        (lambda: sk.right_ray([0.0, 1.0]), sk.StieltjesKitError),
        (lambda: sk.right_ray(10**400), sk.DimensionMismatch),
        (lambda: sk.right_ray("0"), sk.DimensionMismatch),
        (lambda: sk.right_ray(None), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure("1", sk.whole_line()), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(1.0, sk.whole_line()), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(0, sk.whole_line()), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(10**400, sk.right_ray(0.0)), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(2**32, sk.right_ray(0.0)), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(1, sk.whole_line(), [(None, np.eye(1))]), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(1, sk.whole_line(), [("1", np.eye(1))]), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(1, sk.whole_line(), [(10**400, np.eye(1))]), sk.DimensionMismatch),
        (lambda: sk.MatrixMeasure(1, sk.whole_line(), [(1.0, [[None]])]), sk.DimensionMismatch),
        (lambda: as_psd([[1.0, 0.0], [0.0]]), sk.DimensionMismatch),
    ],
    ids=[
        "unknown_kind", "list_kind", "infinite_endpoint", "nan_endpoint", "two_endpoints", "big_integer_endpoint",
        "string_endpoint", "null_endpoint", "string_q", "float_q", "zero_q", "big_integer_q", "unshapeable_q",
        "null_node", "string_node", "big_integer_node", "null_weight", "ragged_matrix",
    ],
)
def test_constructors_refuse_malformed_input_with_a_typed_error(make, error):
    with pytest.raises(sk.StieltjesKitError) as exc:
        make()
    assert type(exc.value) is error


NON_FINITE = (float("nan"), float("inf"), -float("inf"), complex(0.0, float("nan")))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("where", ["weight", "psd_field", "hermitian_field"])
def test_non_finite_matrix_is_a_typed_error(bad, where):
    W = np.eye(2, dtype=complex)
    W[0, 1] = bad
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, I2)])
    with pytest.raises(sk.StieltjesKitError, match="non-finite"):
        if where == "weight":
            sk.MatrixMeasure(2, sk.right_ray(0.0), [(0.5, I2), (1.0, W)])
        elif where == "psd_field":
            sk.StieltjesPair(0.0, W, mu)
        else:
            sk.NevanlinnaTriple(W, I2, mu)


def test_support_distance():
    ray = sk.right_ray(1.0)
    assert ray.distance(2.0 + 1j) == 1.0
    assert ray.distance(-1.0) == pytest.approx(2.0)
    assert sk.left_ray(0.0).distance(1.0 + 1j) == pytest.approx(np.sqrt(2.0))
    assert sk.whole_line().distance(5.0 + 0.25j) == 0.25
    # an array of points gives each point's distance, bit for bit as abs() of a Python complex
    zs = np.random.default_rng(9).normal(size=40) * 3 + 1j * np.random.default_rng(10).normal(size=40)
    zs[:4] = [1.0, 1.0 - 2j, -0.0, 1.0 + 0j]
    for support in (ray, sk.open_right_ray(1.0), sk.left_ray(1.0), sk.open_left_ray(1.0), sk.whole_line()):
        a, right = support.endpoint, support.kind in ("right_ray", "open_right_ray")
        beside = lambda z: support.kind == "line" or (z.real >= a if right else z.real <= a)  # noqa: E731
        expected = [abs(z.imag) if beside(z) else abs(z - a) for z in zs.tolist()]
        assert support.distance(zs).tolist() == expected
        assert [support.distance(z) for z in zs.tolist()] == expected
        ts = np.array([-np.inf, -1.0, 1.0, 2.0, np.inf, np.nan])
        assert support.contains(ts).tolist() == [support.contains(t) for t in ts.tolist()]


# --- the Hermitian gate near the largest float ---


def test_hermitian_gate_halves_before_it_adds():
    """M + M* overflows past about 9e307: these finite inputs were stored with an inf+nanj entry."""
    big = np.diag([1.7e308, 1.0]).astype(complex)
    assert np.array_equal(as_psd(big), big)
    assert sk.MatrixMeasure(1, sk.right_ray(0.0), [(1.0, [[1e308]])]).weights.tolist() == [[[1e308]]]
    # finite, Hermitian and indefinite, but lambda_max = 2.3e308 is not a float: the PSD bound relative to it was inf
    with pytest.raises(sk.StieltjesKitError, match="largest float"):
        sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, [[1.7e308, 1e308], [1e308, 1.0]])])


def test_hermitian_gate_refuses_a_skew_matrix_near_the_largest_float():
    """Its skew part M - M* overflowed, and the gate passed it and returned zeros."""
    with pytest.raises(sk.NotHermitian):
        matmeasure.as_hermitian([[0.0, 1.7e308], [-1.7e308, 0.0]])


def test_hermitian_and_skew_parts_keep_their_bits():
    """Halving first gives the bits of 0.5 (M + M*) and (M - M*) / 2j, signed zeros of negated matrices too."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        q = int(rng.integers(1, 5))
        A = rng.standard_normal((q, q)) * (rng.random((q, q)) < 0.7)
        L = rng.standard_normal((q, 2)) + 1j * rng.standard_normal((q, 2))
        for M in (A + A.T + 0j, -(A + A.T + 0j), np.conj(A + 0j), L @ L.conj().T, L @ L.T, A + 1j * A.T):
            Mh = M.conj().T
            assert matmeasure._herm(M).tobytes() == (0.5 * (M + Mh)).tobytes()
            assert matmeasure._im(M).tobytes() == ((M - Mh) / 2j).tobytes()


# --- total_mass ---


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2), (5, 3, 3), (5, 2, 4), (5, 4, 2)])
def test_svd_rank_cuts_the_singular_vectors_at_the_rank(shape):
    rng = np.random.default_rng(40)
    *m, p, q = shape
    cn = lambda *dims: rng.normal(size=dims) + 1j * rng.normal(size=dims)  # noqa: E731
    M = cn(*m, p, 1) @ cn(*m, 1, q)  # rank 1
    U, s, V, r = svd_rank(M, 1e-10)
    k = min(p, q)
    assert U.shape == (*m, p, k) and V.shape == (*m, q, k) and s.shape == (*m, k)
    assert np.all(r == 1) and not U[..., 1:].any() and not V[..., 1:].any()
    np.testing.assert_allclose((U * s[..., None, :]) @ V.conj().swapaxes(-1, -2), M, atol=1e-12)
    U, _, V, r = svd_rank(1e-13 * M, 1e-10, zero=1e-10)  # sigma_1 at or below zero: rank 0
    assert np.all(r == 0) and not U.any() and not V.any()


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0), (5, 3, 0), (5, 0, 3)])
def test_svd_rank_of_an_empty_matrix_is_zero(shape):
    *m, p, q = shape
    U, s, V, r = svd_rank(np.zeros(shape, dtype=complex), 0.0)
    assert U.shape == (*m, p, 0) and V.shape == (*m, q, 0) and s.shape == (*m, 0)
    assert np.all(r == 0) and np.shape(r) == tuple(m)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("q", range(1, 9))
def test_norm2_is_the_largest_singular_value(q, scale):
    # Unscaled, the Gram matrix of entries near 1e200 overflows and that of entries near 1e-200 underflows.
    rng = np.random.default_rng(q)
    M = rng.normal(size=(20, q, q)) + 1j * rng.normal(size=(20, q, q))
    M[0] = psd(rng, q, rank=1)
    M[1, :, 0] *= 1e-8  # graded columns
    M *= scale
    sigma_1 = np.linalg.svd(M, compute_uv=False)[:, 0]
    np.testing.assert_allclose(norm2(M), sigma_1, rtol=2e-15, atol=0.0)
    np.testing.assert_allclose(norm2(M[3]), sigma_1[3], rtol=2e-15, atol=0.0)  # a single matrix


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1, 1), (2, 2), (3, 3), (8, 8), (5, 3, 3), (7, 2, 2)]),
       real=st.booleans())
@settings(max_examples=300, deadline=None)
def test_fro_is_numpys_norm_where_that_is_exact(seed, shape, real):
    """Entries 1e-100 to 1e100: np.linalg.norm's bits, for one matrix and per matrix of a stack."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=shape) * 10.0 ** rng.uniform(-100.0, 100.0, size=shape)
    if not real:
        M = M + 1j * rng.normal(size=shape) * 10.0 ** rng.uniform(-100.0, 100.0, size=shape)
    axis = None if len(shape) == 2 else (1, 2)
    want = np.linalg.norm(M, axis=axis)
    assert np.array_equal(matmeasure.fro(M, axis), want)
    assert np.array_equal(matmeasure.fro(M * 2.0**600, axis), want * 2.0**600)  # unscaled, its squares overflow


def test_fro_scales_past_overflow_and_underflow():
    big, tiny = np.diag([1e300, 1e300j]), np.diag([1e-300, 1e-300j])
    stack = matmeasure.fro(np.stack((big, tiny, np.eye(2))), (1, 2))
    np.testing.assert_allclose([matmeasure.fro(big), matmeasure.fro(tiny), *stack], np.sqrt(2.0) * np.array(
        [1e300, 1e-300, 1e300, 1e-300, 1.0]), rtol=4e-16, atol=0.0)
    assert matmeasure.fro(np.diag([1.7e308, 1.7e308j])) == np.inf  # past the largest float: no warning
    sub = np.diag([3e-310, 4e-310j])  # subnormal: the scale 2^1029 itself overflows, so it is applied by ldexp
    assert matmeasure.fro(sub) == pytest.approx(5e-310, rel=1e-12)
    assert matmeasure.fro(np.stack((sub, np.eye(2))), (1, 2)) == pytest.approx([5e-310, np.sqrt(2.0)], rel=1e-12)
    assert matmeasure.fro(np.zeros((2, 2))) == 0.0 and np.isnan(matmeasure.fro(np.diag([np.nan, 1.0])))


def test_norm2_of_zero_and_empty_matrices():
    assert np.array_equal(norm2(np.zeros((4, 3, 3), dtype=complex)), np.zeros(4))
    assert norm2(np.zeros((2, 2))) == 0.0
    for shape in [(0, 3, 3), (3, 0, 0), (0, 0, 0), (2, 0, 3), (2, 3, 0)]:
        out = norm2(np.zeros(shape, dtype=complex))
        assert out.shape == shape[:1] and not out.any()
    assert norm2(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)])
def test_norm2_of_a_non_finite_entry_is_not_finite(bad, where):
    M = np.stack([np.eye(2, dtype=complex)] * 3)
    M[1][where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = norm2(M)
        single = norm2(M[1])
    assert out[0] == out[2] == 1.0
    assert not np.isfinite(out[1]) and not np.isfinite(single)


def test_total_mass_empty_is_zero():
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [])
    assert np.array_equal(sk.total_mass(mu), np.zeros((2, 2)))


def test_total_mass_additive():
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(0.0, I2), (1.0, I2)])
    np.testing.assert_array_equal(sk.total_mass(mu), 2 * I2)


def test_total_mass_single_atom():
    B = np.array([[2.0, 1j], [-1j, 3.0]])
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(0.0, B)])
    np.testing.assert_array_equal(sk.total_mass(mu), B)


# --- integrate ---


def test_integrate_constant_equals_mass():
    rng = np.random.default_rng(1)
    mu = measure_right(rng, 2, -1.0)
    np.testing.assert_allclose(sk.integrate(mu, lambda t: 1.0), sk.total_mass(mu))


def test_integrate_single_atom_linear_kernel():
    W = psd(np.random.default_rng(2), 2)
    mu = sk.MatrixMeasure(2, sk.whole_line(), [(2.0, W)])
    np.testing.assert_allclose(sk.integrate(mu, lambda t: t), 2 * W)


def test_integrate_resolvent_kernel():
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, I2)])
    out = sk.integrate(mu, lambda t: 1.0 / (t - 1j))
    np.testing.assert_allclose(out, (0.5 + 0.5j) * I2, rtol=1e-15)


def test_integrate_nonfinite_kernel_raises():
    mu = sk.MatrixMeasure(1, sk.whole_line(), [(0.0, np.eye(1))])
    with pytest.raises(sk.NonFiniteKernel):
        sk.integrate(mu, lambda t: 1.0 / t)


# --- image_measure ---


def test_image_identity():
    rng = np.random.default_rng(4)
    mu = measure_right(rng, 2, 0.0)
    out = sk.image_measure(mu, 1.0, 0.0)
    assert out.support == mu.support
    np.testing.assert_allclose(out.nodes, mu.nodes)


def test_image_reflection_flips_ray():
    W = psd(np.random.default_rng(5), 2)
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, W)])
    out = sk.image_measure(mu, -1.0, 0.0)
    assert out.support.kind == "left_ray"
    assert out.nodes.tolist() == [-1.0]
    np.testing.assert_array_equal(out.atoms[0][1], W)


def test_image_degenerate_map_rejected():
    mu = sk.MatrixMeasure(1, sk.whole_line(), [(0.0, np.eye(1))])
    with pytest.raises(sk.DegenerateMap):
        sk.image_measure(mu, 0.0, 1.0)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_image_change_of_variables(seed):
    rng = np.random.default_rng(seed)
    mu = sk.MatrixMeasure(
        2, sk.whole_line(), [(t, psd(rng, 2)) for t in rng.uniform(-3, 3, size=3)]
    )
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    b = float(rng.uniform(-2.0, 2.0))
    z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
    out = sk.image_measure(mu, a, b)
    # atom weights are carried over bit-exactly; the mass sum may differ
    # only by summation order
    for (_, W1), (_, W2) in zip(
        sorted(mu.atoms, key=lambda x: x[0]),
        sorted(out.atoms, key=lambda x: (x[0] if a > 0 else -x[0])),
    ):
        assert np.array_equal(W1, W2)
    np.testing.assert_allclose(sk.total_mass(out), sk.total_mass(mu), atol=1e-13)
    lhs = sk.integrate(out, lambda s: 1.0 / (s - z))
    rhs = sk.integrate(mu, lambda t: 1.0 / (a * t + b - z))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + np.linalg.norm(rhs)))


def test_reflection_about_endpoints_matches_kernel():
    # t -> a + b - t sends (1 + t - a) on [a, inf) to (1 + b - s) on (-inf, b]
    rng = np.random.default_rng(6)
    a, b = 0.5, 2.0
    mu = measure_right(rng, 2, a, n_atoms=3)
    out = sk.image_measure(mu, -1.0, a + b)
    for (t, _), (s, _) in zip(mu.atoms, reversed(out.atoms)):
        assert 1.0 + t - a == pytest.approx(1.0 + b - s, abs=1e-14)


# --- moments ---


def test_moments_single_atom_powers():
    B = psd(np.random.default_rng(7), 2)
    alpha = 1.5
    mu = sk.MatrixMeasure(2, sk.right_ray(alpha), [(alpha, B)])
    s = sk.moments(mu, 3)
    for j in range(4):
        np.testing.assert_allclose(s[j], alpha**j * B)


def test_moments_zero_measure():
    mu = sk.MatrixMeasure(2, sk.whole_line(), [])
    for s in sk.moments(mu, 2):
        assert np.array_equal(s, np.zeros((2, 2)))


def test_a_moment_that_overflows_is_a_typed_error():
    """Three finite weights of 8e307 sum past the largest float; the moments were inf."""
    mu = sk.MatrixMeasure(1, sk.right_ray(0.0), [(t, [[8e307]]) for t in (1.0, 1.5, 2.0)])
    with pytest.raises(sk.NonFiniteKernel, match="not finite"):
        sk.moments(mu, 2)


def test_moments_two_atoms():
    mu = sk.MatrixMeasure(2, sk.right_ray(0.0), [(1.0, I2), (2.0, I2)])
    s = sk.moments(mu, 2)
    np.testing.assert_array_equal(s[0], 2 * I2)
    np.testing.assert_array_equal(s[1], 3 * I2)
    np.testing.assert_array_equal(s[2], 5 * I2)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_moment_hankel_block_psd(seed):
    rng = np.random.default_rng(seed)
    mu = sk.MatrixMeasure(
        2, sk.whole_line(), [(t, psd(rng, 2)) for t in rng.uniform(-2, 2, size=4)]
    )
    m = 4
    s = sk.moments(mu, m)
    n = m // 2 + 1
    H = np.block([[s[j + k] for k in range(n)] for j in range(n)])
    H = 0.5 * (H + H.conj().T)
    lam = np.linalg.eigvalsh(H)[0]
    assert lam >= -1e-10 * (1 + np.linalg.norm(H, 2))


# --- quadrature_ingest ---


def test_quadrature_zero_density():
    mu = sk.quadrature_ingest(lambda t: np.zeros((2, 2)), 2, 0.0, 1.0, 8)
    assert not mu.nodes.size


def test_quadrature_constant_density_mass():
    mu = sk.quadrature_ingest(lambda t: I2, 2, 0.0, 1.0, 8, support=sk.right_ray(0.0))
    np.testing.assert_allclose(sk.total_mass(mu), I2, atol=1e-12)


def test_quadrature_linear_density_moments_exact():
    # Gauss-Legendre integrates polynomials exactly: for density t*I on
    # [0,1], mass = I/2 and the first power moment is I/3.
    mu = sk.quadrature_ingest(lambda t: t * I2, 2, 0.0, 1.0, 8)
    s = sk.moments(mu, 1)
    np.testing.assert_allclose(s[0], 0.5 * I2, atol=1e-12)
    np.testing.assert_allclose(s[1], I2 / 3.0, atol=1e-12)


def test_quadrature_rejects_non_psd_density():
    with pytest.raises(sk.NonPsdDensity):
        sk.quadrature_ingest(lambda t: (t - 0.5) * I2, 2, 0.0, 1.0, 8)


# --- scalar_projection ---


def test_scalar_projection_basis_vector():
    mu = sk.MatrixMeasure(2, sk.whole_line(), [(0.0, np.diag([2.0, 3.0]))])
    nu = sk.scalar_projection(mu, [1.0, 0.0])
    assert nu.q == 1 and nu.support == mu.support
    np.testing.assert_array_equal(nu.nodes, [0.0])
    np.testing.assert_array_equal(nu.weights[:, 0, 0], [2.0])


def test_scalar_projection_zero_measure():
    mu = sk.MatrixMeasure(2, sk.whole_line(), [])
    nu = sk.scalar_projection(mu, [1.0, 1.0])
    assert nu.q == 1 and not nu.nodes.size and nu.weights.shape == (0, 1, 1)


def test_scalar_projection_drops_null_atoms():
    mu = sk.MatrixMeasure(2, sk.whole_line(), [(0.0, np.diag([0.0, 1.0])), (1.0, I2)])
    nu = sk.scalar_projection(mu, [1.0, 0.0])
    np.testing.assert_array_equal(nu.nodes, [1.0])
    np.testing.assert_array_equal(nu.weights[:, 0, 0], [1.0])


def test_scalar_projection_quadratic_form():
    mu = sk.MatrixMeasure(2, sk.whole_line(), [(1.0, np.array([[1.0, 1.0], [1.0, 1.0]]))])
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    nu = sk.scalar_projection(mu, u)
    assert nu.q == 1
    np.testing.assert_array_equal(nu.nodes, [1.0])
    assert nu.weights[0, 0, 0] == pytest.approx(2.0, rel=1e-14)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_scalar_projection_commutes_with_integration(seed):
    rng = np.random.default_rng(seed)
    mu = measure_left(rng, 3, 1.0)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
    f = lambda t: 1.0 / (t - z)  # noqa: E731
    lhs = u.conj() @ sk.integrate(mu, f) @ u
    rhs = sk.integrate(sk.scalar_projection(mu, u), f)[0, 0]
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


# --- JSON round trip ---


def test_measure_json_round_trip():
    rng = np.random.default_rng(8)
    mu = measure_right(rng, 2, -0.5)
    text = json.dumps(mu.to_json())
    back = sk.MatrixMeasure.from_json(json.loads(text))
    assert back.support == mu.support
    np.testing.assert_array_equal(back.nodes, mu.nodes)
    for (_, W1), (_, W2) in zip(mu.atoms, back.atoms):
        np.testing.assert_array_equal(W1, W2)


@pytest.mark.parametrize(
    "defect, error",
    [
        ("ragged_row", sk.DimensionMismatch),
        ("non_pair", sk.DimensionMismatch),
        ("string", sk.DimensionMismatch),
        ("null", sk.DimensionMismatch),
        ("nan", sk.StieltjesKitError),
        ("infinity", sk.StieltjesKitError),
        ("mixed_sizes", sk.DimensionMismatch),
        ("big_integer_entry", sk.DimensionMismatch),
        ("big_integer_node", sk.DimensionMismatch),
        ("missing_q", sk.DimensionMismatch),
        ("string_q", sk.DimensionMismatch),
        ("missing_W", sk.DimensionMismatch),
        ("atoms_not_a_list", sk.DimensionMismatch),
        ("support_not_an_object", sk.DimensionMismatch),
        ("unknown_support", sk.UnsupportedKind),
        ("infinite_endpoint", sk.StieltjesKitError),
        ("not_an_object", sk.DimensionMismatch),
    ],
)
def test_measure_json_defects_are_typed_errors(defect, error):
    obj = measure_right(np.random.default_rng(9), 2, 0.0, n_atoms=3).to_json()
    W = obj["atoms"][1]["W"]
    edits = {
        "big_integer_entry": lambda: W[0].__setitem__(0, [10**400, 0]),
        "big_integer_node": lambda: obj["atoms"][0].__setitem__("t", 10**400),
        "missing_q": lambda: obj.pop("q"),
        "string_q": lambda: obj.__setitem__("q", "2"),
        "missing_W": lambda: obj["atoms"][2].pop("W"),
        "atoms_not_a_list": lambda: obj.__setitem__("atoms", 3),
        "support_not_an_object": lambda: obj.__setitem__("support", "right_ray"),
        "unknown_support": lambda: obj["support"].__setitem__("kind", "ray"),
        "infinite_endpoint": lambda: obj["support"].__setitem__("endpoint", float("inf")),
    }
    if defect in edits or defect == "not_an_object":
        edits.get(defect, lambda: None)()
        text = json.dumps([obj] if defect == "not_an_object" else obj)
        with pytest.raises(sk.StieltjesKitError) as exc:
            sk.MatrixMeasure.from_json(json.loads(text))
        assert type(exc.value) is error
        return
    if defect == "ragged_row":
        W[1] = W[1][:1]
    elif defect == "non_pair":
        W[0][0] = [1.0, 0.0, 0.0]
    elif defect == "string":
        W[0][0] = ["1.0", 0.0]
    elif defect == "null":
        W[0][0] = [None, 0.0]
    elif defect == "nan":
        W[0][0] = [float("nan"), 0.0]
    elif defect == "infinity":
        W[1][1] = [0.0, -float("inf")]
    else:
        obj["atoms"][1]["W"] = matrix_to_json(np.eye(3))
    with pytest.raises(sk.StieltjesKitError) as exc:
        sk.MatrixMeasure.from_json(json.loads(json.dumps(obj)))
    assert type(exc.value) is error


def test_matrix_json_helpers_preserve_doubles():
    M = np.array([[1.0 / 3.0 + 2j / 7.0]])
    assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)
