import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avereg.errors import InputError, NumericalError
from avereg.filters import FilterSpec, apply_regularizer
from avereg.spectral import (
    CoefficientVector,
    SpectralDecomposition,
    counterexample_direction,
    counterexample_operator,
    embed_solution,
    load_matrix_csv,
    project_data,
    project_solution,
    svd,
)


# ---------------------------------------------------------------------------
# coefficient vectors and decompositions


def test_coefficient_vector_norm_includes_orthogonal_part():
    # projected onto range(K) = span(e_1), (3, 4) keeps 3 and a remainder of 4
    v = project_data(svd(np.array([[1.0], [0.0]])), np.array([3.0, 4.0]))
    assert v.coefficients.tolist() == [3.0] and v.orthogonal_norm == 4.0


def test_coefficient_vector_rejects_bad_inputs():
    with pytest.raises(InputError):
        CoefficientVector([np.inf])
    with pytest.raises(InputError):
        CoefficientVector([1.0], orthogonal_norm=-1.0)


def test_decomposition_requires_sorted_positive_singular_values():
    with pytest.raises(InputError):
        SpectralDecomposition([1.0, 2.0])
    with pytest.raises(InputError):
        SpectralDecomposition([1.0, 0.0])
    op = SpectralDecomposition([2.0, 1.0])
    assert op.rank == 2


# ---------------------------------------------------------------------------
# the pseudoinverse: TSVD with alpha at most the smallest sigma^2


def _pseudoinverse(op, y):
    # the operator's own smallest square: a scalar ``sigma ** 2`` (libm's pow)
    # can round one ulp above it, and TSVD then drops that level
    alpha = float(op.squares[-1])
    return apply_regularizer(op, FilterSpec("tsvd"), alpha, CoefficientVector(y)).x


def test_pseudoinverse_inverts_forward():
    op = SpectralDecomposition([2.0, 1.0])
    assert np.allclose(_pseudoinverse(op, op.singular_values * [1.0, 1.0]), [1.0, 1.0])


def test_pseudoinverse_amplifies_small_singular_values():
    # data 1 at sigma = 1e-8 comes from the solution coefficient 1e8
    op = SpectralDecomposition([1e-8])
    assert _pseudoinverse(op, [1.0])[0] == pytest.approx(1e8)


def test_length_mismatch_raises():
    op = SpectralDecomposition([1.0])
    with pytest.raises(InputError):
        embed_solution(op, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# counterexample construction


def test_counterexample_level_two_coefficient():
    op, direction = counterexample_operator(6)
    assert direction[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-5)
    assert direction[0] == 0.0


def test_counterexample_singular_values():
    op, _ = counterexample_operator(6)
    assert op.singular_values[2] == pytest.approx(1e-3)
    assert op.singular_values[1] == pytest.approx(1.0 / 100.0)


def test_counterexample_tail_identity():
    direction = counterexample_direction(10**6)
    tail = float(np.sum(direction[3:] ** 2))
    assert tail == pytest.approx(1.0 / 3.0, abs=2e-6)


def test_counterexample_telescoping_partial_sums():
    for m in (10, 100, 10**4):
        direction = counterexample_direction(m)
        total = float(np.sum(direction**2))
        assert abs(total - (1.0 - 1.0 / m)) < 1e-10


def test_counterexample_operator_bounds():
    with pytest.raises(InputError):
        counterexample_operator(1)
    with pytest.raises(InputError):
        counterexample_operator(301)


# ---------------------------------------------------------------------------
# SVD


def test_svd_identity():
    op = svd(np.eye(2))
    assert np.allclose(op.singular_values, [1.0, 1.0])


def test_svd_diagonal():
    op = svd(np.diag([3.0, 2.0]))
    assert np.allclose(op.singular_values, [3.0, 2.0])
    assert np.allclose(np.abs(op.left_basis), np.eye(2))
    assert np.allclose(np.abs(op.right_basis), np.eye(2))


def test_svd_permutation_matrix():
    op = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(op.singular_values, [1.0, 1.0])


def test_svd_seeded_reconstruction():
    rng = np.random.default_rng(20240517)
    a = rng.standard_normal((6, 6))
    op = svd(a)
    rec = (op.left_basis * op.singular_values) @ op.right_basis.T
    assert np.linalg.norm(rec - a) <= 1e-8 * np.linalg.norm(a)


def test_svd_truncates_tiny_singular_values():
    a = np.diag([1.0, 1e-16])
    op = svd(a)
    assert op.rank == 1


def test_svd_matches_lapack_on_trapezoid_matrix():
    m = 512
    h = 1.0 / m
    a = np.tril(np.full((m, m), h), -1) + np.eye(m) * (h / 2.0)
    expected = np.linalg.svd(a, compute_uv=False)
    op = svd(a)
    assert op.rank == m
    assert np.all(np.abs(op.singular_values / expected - 1.0) <= 1e-12)


@pytest.mark.parametrize(
    "a", [-np.eye(3), np.random.default_rng(11).standard_normal((7, 4))],
    ids=["negative_identity", "random"],
)
def test_svd_sign_convention(a):
    op = svd(a)
    u = op.left_basis
    assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(op.rank)] > 0)
    rec = (u * op.singular_values) @ op.right_basis.T
    assert np.linalg.norm(rec - a) <= 1e-12 * np.linalg.norm(a)


def test_svd_zero_matrix_has_rank_zero():
    op = svd(np.zeros((3, 2)))
    assert op.rank == 0
    assert op.left_basis.shape == (3, 0) and op.right_basis.shape == (2, 0)


def test_decomposition_rejects_squares_beyond_the_float_range():
    with pytest.raises(InputError, match="singular value 1 of 2 .* squares to inf"):
        SpectralDecomposition([1e155, 1.0])
    with pytest.raises(InputError, match="singular value 2 of 2 .* squares to 0"):
        SpectralDecomposition([1.0, 1e-170])
    assert SpectralDecomposition([1e154, 1e-160]).rank == 2


def test_svd_rejects_non_finite():
    with pytest.raises(InputError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    rows=st.integers(1, 50),
    cols=st.integers(1, 50),
)
def test_svd_invariants_on_random_matrices(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    op = svd(a)
    assert np.all(np.diff(op.singular_values) <= 0)
    gram_left = op.left_basis.T @ op.left_basis
    gram_right = op.right_basis.T @ op.right_basis
    eye = np.eye(op.rank)
    assert np.abs(gram_left - eye).max() < 1e-10
    assert np.abs(gram_right - eye).max() < 1e-10
    rec = (op.left_basis * op.singular_values) @ op.right_basis.T
    assert np.linalg.norm(rec - a) <= 1e-8 * max(np.linalg.norm(a), 1e-30)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(1, 20))
@example(seed=179, m=4)  # float(sigma[-1]) ** 2 rounds one ulp above sigma[-1] squared
def test_forward_pseudoinverse_round_trip(seed, m):
    rng = np.random.default_rng(seed)
    sigma = np.sort(rng.uniform(0.1, 2.0, size=m))[::-1]
    op = SpectralDecomposition(sigma)
    x = rng.standard_normal(m)
    back = _pseudoinverse(op, op.singular_values * x)
    assert np.allclose(back, x, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# projections and IO


def test_projection_round_trip_with_orthogonal_component():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    op = svd(a)
    vec = rng.standard_normal(5)
    coef = project_data(op, vec)
    assert math.hypot(np.linalg.norm(coef.coefficients), coef.orthogonal_norm) == \
        pytest.approx(np.linalg.norm(vec))
    x = rng.standard_normal(op.rank)
    ambient = embed_solution(op, x)
    back = project_solution(op, ambient)
    assert np.allclose(back.coefficients, x)
    assert back.orthogonal_norm < 1e-10


def test_identity_basis_projections_pass_through():
    op = SpectralDecomposition([2.0, 1.0])
    vec = np.array([1.0, -1.0])
    assert np.array_equal(project_data(op, vec).coefficients, vec)
    assert np.array_equal(embed_solution(op, vec), vec)


def test_decomposition_fields():
    op = SpectralDecomposition([2.0, 1.0])
    assert op.singular_values.tolist() == [2.0, 1.0]
    assert op.rank == 2


def test_load_matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.array_equal(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops\n")
    with pytest.raises(InputError):
        load_matrix_csv(bad)
    with pytest.raises(InputError):
        load_matrix_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("call, message", [
    (lambda: CoefficientVector(np.ones((2, 2))), "coefficients must be one-dimensional"),
    (lambda: SpectralDecomposition([1.0, 0.5], left_basis=np.eye(3)),
     "left_basis must have one column per singular value"),
    (lambda: SpectralDecomposition([1.0, 0.5], right_basis=np.ones(2)),
     "right_basis must have one column per singular value"),
    (lambda: counterexample_direction(1), "need m >= 2"),
    (lambda: svd(np.ones(3)), "matrix must be two-dimensional and non-empty"),
    (lambda: svd(np.empty((0, 3))), "matrix must be two-dimensional and non-empty"),
    (lambda: project_data(svd(np.eye(3)), np.ones(2)), "vector dimension mismatch"),
    (lambda: project_solution(SpectralDecomposition([1.0, 0.5]), np.ones(3)),
     "vector dimension mismatch"),
], ids=["2-D coefficients", "left basis columns", "1-D right basis", "direction m=1",
        "1-D matrix", "empty matrix", "data dimension", "solution dimension"])
def test_spectral_guards_raise_input_errors(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_svd_that_does_not_converge_is_a_numerical_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError, match="SVD did not converge"):
        svd(np.eye(2))
