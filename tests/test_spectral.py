import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avereg.errors import InputError
from avereg.spectral import (
    CoefficientVector,
    SourceCondition,
    SpectralDecomposition,
    apply_forward,
    apply_pseudoinverse,
    counterexample_direction,
    counterexample_operator,
    embed_solution,
    load_matrix_csv,
    project_data,
    project_solution,
    svd,
    synthesize_source,
)


# ---------------------------------------------------------------------------
# coefficient vectors and decompositions


def test_coefficient_vector_norm_includes_orthogonal_part():
    v = CoefficientVector([3.0, 0.0], orthogonal_norm=4.0)
    assert v.norm() == pytest.approx(5.0)


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
    assert op.rank == 2 and op.data_dim == 2 and op.solution_dim == 2


def test_source_condition_enforces_norm_bound():
    with pytest.raises(InputError):
        SourceCondition(1.0, 1.0, [1.0, 1.0])
    SourceCondition(1.0, 2.0, [1.0, 1.0])


# ---------------------------------------------------------------------------
# forward / pseudoinverse


def test_apply_forward_scales_coefficients():
    op = SpectralDecomposition([2.0, 1.0])
    y = apply_forward(op, CoefficientVector([1.0, 1.0]))
    assert np.allclose(y.coefficients, [2.0, 1.0])
    assert y.orthogonal_norm == 0.0


def test_apply_forward_zero():
    op = SpectralDecomposition([2.0, 1.0])
    assert np.all(apply_forward(op, CoefficientVector([0.0, 0.0])).coefficients == 0)


def test_pseudoinverse_inverts_forward():
    op = SpectralDecomposition([2.0, 1.0])
    x = apply_pseudoinverse(op, CoefficientVector([2.0, 1.0]))
    assert np.allclose(x.coefficients, [1.0, 1.0])


def test_pseudoinverse_amplifies_small_singular_values():
    op = SpectralDecomposition([1e-8])
    x = apply_pseudoinverse(op, CoefficientVector([1.0]))
    assert x.coefficients[0] == pytest.approx(1e8)


def test_length_mismatch_raises():
    op = SpectralDecomposition([1.0])
    with pytest.raises(InputError):
        apply_forward(op, CoefficientVector([1.0, 2.0]))


# ---------------------------------------------------------------------------
# source synthesis


def test_synthesize_source_power_arithmetic():
    op = SpectralDecomposition([0.5])
    x_hat, y_hat = synthesize_source(op, SourceCondition(2.0, 1.0, [1.0]))
    assert x_hat.coefficients[0] == pytest.approx(0.25)
    assert y_hat.coefficients[0] == pytest.approx(0.125)


def test_synthesize_source_inverse_decay():
    sigma = 1.0 / np.arange(1, 6)
    op = SpectralDecomposition(sigma)
    w = np.zeros(5)
    w[2] = 1.0
    x_hat, y_hat = synthesize_source(op, SourceCondition(1.0, 1.0, w))
    expected = np.zeros(5)
    expected[2] = 1.0 / 3.0
    assert np.allclose(x_hat.coefficients, expected)
    back = apply_pseudoinverse(op, y_hat)
    assert np.allclose(back.coefficients, x_hat.coefficients, atol=1e-12)


# ---------------------------------------------------------------------------
# counterexample construction


def test_counterexample_level_two_coefficient():
    op, direction = counterexample_operator(6)
    assert direction.coefficients[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-5)
    assert direction.coefficients[0] == 0.0


def test_counterexample_singular_values():
    op, _ = counterexample_operator(6)
    assert op.singular_values[2] == pytest.approx(1e-3)
    x = np.zeros(6)
    x[1] = 1.0
    y = apply_forward(op, CoefficientVector(x))
    assert y.coefficients[1] == pytest.approx(1.0 / 100.0)


def test_counterexample_tail_identity():
    direction = counterexample_direction(10**6)
    tail = float(np.sum(direction.coefficients[3:] ** 2))
    assert tail == pytest.approx(1.0 / 3.0, abs=2e-6)


def test_counterexample_telescoping_partial_sums():
    for m in (10, 100, 10**4):
        direction = counterexample_direction(m)
        total = float(np.sum(direction.coefficients**2))
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
def test_forward_pseudoinverse_round_trip(seed, m):
    rng = np.random.default_rng(seed)
    sigma = np.sort(rng.uniform(0.1, 2.0, size=m))[::-1]
    op = SpectralDecomposition(sigma)
    x = CoefficientVector(rng.standard_normal(m))
    back = apply_pseudoinverse(op, apply_forward(op, x))
    assert np.allclose(back.coefficients, x.coefficients, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# projections and IO


def test_projection_round_trip_with_orthogonal_component():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    op = svd(a)
    vec = rng.standard_normal(5)
    coef = project_data(op, vec)
    assert coef.norm() == pytest.approx(np.linalg.norm(vec))
    x = CoefficientVector(rng.standard_normal(op.rank))
    ambient = embed_solution(op, x)
    back = project_solution(op, ambient)
    assert np.allclose(back.coefficients, x.coefficients)
    assert back.orthogonal_norm < 1e-10


def test_identity_basis_projections_pass_through():
    op = SpectralDecomposition([2.0, 1.0])
    vec = np.array([1.0, -1.0])
    assert np.array_equal(project_data(op, vec).coefficients, vec)
    assert np.array_equal(embed_solution(op, CoefficientVector(vec)), vec)


def test_decomposition_json_export():
    import json

    op = SpectralDecomposition([2.0, 1.0])
    payload = json.loads(op.to_json())
    assert payload == {"singular_values": [2.0, 1.0], "rank": 2}


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
