import numpy as np
import pytest

from diffdistill.cli import _fd_grad
from diffdistill.diffusion import mutual_knn
from diffdistill.embeddings import (
    RANKING_BLOCK_ROWS,
    EmbeddingBatch,
    cosine_similarity_matrix,
    normalize_rows,
    pair_grad_to_raw,
    top_neighbors,
)
from diffdistill.errors import ZeroNormRow


def test_normalize_three_four_vector():
    out = normalize_rows(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)


def test_normalize_axis_vectors():
    batch = EmbeddingBatch(normalize_rows(np.array([[1.0, 0.0], [0.0, 2.0]])), np.array([0, 1]))
    np.testing.assert_array_equal(batch.vectors, np.eye(2))
    np.testing.assert_array_equal(batch.labels, [0, 1])


def test_normalize_random_rows_unit_and_idempotent():
    rng = np.random.default_rng(0)
    vec = rng.standard_normal((5, 3)) * 3.0
    once = normalize_rows(vec)
    np.testing.assert_allclose(np.linalg.norm(once, axis=1), 1.0, atol=1e-12)
    twice = normalize_rows(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_zero_norm_row_raises_with_index():
    vec = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ZeroNormRow) as info:
        normalize_rows(vec)
    assert info.value.row == 1


def test_embedding_batch_rejects_non_unit_rows():
    with pytest.raises(ValueError):
        EmbeddingBatch(np.array([[2.0, 0.0]]), np.array([0]))


def test_labels_length_must_match():
    with pytest.raises(ValueError):
        EmbeddingBatch(normalize_rows(np.ones((3, 2))), np.array([0, 1]))


def test_cosine_identical_vectors_all_ones():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    D = cosine_similarity_matrix(EmbeddingBatch(z, np.array([0, 0])))
    np.testing.assert_allclose(D, np.ones((2, 2)), atol=1e-15)


def test_cosine_orthogonal_is_identity():
    D = cosine_similarity_matrix(EmbeddingBatch(np.eye(2), np.array([0, 1])))
    np.testing.assert_allclose(D, np.eye(2), atol=1e-15)


def test_cosine_matches_pairwise_dot_oracle():
    rng = np.random.default_rng(1)
    z = normalize_rows(rng.standard_normal((4, 8)))
    D = cosine_similarity_matrix(EmbeddingBatch(z, np.zeros(4, dtype=int)))
    for i in range(4):
        for j in range(4):
            oracle = sum(z[i, k] * z[j, k] for k in range(8))
            assert abs(D[i, j] - min(1.0, max(-1.0, oracle))) < 1e-12
    assert np.all(np.abs(D - D.T) < 1e-9)
    assert np.all(np.abs(np.diag(D) - 1.0) < 1e-9)
    assert D.min() >= -1.0 and D.max() <= 1.0


def test_cosine_invariant_under_positive_rescaling():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((6, 4))
    scales = rng.uniform(0.1, 10.0, size=(6, 1))
    D1 = cosine_similarity_matrix(EmbeddingBatch(normalize_rows(raw), np.zeros(6, dtype=int)))
    D2 = cosine_similarity_matrix(
        EmbeddingBatch(normalize_rows(raw * scales), np.zeros(6, dtype=int))
    )
    np.testing.assert_allclose(D1, D2, atol=1e-12)


def unit_rows_and_norms(rng, n, d):
    V = rng.standard_normal((n, d)) * rng.uniform(0.2, 5.0, size=(n, 1))
    return V, normalize_rows(V), np.linalg.norm(V, axis=1)


def test_jacobian_kills_radial_direction():
    # a diagonal G only moves each z_i along itself, which normalization undoes
    rng = np.random.default_rng(5)
    _, Z, norms = unit_rows_and_norms(rng, 4, 3)
    G = np.diag(rng.standard_normal(4))
    np.testing.assert_allclose(pair_grad_to_raw(G, Z, norms), np.zeros((4, 3)), atol=1e-15)


def test_jacobian_passes_orthogonal_component():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    G = np.array([[0.0, 1.0], [0.0, 0.0]])  # dL/dD_01 = 1: row 0 is pulled along e2, row 1 along e1
    out = pair_grad_to_raw(G, np.array([e1, e2]), np.ones(2))
    np.testing.assert_allclose(out, [e2, e1], atol=1e-15)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        V, Z, norms = unit_rows_and_norms(rng, n, d)
        G = rng.standard_normal((n, n))
        analytic = pair_grad_to_raw(G, Z, norms)

        def loss(W):
            U = W / np.linalg.norm(W, axis=1, keepdims=True)
            return float(np.sum(G * (U @ U.T)))

        fd = _fd_grad(loss, V, step)
        rel = np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel < 1e-6


def test_jacobian_output_orthogonal_to_direction():
    rng = np.random.default_rng(4)
    for _ in range(50):
        _, Z, norms = unit_rows_and_norms(rng, 5, 5)
        out = pair_grad_to_raw(rng.standard_normal((5, 5)), Z, norms)
        assert np.abs(np.sum(out * Z, axis=1)).max() < 1e-10


def test_jacobian_rejects_zero_vector():
    V = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ZeroNormRow) as info:
        pair_grad_to_raw(np.ones((2, 2)), V, np.linalg.norm(V, axis=1))
    assert info.value.row == 1


# ---------------------------------------------------------------------------
# neighbor ranking


def ranking_oracle(s):
    """Brute-force per-row order: descending score, ties by index, self dropped."""
    n = s.shape[0]
    return [[j for j in sorted(range(n), key=lambda j: (-s[i, j], j)) if j != i] for i in range(n)]


def old_mutual_knn_mask(similarity, k):
    """The per-row loop that the dense mutual-kNN mask replaced."""
    n = similarity.shape[0]
    ranked = np.argsort(-similarity, axis=1, kind="stable")
    in_knn = np.zeros((n, n), dtype=bool)
    for i in range(n):
        neighbors = ranked[i][ranked[i] != i][:k]
        in_knn[i, neighbors] = True
    return in_knn & in_knn.T


def tie_heavy_similarities(n, seed):
    """Cosine similarities of points drawn with repeats, rounded to 1 decimal."""
    rng = np.random.default_rng(seed)
    points = normalize_rows(rng.standard_normal((max(3, n // 8), 3)))
    z = points[rng.integers(0, points.shape[0], size=n)]  # many duplicated rows
    return np.round(cosine_similarity_matrix(z), 1)


BLOCK = RANKING_BLOCK_ROWS


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_neighbor_ranking_matches_brute_force_oracle(n):
    rng = np.random.default_rng(n)
    inputs = [
        tie_heavy_similarities(n, seed=n),
        np.round(rng.uniform(-1, 1, size=(n, n)), 1),  # asymmetric, ties everywhere
        np.full((n, n), 0.5),  # every row ties at every cut
    ]
    for s in inputs:
        before = s.copy()
        oracle = np.array(ranking_oracle(s))
        for top in (1, 7, 50, n - 1):
            np.testing.assert_array_equal(top_neighbors(s, top)[0], oracle[:, :top])
        np.testing.assert_array_equal(s, before)  # input untouched


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3])
def test_mutual_knn_mask_matches_per_row_loop(n):
    s = tie_heavy_similarities(n, seed=n + 1)
    for k in (1, 7, n - 1):
        neighbors, scores, mutual = mutual_knn(s, k)
        np.testing.assert_array_equal(neighbors, top_neighbors(s, k)[0])
        np.testing.assert_array_equal(scores, np.take_along_axis(s, neighbors, axis=1))
        mask = np.zeros((n, n), dtype=bool)
        mask[np.arange(n)[:, None], neighbors] = mutual
        np.testing.assert_array_equal(mask, old_mutual_knn_mask(s, k))


def test_neighbor_ranking_self_is_excluded_even_when_not_maximal():
    s = np.array([[0.0, 0.5, 0.5], [0.9, 0.1, 0.9], [1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(top_neighbors(s, 2)[0], [[1, 2], [0, 2], [0, 1]])


def test_neighbor_ranking_nan_at_the_cut_keeps_stable_argsort_order():
    # NaN sorts after every number, in index order; self is never a candidate
    s = np.full((8, 8), np.nan)
    s[:, 0] = 1.0
    expected = [[1, 2, 3], [0, 2, 3], [0, 1, 3]] + [[0, 1, 2]] * 5
    np.testing.assert_array_equal(top_neighbors(s, 3)[0], expected)


@pytest.mark.parametrize("top", [0, 3])
def test_neighbor_ranking_rejects_top_out_of_range(top):
    with pytest.raises(ValueError):
        top_neighbors(np.eye(3), top)
