import tracemalloc

import numpy as np
import pytest

from diffdistill import metrics
from diffdistill.embeddings import EmbeddingBatch, normalize_rows
from diffdistill.errors import KTooLarge, RankDeficient, UndefinedDensity
from diffdistill.metrics import (
    COSINE,
    EUCLIDEAN,
    embedding_density,
    evaluate_batch,
    kmeans,
    nmi,
    recall_at_k,
    spectral_decay,
)


def batch_of(vectors, labels):
    return EmbeddingBatch(normalize_rows(np.asarray(vectors, dtype=float)), np.asarray(labels))


def brute_force_recall(batch, ks):
    z = batch.vectors
    labels = batch.labels
    n = z.shape[0]
    out = {}
    for k in ks:
        hits = 0
        for q in range(n):
            scored = sorted(
                ((float(z[q] @ z[j]), -j) for j in range(n) if j != q), reverse=True
            )
            top = [-j for _, j in scored[:k]]
            hits += any(labels[j] == labels[q] for j in top)
        out[k] = hits / n
    return out


# ---------------------------------------------------------------------------
# recall


def test_recall_twin_classes_orthogonal():
    batch = batch_of(np.repeat(np.eye(3), 2, axis=0), [0, 0, 1, 1, 2, 2])
    assert recall_at_k(batch, [1])[1] == 1.0


def test_recall_unique_classes_all_zero():
    rng = np.random.default_rng(0)
    batch = batch_of(rng.standard_normal((6, 4)), np.arange(6))
    result = recall_at_k(batch, [1, 2, 5])
    assert all(v == 0.0 for v in result.values())


def test_recall_matches_exhaustive_sort_oracle():
    rng = np.random.default_rng(1)
    batch = batch_of(rng.standard_normal((12, 5)), rng.integers(0, 4, size=12))
    ks = [1, 2, 3, 5, 8]
    assert recall_at_k(batch, ks) == brute_force_recall(batch, ks)


def test_recall_monotone_and_saturates():
    rng = np.random.default_rng(2)
    labels = np.repeat(np.arange(5), 3)
    batch = batch_of(rng.standard_normal((15, 6)), labels)
    ks = list(range(1, 15))
    result = recall_at_k(batch, ks)
    values = [result[k] for k in ks]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert result[14] == 1.0  # every class has >= 2 samples


def test_recall_k_too_large():
    batch = batch_of(np.eye(3), [0, 1, 2])
    with pytest.raises(KTooLarge):
        recall_at_k(batch, [3])


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 3))
    batch = batch_of(X, np.zeros(6, dtype=int))
    assign, _ = kmeans(batch, k=6, restarts=3, seed=0)
    assert np.unique(assign).size == 6


def test_kmeans_separated_blobs_recovered():
    rng = np.random.default_rng(4)
    a = np.array([10.0, 0.0, 0.0]) + 0.05 * rng.standard_normal((8, 3))
    b = np.array([0.0, 10.0, 0.0]) + 0.05 * rng.standard_normal((8, 3))
    X = np.vstack([a, b])
    assign, _ = kmeans(X, k=2, restarts=5, seed=1)
    assert np.unique(assign[:8]).size == 1
    assert np.unique(assign[8:]).size == 1
    assert assign[0] != assign[8]


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 4))
    a, _ = kmeans(X, k=4, restarts=10, seed=42)
    b, _ = kmeans(X, k=4, restarts=10, seed=42)
    np.testing.assert_array_equal(a, b)


def sequential_kmeans(X, k, restarts=10, seed=0, max_iter=300):
    """The one-restart-at-a-time k-means that `kmeans` must reproduce bitwise.

    Returns the best assignments and how many restarts ran all max_iter steps
    without settling.
    """

    def seed_centers(rng):
        centers = np.empty((k, X.shape[1]))
        centers[0] = X[int(rng.integers(X.shape[0]))]
        closest = np.sum((X - centers[0]) ** 2, axis=1)
        for c in range(1, k):
            centers[c] = X[int(np.argmax(closest))]
            closest = np.minimum(closest, np.sum((X - centers[c]) ** 2, axis=1))
        return centers

    def lloyd(centers):
        assign = np.full(X.shape[0], -1)
        settled = False
        for _ in range(max_iter):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = np.argmin(d2, axis=1)
            if np.array_equal(new_assign, assign):
                settled = True
                break
            assign = new_assign
            for c in range(k):
                members = X[assign == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
                else:
                    dist_to_own = d2[np.arange(len(assign)), assign]
                    centers[c] = X[int(np.argmax(dist_to_own))]
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        return assign, float(d2[np.arange(X.shape[0]), assign].sum()), settled

    rng = np.random.default_rng(seed)
    best_assign, best_inertia, unconverged = None, np.inf, 0
    for _ in range(max(1, restarts)):
        assign, inertia, settled = lloyd(seed_centers(rng))
        unconverged += not settled
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign, unconverged


def same_partition(a, b):
    pairs = np.unique(np.stack([a, b]), axis=1)
    return pairs.shape[1] == np.unique(a).size == np.unique(b).size


def oracle_cases(rng, count):
    for case in range(count):
        kind = case % 4
        # kind 3 rarely converges, so it runs to max_iter: keep it small
        n = int(rng.integers(2, 41 if kind == 3 else 301))
        d = int(rng.integers(1, 20))
        k = int(rng.integers(1, min(n, 30) + 1))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        if kind == 1:
            X = np.round(X, 1)  # many exact ties between distances
        elif kind == 2:
            half = (n + 1) // 2
            X = np.round(X[:half], 1)[rng.integers(0, half, size=n)]  # duplicated rows
        elif kind == 3:
            # fewer distinct rows than clusters: seeding repeats centres,
            # which leaves clusters empty and forces reseeding
            X = X[rng.integers(0, max(1, k - 1), size=n)]
        yield X, k, int(rng.choice([1, 10])), int(rng.choice([1, 2, 300])), case


def test_kmeans_bitwise_equals_sequential_oracle():
    rng = np.random.default_rng(20)
    for X, k, restarts, max_iter, seed in oracle_cases(rng, 240):
        got, got_unconverged = kmeans(X, k, restarts=restarts, seed=seed, max_iter=max_iter)
        want, want_unconverged = sequential_kmeans(X, k, restarts=restarts, seed=seed, max_iter=max_iter)
        if X.shape[1] == 1:
            # numpy's axis-0 mean of a column is pairwise, not row-order, so
            # centres may differ in the last bit; the clustering may not
            assert same_partition(got, want), (X.shape, k, restarts, max_iter, seed)
        else:
            assert np.array_equal(got, want), (X.shape, k, restarts, max_iter, seed)
            assert got_unconverged == want_unconverged, (X.shape, k, restarts, max_iter, seed)
        if seed % 5 == 0:
            # the same data in Fortran order clusters the same
            fortran = np.asfortranarray(X)
            assert np.array_equal(
                kmeans(fortran, k, restarts=restarts, seed=seed, max_iter=max_iter)[0], got
            )


def test_kmeans_exact_tie_takes_lower_index():
    # x = a + t lies exactly halfway between c0 = a and c1 = a + 2t: the
    # differences are exact integers, so the broadcast distances tie bitwise.
    # With |a| ~ 1e15 the screened |x|^2 - 2 x.c + |c|^2 is rounding noise, so
    # only the exact re-rank can give the tie to the lower index.
    rng = np.random.default_rng(23)
    tied = 0
    for seed in range(40):
        d = int(rng.integers(2, 8))
        a = rng.integers(10**15, 2 * 10**15, size=d).astype(float)
        t = rng.integers(1, 9, size=d) * rng.choice([-1.0, 1.0], size=d)
        X = np.stack([a, a + 2 * t, a + t])
        for max_iter in (0, 1, 2):
            got, _ = kmeans(X, 2, restarts=1, seed=seed, max_iter=max_iter)
            want, _ = sequential_kmeans(X, 2, restarts=1, seed=seed, max_iter=max_iter)
            assert np.array_equal(got, want)
        if np.random.default_rng(seed).integers(3) < 2:
            # seeded at c0 or c1: the other end is the second centre, and the
            # first centre's cluster (index 0) takes x
            tied += 1
            assert kmeans(X, 2, restarts=1, seed=seed, max_iter=0)[0][2] == 0
    assert tied >= 10


def test_kmeans_rejects_nonfinite_and_non_matrix_input():
    X = np.random.default_rng(21).standard_normal((8, 3))
    for bad in (np.nan, np.inf, -np.inf):
        Y = X.copy()
        Y[3, 1] = bad
        with pytest.raises(ValueError):
            kmeans(Y, k=2)
    with pytest.raises(ValueError):
        kmeans(X[:, 0], k=2)
    # finite input whose squared distances overflow has no finite inertia
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        kmeans(X * 1e200, k=2)


# ---------------------------------------------------------------------------
# NMI


def test_nmi_perfect_up_to_relabeling():
    labels = np.array([0, 0, 1, 1, 2, 2])
    relabeled = np.array([5, 5, 3, 3, 9, 9])
    assert nmi(relabeled, labels) == pytest.approx(1.0, abs=1e-12)


def test_nmi_single_cluster_zero():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert nmi(np.zeros(6, dtype=int), labels) == 0.0


def test_nmi_matches_contingency_oracle():
    assignments = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    labels = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    n = 8
    # direct contingency-table computation
    table = np.zeros((3, 3))
    for a, b in zip(assignments, labels):
        table[a, b] += 1
    mutual = 0.0
    for i in range(3):
        for j in range(3):
            if table[i, j]:
                p_ij = table[i, j] / n
                mutual += p_ij * np.log(p_ij / (table[i].sum() / n * table[:, j].sum() / n))

    def entropy(counts):
        p = counts[counts > 0] / n
        return -(p * np.log(p)).sum()

    oracle = 2 * mutual / (entropy(table.sum(axis=1)) + entropy(table.sum(axis=0)))
    assert nmi(assignments, labels) == pytest.approx(oracle, abs=1e-12)


def test_nmi_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 3, size=30)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
        perm = rng.permutation(4)
        assert nmi(perm[a], b) == pytest.approx(nmi(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# density


def test_density_collapsed_classes_euclidean_zero_ratio():
    z = np.repeat(normalize_rows(np.random.default_rng(7).standard_normal((3, 4))), 2, axis=0)
    batch = EmbeddingBatch(z, np.array([0, 0, 1, 1, 2, 2]))
    intra, inter, ratio = embedding_density(batch, distance=EUCLIDEAN)
    assert intra == 0.0
    assert inter > 0.0
    assert ratio == 0.0


def test_density_single_class_undefined():
    batch = batch_of(np.random.default_rng(8).standard_normal((4, 3)), [1, 1, 1, 1])
    with pytest.raises(UndefinedDensity):
        embedding_density(batch)


def test_density_no_multi_sample_class_undefined():
    batch = batch_of(np.eye(3), [0, 1, 2])
    with pytest.raises(UndefinedDensity):
        embedding_density(batch)


def test_density_matches_hand_enumerated_pairs():
    rng = np.random.default_rng(9)
    z = normalize_rows(rng.standard_normal((9, 4)))
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    batch = EmbeddingBatch(z, labels)
    for distance in (EUCLIDEAN, COSINE):
        intra, inter, ratio = embedding_density(batch, distance=distance)

        def dist(a, b):
            return float(np.linalg.norm(a - b)) if distance == EUCLIDEAN else 1.0 - float(a @ b)

        means = [z[labels == c].mean(axis=0) for c in (0, 1, 2)]
        inter_pairs = [dist(means[l], means[k]) for l in range(3) for k in range(3) if l != k]
        intra_pairs = [
            dist(z[i], z[j])
            for c in (0, 1, 2)
            for i in np.nonzero(labels == c)[0]
            for j in np.nonzero(labels == c)[0]
            if i != j
        ]
        assert inter == pytest.approx(np.mean(inter_pairs), abs=1e-12)
        assert intra == pytest.approx(np.mean(intra_pairs), abs=1e-12)
        assert ratio == pytest.approx(np.mean(intra_pairs) / np.mean(inter_pairs), abs=1e-12)


def test_density_invariant_under_rotation():
    rng = np.random.default_rng(10)
    z = normalize_rows(rng.standard_normal((10, 5)))
    labels = rng.integers(0, 3, size=10)
    labels[:2] = 0  # guarantee a class with two members
    batch = EmbeddingBatch(z, labels)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rotated = EmbeddingBatch(normalize_rows(z @ Q), labels)
    a = embedding_density(batch)
    b = embedding_density(rotated)
    np.testing.assert_allclose(a, b, atol=1e-10)


def _density_oracle(batch, distance):
    """The per-class meshgrid loop that embedding_density replaced."""
    from diffdistill.metrics import _pair_distance

    labels, Z = batch.labels, batch.vectors
    classes = np.unique(labels)
    if classes.size < 2:
        raise UndefinedDensity("need at least 2 classes")
    means = np.stack([Z[labels == c].mean(axis=0) for c in classes])
    ii, jj = np.meshgrid(np.arange(classes.size), np.arange(classes.size), indexing="ij")
    off = ii != jj
    inter = float(np.mean(_pair_distance(means[ii[off]], means[jj[off]], distance)))
    intra_terms = []
    for c in classes:
        members = Z[labels == c]
        if members.shape[0] < 2:
            continue
        pi, pj = np.meshgrid(np.arange(members.shape[0]), np.arange(members.shape[0]), indexing="ij")
        keep = pi != pj
        intra_terms.append(_pair_distance(members[pi[keep]], members[pj[keep]], distance))
    if not intra_terms:
        raise UndefinedDensity("need at least one class with >= 2 samples")
    intra = float(np.mean(np.concatenate(intra_terms)))
    if inter == 0.0:
        raise UndefinedDensity("all class means coincide; inter-class distance is zero")
    return intra, inter, intra / inter


def test_density_bitwise_equals_per_class_loop_oracle():
    rng = np.random.default_rng(11)
    for case in range(300):
        n = int(rng.integers(1, 120))
        d = int(rng.integers(1, 20))
        kind = case % 5
        if kind == 0:
            labels = np.zeros(n, dtype=np.int64)  # one class
        elif kind == 1:
            labels = rng.permutation(n)  # all distinct
        elif kind == 2:
            labels = rng.integers(0, max(1, n // 2), size=n)  # many singletons
        else:
            labels = rng.integers(0, int(rng.integers(1, 12)), size=n) * 7  # unsorted, gaps
        batch = EmbeddingBatch(normalize_rows(rng.standard_normal((n, d))), labels)
        for distance in (EUCLIDEAN, COSINE):
            try:
                expected = _density_oracle(batch, distance)
            except UndefinedDensity as exc:
                with pytest.raises(UndefinedDensity, match=str(exc)):
                    embedding_density(batch, distance=distance)
                continue
            assert embedding_density(batch, distance=distance) == expected


@pytest.mark.parametrize("block", [1, 2, 7, 300])
def test_density_pair_blocks_bitwise_equal_the_oracle(monkeypatch, block):
    # blocks end inside a class and inside a row's pairs alike; a row with more
    # pairs than the block is a block of its own. Up to 60 classes, the
    # inter-class pairs of the class means span blocks as well.
    monkeypatch.setattr(metrics, "DENSITY_BLOCK_PAIRS", block)
    rng = np.random.default_rng(block)
    for case in range(80):
        n = int(rng.integers(2, 60))
        most = 8 if case % 2 else n + 1
        labels = rng.integers(0, int(rng.integers(2, most)), size=n) * 3
        batch = EmbeddingBatch(normalize_rows(rng.standard_normal((n, int(rng.integers(1, 9))))), labels)
        for distance in (EUCLIDEAN, COSINE):
            try:
                expected = _density_oracle(batch, distance)
            except UndefinedDensity:
                continue
            assert embedding_density(batch, distance=distance) == expected


def test_density_scratch_is_bounded_per_pair():
    # 2,000 rows, d = 16, in 2 classes of 1,000 rows (1,998,000 ordered
    # same-class pairs) or in 1,000 classes of 2 rows (999,000 ordered pairs
    # of class means). Gathering both rows of every pair peaked at ~546 B per
    # pair: 1.04 GB and 545 MB.
    rng = np.random.default_rng(0)
    vectors = normalize_rows(rng.standard_normal((2000, 16)))
    block_scratch = 1024 * metrics.DENSITY_BLOCK_PAIRS  # gathered rows and indices of one block
    for classes in (2, 1000):
        rows = 2000 // classes
        pairs = classes * rows * (rows - 1) + classes * (classes - 1)
        tracemalloc.start()
        try:
            embedding_density(EmbeddingBatch(vectors, np.repeat(np.arange(classes), rows)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * pairs + block_scratch, (classes, peak / pairs)


# ---------------------------------------------------------------------------
# spectral decay


def test_spectral_decay_equal_spectrum_zero():
    # orthogonal rows scaled equally: all singular values equal
    batch = np.eye(6)
    assert spectral_decay(batch, exclude_top=2) == pytest.approx(0.0, abs=1e-12)
    assert spectral_decay(batch, exclude_top=0) == pytest.approx(0.0, abs=1e-12)


def test_spectral_decay_matches_svd_kl_oracle():
    rng = np.random.default_rng(11)
    Z = normalize_rows(rng.standard_normal((20, 8)))
    value = spectral_decay(Z, exclude_top=2)
    sv = np.linalg.svd(Z, compute_uv=False)
    kept = sorted(sv, reverse=True)[2:]
    p = np.array(kept) / sum(kept)
    oracle = sum((1 / len(p)) * np.log((1 / len(p)) / pi) for pi in p)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_spectral_decay_invariant_under_row_permutation():
    rng = np.random.default_rng(12)
    Z = normalize_rows(rng.standard_normal((15, 6)))
    perm = rng.permutation(15)
    assert spectral_decay(Z) == pytest.approx(spectral_decay(Z[perm]), abs=1e-12)


def test_spectral_decay_rank_deficient():
    Z = np.zeros((5, 4))
    Z[:, 0] = 1.0  # rank one: everything past the first singular value is 0
    with pytest.raises(RankDeficient):
        spectral_decay(Z, exclude_top=2)


def test_spectral_decay_rejects_nonfinite_and_non_matrix_input():
    Z = normalize_rows(np.random.default_rng(22).standard_normal((6, 4)))
    for bad in (np.nan, np.inf):
        Y = Z.copy()
        Y[2, 0] = bad
        with pytest.raises(ValueError):
            spectral_decay(Y)
    with pytest.raises(ValueError):
        spectral_decay(Z[0])


def test_spectral_decay_needs_enough_dimensions():
    with pytest.raises(ValueError):
        spectral_decay(np.eye(2), exclude_top=2)


# ---------------------------------------------------------------------------
# combined report


def test_evaluate_batch_report_fields_and_meta():
    rng = np.random.default_rng(13)
    labels = np.repeat(np.arange(4), 5)
    batch = batch_of(rng.standard_normal((20, 6)), labels)
    report = evaluate_batch(batch, ks=[1, 2, 4], seed=3)
    assert set(report.recall_at) == {1, 2, 4}
    assert 0.0 <= report.nmi <= 1.0
    assert report.density_ratio == embedding_density(batch)[2]
    assert report.spectral_decay == spectral_decay(batch, exclude_top=2)
    payload = report.to_json_dict()
    assert payload["meta"]["density_distance"] == EUCLIDEAN
    assert payload["meta"]["spectral_exclude_top"] == 2
    assert payload["meta"]["kmeans_unconverged_restarts"] == 0
    assert payload["meta"]["n"] == 20
    assert list(payload["recall"]) == ["1", "2", "4"]
