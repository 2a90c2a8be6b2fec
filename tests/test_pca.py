import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from keyclust.corpus import load_corpus
from keyclust.errors import DimensionTooLarge, KeyclustError, LengthMismatch
from keyclust.pca import PcaModel, fit_pca, pca_transform, read_points, reduce_points
from keyclust.preprocess import chunk_document
from keyclust.vectorize import build_vocabulary, densify, tfidf_vector

from conftest import token_table, write_corpus_dir
from oracles import eigh_pca_oracle


def random_matrix(seed, n=20, v=5):
    return np.random.default_rng(seed).standard_normal((n, v))


def planted_spectrum(n=400, v=60, seed=0):
    """Data whose sample covariance has exactly the eigenvalues 10, 9.99,
    9.98, 9.97, twenty between 1 and 0.999, then a geometric tail: two
    clusters of near-equal eigenvalues, the case iterative solvers stall in."""
    rng = np.random.default_rng(seed)
    lam = np.concatenate(
        [[10.0, 9.99, 9.98, 9.97], np.linspace(1.0, 0.999, 20), np.geomspace(0.5, 0.01, v - 24)]
    )
    basis, _ = np.linalg.qr(rng.standard_normal((v, v)))
    z = rng.standard_normal((n, v))
    scores, _ = np.linalg.qr(z - z.mean(axis=0))  # orthonormal, centered columns
    return scores @ np.diag(np.sqrt(lam * (n - 1))) @ basis.T + 3.0


def align_sign(a, b):
    """Flip rows of ``a`` to match the sign of ``b`` (components are
    determined up to sign)."""
    out = a.copy()
    for i in range(a.shape[0]):
        if np.dot(out[i], b[i]) < 0:
            out[i] = -out[i]
    return out


class TestFitPca:
    @pytest.mark.parametrize("n, v", [(20, 5), (6, 9)], ids=["tall", "wide"])
    def test_in_place_fit_is_the_same_fit_and_projects_bitwise(self, n, v):
        X = random_matrix(11, n=n, v=v) + 2.0
        want = fit_pca(X, 4)
        Y = X.copy()
        got = fit_pca(Y, 4, in_place=True)
        for field in ("mean", "components", "explained_variance"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert got.degenerate == want.degenerate
        assert np.array_equal(Y, X - want.mean)
        assert np.array_equal(Y @ got.components.T, pca_transform(X, want))

    @pytest.mark.parametrize(
        "matrix", [np.asfortranarray(random_matrix(1)), random_matrix(1).astype(np.float32), [[0.0, 1.0]] * 3],
        ids=["fortran-order", "float32", "list"],
    )
    def test_in_place_fit_needs_a_c_contiguous_float64_array(self, matrix):
        with pytest.raises(TypeError, match="in-place centring"):
            fit_pca(matrix, 1, in_place=True)

    def test_collinear_data(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = fit_pca(X, 2)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.abs(model.components[0]) == pytest.approx(expected, abs=1e-9)
        assert model.explained_variance[1] < 1e-10

    def test_symmetric_cross_has_equal_variances(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit_pca(X, 2)
        assert model.explained_variance[0] == pytest.approx(
            model.explained_variance[1], rel=1e-9
        )
        assert model.explained_variance[0] == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_matches_dense_eigh_oracle(self):
        for seed in range(5):
            X = random_matrix(seed)
            model = fit_pca(X, 5 - 1)
            mean, comps, evar = eigh_pca_oracle(X, 4)
            assert model.mean == pytest.approx(mean, abs=1e-12)
            aligned = align_sign(model.components, comps)
            assert aligned == pytest.approx(comps, abs=1e-6)
            assert model.explained_variance == pytest.approx(evar, rel=1e-6)

    def test_orthonormality(self):
        X = random_matrix(42, n=40, v=8)
        model = fit_pca(X, 6)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_variance_non_increasing(self):
        X = random_matrix(3, n=50, v=10)
        model = fit_pca(X, 8)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_sign_convention(self):
        X = random_matrix(11, n=30, v=6)
        model = fit_pca(X, 4)
        for row in model.components:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_reconstruction_error_non_increasing_in_d(self):
        X = random_matrix(5, n=30, v=8)
        errors = []
        for d in range(1, 8):
            model = fit_pca(X, d)
            coords = pca_transform(X, model)
            recon = model.mean + coords @ model.components
            errors.append(float(np.sum((X - recon) ** 2)))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_dimension_too_large(self):
        X = random_matrix(0, n=5, v=3)
        with pytest.raises(DimensionTooLarge):
            fit_pca(X, 4)  # > V
        with pytest.raises(DimensionTooLarge):
            fit_pca(X[:3], 3)  # > n-1
        with pytest.raises(DimensionTooLarge):
            fit_pca(X, 0)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)], ids=["1-d", "3-d"])
    def test_not_a_matrix(self, shape):
        with pytest.raises(LengthMismatch, match="expected a 2-D matrix"):
            fit_pca(np.zeros(shape), 1)

    def test_degenerate_identical_vectors(self):
        X = np.tile([0.3, -1.2, 0.7], (6, 1))
        model = fit_pca(X, 2)
        assert model.degenerate
        assert model.explained_variance == pytest.approx([0.0, 0.0], abs=1e-12)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(2)).max() < 1e-8

    def test_deterministic(self):
        X = random_matrix(9, n=25, v=7)
        a = fit_pca(X, 5)
        b = fit_pca(X, 5)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.explained_variance, b.explained_variance)

    @given(
        X=arrays(
            np.float64,
            (12, 4),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_orthonormality_property(self, X):
        model = fit_pca(X, 3)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(3)).max() < 1e-8
        assert np.all(np.diff(model.explained_variance) <= 1e-12)
        assert np.all(model.explained_variance >= -1e-15)


    @pytest.mark.parametrize("d", [2, 22, 30])
    def test_exact_on_clustered_spectrum(self, d):
        X = planted_spectrum()
        resid = X - X.mean(axis=0)
        cov = resid.T @ resid / (X.shape[0] - 1)
        model = fit_pca(X, d)
        lam1 = model.explained_variance[0]
        for w, lam in zip(model.components, model.explained_variance):
            assert np.linalg.norm(cov @ w - lam * w) <= 1e-12 * lam1
        top = np.sort(np.linalg.eigvalsh(cov))[::-1][:d]
        assert abs(model.explained_variance.sum() - top.sum()) <= 1e-12 * top.sum()

    def test_wide_rank_deficient(self):
        base = np.random.default_rng(1).standard_normal((5, 40))
        X = np.concatenate([base, base[::-1]])  # V = 40 > n = 10, centered rank 4
        model = fit_pca(X, 8)
        assert model.components.shape == (8, 40)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(8)).max() < 1e-12
        evar = model.explained_variance
        assert np.all(evar[:4] > 0.1)
        assert np.all(evar[4:] <= 1e-24 * evar[0])
        _, comps, want = eigh_pca_oracle(X, 4)
        assert evar[:4] == pytest.approx(want, rel=1e-10)
        assert np.abs(align_sign(model.components[:4], comps) - comps).max() < 1e-9
        for row in model.components:
            assert row[int(np.argmax(np.abs(row)))] > 0


class TestPcaTransform:
    def test_mean_maps_to_zero(self):
        X = random_matrix(1, n=15, v=6)
        model = fit_pca(X, 3)
        assert pca_transform(model.mean, model) == pytest.approx(np.zeros(3), abs=1e-12)

    def test_mean_plus_component_is_basis_vector(self):
        X = random_matrix(2, n=15, v=6)
        model = fit_pca(X, 3)
        got = pca_transform(model.mean + model.components[0], model)
        assert got == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)

    def test_matches_dot_product_oracle(self):
        X = random_matrix(4, n=18, v=5)
        model = fit_pca(X, 3)
        rng = np.random.default_rng(99)
        for _ in range(10):
            v = rng.standard_normal(5)
            want = [float(np.dot(v - model.mean, c)) for c in model.components]
            assert pca_transform(v, model) == pytest.approx(want, abs=1e-8)

    def test_length_mismatch(self):
        X = random_matrix(6, n=10, v=4)
        model = fit_pca(X, 2)
        with pytest.raises(LengthMismatch):
            pca_transform(np.zeros(5), model)

    def test_model_record_round_trip(self):
        X = random_matrix(8, n=12, v=5)
        model = fit_pca(X, 3)
        back = PcaModel.from_record(model.to_record())
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.explained_variance, model.explained_variance)
        assert back.degenerate == model.degenerate
        # the record holds the model's arrays, and from_record copies them
        for a in (back.mean, back.components, back.explained_variance):
            assert not any(np.shares_memory(a, b) for b in (model.mean, model.components, model.explained_variance))

    def test_distances_match_eigh_on_pipeline_vectors(self, tmp_path, clean_config):
        # the 3000-chunk corpus of acceptance criterion 10, ingested and
        # vectorized in-process with the CLI's defaults
        write_corpus_dir(tmp_path, n_articles=100, seed=0, n_sentences=90)
        docs = load_corpus(tmp_path, "synthetic").documents
        table = token_table(c for doc in docs for c in chunk_document(doc, clean_config))
        vocab = build_vocabulary(table)
        X = densify(tfidf_vector(table, vocab), len(vocab))
        assert X.shape[0] >= 2500 and X.shape[0] > X.shape[1]
        coords = pca_transform(X, fit_pca(X, 50))[::6]
        mean, comps, _ = eigh_pca_oracle(X, 50)
        want = ((X - mean) @ comps.T)[::6]

        def pairwise(P):
            sq = np.sum(P * P, axis=1)
            return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * P @ P.T, 0.0))

        assert np.abs(pairwise(coords) - pairwise(want)).max() < 1e-9


class TestReducePoints:
    @pytest.mark.parametrize("n, v, d, dim", [(20, 5, 4, 4), (6, 9, 4, 4), (20, 5, 50, 5), (6, 9, 50, 5)],
                             ids=["tall", "wide", "tall-capped", "wide-capped"])
    def test_the_fit_of_fit_pca_projected_bitwise(self, caplog, n, v, d, dim):
        # tall input takes eigh of the covariance, wide input the thin SVD; a
        # d above min(V, n - 1) is capped there, with a warning
        X = random_matrix(11, n=n, v=v) + 2.0
        want = fit_pca(X, dim)
        Y = X.copy()
        with caplog.at_level("WARNING", logger="keyclust"):
            model, coords = reduce_points(Y, d)
        for field in ("mean", "components", "explained_variance"):
            assert np.array_equal(getattr(model, field), getattr(want, field)), field
        assert model.degenerate == want.degenerate
        assert np.array_equal(coords, pca_transform(X, want))
        assert np.array_equal(Y, X - want.mean)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ([f"pca-dim {d} capped to {dim} by the data"] if dim < d else [])

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_raise(self, caplog, n):
        with caplog.at_level("WARNING", logger="keyclust"), pytest.raises(KeyclustError, match="at least two"):
            reduce_points(random_matrix(3, n=n, v=4), 2)
        assert not caplog.records


def test_read_points_of_no_record():
    ids, X = read_points(iter([]))
    assert ids == [] and X.shape == (0, 0) and X.dtype == np.float64
