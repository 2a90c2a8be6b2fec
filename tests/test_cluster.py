import dataclasses
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust import cluster as cluster_module
from keyclust.cluster import (
    _assign_arrays,
    _assign_labels,
    _distances_sq,
    _squared_norms,
    _update_arrays,
    ClusterConfig,
    ClusterModel,
    assign_point,
    distortion,
    elbow_scan,
    init_centroids,
    run,
    update_centroids,
)
from keyclust.errors import NonFiniteInput, TooFewDistinctPoints

from conftest import blob_points, random_points
from oracles import (
    add_at_update_oracle,
    assign_arrays_oracle,
    distances_sq_oracle,
    elbow_scan_oracle,
    lloyd_oracle,
    sqdist,
)


def pts(rows, weights=None, ids=None):
    """``(ids, X, w)`` of the coordinate rows ``rows``: ids p0, p1, ... and
    unit weights unless given."""
    X = np.asarray(rows, dtype=float)
    ids = ids or [f"p{i}" for i in range(len(X))]
    return ids, X, np.ones(len(X)) if weights is None else np.asarray(weights, dtype=float)


def same_bits(got, want) -> bool:
    """Equal arrays, bit for bit: dtype, shape and every byte (so -0.0 is
    not +0.0)."""
    return all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


def models_equal(a: ClusterModel, b: ClusterModel) -> bool:
    if not np.array_equal(a.centroids, b.centroids):
        return False
    if a.iterations != b.iterations or a.converged != b.converged:
        return False
    if a.distortion != b.distortion:
        return False
    if a.assignments != b.assignments:
        return False
    if len(a.history) != len(b.history):
        return False
    return all(
        same_bits((ha.centroids, ha.primary, ha.secondary), (hb.centroids, hb.primary, hb.secondary))
        for ha, hb in zip(a.history, b.history)
    )


def same_fields(a, b) -> bool:
    """Equal values of one type: arrays bit for bit, lists item by item,
    dataclasses field by field, anything else by ``==``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return same_bits([a], [b])
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_fields, a, b))
    if dataclasses.is_dataclass(a):
        return all(same_fields(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


class TestClusterConfig:
    def test_standard_mode_forces_degenerate_knobs(self):
        cfg = ClusterConfig(k=3, threshold=0.5, damping_weight=0.2, mode="standard")
        assert cfg.threshold == 0.0
        assert cfg.damping_weight == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "mode": "bogus"},
            {"k": 2, "seeding": "bogus"},
            {"k": 2, "threshold": -0.1},
            {"k": 2, "damping_weight": -1.0},
            {"k": 2, "epsilon": 0.0},
            {"k": 2, "max_iter": 0},
            {"k": 2, "threshold": math.nan},
            {"k": 2, "threshold": math.inf},
            {"k": 2, "damping_weight": math.nan},
            {"k": 2, "damping_weight": math.inf},
            {"k": 2, "epsilon": math.nan},
            {"k": 2, "epsilon": math.inf},
            {"k": 2, "mode": "standard", "damping_weight": math.nan},
            {"k": 2, "seed": -1},
            {"k": 2, "seed": 2**64},
            {"k": 2**64},
            {"k": 2, "max_iter": 2**64},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    def test_ints_up_to_2_64_minus_1(self):
        # the largest values the model stage's reader keeps exact are accepted
        ClusterConfig(k=2**64 - 1, max_iter=2**64 - 1, seed=2**64 - 1)

    def test_record_round_trip(self):
        cfg = ClusterConfig(k=4, threshold=0.02, seed=9, seeding="partial")
        assert ClusterConfig.from_record(cfg.to_record()) == cfg

    def test_record_holds_every_field(self):
        # the record is the model-reuse key: a field missing from it would let
        # cluster reuse a model fitted with another value of that field
        changed = {
            "k": 4, "threshold": 0.02, "damping_weight": 0.3, "epsilon": 1e-3, "max_iter": 7,
            "mode": "standard", "seeding": "partial", "seed": 9, "raw_denominator": True,
        }
        names = [f.name for f in dataclasses.fields(ClusterConfig)]
        assert sorted(changed) == sorted(names), "give a new field a value here"
        base = ClusterConfig(k=3)
        assert list(base.to_record()) == names
        for name in names:
            cfg = dataclasses.replace(base, **{name: changed[name]})
            rec = cfg.to_record()
            assert ClusterConfig.from_record(rec) == cfg
            assert getattr(ClusterConfig.from_record(rec), name) == getattr(cfg, name)
            assert rec != base.to_record(), name


class TestAssignPoint:
    def test_dual_at_gap_below_threshold(self):
        # distances 0.500 and 0.505: gap 0.005 < 0.01 -> both clusters
        centroids = np.array([[0.5], [-0.505]])
        a = assign_point("c", [0.0], centroids, threshold=0.01)
        assert a.primary_cluster == 0
        assert a.secondary_cluster == 1
        assert a.d_primary == pytest.approx(0.5, abs=1e-15)
        assert a.d_secondary == pytest.approx(0.505, abs=1e-15)

    def test_single_when_gap_exceeds_threshold(self):
        centroids = np.array([[0.5], [-0.52]])
        a = assign_point("c", [0.0], centroids, threshold=0.01)
        assert a.primary_cluster == 0
        assert a.secondary_cluster is None

    def test_threshold_zero_never_dual(self):
        centroids = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        a = assign_point("c", [1.0, 0.0], centroids, threshold=0.0)
        assert a.primary_cluster == 0  # tie broken to lowest index
        assert a.secondary_cluster is None

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[2.0], [-2.0]])
        a = assign_point("c", [0.0], centroids, threshold=0.0)
        assert a.primary_cluster == 0

    def test_k_equals_one(self):
        a = assign_point("c", [1.0], np.array([[0.0]]), threshold=0.5)
        assert a.secondary_cluster is None
        assert math.isinf(a.d_secondary)

    @given(
        point=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
        cents=st.lists(
            st.lists(st.floats(-10, 10), min_size=2, max_size=2), min_size=2, max_size=6
        ),
        threshold=st.floats(0, 0.5),
    )
    @settings(max_examples=150)
    def test_secondary_iff_gap_below_threshold(self, point, cents, threshold):
        a = assign_point("c", point, np.asarray(cents), threshold)
        dists = sorted(
            (math.sqrt(sqdist(point, c)), j) for j, c in enumerate(cents)
        )
        assert a.d_primary <= min(d for d, _ in dists) + 1e-12
        gap = a.d_secondary - a.d_primary
        if a.secondary_cluster is not None:
            assert gap < threshold
            assert a.secondary_cluster != a.primary_cluster
        else:
            assert gap >= threshold


class TestDistancesSq:
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(1, 1, 1), (1, 7, 3), (9, 1, 4), (6, 5, 1), (3000, 50, 10)]
        shapes += [tuple(int(v) for v in rng.integers(1, (400, 200, 13))) for _ in range(40)]
        for n, d, k in shapes:
            X = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3)
            C = rng.standard_normal((k, d))
            assert np.array_equal(_distances_sq(X, C), distances_sq_oracle(X, C)), (n, d, k)


@pytest.fixture
def exact_rows(monkeypatch):
    """The row count of every call to the exact reference
    ``_assign_exact``, in call order: both passes send it the rows their
    screen does not settle."""
    calls = []
    exact = cluster_module._assign_exact

    def counted(X, centroids, threshold):
        calls.append(X.shape[0])
        return exact(X, centroids, threshold)

    monkeypatch.setattr(cluster_module, "_assign_exact", counted)
    return calls


def mirrored_centroid_cases():
    """Points with pairs of centroids mirrored through one of them: each
    pair is (near-)tied for the points there, and with several pairs a
    third centroid ties the screened two. One pair is k = 2; one pair and
    the centre itself is k = 3, where the pair ties for second place."""
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 8, 50):
        X = rng.standard_normal((200, d))
        for pairs in (1, 2, 3, 6):
            center = X[rng.integers(0, 200)]
            offsets = rng.standard_normal((pairs, d))
            offsets *= 0.5 / np.linalg.norm(offsets, axis=1)[:, None]
            C = np.concatenate([center + offsets, center - offsets])
            near = center + rng.standard_normal((50, d)) * 1e-9
            points = np.concatenate([X, near, center[None]])
            yield points, C
            if pairs == 1:
                yield points, np.concatenate([C, center[None]])


class TestAssignArrays:
    """The one screened assignment pass returns the full table's bits:
    nearest, second and secondary labels, whatever the screen's rounding.
    The final pass adds the two exact distances of those labels, so it
    returns the table's labels, secondaries and both distances."""

    THRESHOLDS = (0.0, 0.01, 1.0)

    def assert_matches_oracle(self, X, C, thresholds=THRESHOLDS):
        for threshold in thresholds:
            want = assign_arrays_oracle(X, C, threshold)
            got = _assign_arrays(X, _squared_norms(X), C, threshold)
            assert same_bits(got, want), (X.shape, C.shape, threshold)
            nearest, second, sec = _assign_labels(X, _squared_norms(X), C, threshold)
            assert same_bits((nearest, sec), want[:2]), (X.shape, C.shape, threshold)
            if C.shape[0] >= 2:
                d2 = np.sqrt(distances_sq_oracle(X, C)[np.arange(X.shape[0]), second])
                # the nearest is its own second only where every other sum is infinite
                d2[second == nearest] = np.inf
                assert same_bits([d2], want[3:]), (X.shape, C.shape, threshold)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n, d, k = int(rng.integers(1, 401)), int(rng.integers(1, 81)), int(rng.integers(1, 13))
            X = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3)
            self.assert_matches_oracle(X, rng.standard_normal((k, d)) * rng.uniform(1e-3, 1e3))

    def test_centroids_symmetric_about_the_points(self):
        for X, C in mirrored_centroid_cases():
            self.assert_matches_oracle(X, C)

    @pytest.mark.parametrize("k", [2, 5])
    def test_gaps_within_ulps_of_the_threshold(self, exact_rows, k):
        # on the segment from centroid 0 to centroid 1, at unit distance,
        # d2 - d1 = 1 - 2s; points a few ulps either side of the s where
        # that gap equals the threshold sit inside the screen's interval,
        # so only their exact sums can say which side they fall on
        rng = np.random.default_rng(6)
        for d in (1, 3, 20):
            direction = rng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            origin = rng.standard_normal(d)
            C = np.concatenate([
                [origin, origin + direction],
                origin + 100.0 + rng.standard_normal((k - 2, d)),
            ])
            for threshold in (0.01, 0.3):
                s = (1.0 - threshold) / 2
                s = s + np.arange(-20, 21) * np.spacing(s)
                X = origin + s[:, None] * (C[1] - C[0])
                dual = assign_arrays_oracle(X, C, threshold)[1] >= 0
                assert dual.any() and not dual.all(), (d, threshold)
                exact_rows.clear()
                self.assert_matches_oracle(X, C, thresholds=(threshold,))
                assert sum(exact_rows) > 0, (d, threshold)

    def test_duplicated_centroids(self):
        rng = np.random.default_rng(2)
        for k, copies in ((4, 2), (6, 3), (12, 4)):
            X = rng.standard_normal((300, 7))
            C = np.repeat(rng.standard_normal((k // copies, 7)), copies, axis=0)
            self.assert_matches_oracle(X, C)
            self.assert_matches_oracle(X, np.concatenate([C, rng.standard_normal((3, 7))]))

    def test_centroids_equal_to_points(self):
        rng = np.random.default_rng(3)
        for n, d, k in ((50, 3, 4), (300, 50, 10), (12, 1, 12)):
            X = rng.standard_normal((n, d))
            self.assert_matches_oracle(X, X[rng.choice(n, k, replace=False)].copy())

    def test_common_large_offset(self):
        # the screen's cancellation error dwarfs the distances it ranks
        rng = np.random.default_rng(4)
        for d, k in ((2, 4), (10, 8), (50, 12)):
            X = 1e6 + rng.standard_normal((300, d)) * 1e-2
            C = 1e6 + rng.standard_normal((k, d)) * 1e-2
            self.assert_matches_oracle(X, C)

    @pytest.mark.parametrize("scale", [1e153, 1e-158])
    def test_coordinates_at_the_float_range_ends(self, scale):
        # near 1e153 the screen overflows; near 1e-158 its products underflow
        rng = np.random.default_rng(5)
        for d, k in ((4, 5), (40, 10), (80, 12)):
            X = rng.standard_normal((200, d)) * scale
            C = rng.standard_normal((k, d)) * scale
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                self.assert_matches_oracle(X, C)
                self.assert_matches_oracle(X, X[:k].copy())

    def test_every_other_distance_overflows(self):
        # each point is a centroid, and every other centroid is so far away
        # that its squared distance overflows: the second is infinitely far
        X = np.array([[1e154, 0.0], [-1e154, 0.0], [0.0, 1e154], [1e154, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (2, 3):
                self.assert_matches_oracle(X, X[:k].copy())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_assign_point_is_a_row_of_the_final_pass(self, k):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 3))
        C = rng.standard_normal((k, 3))
        prim, sec, d1, d2 = _assign_arrays(X, _squared_norms(X), C, 0.3)
        for i in range(X.shape[0]):
            a = assign_point(f"p{i}", X[i], C, 0.3)
            assert (a.primary_cluster, a.secondary_cluster) == (
                int(prim[i]), None if sec[i] < 0 else int(sec[i])
            )
            assert same_bits(
                [np.float64(a.d_primary), np.float64(a.d_secondary)], [d1[i], d2[i]]
            )
            if k == 1:
                assert math.isinf(a.d_secondary) and a.secondary_cluster is None
        if k > 1:
            assert (sec >= 0).any()


class TestLabelsPassFallback:
    """The one assignment pass, in the iterations and in the final pass,
    computes full exact rows only for the rows its screen does not settle,
    and those rows go to ``_assign_exact``."""

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    def test_well_separated_fit_computes_exact_sums_only_in_the_final_pass(self, exact_rows, mode):
        rng = np.random.default_rng(8)
        centers = [tuple(20.0 * rng.standard_normal(5)) for _ in range(10)]
        ids, X, w = blob_points(rng, centers, 30)
        model = run(ids, X, w, ClusterConfig(k=10, mode=mode, seed=2, max_iter=12))
        assert model.iterations > 1
        assert exact_rows == []
        # the final pass's distances are still the exact sums, bit for bit
        want = assign_arrays_oracle(X, model.centroids, model.config.threshold)
        assert same_bits((model.primary, model.secondary, model.d1, model.d2), want)

    def test_mirrored_centroids_send_their_tied_rows(self, exact_rows):
        for X, C in mirrored_centroid_cases():
            for threshold in TestAssignArrays.THRESHOLDS:
                exact_rows.clear()
                _assign_labels(X, _squared_norms(X), C, threshold)
                assert sum(exact_rows) > 0, (X.shape, C.shape, threshold)


class TestUpdateCentroids:
    def test_single_member_damped_formula(self):
        prev = np.array([[3.0, -1.0]])
        new, empties = update_centroids(np.array([[1.0, 2.0]]), [1.0], [0], prev, damping_weight=0.01)
        # (x + 0.01 c) / 1.01, frozen by hand
        assert new[0] == pytest.approx([1.0198019801980198, 1.9702970297029703], abs=1e-15)
        assert empties == []

    def test_unit_weights_no_damping_is_arithmetic_mean(self):
        _, X, w = pts([[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]])
        new, _ = update_centroids(X, w, [0, 0, 0], np.array([[9.0, 9.0]]), damping_weight=0.0)
        assert new[0] == pytest.approx([2.0, 2.0], abs=0)

    def test_three_member_weighted_hand_value(self):
        # frozen: weights (1.0, 0.01, 0.5), prev (0,0), damping 0.01
        X = np.array([[1.0, 2.0], [-3.0, 0.5], [2.0, -1.0]])
        prev = np.array([[0.0, 0.0]])
        new, _ = update_centroids(X, [1.0, 0.01, 0.5], [0, 0, 0], prev, damping_weight=0.01)
        assert new[0] == pytest.approx(
            [1.2960526315789473, 0.9901315789473684], abs=1e-15
        )

    def test_empty_cluster_keeps_previous_and_flags(self):
        prev = np.array([[1.0, 1.0], [5.0, 5.0]])
        new, empties = update_centroids(np.array([[0.0, 0.0]]), [1.0], [0], prev, damping_weight=0.01)
        assert empties == [1]
        assert new[1].tolist() == [5.0, 5.0]

    def test_raw_denominator_mode(self):
        prev = np.array([[2.0]])
        new, _ = update_centroids(
            np.array([[1.0], [3.0]]), [0.5, 0.5], [0, 0], prev, damping_weight=0.01, raw_denominator=True
        )
        # (0.5*1 + 0.5*3 + 0.01*2) / (2 + 1)
        assert new[0][0] == pytest.approx((0.5 + 1.5 + 0.02) / 3.0, abs=1e-15)

    def test_convex_hull_membership(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            rows = [(rng.uniform(-5, 5, 3), float(rng.uniform(0.01, 1))) for _ in range(m)]
            X, w = np.array([x for x, _ in rows]), np.array([v for _, v in rows])
            prev = rng.uniform(-5, 5, (1, 3))
            new, _ = update_centroids(X, w, np.zeros(m, dtype=int), prev, damping_weight=0.01)
            lo = np.minimum(np.min(X, axis=0), prev[0])
            hi = np.maximum(np.max(X, axis=0), prev[0])
            assert np.all(new[0] >= lo - 1e-12) and np.all(new[0] <= hi + 1e-12)


    def test_bincount_accumulation_matches_add_at_bitwise(self):
        # d = 1 (numpy's fast axis, summed pairwise), clusters of more than
        # 128 members (numpy's pairwise block), all-(-0.0) columns, passes
        # where every point is dual-assigned, k above 256 (16-bit sort keys)
        # and the unit weights of a standard fit (``w`` None); compared bit
        # for bit
        rng = np.random.default_rng(17)
        for trial in range(480):
            n = int(rng.integers(1, 60)) if rng.random() < 0.5 else int(rng.integers(900, 1200))
            k = int(rng.integers(1, 8)) if trial < 400 else int(rng.integers(257, 301))
            dim = 1 if rng.random() < 0.4 else int(rng.integers(2, 6))
            X = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4)
            if rng.random() < 0.3:
                X[:, rng.integers(0, dim)] = -0.0
            w = rng.uniform(0.01, 1.0, n)
            prim = rng.integers(0, k, n)
            dual_share = 1.0 if rng.random() < 0.3 else 0.4
            sec = np.where(rng.random(n) < dual_share, rng.integers(0, k, n), -1)
            prev = rng.standard_normal((k, dim))
            damping = 0.0 if rng.random() < 0.5 else 0.01
            raw = rng.random() < 0.3
            got, got_empty = _update_arrays(X, w, prim, sec, prev, damping, raw)
            want, want_empty = add_at_update_oracle(X, w, prim, sec, prev, damping, raw)
            assert same_bits([got], [want]), trial
            assert got_empty == want_empty
            got, got_empty = _update_arrays(X, None, prim, sec, prev, damping, raw)
            want, want_empty = add_at_update_oracle(X, np.ones(n), prim, sec, prev, damping, raw)
            assert same_bits([got], [want]), ("unit weights", trial)
            assert got_empty == want_empty


class TestInitCentroids:
    def test_k_equals_n_is_permutation_of_points(self):
        X = np.array([[float(i), float(-i)] for i in range(5)])
        cents = init_centroids(X, ClusterConfig(k=5, seed=3))
        got = {tuple(c) for c in cents}
        assert got == {tuple(x) for x in X}

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(1)
        _, X, _ = random_points(rng, 40, 3)
        cfg = ClusterConfig(k=4, seed=11)
        a = init_centroids(X, cfg)
        b = init_centroids(X, cfg)
        assert np.array_equal(a, b)

    def test_too_few_distinct_points(self):
        X = np.array([[1.0, 2.0]] * 10)
        with pytest.raises(TooFewDistinctPoints):
            init_centroids(X, ClusterConfig(k=2, seed=0))

    def test_centroids_are_distinct_input_points(self):
        X = np.array([[0.0], [0.0], [1.0], [2.0]])
        cents = init_centroids(X, ClusterConfig(k=3, seed=5))
        assert len({tuple(c) for c in cents}) == 3

    def test_partial_seeding_finds_separated_blobs(self):
        rng = np.random.default_rng(7)
        ids, X, w = blob_points(rng, [(0.0, 0.0), (20.0, 20.0)], 60, std=0.5)
        cfg = ClusterConfig(k=2, seed=13, seeding="partial", mode="standard")
        cents = init_centroids(X, cfg)
        # one centroid per blob, each within a few std of its center
        d_to = sorted(min(np.linalg.norm(c - b) for c in cents) for b in
                      [np.zeros(2), np.full(2, 20.0)])
        assert all(d < 2.0 for d in d_to)
        # and a full-data standard run from those seeds lands on the blob means
        model = run(ids, X, w, cfg)
        oracle_cents, labels, *_ = lloyd_oracle(list(X), cents, epsilon=cfg.epsilon)
        assert np.array_equal(model.centroids, np.asarray(oracle_cents))

    def test_partial_seeding_grows_a_subset_with_too_few_distinct_rows(self, monkeypatch):
        # 3 distinct rows among 20: a 20% subset (6 rows) almost never holds all three
        coords = [(0.0, 0.0)] * 18 + [(1.0, 0.0), (0.0, 1.0)]
        sizes = []
        distinct = cluster_module._distinct_row_indices
        monkeypatch.setattr(
            cluster_module, "_distinct_row_indices", lambda X: sizes.append(len(X)) or distinct(X)
        )
        cents = init_centroids(np.array(coords), ClusterConfig(k=3, seed=0, seeding="partial"))
        assert sizes[0] == 20 and sizes[1] == 6  # all points, then the first subset
        assert sizes[2:] and sizes[1:] == sorted(set(sizes[1:]))  # grown, never shrunk
        assert sorted(map(tuple, cents.tolist())) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


class TestRun:
    def test_two_tight_pairs(self):
        points = pts([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]], ids=["a", "b", "c", "d"])
        model = run(*points, ClusterConfig(k=2, mode="standard", seed=0))
        assert model.converged
        assert model.iterations <= 3
        got = sorted(tuple(c) for c in model.centroids)
        assert got[0] == pytest.approx((0.05, 0.0), abs=1e-12)
        assert got[1] == pytest.approx((10.05, 10.0), abs=1e-12)
        # pairs share clusters
        by_id = {a.chunk_id: a.primary_cluster for a in model.assignments}
        assert by_id["a"] == by_id["b"] != by_id["c"] == by_id["d"]

    def test_standard_matches_lloyd_oracle(self):
        rng = np.random.default_rng(21)
        ids, X, w = random_points(rng, 80, 3)
        cfg = ClusterConfig(k=4, mode="standard", seed=2)
        init = init_centroids(X, cfg)
        model = run(ids, X, w, cfg)
        cents, labels, iters, converged, _ = lloyd_oracle(X.tolist(), init.tolist(), epsilon=cfg.epsilon)
        assert [a.primary_cluster for a in model.assignments] == labels
        assert model.iterations == iters
        assert model.converged == converged
        assert np.array_equal(model.centroids, np.asarray(cents))

    def test_modified_with_degenerate_knobs_is_bitwise_standard(self):
        rng = np.random.default_rng(5)
        points = random_points(rng, 60, 2)
        standard = run(*points, ClusterConfig(k=3, mode="standard", seed=8))
        modified = run(
            *points,
            ClusterConfig(k=3, mode="modified", threshold=0.0, damping_weight=0.0, seed=8),
        )
        assert models_equal(
            ClusterModel(**{**modified.__dict__, "config": standard.config}), standard
        )

    def test_history_matches_iterations_and_records_duals(self):
        rng = np.random.default_rng(9)
        ids, X, w = blob_points(rng, [(0.0, 0.0), (6.0, 0.0)], 30, std=1.0)
        model = run(ids, X, w, ClusterConfig(k=2, threshold=0.5, seed=4))
        assert len(model.history) == model.iterations
        # each snapshot's labels are the assignment pass against the
        # centroids before that iteration's update
        previous = init_centroids(X, model.config)
        for snap in model.history:
            assert snap.centroids.shape == (2, 2)
            want = [assign_point(cid, x, previous, model.config.threshold) for cid, x in zip(ids, X)]
            assert snap.primary.tolist() == [a.primary_cluster for a in want]
            assert snap.secondary.tolist() == [
                -1 if a.secondary_cluster is None else a.secondary_cluster for a in want
            ]
            previous = snap.centroids
        assert any((snap.secondary >= 0).any() for snap in model.history)

    def test_weights_pull_centroid(self):
        # same init: the weighted run drags the near centroid to the heavy
        # point while the standard run sits at the arithmetic mean (1, 1)
        # heavy, light1, light2, light3, then far0 .. far3
        rows = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]] + [[100.0 + i, 100.0] for i in range(4)]
        points = pts(rows, weights=[1.0] + [0.01] * 7)
        std = run(*points, ClusterConfig(k=2, mode="standard", seed=2))
        mod = run(*points, ClusterConfig(k=2, mode="modified", threshold=0.0, seed=2))
        std_near = min(std.centroids, key=np.linalg.norm)
        mod_near = min(mod.centroids, key=np.linalg.norm)
        assert np.linalg.norm(std_near - [1.0, 1.0]) < 1e-9
        assert np.linalg.norm(mod_near) < 0.3

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            run(*pts([[0.0], [np.nan]]), ClusterConfig(k=1, seed=0))

    @staticmethod
    def both_entries(ids, X, w):
        """``run`` and ``elbow_scan`` each raise a ValueError on these points."""
        with pytest.raises(ValueError):
            run(ids, X, w, ClusterConfig(k=1, seed=0))
        with pytest.raises(ValueError):
            elbow_scan(ids, X, w, ClusterConfig(k=1, seed=0), (1, 1), restarts=1)

    def test_x_not_two_dimensional_rejected(self):
        self.both_entries(["a", "b"], np.array([0.0, 1.0]), np.ones(2))
        self.both_entries(["a", "b"], np.zeros((2, 1, 1)), np.ones(2))

    def test_one_id_per_row_required(self):
        self.both_entries(["a"], np.array([[0.0], [1.0]]), np.ones(2))
        self.both_entries(["a", "b", "c"], np.array([[0.0], [1.0]]), np.ones(2))

    def test_one_weight_per_row_required(self):
        self.both_entries(["a", "b"], np.array([[0.0], [1.0]]), np.ones(3))
        self.both_entries(["a", "b"], np.array([[0.0], [1.0]]), np.ones((2, 1)))

    @pytest.mark.parametrize("labels, weights", [([0, 2], 2), ([-1, 0], 2), ([0], 2), ([0, 1], 1)])
    def test_update_needs_a_weight_and_a_label_in_range_per_row(self, labels, weights):
        with pytest.raises(ValueError):
            update_centroids(np.array([[0.0], [1.0]]), np.ones(weights), labels, np.zeros((2, 1)), 0.01)
        # k = 2 and a weight and a label per row: accepted
        update_centroids(np.array([[0.0], [1.0]]), np.ones(2), [0, 1], np.zeros((2, 1)), 0.01)

    def test_contiguous_float64_points_used_in_place(self, monkeypatch):
        ids, X, w = random_points(np.random.default_rng(0), 30, 2)
        seen = []
        fit = cluster_module._fit
        monkeypatch.setattr(cluster_module, "_fit", lambda ids, X, *a: seen.append(X) or fit(ids, X, *a))
        run(ids, X, w, ClusterConfig(k=2, seed=0))
        run(ids, np.asfortranarray(X), w, ClusterConfig(k=2, seed=0))
        assert seen[0] is X
        assert seen[1] is not X and seen[1].flags.c_contiguous and np.array_equal(seen[1], X)

    def test_too_few_distinct(self):
        with pytest.raises(TooFewDistinctPoints):
            run(*pts([[1.0], [1.0]]), ClusterConfig(k=2, seed=0))

    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(17)
        points = random_points(rng, 120, 4)
        cfg = ClusterConfig(k=5, threshold=0.2, seed=6)
        one = run(*points, cfg)
        again = run(*points, cfg)
        assert models_equal(one, again)

    def test_standard_mode_ignores_weights(self):
        rng = np.random.default_rng(3)
        ids, X, w = random_points(rng, 40, 2)
        reweighted = np.array([0.01 + 0.5 * (i % 2) for i in range(40)])
        a = run(ids, X, w, ClusterConfig(k=3, mode="standard", seed=2))
        b = run(ids, X, reweighted, ClusterConfig(k=3, mode="standard", seed=2))
        assert models_equal(a, b)

    def test_model_record_round_trip(self):
        rng = np.random.default_rng(31)
        points = random_points(rng, 30, 2)
        # a dual-assigning modified run, a k == 1 run, and a standard run
        for cfg in (
            ClusterConfig(k=3, threshold=0.3, seed=12),
            ClusterConfig(k=1, seed=12),
            ClusterConfig(k=3, mode="standard", seed=12),
        ):
            model = run(*points, cfg)
            rec = model.to_record()
            back = ClusterModel.from_record(json.loads(json.dumps(rec)))
            # the final pass keeps its distances; history keeps labels only,
            # in the record and in the fitted model alike
            assert same_fields(back, model)
            assert back.assignments == model.assignments
            assert all(set(h) == {"centroids", "primary", "secondary"} for h in rec["history"])
            assert json.dumps(back.to_record()) == json.dumps(rec)
            if cfg.k == 1:
                assert rec["final"]["d2"] == [None] * 30
                assert np.isinf(back.d2).all()
            if cfg.k > 1 and cfg.threshold > 0:
                assert (back.secondary >= 0).any()
                assert any((h.secondary >= 0).any() for h in back.history)

    def test_standard_distortion_non_increasing_across_iterations(self):
        rng = np.random.default_rng(41)
        ids, X, w = random_points(rng, 150, 3)
        cfg = ClusterConfig(k=6, mode="standard", seed=7)
        model = run(ids, X, w, cfg)
        scores = []
        for snap in model.history:
            total = 0.0
            for i, primary in enumerate(snap.primary.tolist()):
                diff = X[i] - snap.centroids[primary]
                total += float(diff @ diff)
            scores.append(total)
        assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))


class TestDistortion:
    def test_one_dimensional_pair(self):
        model = run(*pts([[0.0], [2.0]]), ClusterConfig(k=1, mode="standard", seed=0))
        assert model.centroids[0][0] == pytest.approx(1.0, abs=0)
        assert model.distortion == pytest.approx(2.0, abs=1e-12)

    def test_zero_when_points_sit_on_centroids(self):
        model = run(*pts([[0.0, 0.0], [5.0, 5.0]]), ClusterConfig(k=2, mode="standard", seed=1))
        assert model.distortion == 0.0

    def test_dual_counting_hand_value(self):
        # one dual-assigned point at distances 0.5 and 0.505
        model = ClusterModel(
            config=ClusterConfig(k=2),
            centroids=np.zeros((2, 1)),
            point_ids=["a"],
            primary=np.array([0]),
            secondary=np.array([1]),
            d1=np.array([0.5]),
            d2=np.array([0.505]),
            iterations=1,
            history=[],
            distortion=0.0,
            converged=True,
        )
        assert distortion(model) == pytest.approx(0.25 + 0.255025, abs=1e-12)
        assert distortion(model, include_secondary=False) == pytest.approx(0.25, abs=1e-15)

    def test_dual_counting_never_below_primary_only(self):
        rng = np.random.default_rng(51)
        model = run(*random_points(rng, 100, 2), ClusterConfig(k=4, threshold=0.5, seed=3))
        assert distortion(model) >= distortion(model, include_secondary=False)

    def test_equals_per_point_loop_bitwise(self):
        # the array sum must add terms in the order of the per-point loop:
        # primary term, then the secondary term of a dual-assigned point
        rng = np.random.default_rng(53)
        points = random_points(rng, 200, 3)
        for cfg in (
            ClusterConfig(k=1, seed=2),
            ClusterConfig(k=5, threshold=0.4, seed=2),
            ClusterConfig(k=5, mode="standard", seed=2),
        ):
            model = run(*points, cfg)
            for include_secondary in (True, False):
                total = 0.0
                for a in model.assignments:
                    total += a.d_primary * a.d_primary
                    if include_secondary and a.secondary_cluster is not None:
                        total += a.d_secondary * a.d_secondary
                assert distortion(model, include_secondary=include_secondary) == total


class TestElbowScan:
    def test_k_equals_n_reaches_zero(self):
        cfg = ClusterConfig(k=1, mode="standard", seed=0)
        results = elbow_scan(*pts([[float(i)] for i in range(6)]), cfg, (1, 6), restarts=8)
        assert results[-1][0] == 6
        assert results[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_blobs_show_elbow_drop(self):
        rng = np.random.default_rng(19)
        points = blob_points(rng, [(0.0, 0.0), (12.0, 0.0)], 60, std=0.6)
        cfg = ClusterConfig(k=1, mode="standard", seed=5)
        results = dict(elbow_scan(*points, cfg, (1, 3), restarts=5))
        assert results[1] / results[2] > 5.0

    def test_non_increasing_over_k(self):
        rng = np.random.default_rng(23)
        points = random_points(rng, 60, 2)
        cfg = ClusterConfig(k=1, mode="standard", seed=9)
        results = elbow_scan(*points, cfg, (1, 8), restarts=10)
        values = [d for _, d in results]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_k_max_bounded_by_distinct_points(self):
        with pytest.raises(TooFewDistinctPoints):
            elbow_scan(*pts([[0.0], [1.0]]), ClusterConfig(k=1, seed=0), (1, 3), restarts=2)

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        points = random_points(rng, 50, 2)
        cfg = ClusterConfig(k=1, mode="standard", seed=4)
        assert elbow_scan(*points, cfg, (1, 4), restarts=3) == elbow_scan(
            *points, cfg, (1, 4), restarts=3
        )

    @pytest.mark.parametrize("threads, workers", [(1, 1), (4, 4), (10_000, 6)])
    def test_pool_capped_at_run_count(self, monkeypatch, threads, workers):
        requested = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))

        monkeypatch.setattr(cluster_module, "ThreadPoolExecutor", Recording)
        points = random_points(np.random.default_rng(31), 30, 2)
        elbow_scan(*points, ClusterConfig(k=1, mode="standard", seed=1), (1, 3), restarts=2, threads=threads)
        assert requested == [workers]


def _weighted_random_points(seed: int, n: int, dim: int):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.05, 1.0, n)
    ids, X, _ = random_points(rng, n, dim)
    return ids, X, weights


def _duplicated_points():
    _, base, _ = random_points(np.random.default_rng(5), 20, 2)
    return pts(base[np.arange(200) % 20], ids=[f"d{i:03d}" for i in range(200)])


# name -> (points, config, k range, restarts)
ELBOW_CASES = {
    "standard": lambda: (
        random_points(np.random.default_rng(1), 200, 5),
        ClusterConfig(k=1, mode="standard", seed=3), (1, 7), 3,
    ),
    "modified-weighted": lambda: (
        _weighted_random_points(2, 200, 4),
        ClusterConfig(k=1, threshold=0.3, damping_weight=0.05, seed=4), (1, 6), 3,
    ),
    "partial-seeding": lambda: (
        _weighted_random_points(6, 200, 3),
        ClusterConfig(k=1, threshold=0.2, seeding="partial", seed=8), (1, 6), 3,
    ),
    "reseed-duplicates": lambda: (
        _duplicated_points(), ClusterConfig(k=1, mode="standard", seed=2), (1, 12), 4,
    ),
}


class TestElbowScanMatchesOracle:
    """The pooled scan over shared arrays gives, bit for bit, the scan that
    runs one ``run`` after another."""

    @staticmethod
    def bits(results):
        return [(k, float(d).hex()) for k, d in results]

    @pytest.mark.parametrize("case", sorted(ELBOW_CASES))
    def test_bitwise_equal_for_one_and_three_threads(self, case, caplog):
        points, cfg, k_range, restarts = ELBOW_CASES[case]()
        with caplog.at_level(logging.INFO, logger="keyclust.cluster"):
            expected = self.bits(elbow_scan_oracle(points, cfg, k_range, restarts))
        if case == "reseed-duplicates":
            assert any("reseeded empty cluster" in r.getMessage() for r in caplog.records)
        for threads in (1, 3):
            got = elbow_scan(*points, cfg, k_range, restarts, threads=threads)
            assert self.bits(got) == expected, threads

    def test_bitwise_equal_with_more_threads_than_cores_and_frequent_switches(self):
        # runs share their input arrays read-only; a write to them from one
        # thread would show as changed bits in another run's distortion
        points, cfg, k_range, restarts = ELBOW_CASES["modified-weighted"]()
        expected = self.bits(elbow_scan_oracle(points, cfg, k_range, restarts))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = elbow_scan(*points, cfg, k_range, restarts, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert self.bits(got) == expected
