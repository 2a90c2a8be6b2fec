import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyclust.cluster import (
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
from keyclust.weighting import WeightedPoint

from conftest import blob_points, random_points
from oracles import lloyd_oracle, sqdist


def wp(chunk_id, coords, weight=1.0):
    return WeightedPoint(chunk_id=chunk_id, coords=np.asarray(coords, float), weight=weight)


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
    for ha, hb in zip(a.history, b.history):
        if not np.array_equal(ha.centroids, hb.centroids):
            return False
        if ha.assignments != hb.assignments:
            return False
    return True


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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    def test_record_round_trip(self):
        cfg = ClusterConfig(k=4, threshold=0.02, seed=9, seeding="partial")
        assert ClusterConfig.from_record(cfg.to_record()) == cfg


class TestAssignPoint:
    def test_dual_at_gap_below_threshold(self):
        # distances 0.500 and 0.505: gap 0.005 < 0.01 -> both clusters
        centroids = np.array([[0.5], [-0.505]])
        a = assign_point(wp("c", [0.0]), centroids, threshold=0.01)
        assert a.primary_cluster == 0
        assert a.secondary_cluster == 1
        assert a.d_primary == pytest.approx(0.5, abs=1e-15)
        assert a.d_secondary == pytest.approx(0.505, abs=1e-15)

    def test_single_when_gap_exceeds_threshold(self):
        centroids = np.array([[0.5], [-0.52]])
        a = assign_point(wp("c", [0.0]), centroids, threshold=0.01)
        assert a.primary_cluster == 0
        assert a.secondary_cluster is None

    def test_threshold_zero_never_dual(self):
        centroids = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        a = assign_point(wp("c", [1.0, 0.0]), centroids, threshold=0.0)
        assert a.primary_cluster == 0  # tie broken to lowest index
        assert a.secondary_cluster is None

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[2.0], [-2.0]])
        a = assign_point(wp("c", [0.0]), centroids, threshold=0.0)
        assert a.primary_cluster == 0

    def test_k_equals_one(self):
        a = assign_point(wp("c", [1.0]), np.array([[0.0]]), threshold=0.5)
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
        a = assign_point(wp("c", point), np.asarray(cents), threshold)
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


class TestUpdateCentroids:
    def test_single_member_damped_formula(self):
        prev = np.array([[3.0, -1.0]])
        new, empties = update_centroids([[wp("x", [1.0, 2.0])]], prev, damping_weight=0.01)
        # (x + 0.01 c) / 1.01, frozen by hand
        assert new[0] == pytest.approx([1.0198019801980198, 1.9702970297029703], abs=1e-15)
        assert empties == []

    def test_unit_weights_no_damping_is_arithmetic_mean(self):
        members = [[wp("a", [0.0, 0.0]), wp("b", [2.0, 4.0]), wp("c", [4.0, 2.0])]]
        new, _ = update_centroids(members, np.array([[9.0, 9.0]]), damping_weight=0.0)
        assert new[0] == pytest.approx([2.0, 2.0], abs=0)

    def test_three_member_weighted_hand_value(self):
        # frozen: weights (1.0, 0.01, 0.5), prev (0,0), damping 0.01
        members = [[
            wp("a", [1.0, 2.0], 1.0),
            wp("b", [-3.0, 0.5], 0.01),
            wp("c", [2.0, -1.0], 0.5),
        ]]
        new, _ = update_centroids(members, np.array([[0.0, 0.0]]), damping_weight=0.01)
        assert new[0] == pytest.approx(
            [1.2960526315789473, 0.9901315789473684], abs=1e-15
        )

    def test_empty_cluster_keeps_previous_and_flags(self):
        prev = np.array([[1.0, 1.0], [5.0, 5.0]])
        new, empties = update_centroids(
            [[wp("a", [0.0, 0.0])], []], prev, damping_weight=0.01
        )
        assert empties == [1]
        assert new[1].tolist() == [5.0, 5.0]

    def test_raw_denominator_mode(self):
        members = [[wp("a", [1.0], 0.5), wp("b", [3.0], 0.5)]]
        prev = np.array([[2.0]])
        new, _ = update_centroids(members, prev, damping_weight=0.01, raw_denominator=True)
        # (0.5*1 + 0.5*3 + 0.01*2) / (2 + 1)
        assert new[0][0] == pytest.approx((0.5 + 1.5 + 0.02) / 3.0, abs=1e-15)

    def test_convex_hull_membership(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            pts = [wp(f"p{i}", rng.uniform(-5, 5, 3), float(rng.uniform(0.01, 1))) for i in range(m)]
            prev = rng.uniform(-5, 5, (1, 3))
            new, _ = update_centroids([pts], prev, damping_weight=0.01)
            lo = np.minimum(np.min([p.coords for p in pts], axis=0), prev[0])
            hi = np.maximum(np.max([p.coords for p in pts], axis=0), prev[0])
            assert np.all(new[0] >= lo - 1e-12) and np.all(new[0] <= hi + 1e-12)


class TestInitCentroids:
    def test_k_equals_n_is_permutation_of_points(self):
        pts = [wp(f"p{i}", [float(i), float(-i)]) for i in range(5)]
        cents = init_centroids(pts, ClusterConfig(k=5, seed=3))
        got = {tuple(c) for c in cents}
        assert got == {tuple(p.coords) for p in pts}

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(1)
        pts = random_points(rng, 40, 3)
        cfg = ClusterConfig(k=4, seed=11)
        a = init_centroids(pts, cfg)
        b = init_centroids(pts, cfg)
        assert np.array_equal(a, b)

    def test_too_few_distinct_points(self):
        pts = [wp(f"p{i}", [1.0, 2.0]) for i in range(10)]
        with pytest.raises(TooFewDistinctPoints):
            init_centroids(pts, ClusterConfig(k=2, seed=0))

    def test_centroids_are_distinct_input_points(self):
        pts = [wp("a", [0.0]), wp("b", [0.0]), wp("c", [1.0]), wp("d", [2.0])]
        cents = init_centroids(pts, ClusterConfig(k=3, seed=5))
        assert len({tuple(c) for c in cents}) == 3

    def test_partial_seeding_finds_separated_blobs(self):
        rng = np.random.default_rng(7)
        pts = blob_points(rng, [(0.0, 0.0), (20.0, 20.0)], 60, std=0.5)
        cfg = ClusterConfig(k=2, seed=13, seeding="partial", mode="standard")
        cents = init_centroids(pts, cfg)
        # one centroid per blob, each within a few std of its center
        d_to = sorted(min(np.linalg.norm(c - b) for c in cents) for b in
                      [np.zeros(2), np.full(2, 20.0)])
        assert all(d < 2.0 for d in d_to)
        # and a full-data standard run from those seeds lands on the blob means
        model = run(pts, cfg)
        oracle_cents, labels, *_ = lloyd_oracle(
            [p.coords for p in pts], cents, epsilon=cfg.epsilon
        )
        assert np.array_equal(model.centroids, np.asarray(oracle_cents))


class TestRun:
    def test_two_tight_pairs(self):
        pts = [
            wp("a", [0.0, 0.0]),
            wp("b", [0.1, 0.0]),
            wp("c", [10.0, 10.0]),
            wp("d", [10.1, 10.0]),
        ]
        model = run(pts, ClusterConfig(k=2, mode="standard", seed=0))
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
        pts = random_points(rng, 80, 3)
        cfg = ClusterConfig(k=4, mode="standard", seed=2)
        init = init_centroids(pts, cfg)
        model = run(pts, cfg)
        cents, labels, iters, converged, _ = lloyd_oracle(
            [p.coords.tolist() for p in pts], init.tolist(), epsilon=cfg.epsilon
        )
        assert [a.primary_cluster for a in model.assignments] == labels
        assert model.iterations == iters
        assert model.converged == converged
        assert np.array_equal(model.centroids, np.asarray(cents))

    def test_modified_with_degenerate_knobs_is_bitwise_standard(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 60, 2)
        standard = run(pts, ClusterConfig(k=3, mode="standard", seed=8))
        modified = run(
            pts,
            ClusterConfig(k=3, mode="modified", threshold=0.0, damping_weight=0.0, seed=8),
        )
        assert models_equal(
            ClusterModel(**{**modified.__dict__, "config": standard.config}), standard
        )

    def test_history_matches_iterations_and_records_duals(self):
        rng = np.random.default_rng(9)
        pts = blob_points(rng, [(0.0, 0.0), (6.0, 0.0)], 30, std=1.0)
        model = run(pts, ClusterConfig(k=2, threshold=0.5, seed=4))
        assert len(model.history) == model.iterations
        for snap in model.history:
            assert snap.centroids.shape == (2, 2)
            dual = {a.chunk_id for a in snap.assignments if a.secondary_cluster is not None}
            assert set(snap.dual_ids) == dual

    def test_weights_pull_centroid(self):
        # same init: the weighted run drags the near centroid to the heavy
        # point while the standard run sits at the arithmetic mean (1, 1)
        pts = [
            wp("heavy", [0.0, 0.0], 1.0),
            wp("light1", [2.0, 0.0], 0.01),
            wp("light2", [2.0, 2.0], 0.01),
            wp("light3", [0.0, 2.0], 0.01),
        ]
        pts += [wp(f"far{i}", [100.0 + i, 100.0], 0.01) for i in range(4)]
        std = run(pts, ClusterConfig(k=2, mode="standard", seed=2))
        mod = run(pts, ClusterConfig(k=2, mode="modified", threshold=0.0, seed=2))
        std_near = min(std.centroids, key=np.linalg.norm)
        mod_near = min(mod.centroids, key=np.linalg.norm)
        assert np.linalg.norm(std_near - [1.0, 1.0]) < 1e-9
        assert np.linalg.norm(mod_near) < 0.3

    def test_non_finite_rejected(self):
        pts = [wp("a", [0.0]), wp("b", [np.nan])]
        with pytest.raises(NonFiniteInput):
            run(pts, ClusterConfig(k=1, seed=0))

    def test_too_few_distinct(self):
        pts = [wp("a", [1.0]), wp("b", [1.0])]
        with pytest.raises(TooFewDistinctPoints):
            run(pts, ClusterConfig(k=2, seed=0))

    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(17)
        pts = random_points(rng, 120, 4)
        cfg = ClusterConfig(k=5, threshold=0.2, seed=6)
        one = run(pts, cfg)
        again = run(pts, cfg)
        assert models_equal(one, again)

    def test_standard_mode_ignores_weights(self):
        rng = np.random.default_rng(3)
        base = random_points(rng, 40, 2)
        reweighted = [wp(p.chunk_id, p.coords, 0.01 + 0.5 * (i % 2)) for i, p in enumerate(base)]
        a = run(base, ClusterConfig(k=3, mode="standard", seed=2))
        b = run(reweighted, ClusterConfig(k=3, mode="standard", seed=2))
        assert models_equal(a, b)

    def test_model_record_round_trip(self):
        rng = np.random.default_rng(31)
        pts = random_points(rng, 30, 2)
        # a dual-assigning modified run, a k == 1 run, and a standard run
        for cfg in (
            ClusterConfig(k=3, threshold=0.3, seed=12),
            ClusterConfig(k=1, seed=12),
            ClusterConfig(k=3, mode="standard", seed=12),
        ):
            model = run(pts, cfg)
            rec = model.to_record()
            back = ClusterModel.from_record(json.loads(json.dumps(rec)))
            assert models_equal(model, back)
            assert json.dumps(back.to_record()) == json.dumps(rec)
            if cfg.k == 1:
                assert rec["final"]["d2"] == [None] * 30
                assert all(h["d2"] == [None] * 30 for h in rec["history"])
                assert np.isinf(back.d2).all()
                assert all(np.isinf(h.d2).all() for h in back.history)
            if cfg.k > 1 and cfg.threshold > 0:
                assert (back.secondary >= 0).any()
                assert any((h.secondary >= 0).any() for h in back.history)

    def test_standard_distortion_non_increasing_across_iterations(self):
        rng = np.random.default_rng(41)
        pts = random_points(rng, 150, 3)
        cfg = ClusterConfig(k=6, mode="standard", seed=7)
        model = run(pts, cfg)
        X = np.array([p.coords for p in pts])
        scores = []
        for snap in model.history:
            total = 0.0
            for i, a in enumerate(snap.assignments):
                diff = X[i] - snap.centroids[a.primary_cluster]
                total += float(diff @ diff)
            scores.append(total)
        assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))


class TestDistortion:
    def test_one_dimensional_pair(self):
        pts = [wp("a", [0.0]), wp("b", [2.0])]
        model = run(pts, ClusterConfig(k=1, mode="standard", seed=0))
        assert model.centroids[0][0] == pytest.approx(1.0, abs=0)
        assert model.distortion == pytest.approx(2.0, abs=1e-12)

    def test_zero_when_points_sit_on_centroids(self):
        pts = [wp("a", [0.0, 0.0]), wp("b", [5.0, 5.0])]
        model = run(pts, ClusterConfig(k=2, mode="standard", seed=1))
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
        pts = random_points(rng, 100, 2)
        model = run(pts, ClusterConfig(k=4, threshold=0.5, seed=3))
        assert distortion(model) >= distortion(model, include_secondary=False)

    def test_equals_per_point_loop_bitwise(self):
        # the array sum must add terms in the order of the per-point loop:
        # primary term, then the secondary term of a dual-assigned point
        rng = np.random.default_rng(53)
        pts = random_points(rng, 200, 3)
        for cfg in (
            ClusterConfig(k=1, seed=2),
            ClusterConfig(k=5, threshold=0.4, seed=2),
            ClusterConfig(k=5, mode="standard", seed=2),
        ):
            model = run(pts, cfg)
            for include_secondary in (True, False):
                total = 0.0
                for a in model.assignments:
                    total += a.d_primary * a.d_primary
                    if include_secondary and a.secondary_cluster is not None:
                        total += a.d_secondary * a.d_secondary
                assert distortion(model, include_secondary=include_secondary) == total

    def test_points_validated_when_given(self):
        pts = [wp("a", [0.0]), wp("b", [2.0])]
        model = run(pts, ClusterConfig(k=1, mode="standard", seed=0))
        with pytest.raises(ValueError):
            distortion(model, points=list(reversed(pts)))


class TestElbowScan:
    def test_k_equals_n_reaches_zero(self):
        pts = [wp(f"p{i}", [float(i)]) for i in range(6)]
        cfg = ClusterConfig(k=1, mode="standard", seed=0)
        results = elbow_scan(pts, cfg, (1, 6), restarts=8)
        assert results[-1][0] == 6
        assert results[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_blobs_show_elbow_drop(self):
        rng = np.random.default_rng(19)
        pts = blob_points(rng, [(0.0, 0.0), (12.0, 0.0)], 60, std=0.6)
        cfg = ClusterConfig(k=1, mode="standard", seed=5)
        results = dict(elbow_scan(pts, cfg, (1, 3), restarts=5))
        assert results[1] / results[2] > 5.0

    def test_non_increasing_over_k(self):
        rng = np.random.default_rng(23)
        pts = random_points(rng, 60, 2)
        cfg = ClusterConfig(k=1, mode="standard", seed=9)
        results = elbow_scan(pts, cfg, (1, 8), restarts=10)
        values = [d for _, d in results]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_k_max_bounded_by_distinct_points(self):
        pts = [wp("a", [0.0]), wp("b", [1.0])]
        with pytest.raises(TooFewDistinctPoints):
            elbow_scan(pts, ClusterConfig(k=1, seed=0), (1, 3), restarts=2)

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        pts = random_points(rng, 50, 2)
        cfg = ClusterConfig(k=1, mode="standard", seed=4)
        assert elbow_scan(pts, cfg, (1, 4), restarts=3) == elbow_scan(
            pts, cfg, (1, 4), restarts=3
        )
