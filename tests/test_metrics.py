import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from walkseg import metrics
from walkseg.errors import InvalidInputError
from walkseg.metrics import (boundary_pr, extract_boundary_strength,
                             greedy_match_boundaries, label_boundary_mask,
                             mean_iou, onehot_probabilities, overall_iou,
                             trimap_band, trimap_counts, trimap_error)

# ---------------------------------------------------------------------------
# region overlap


def test_perfect_prediction_scores_one():
    labels = np.random.default_rng(0).integers(0, 3, (6, 6))
    assert mean_iou(labels, labels, 3) == 1.0
    assert overall_iou(labels, labels) == 1.0


def test_disjoint_masks_score_zero():
    pred = np.zeros((4, 4), dtype=int)
    gt = np.ones((4, 4), dtype=int)
    assert mean_iou(pred, gt, 2) == 0.0
    assert overall_iou(pred, gt) == 0.0


def test_half_covered_region():
    gt = np.zeros((4, 4), dtype=int)
    gt[1:3, 1:3] = 1  # 4-pixel region
    pred = np.zeros((4, 4), dtype=int)
    pred[1, 1:3] = 1  # covers half, no false positives
    class_one = (np.logical_and(pred == 1, gt == 1).sum()
                 / np.logical_or(pred == 1, gt == 1).sum())
    assert class_one == 0.5
    background = 12 / 14
    np.testing.assert_allclose(mean_iou(pred, gt, 2),
                               (class_one + background) / 2)


def test_overall_equals_mean_for_single_class():
    maps = np.zeros((3, 3), dtype=int)
    assert overall_iou(maps, maps) == mean_iou(maps, maps, 1)


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        mean_iou(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int), 2)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_iou_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, 4, (7, 7))
    gt = rng.integers(0, 4, (7, 7))
    perm = rng.permutation(4)
    assert mean_iou(perm[pred], perm[gt], 4) == pytest.approx(
        mean_iou(pred, gt, 4), abs=1e-12)
    assert overall_iou(perm[pred], perm[gt]) == pytest.approx(
        overall_iou(pred, gt), abs=1e-12)


# ---------------------------------------------------------------------------
# trimap bands


def two_region_map(split, shape=(10, 10)):
    labels = np.zeros(shape, dtype=int)
    labels[:, split:] = 1
    return labels


def test_trimap_zero_error_for_perfect_prediction():
    gt = two_region_map(5)
    for _, err in trimap_error(gt, gt, range(1, 11)):
        assert err == 0.0


def test_trimap_shifted_boundary_error_half_at_width_one():
    gt = two_region_map(5)
    pred = two_region_map(6)  # boundary shifted one pixel
    (width, err), = trimap_error(pred, gt, [1])
    assert width == 1
    assert err == 0.5  # one side of the two-pixel band is wrong
    assert trimap_counts(pred, gt, [1, 2]) == [(1, 10, 20), (2, 10, 40)]


def test_band_width_one_is_both_boundary_columns():
    gt = two_region_map(5)
    band = trimap_band(gt, 1)
    expected = np.zeros_like(gt, dtype=bool)
    expected[:, 4:6] = True
    np.testing.assert_array_equal(band, expected)


def test_bands_nest():
    labels = np.random.default_rng(3).integers(0, 3, (12, 12))
    previous = trimap_band(labels, 1)
    for width in range(2, 8):
        band = trimap_band(labels, width)
        assert np.all(band[previous])
        previous = band


def test_band_matches_brute_force_distances():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, (9, 9))
    boundary = label_boundary_mask(labels)
    points = np.argwhere(boundary)
    ys, xs = np.mgrid[0:9, 0:9]
    dist = np.full((9, 9), np.inf)
    for py, px in points:
        dist = np.minimum(dist, np.hypot(ys - py, xs - px))
    for width in (1, 2, 3, 5):
        np.testing.assert_array_equal(trimap_band(labels, width),
                                      dist < width)


def test_trimap_error_nonincreasing_for_band_noise():
    """Corruption confined to the innermost band dilutes with width."""
    rng = np.random.default_rng(4)
    gt = two_region_map(6, shape=(12, 12))
    pred = gt.copy()
    inner = trimap_band(gt, 1)
    flip = inner & (rng.random(gt.shape) < 0.5)
    pred[flip] = 1 - pred[flip]
    errors = [err for _, err in trimap_error(pred, gt, range(1, 11))]
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_uniform_ground_truth_has_empty_bands():
    labels = np.zeros((8, 8), dtype=int)
    assert not trimap_band(labels, 3).any()
    assert trimap_error(labels, labels, [1, 2]) == [(1, 0.0), (2, 0.0)]
    assert trimap_counts(1 - labels, labels, [1]) == [(1, 0, 0)]


# ---------------------------------------------------------------------------
# boundary strength


def test_uniform_labeling_has_zero_strength():
    prob = onehot_probabilities(np.zeros((5, 5), dtype=int), 3)
    assert not extract_boundary_strength(prob, (5, 5)).any()


def test_hard_two_region_strength_binary():
    labels = two_region_map(3, shape=(6, 6))
    strength = extract_boundary_strength(onehot_probabilities(labels, 2),
                                         (6, 6))
    expected = np.zeros((6, 6))
    expected[:, 2:4] = 1.0
    np.testing.assert_array_equal(strength, expected)


@settings(max_examples=60, deadline=None)
@given(height=st.integers(1, 6), width=st.integers(1, 6),
       classes=st.integers(1, 4), unused=st.integers(0, 2),
       seed=st.integers(0, 2 ** 16))
@example(height=1, width=9, classes=3, unused=0, seed=0)
@example(height=5, width=4, classes=1, unused=1, seed=0)
def test_hard_map_strength_is_its_boundary_mask(height, width, classes,
                                                unused, seed):
    """On a hard map, the one-hot strength is the boundary mask as 0.0 and
    1.0, for 1 x N grids, single-class maps and unused classes too."""
    labels = np.random.default_rng(seed).integers(0, classes, (height, width))
    strength = extract_boundary_strength(
        onehot_probabilities(labels, classes + unused), labels.shape)
    np.testing.assert_array_equal(
        strength, label_boundary_mask(labels).astype(np.float64))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_strength_bounded(seed):
    rng = np.random.default_rng(seed)
    prob = rng.dirichlet(np.ones(4), size=30)
    strength = extract_boundary_strength(prob, (5, 6))
    assert np.all(strength >= 0.0) and np.all(strength <= 1.0)


# ---------------------------------------------------------------------------
# boundary precision/recall


def test_perfect_boundaries_score_one():
    labels = two_region_map(5)
    strength = extract_boundary_strength(onehot_probabilities(labels, 2),
                                         labels.shape)
    mf, ap, _ = boundary_pr(strength, label_boundary_mask(labels))
    assert mf == 1.0
    assert ap == 1.0


def test_zero_strength_scores_zero():
    labels = two_region_map(5)
    mf, ap, curve = boundary_pr(np.zeros(labels.shape),
                                label_boundary_mask(labels))
    assert mf == 0.0
    assert ap == 0.0
    assert all(recall == 0.0 for _, _, recall in curve)


def test_no_true_boundary_is_an_error():
    with pytest.raises(InvalidInputError):
        boundary_pr(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool))


def test_shift_within_tolerance_keeps_max_f_at_one():
    gt = label_boundary_mask(two_region_map(6, shape=(12, 12)))
    shifted = np.roll(gt, 1, axis=1)  # move every boundary pixel right
    mf, _, _ = boundary_pr(shifted.astype(float), gt, tolerance=2.0)
    assert mf == 1.0


def reference_boundary_pr(strength, gt_boundary, tolerance, thresholds):
    """Match every threshold's mask afresh; same curve, F and AP rules."""
    gt_points = np.argwhere(gt_boundary)
    curve = []
    for level in range(thresholds, 0, -1):
        tau = level / thresholds
        mask = strength >= tau
        pred_points = np.argwhere(mask)
        precision = recall = 0.0
        if len(pred_points):
            order = np.argsort(-strength[mask], kind="stable")
            matched = len(greedy_match_boundaries(pred_points[order],
                                                  gt_points, tolerance))
            precision = matched / len(pred_points)
            recall = matched / len(gt_points)
        curve.append((tau, precision, recall))
    best_f = max((2 * p * r / (p + r) for _, p, r in curve if p + r > 0.0),
                 default=0.0)
    by_recall = sorted(curve, key=lambda row: row[2])
    ap = float(np.trapezoid([by_recall[0][1]] + [row[1] for row in by_recall],
                            [0.0] + [row[2] for row in by_recall]))
    return best_f, ap, curve


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), height=st.integers(2, 10),
       width=st.integers(2, 10), levels=st.sampled_from([0, 1, 2, 4, 7]),
       tolerance=st.sampled_from([1.0, 2.0, 3.5]),
       thresholds=st.sampled_from([1, 5, 20]))
@example(seed=0, height=8, width=8, levels=1, tolerance=2.0, thresholds=20)
def test_boundary_pr_matches_per_threshold_reference(seed, height, width,
                                                     levels, tolerance,
                                                     thresholds):
    """Graded (levels 0) and quantised strength maps score exactly as if
    every threshold were matched on its own."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, (height, width))
    labels[0, 0], labels[0, 1] = 0, 1  # at least one true boundary
    strength = rng.random((height, width))
    if levels:
        strength = np.round(strength * levels) / levels
    gt = label_boundary_mask(labels)
    assert (boundary_pr(strength, gt, tolerance, thresholds)
            == reference_boundary_pr(strength, gt, tolerance, thresholds))


def test_binary_strength_is_matched_once(monkeypatch):
    calls = []
    match = metrics.greedy_match_boundaries
    monkeypatch.setattr(metrics, "greedy_match_boundaries",
                        lambda *args: calls.append(args) or match(*args))
    labels = two_region_map(5)
    strength = extract_boundary_strength(onehot_probabilities(labels, 2),
                                         labels.shape)
    mf, _, curve = boundary_pr(strength, label_boundary_mask(labels))
    assert len(calls) == 1
    assert len(curve) == 20 and mf == 1.0


def test_greedy_matching_is_one_to_one():
    # two predictions near a single true pixel: only one may match
    gt_points = np.array([[5.0, 5.0]])
    pred_points = np.array([[5.0, 4.0], [5.0, 6.0]])
    matches = greedy_match_boundaries(pred_points, gt_points, tolerance=2.0)
    assert len(matches) == 1
    matched_gt = [g for _, g in matches]
    assert len(matched_gt) == len(set(matched_gt))


def test_greedy_matching_audit_on_random_instance():
    rng = np.random.default_rng(8)
    gt_points = rng.integers(0, 12, (20, 2)).astype(float)
    pred_points = rng.integers(0, 12, (30, 2)).astype(float)
    matches = greedy_match_boundaries(pred_points, gt_points, tolerance=3.0)
    gts = [g for _, g in matches]
    preds = [p for p, _ in matches]
    assert len(gts) == len(set(gts))
    assert len(preds) == len(set(preds))


def per_point_matches(pred_points, gt_points, tolerance):
    """The matcher as one ball query and one norm per predicted point."""
    pred_points = np.asarray(pred_points, dtype=np.float64)
    gt_points = np.asarray(gt_points, dtype=np.float64)
    if len(gt_points) == 0 or len(pred_points) == 0:
        return []
    tree = cKDTree(gt_points)
    pairs_p, pairs_g, pairs_d = [], [], []
    for pi, point in enumerate(pred_points):
        candidates = tree.query_ball_point(point, tolerance)
        dists = np.linalg.norm(gt_points[candidates] - point, axis=1)
        pairs_p.extend([pi] * len(candidates))
        pairs_g.extend(candidates)
        pairs_d.extend(dists)
    pred_taken = np.zeros(len(pred_points), dtype=bool)
    gt_taken = np.zeros(len(gt_points), dtype=bool)
    matches = []
    for idx in np.lexsort((pairs_g, pairs_p, pairs_d)):
        pi, gi = pairs_p[idx], pairs_g[idx]
        if not pred_taken[pi] and not gt_taken[gi]:
            pred_taken[pi] = gt_taken[gi] = True
            matches.append((pi, gi))
    return matches


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), pred_count=st.integers(0, 30),
       gt_count=st.integers(0, 30), grid=st.booleans(),
       duplicates=st.booleans(),
       tolerance=st.sampled_from([0.0, 0.5, 1.0, np.sqrt(2.0), 2.0,
                                  np.sqrt(5.0), 3.0]))
@example(seed=0, pred_count=0, gt_count=5, grid=True, duplicates=False,
         tolerance=2.0)
@example(seed=0, pred_count=5, gt_count=0, grid=True, duplicates=False,
         tolerance=2.0)
@example(seed=1, pred_count=20, gt_count=20, grid=True, duplicates=True,
         tolerance=0.0)
def test_greedy_matching_equals_per_point_reference(seed, pred_count,
                                                    gt_count, grid,
                                                    duplicates, tolerance):
    """Integer points (whose distances land exactly on the tolerances
    1, sqrt 2, 2, sqrt 5 and 3) and float points, with repeated points
    on both sides, give the same match list, int for int."""
    rng = np.random.default_rng(seed)
    if grid:
        pred = rng.integers(0, 6, (pred_count, 2)).astype(float)
        gt = rng.integers(0, 6, (gt_count, 2)).astype(float)
    else:
        pred = rng.random((pred_count, 2)) * 6
        gt = rng.random((gt_count, 2)) * 6
    if duplicates and pred_count and gt_count:
        pred[:pred_count // 2] = gt[rng.integers(0, gt_count, pred_count // 2)]
        gt[gt_count // 2:] = gt[0]
    matches = greedy_match_boundaries(pred, gt, tolerance)
    assert matches == per_point_matches(pred, gt, tolerance)
    assert all(type(i) is int for pair in matches for i in pair)


def test_greedy_matching_includes_pairs_at_exactly_the_tolerance():
    gt_points = np.array([[0.0, 0.0], [10.0, 10.0]])
    pred_points = np.array([[0.0, 2.0], [11.0, 11.0]])
    assert greedy_match_boundaries(pred_points, gt_points,
                                   2.0) == [(1, 1), (0, 0)]
    assert greedy_match_boundaries(pred_points, gt_points,
                                   np.sqrt(2.0)) == [(1, 1)]
    assert greedy_match_boundaries(pred_points, gt_points, 1.0) == []
