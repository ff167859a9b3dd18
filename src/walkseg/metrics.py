"""Segmentation quality measures.

Region overlap is scored by intersection-over-union, both per class
(averaged over the classes that occur) and class-agnostic. Boundary
localization is scored two ways: the misclassification rate inside
narrow bands around the true label boundaries ("trimap" curves), and
precision/recall of predicted boundary strength against true boundary
pixels with greedy one-to-one matching within a pixel tolerance, which
yields a max F-score and an average precision. The candidate pairs of a
matching come from one KD-tree pair query.

`trimap_counts` is the single banding implementation: `trimap_error`
derives its per-map rates from it, and `walkseg eval` sums its counts
over maps for the pooled curve.
"""

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from .errors import InvalidInputError


def _check_pair(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise InvalidInputError(
            f"label maps {pred.shape} and {gt.shape} must match")
    return pred, gt


def mean_iou(pred, gt, num_classes: int) -> float:
    """Mean over classes present in pred or gt of |P & G| / |P | G|."""
    pred, gt = _check_pair(pred, gt)
    scores = []
    for c in range(num_classes):
        p = pred == c
        g = gt == c
        union = np.logical_or(p, g).sum()
        if union == 0:
            continue
        scores.append(np.logical_and(p, g).sum() / union)
    if not scores:
        raise InvalidInputError("no class present in either map")
    return float(np.mean(scores))


def overall_iou(pred, gt) -> float:
    """Class-agnostic IOU pooled over all classes jointly.

    Each agreeing pixel adds one to both intersection and union; each
    disagreeing pixel adds one to two different classes' unions.
    """
    pred, gt = _check_pair(pred, gt)
    agree = int((pred == gt).sum())
    return agree / (pred.size + (pred.size - agree))


def label_boundary_mask(labels) -> np.ndarray:
    """Pixels with a 4-neighbor of a different label (both sides count)."""
    labels = np.asarray(labels)
    mask = np.zeros(labels.shape, dtype=bool)
    horizontal = labels[:, :-1] != labels[:, 1:]
    mask[:, :-1] |= horizontal
    mask[:, 1:] |= horizontal
    vertical = labels[:-1, :] != labels[1:, :]
    mask[:-1, :] |= vertical
    mask[1:, :] |= vertical
    return mask


def _boundary_distance(labels) -> np.ndarray:
    """Euclidean distance from each pixel to the nearest boundary pixel of
    `labels`; infinite everywhere on a uniform map, which has none."""
    boundary = label_boundary_mask(labels)
    if not boundary.any():
        return np.full(boundary.shape, np.inf)
    return distance_transform_edt(~boundary)


def trimap_band(labels, width: int) -> np.ndarray:
    """Pixels whose Euclidean distance to the nearest boundary pixel of
    `labels` is below `width`. Bands nest: band(w1) is a subset of
    band(w2) whenever w1 <= w2. A uniform map has an empty band."""
    if width < 1:
        raise InvalidInputError(f"band width must be >= 1, got {width}")
    return _boundary_distance(labels) < width


def trimap_counts(pred, gt, widths):
    """Misclassified and total pixels inside each band width around gt
    boundaries: [(width, wrong, total)]."""
    pred, gt = _check_pair(pred, gt)
    dist = _boundary_distance(gt)
    wrong = pred != gt
    out = []
    for width in widths:
        band = dist < width
        out.append((width, int(wrong[band].sum()), int(band.sum())))
    return out


def trimap_error(pred, gt, widths):
    """Misclassification rate inside each band width around gt boundaries.

    Returns [(width, error_rate)]; an empty band scores 0.
    """
    return [(width, wrong / total if total else 0.0)
            for width, wrong, total in trimap_counts(pred, gt, widths)]


def _normalize_rows(prob):
    prob = np.clip(np.asarray(prob, dtype=np.float64), 0.0, None)
    sums = prob.sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    return prob / sums


def onehot_probabilities(labels, num_classes: int) -> np.ndarray:
    """Embed a hard label map as one-hot rows, (h*w, m)."""
    flat = np.asarray(labels).ravel()
    if flat.min() < 0 or flat.max() >= num_classes:
        raise InvalidInputError("label index out of range")
    out = np.zeros((flat.size, num_classes))
    out[np.arange(flat.size), flat] = 1.0
    return out


def extract_boundary_strength(prob, shape) -> np.ndarray:
    """Per-pixel boundary strength in [0, 1] from per-pixel class scores.

    Strength at a pixel is the largest total-variation disagreement
    1 - sum_c min(p_c(i), p_c(j)) over its 4-neighbors j. Rows are clipped
    to nonnegative and renormalized first, so hard one-hot inputs give
    exactly binary strengths.
    """
    height, width = shape
    prob = _normalize_rows(prob)
    if prob.shape[0] != height * width:
        raise InvalidInputError(
            f"{prob.shape[0]} rows for a {height}x{width} grid")
    p = prob.reshape(height, width, prob.shape[1])
    strength = np.zeros((height, width))
    horizontal = 1.0 - np.minimum(p[:, :-1], p[:, 1:]).sum(axis=2)
    np.maximum(strength[:, :-1], horizontal, out=strength[:, :-1])
    np.maximum(strength[:, 1:], horizontal, out=strength[:, 1:])
    vertical = 1.0 - np.minimum(p[:-1, :], p[1:, :]).sum(axis=2)
    np.maximum(strength[:-1, :], vertical, out=strength[:-1, :])
    np.maximum(strength[1:, :], vertical, out=strength[1:, :])
    return np.clip(strength, 0.0, 1.0)


def greedy_match_boundaries(pred_points, gt_points, tolerance: float):
    """Match predicted boundary pixels to gt boundary pixels one-to-one.

    Candidate pairs within `tolerance` are accepted greedily in order of
    increasing distance (ties by prediction order, then gt index); a pair
    is taken only while both of its endpoints are unmatched. Returns a
    list of (pred_index, gt_index) pairs.
    """
    pred_points = np.asarray(pred_points, dtype=np.float64)
    gt_points = np.asarray(gt_points, dtype=np.float64)
    if len(gt_points) == 0 or len(pred_points) == 0:
        return []
    # all pairs within `tolerance`, as records (i, j, v): pred, gt, distance
    pairs = cKDTree(pred_points).sparse_distance_matrix(
        cKDTree(gt_points), tolerance, output_type="ndarray")
    order = np.lexsort((pairs["j"], pairs["i"], pairs["v"]))
    pred_taken, gt_taken, matches = set(), set(), []
    for pi, gi in zip(pairs["i"][order].tolist(), pairs["j"][order].tolist()):
        if pi not in pred_taken and gi not in gt_taken:
            pred_taken.add(pi)
            gt_taken.add(gi)
            matches.append((pi, gi))
    return matches


def boundary_pr(strength, gt_boundary, tolerance: float = 2.0,
                thresholds: int = 20):
    """Sweep thresholds over a strength map and score boundary agreement.

    At each threshold, pixels with strength >= threshold are predicted
    boundaries, matched greedily (strongest first) one-to-one to gt
    boundary pixels within `tolerance`. Returns (max F-score, average
    precision, curve) with curve rows (threshold, precision, recall).
    AP integrates precision over recall by trapezoid, extending the
    smallest-recall precision down to recall zero. Thresholds that select
    the same pixels share one matching.
    """
    if thresholds < 1:
        raise InvalidInputError(f"thresholds must be >= 1, got {thresholds}")
    if not 0.0 <= tolerance < np.inf:
        raise InvalidInputError(
            f"boundary tolerance must be finite and >= 0, got {tolerance}")
    strength = np.asarray(strength, dtype=np.float64)
    gt_boundary = np.asarray(gt_boundary, dtype=bool)
    if strength.shape != gt_boundary.shape:
        raise InvalidInputError(
            f"strength {strength.shape} vs boundary {gt_boundary.shape}")
    gt_points = np.argwhere(gt_boundary)
    if len(gt_points) == 0:
        raise InvalidInputError(
            "ground truth has no boundary pixels; recall undefined")

    curve = []
    best_f = 0.0
    mask = None
    for level in range(thresholds, 0, -1):
        tau = level / thresholds
        previous, mask = mask, strength >= tau
        # the same mask gives the same points in the same order, hence the
        # same matches: a hard label map is matched once, not per threshold
        if previous is None or not np.array_equal(mask, previous):
            pred_points = np.argwhere(mask)
            if len(pred_points):
                order = np.argsort(-strength[mask], kind="stable")
                matched = len(greedy_match_boundaries(
                    pred_points[order], gt_points, tolerance))
                precision = matched / len(pred_points)
                recall = matched / len(gt_points)
            else:
                precision = 0.0
                recall = 0.0
        curve.append((tau, precision, recall))
        if precision + recall > 0.0:
            best_f = max(best_f, 2 * precision * recall / (precision + recall))

    by_recall = sorted(curve, key=lambda row: row[2])
    recalls = [0.0] + [row[2] for row in by_recall]
    precisions = [by_recall[0][1]] + [row[1] for row in by_recall]
    ap = float(np.trapezoid(precisions, recalls))
    return best_f, ap, curve
