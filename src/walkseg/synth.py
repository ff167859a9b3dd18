"""Deterministic synthetic scenes: colored shapes on a background, exact
label maps, and controlled corruptions of one-hot class scores.

Scenes exist to make diffusion claims measurable at desk scale: the label
maps double as ground truth for oracle affinities, and the corruption
confines damage to a band around the true boundaries, the regime a
spatial-coherence mechanism is supposed to repair.
"""

import colorsys
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import InvalidInputError
from .graph import SparsityPattern, same_label_pairs

SHAPE_TYPES = ("ellipse", "rectangle", "polygon")


@dataclass
class SceneSpec:
    height: int = 32
    width: int = 32
    num_classes: int = 4
    min_shapes: int = 4
    max_shapes: int = 7
    shape_types: tuple = SHAPE_TYPES
    texture_sigma: float = 0.02
    noise_sigma: float = 0.02
    seed: int = 7

    def validate(self):
        if self.num_classes < 2:
            raise InvalidInputError("scenes need at least 2 classes")
        if self.height < 16 or self.width < 16:
            raise InvalidInputError("scene dimensions must be >= 16")
        if not 1 <= self.min_shapes <= self.max_shapes:
            raise InvalidInputError("bad shapes-per-image range")
        for name in self.shape_types:
            if name not in SHAPE_TYPES:
                raise InvalidInputError(f"unknown shape type {name!r}")
        if not self.shape_types:
            raise InvalidInputError("no shape types configured")
        for name in ("texture_sigma", "noise_sigma"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise InvalidInputError(f"{name} must be finite and >= 0")


def class_palette(num_classes: int) -> np.ndarray:
    """Base color per class: dark gray background, then well-separated hues."""
    colors = [(0.18, 0.18, 0.20)]
    for c in range(1, num_classes):
        hue = (0.13 + 0.618033988749895 * (c - 1)) % 1.0
        colors.append(colorsys.hsv_to_rgb(hue, 0.65, 0.85))
    return np.asarray(colors)


def _paint_ellipse(labels, rng):
    h, w = labels.shape
    ry = rng.uniform(2.0, max(2.5, h / 4))
    rx = rng.uniform(2.0, max(2.5, w / 4))
    cy = rng.uniform(1 + ry, h - 1 - ry) if h - 2 > 2 * ry else h / 2
    cx = rng.uniform(1 + rx, w - 1 - rx) if w - 2 > 2 * rx else w / 2
    ys, xs = np.mgrid[0:h, 0:w]
    inside = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    return inside


def _paint_rectangle(labels, rng):
    h, w = labels.shape
    y0 = rng.integers(1, h - 3)
    x0 = rng.integers(1, w - 3)
    y1 = rng.integers(y0 + 2, min(h - 1, y0 + max(3, h // 2)) + 1)
    x1 = rng.integers(x0 + 2, min(w - 1, x0 + max(3, w // 2)) + 1)
    inside = np.zeros((h, w), dtype=bool)
    inside[y0:y1, x0:x1] = True
    return inside


def _paint_polygon(labels, rng):
    # convex polygon: sorted angles around a center, inside = all half-planes
    h, w = labels.shape
    sides = rng.integers(3, 7)
    cy = rng.uniform(h * 0.25, h * 0.75)
    cx = rng.uniform(w * 0.25, w * 0.75)
    radius = rng.uniform(3.0, min(h, w) / 3)
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, sides))
    verts_y = np.clip(cy + radius * np.sin(angles), 1, h - 2)
    verts_x = np.clip(cx + radius * np.cos(angles), 1, w - 2)
    ys, xs = np.mgrid[0:h, 0:w]
    inside = np.ones((h, w), dtype=bool)
    for k in range(sides):
        y0, x0 = verts_y[k], verts_x[k]
        y1, x1 = verts_y[(k + 1) % sides], verts_x[(k + 1) % sides]
        cross = (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0)
        inside &= cross >= 0
    return inside


_PAINTERS = {
    "ellipse": _paint_ellipse,
    "rectangle": _paint_rectangle,
    "polygon": _paint_polygon,
}


def generate(spec: SceneSpec, count: int, start_index: int = 0):
    """Rasterize `count` scenes; scene i depends only on (spec, start_index + i).

    Returns [(image, labels)] with float images in [0, 1] and exact int
    label maps. A one-pixel background frame is kept clear, so every scene
    contains at least two classes.
    """
    spec.validate()
    palette = class_palette(spec.num_classes)
    scenes = []
    for i in range(count):
        rng = np.random.default_rng((spec.seed, start_index + i))
        labels = np.zeros((spec.height, spec.width), dtype=np.int64)
        num_shapes = int(rng.integers(spec.min_shapes, spec.max_shapes + 1))
        for _ in range(num_shapes):
            cls = int(rng.integers(1, spec.num_classes))
            kind = spec.shape_types[int(rng.integers(len(spec.shape_types)))]
            inside = _PAINTERS[kind](labels, rng)
            inside[0, :] = inside[-1, :] = False
            inside[:, 0] = inside[:, -1] = False
            if not inside.any():
                cy, cx = spec.height // 2, spec.width // 2
                inside = np.zeros_like(inside)
                inside[cy - 1 : cy + 1, cx - 1 : cx + 1] = True
            labels[inside] = cls
        image = palette[labels]
        image = image + rng.normal(0.0, spec.texture_sigma, image.shape)
        image = image + rng.normal(0.0, spec.noise_sigma, (1, 1, 3))
        scenes.append((np.clip(image, 0.0, 1.0), labels))
    return scenes


def corrupt_unaries(f_clean: np.ndarray, band: np.ndarray, flip_prob: float,
                    blur_radius: int, seed: int) -> np.ndarray:
    """Damage one-hot class scores inside a boundary band.

    Inside the band each pixel's row is replaced, with probability
    `flip_prob`, by a uniformly chosen wrong-class one-hot; then each class
    column is box-blurred with window 2*blur_radius + 1 and the band rows
    are renormalized. Pixels outside the band are returned bit-unchanged.
    """
    if not 0.0 <= flip_prob <= 1.0:
        raise InvalidInputError(f"flip_prob must lie in [0, 1], got {flip_prob}")
    if blur_radius < 0:
        raise InvalidInputError("blur radius must be >= 0")
    band = np.asarray(band, dtype=bool)
    height, width = band.shape
    num_classes = f_clean.shape[1]
    if f_clean.shape[0] != height * width:
        raise InvalidInputError(
            f"{f_clean.shape[0]} score rows for a {height}x{width} band")

    rng = np.random.default_rng(seed)
    flat_band = band.ravel()
    damaged = f_clean.copy()
    flips = flat_band & (rng.random(height * width) < flip_prob)
    if flips.any():
        current = np.argmax(f_clean[flips], axis=1)
        offsets = rng.integers(1, num_classes, size=int(flips.sum()))
        wrong = (current + offsets) % num_classes
        damaged[flips] = 0.0
        damaged[np.flatnonzero(flips), wrong] = 1.0

    if blur_radius > 0:
        grid = damaged.reshape(height, width, num_classes)
        window = 2 * blur_radius + 1
        blurred = uniform_filter(grid, size=(window, window, 1), mode="reflect")
        # the running-sum filter can undershoot zero by rounding
        np.clip(blurred, 0.0, None, out=blurred)
        damaged = np.where(flat_band[:, None],
                           blurred.reshape(-1, num_classes), damaged)

    # flips and blur write-back are confined to the band, so everything
    # outside it is still bit-identical to f_clean
    sums = damaged[flat_band].sum(axis=1, keepdims=True)
    sums[sums == 0.0] = 1.0
    damaged[flat_band] = damaged[flat_band] / sums
    return damaged


def oracle_affinity(labels: np.ndarray,
                    pattern: SparsityPattern) -> np.ndarray:
    """Affinities straight from ground truth, one per pixel pair: 1 for
    same-label pairs, 1e-6 for label-crossing ones. That floor stays
    strictly positive so every row of the transition matrix remains
    normalizable."""
    return np.maximum(same_label_pairs(labels, pattern), 1e-6)
