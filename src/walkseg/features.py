"""Per-pixel feature stacks: RGB plus two seeded random 3x3 filter banks.

The affinity branch consumes low-level, full-resolution features. Here the
two learned low-level convolution layers are replaced by fixed banks of
seeded random 3x3 filters with rectification: bank 1 filters the RGB
channels, bank 2 filters bank 1's responses. The seed is part of the
configuration, so a feature stack is a pure function of (image, config).
Each process draws the banks once. They run by row band through one halo
buffer: bank 1 as one 27-column patch GEMM, bank 2 (f1 > 16) per tap.
`prepare_stack` is the stack that training and inference both read.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass
class FilterBankConfig:
    """Sizes and seed of the two random filter banks.

    The total channel count is 3 + f1 + f2 (131 with the defaults).
    """

    f1: int = 64
    f2: int = 64
    seed: int = 0

    @property
    def num_channels(self) -> int:
        return 3 + self.f1 + self.f2


def validate_image(image) -> np.ndarray:
    """Check (h, w, 3) shape and finite values in [0, 1]; return float64."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise InvalidInputError(f"expected (h, w, 3) image, got {image.shape}")
    if image.shape[0] < 1 or image.shape[1] < 1:
        raise InvalidInputError("zero-sized image")
    if not np.all(np.isfinite(image)):
        raise InvalidInputError("image contains non-finite values")
    if image.min() < 0.0 or image.max() > 1.0:
        raise InvalidInputError("image values must lie in [0, 1]")
    return image


def _tap_matrix(filters: np.ndarray) -> np.ndarray:
    """(cout, cin, 3, 3) filters as a read-only (9 cin, cout) matrix, rows
    (dy, dx, cin). It is column-major, the layout matmul gives a tap's own view
    filters[:, :, dy, dx].T, since small GEMMs round differently by layout."""
    cout, cin = filters.shape[:2]
    matrix = filters.transpose(0, 2, 3, 1).reshape(cout, 9 * cin)
    matrix.flags.writeable = False
    return matrix.T


@functools.lru_cache(maxsize=16)
def _bank_taps(f1: int, f2: int, seed: int) -> tuple:
    """Both banks' tap matrices, drawn once per (f1, f2, seed), bank 1 first."""
    rng = np.random.default_rng(seed)
    # fan-in scaled so response magnitudes stay comparable across banks
    return tuple(_tap_matrix(rng.standard_normal((count, cin, 3, 3))
                             * (1.0 / np.sqrt(9.0 * cin)))
                 for count, cin in ((f1, 3), (f2, f1)))


# Up to 16 input channels take one patch GEMM per band, more a GEMM per tap; at
# 64x64 patch / per tap took 0.45 at 3 channels, 0.84-0.96 at 16, 1.1-1.6 at 32-64.
_PATCH_MAX_CIN = 16


def _conv3x3(x: np.ndarray, taps: np.ndarray, out: np.ndarray) -> None:
    """Rectified 3x3 correlation (stride 1, symmetric padding) into `out`.

    Each row band and its halo go into one reused (band + 3, w + 2, cin)
    buffer, whose flat slice at dy (w + 2) + dx is tap (dy, dx) of the band's
    outputs (with 2 junk columns per row). Narrow inputs copy the nine into
    one patch matrix for a GEMM with `taps`, wide ones take a GEMM per tap."""
    (h, w, cin), cout = x.shape, out.shape[2]
    band = max(1, (1 << 16) // (cout * (w + 2)))  # rows of 512 KiB, in L2
    pad = np.zeros((min(band, h) + 3, w + 2, cin))
    flat, m = pad.reshape(-1, cin), min(band, h) * (w + 2)
    shifts = [dy * (w + 2) + dx for dy in range(3) for dx in range(3)]
    patch = cin <= _PATCH_MAX_CIN
    acc, work = np.empty((m, cout)), np.empty((m, 9, cin) if patch else (m, cout))
    for y in range(0, h, band):
        b = min(band, h - y)
        n = b * (w + 2)
        pad[1:b + 1, 1:-1] = x[y:y + b]
        pad[[0, b + 1], 1:-1] = x[[max(y - 1, 0), min(y + b, h - 1)]]
        pad[:b + 2, [0, -1]] = pad[:b + 2, [1, -2]]
        if patch:
            for t, shift in enumerate(shifts):
                work[:n, t] = flat[shift:shift + n]
            np.matmul(work[:n].reshape(n, -1), taps, out=acc[:n])
        else:
            np.matmul(flat[:n], taps[:cin], out=acc[:n])
            for shift, tap in zip(shifts[1:], taps.reshape(9, cin, cout)[1:]):
                np.matmul(flat[shift:shift + n], tap, out=work[:n])
                acc[:n] += work[:n]
        np.maximum(acc[:n].reshape(b, w + 2, cout)[:, :w], 0.0, out=out[y:y + b])


def extract_features(image, bank: FilterBankConfig) -> np.ndarray:
    """Build the (h, w, 3 + f1 + f2) feature stack for an image.

    Channels are [RGB | bank-1 responses | bank-2 responses]. Bank 2 filters
    bank 1's output, so f1 = 0 requires f2 = 0. Deterministic given
    (image, bank): the filters are drawn from a generator seeded with
    `bank.seed`, bank 1 first, once per process (see `_bank_taps`).
    """
    image = validate_image(image)
    if bank.f1 < 0 or bank.f2 < 0:
        raise InvalidInputError("filter bank sizes must be nonnegative")
    if bank.f1 == 0 and bank.f2 > 0:
        raise InvalidInputError("bank 2 filters bank 1 output; f2 > 0 needs f1 > 0")
    stack = np.empty(image.shape[:2] + (bank.num_channels,))
    stack[:, :, :3] = image
    if bank.f1 > 0:
        taps1, taps2 = _bank_taps(bank.f1, bank.f2, bank.seed)
        _conv3x3(image, taps1, stack[:, :, 3:3 + bank.f1])
        if bank.f2 > 0:
            _conv3x3(stack[:, :, 3:3 + bank.f1], taps2, stack[:, :, 3 + bank.f1:])
    return stack


def per_channel_normalize(stack: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Rescale each channel linearly to [0, 1]; constant channels map to 0.

    Idempotent: a second application is a no-op. `out` may be `stack`.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise InvalidInputError(f"expected (h, w, k) stack, got {stack.shape}")
    lo = stack.min(axis=(0, 1), keepdims=True)
    hi = stack.max(axis=(0, 1), keepdims=True)
    span = hi - lo
    span[span == 0.0] = 1.0  # constant channel: (x - lo) / 1 == 0
    out = np.subtract(stack, lo, out=out)  # without out=, the input stays as it was
    out /= span
    return out


def prepare_stack(image, bank: FilterBankConfig) -> np.ndarray:
    """The normalized feature stack of an image, as a model sees it."""
    stack = extract_features(image, bank)
    return per_channel_normalize(stack, out=stack)
