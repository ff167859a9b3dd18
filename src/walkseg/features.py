"""Per-pixel feature stacks: RGB plus two seeded random 3x3 filter banks.

The affinity branch consumes low-level, full-resolution features. Here the
two learned low-level convolution layers are replaced by fixed banks of
seeded random 3x3 filters with rectification: bank 1 filters the RGB
channels, bank 2 filters bank 1's responses. The seed is part of the
configuration, so a feature stack is a pure function of (image, config).
`prepare_stack` is the stack that training and inference both read.
"""

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


def _bank_filters(rng, count: int, in_channels: int) -> np.ndarray:
    # fan-in scaled so response magnitudes stay comparable across banks
    scale = 1.0 / np.sqrt(9.0 * in_channels)
    return rng.standard_normal((count, in_channels, 3, 3)) * scale


def _conv3x3(x: np.ndarray, filters: np.ndarray, out: np.ndarray) -> None:
    """Rectified 3x3 correlation (stride 1, symmetric padding) into `out`.

    One GEMM per tap and no patch matrix: viewed flat as
    ((h + 3)(w + 2), cin) rows, the padded image holds tap (dy, dx) of all
    outputs in one slice; the 2 junk columns per row are dropped."""
    (h, w, cin), cout = x.shape, out.shape[2]
    flat = np.pad(x, ((1, 2), (1, 1), (0, 0)), mode="symmetric").reshape(-1, cin)
    taps = filters.transpose(2, 3, 1, 0).reshape(9, cin, cout)  # contiguous
    shifts = [dy * (w + 2) + dx for dy in range(3) for dx in range(3)]
    band = max(1, (1 << 16) // (cout * (w + 2)))  # rows of 512 KiB, in L2
    for y in range(0, h, band):
        r0, r1 = y * (w + 2), min(h, y + band) * (w + 2)
        acc = np.zeros((r1 - r0, cout))
        for shift, tap in zip(shifts, taps):
            acc += flat[r0 + shift:r1 + shift] @ tap
        np.maximum(acc.reshape(-1, w + 2, cout)[:, :-2], 0.0, out=out[y:y + band])


def extract_features(image, bank: FilterBankConfig) -> np.ndarray:
    """Build the (h, w, 3 + f1 + f2) feature stack for an image.

    Channels are [RGB | bank-1 responses | bank-2 responses]. Bank 2 filters
    bank 1's output, so f1 = 0 requires f2 = 0. Deterministic given
    (image, bank): the filters are drawn from a generator seeded with
    `bank.seed`, bank 1 first.
    """
    image = validate_image(image)
    if bank.f1 < 0 or bank.f2 < 0:
        raise InvalidInputError("filter bank sizes must be nonnegative")
    if bank.f1 == 0 and bank.f2 > 0:
        raise InvalidInputError("bank 2 filters bank 1 output; f2 > 0 needs f1 > 0")
    stack = np.empty(image.shape[:2] + (bank.num_channels,))
    stack[:, :, :3] = image
    rng = np.random.default_rng(bank.seed)
    if bank.f1 > 0:
        _conv3x3(image, _bank_filters(rng, bank.f1, 3), stack[:, :, 3:3 + bank.f1])
        if bank.f2 > 0:
            _conv3x3(stack[:, :, 3:3 + bank.f1], _bank_filters(rng, bank.f2, bank.f1),
                     stack[:, :, 3 + bank.f1:])
    return stack


def per_channel_normalize(stack: np.ndarray) -> np.ndarray:
    """Rescale each channel linearly to [0, 1]; constant channels map to 0.

    Idempotent: a second application is a no-op.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise InvalidInputError(f"expected (h, w, k) stack, got {stack.shape}")
    lo = stack.min(axis=(0, 1), keepdims=True)
    hi = stack.max(axis=(0, 1), keepdims=True)
    span = hi - lo
    span[span == 0.0] = 1.0  # constant channel: (x - lo) / 1 == 0
    out = stack - lo  # the one new array; the input stays as it was
    out /= span
    return out


def prepare_stack(image, bank: FilterBankConfig) -> np.ndarray:
    """The normalized feature stack of an image, as a model sees it."""
    return per_channel_normalize(extract_features(image, bank))
