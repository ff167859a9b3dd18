import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkseg.errors import InvalidInputError
from walkseg.features import (_PATCH_MAX_CIN, FilterBankConfig, _bank_taps,
                              _conv3x3, _tap_matrix, extract_features,
                              per_channel_normalize, prepare_stack)

PER_TAP_CIN = _PATCH_MAX_CIN + 1  # the narrowest input that takes a GEMM per tap


def test_rgb_passthrough_without_banks():
    white = np.ones((1, 1, 3))
    stack = extract_features(white, FilterBankConfig(f1=0, f2=0))
    assert stack.shape == (1, 1, 3)
    np.testing.assert_array_equal(stack, white)


def test_default_bank_has_131_channels():
    image = np.random.default_rng(0).uniform(0, 1, (4, 4, 3))
    stack = extract_features(image, FilterBankConfig())
    assert stack.shape == (4, 4, 131)
    assert FilterBankConfig().num_channels == 131


def test_extraction_is_deterministic():
    rng = np.random.default_rng(11)
    image = rng.uniform(0, 1, (4, 4, 3))
    bank = FilterBankConfig(f1=4, f2=4, seed=7)
    first = extract_features(image, bank)
    second = extract_features(image, bank)
    assert first.tobytes() == second.tobytes()


def test_zero_sized_image_rejected():
    with pytest.raises(InvalidInputError):
        extract_features(np.ones((0, 3, 3)), FilterBankConfig(f1=0, f2=0))


def test_bank2_requires_bank1():
    with pytest.raises(InvalidInputError):
        extract_features(np.ones((2, 2, 3)), FilterBankConfig(f1=0, f2=4))


def test_values_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        extract_features(np.full((2, 2, 3), 1.5), FilterBankConfig(f1=0, f2=0))


@settings(max_examples=20, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7),
       f1=st.integers(0, 5), f2=st.integers(0, 5), seed=st.integers(0, 99))
def test_spatial_size_preserved(h, w, f1, f2, seed):
    if f1 == 0:
        f2 = 0
    image = np.random.default_rng(seed).uniform(0, 1, (h, w, 3))
    stack = extract_features(image, FilterBankConfig(f1=f1, f2=f2, seed=seed))
    assert stack.shape == (h, w, 3 + f1 + f2)
    assert np.all(np.isfinite(stack))


def _direct_conv3x3(x, filters):
    """Rectified 3x3 correlation tap by tap; with a padding width of one,
    symmetric padding repeats the edge pixel."""
    h, w, _ = x.shape
    out = np.zeros((h, w, filters.shape[0]))
    for y in range(h):
        for xx in range(w):
            for dy in range(3):
                for dx in range(3):
                    sy = min(max(y + dy - 1, 0), h - 1)
                    sx = min(max(xx + dx - 1, 0), w - 1)
                    out[y, xx] += filters[:, :, dy, dx] @ x[sy, sx]
    return np.maximum(out, 0.0)


def _with_band_edges(test):
    """Examples for both conv forms (3 channels: one patch GEMM; more than
    _PATCH_MAX_CIN: one GEMM per tap) at heights around the band of
    2**16 // (cout (w + 2)) rows, which is 8 at w = 62, cout = 128, and on
    1xN, Nx1 and 1x1 grids."""
    for cin in (3, PER_TAP_CIN):
        for h in (7, 8, 9, 17):
            test = example(h=h, w=62, cin=cin, cout=128, seed=h)(test)
        for h, w in ((1, 9), (9, 1), (1, 1)):
            test = example(h=h, w=w, cin=cin, cout=4, seed=cin)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 7), w=st.integers(1, 7), cin=st.integers(1, PER_TAP_CIN + 3),
       cout=st.integers(1, 5), seed=st.integers(0, 999))
@example(h=1, w=1, cin=3, cout=2, seed=0)
@example(h=1, w=7, cin=2, cout=3, seed=1)
@example(h=7, w=1, cin=4, cout=1, seed=2)
@example(h=40, w=30, cin=2, cout=64, seed=3)  # two bands, the last partial
@_with_band_edges
def test_conv3x3_matches_direct_correlation(h, w, cin, cout, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (h, w, cin))
    filters = rng.standard_normal((cout, cin, 3, 3))
    out = np.full((h, w, cout), np.nan)
    _conv3x3(x, _tap_matrix(filters), out)
    np.testing.assert_allclose(out, _direct_conv3x3(x, filters),
                               rtol=0, atol=1e-12)


def test_default_banks_hold_no_patch_matrix():
    """At 64x64 the default banks peak far below the 18.9 MB that a
    (4096, 576) bank-2 patch matrix alone would take; the 4.3 MB feature
    stack is counted."""
    image = np.random.default_rng(3).uniform(0, 1, (64, 64, 3))
    tracemalloc.start()
    try:
        stack = extract_features(image, FilterBankConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.shape == (64, 64, 131)
    assert peak < 12 * 2 ** 20


@settings(max_examples=25, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), f1=st.integers(0, 5),
       f2=st.integers(0, 5), seed=st.integers(0, 99), constant=st.booleans())
@example(h=5, w=4, f1=64, f2=64, seed=0, constant=True)  # every channel constant
@example(h=37, w=23, f1=64, f2=64, seed=0, constant=False)
def test_prepare_stack_is_the_normalized_stack(h, w, f1, f2, seed, constant):
    """The in-place normalization gives, bit for bit, what normalizing a
    copy gives."""
    if f1 == 0:
        f2 = 0
    rng = np.random.default_rng(seed)
    image = np.full((h, w, 3), 0.3) if constant else rng.uniform(0, 1, (h, w, 3))
    bank = FilterBankConfig(f1=f1, f2=f2, seed=seed)
    expected = per_channel_normalize(extract_features(image, bank))
    assert prepare_stack(image, bank).tobytes() == expected.tobytes()


def test_cached_banks_are_read_only():
    for taps in _bank_taps(4, 3, 5):
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0, 0] = 0.0


def test_prepare_stack_returns_a_fresh_stack_each_call():
    image = np.random.default_rng(4).uniform(0, 1, (9, 7, 3))
    bank = FilterBankConfig(f1=4, f2=3, seed=5)
    first = prepare_stack(image, bank)
    second = prepare_stack(image, bank)
    assert not np.shares_memory(first, second)
    expected = second.copy()
    first[...] = -1.0
    second[...] = -1.0
    np.testing.assert_array_equal(prepare_stack(image, bank), expected)


def test_bank_seed_still_changes_the_stack():
    image = np.random.default_rng(6).uniform(0, 1, (6, 6, 3))
    a = prepare_stack(image, FilterBankConfig(f1=4, f2=3, seed=1))
    b = prepare_stack(image, FilterBankConfig(f1=4, f2=3, seed=2))
    assert not np.array_equal(a[:, :, 3:7], b[:, :, 3:7])
    assert not np.array_equal(a[:, :, 7:], b[:, :, 7:])


def test_prepare_stack_holds_one_stack():
    """With the banks drawn, a 96x80 stack (7.9 MB) peaks below its own
    bytes plus 4 MiB of band buffers: no second stack, no padded image."""
    image = np.random.default_rng(8).uniform(0, 1, (96, 80, 3))
    prepare_stack(image[:2, :2], FilterBankConfig())  # draws the default banks
    tracemalloc.start()
    try:
        stack = prepare_stack(image, FilterBankConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes + 4 * 2 ** 20


def test_normalize_affine_rescale():
    channel = np.array([0.0, 5.0, 10.0]).reshape(1, 3, 1)
    np.testing.assert_allclose(per_channel_normalize(channel).ravel(),
                               [0.0, 0.5, 1.0])


def test_normalize_constant_channel_maps_to_zero():
    channel = np.full((1, 3, 1), 4.0)
    np.testing.assert_array_equal(per_channel_normalize(channel), 0.0)


def test_normalize_fixed_point_on_unit_range():
    rng = np.random.default_rng(5)
    stack = rng.uniform(0, 1, (3, 3, 2))
    stack[0, 0, :] = 0.0
    stack[1, 1, :] = 1.0
    np.testing.assert_array_equal(per_channel_normalize(stack), stack)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 999), k=st.integers(1, 6))
def test_normalize_idempotent(seed, k):
    stack = np.random.default_rng(seed).normal(0, 3, (4, 5, k))
    once = per_channel_normalize(stack)
    twice = per_channel_normalize(once)
    np.testing.assert_array_equal(once, twice)


def test_normalize_leaves_its_input_unchanged():
    stack = np.random.default_rng(2).normal(0, 3, (4, 5, 3))
    stack[:, :, 1] = 7.0  # a constant channel too
    before = stack.copy()
    out = per_channel_normalize(stack)
    np.testing.assert_array_equal(stack, before)
    assert not np.shares_memory(out, stack)
