import numpy as np
import pytest

from walkseg.errors import InvalidInputError
from walkseg.graph import build_sparsity, transition
from walkseg.metrics import onehot_probabilities, trimap_band
from walkseg.synth import SceneSpec, corrupt_unaries, generate, oracle_affinity


def test_zero_count_gives_empty_list():
    assert generate(SceneSpec(), 0) == []


def test_generation_is_deterministic():
    spec = SceneSpec(seed=21)
    first = generate(spec, 3)
    second = generate(spec, 3)
    for (img_a, lab_a), (img_b, lab_b) in zip(first, second):
        assert img_a.tobytes() == img_b.tobytes()
        assert lab_a.tobytes() == lab_b.tobytes()


def test_start_index_selects_the_same_scenes():
    spec = SceneSpec()
    tail = generate(spec, 3, start_index=2)
    full = generate(spec, 5)
    for (img_a, lab_a), (img_b, lab_b) in zip(tail, full[2:]):
        assert img_a.tobytes() == img_b.tobytes()
        assert lab_a.tobytes() == lab_b.tobytes()


def test_labels_in_range_and_scene_diverse():
    spec = SceneSpec()
    for image, labels in generate(spec, 20):
        assert labels.min() >= 0
        assert labels.max() < spec.num_classes
        assert len(np.unique(labels)) >= 2
        assert image.shape == (spec.height, spec.width, 3)
        assert image.min() >= 0.0 and image.max() <= 1.0


def test_invalid_spec_rejected():
    with pytest.raises(InvalidInputError):
        generate(SceneSpec(num_classes=1), 1)
    with pytest.raises(InvalidInputError):
        generate(SceneSpec(height=8), 1)
    with pytest.raises(InvalidInputError):
        generate(SceneSpec(shape_types=("blob",)), 1)


# ---------------------------------------------------------------------------
# corruption


def corruption_setup(seed=0):
    (image, labels), = generate(SceneSpec(), 1, start_index=4)
    clean = onehot_probabilities(labels, 4)
    band = trimap_band(labels, 4)
    return labels, clean, band


def test_noop_corruption_returns_input():
    labels, clean, band = corruption_setup()
    out = corrupt_unaries(clean, band, flip_prob=0.0, blur_radius=0, seed=0)
    assert out.tobytes() == clean.tobytes()


def test_full_flip_two_classes_breaks_every_argmax():
    labels = np.zeros((16, 16), dtype=int)
    labels[4:10, 4:10] = 1
    clean = onehot_probabilities(labels, 2)
    band = np.ones((16, 16), dtype=bool)
    out = corrupt_unaries(clean, band, flip_prob=1.0, blur_radius=0, seed=3)
    assert np.all(np.argmax(out, 1) != labels.ravel())


def test_rows_stay_distributions():
    labels, clean, band = corruption_setup()
    out = corrupt_unaries(clean, band, flip_prob=0.3, blur_radius=1, seed=5)
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_outside_band_untouched():
    labels, clean, band = corruption_setup()
    out = corrupt_unaries(clean, band, flip_prob=0.5, blur_radius=2, seed=7)
    outside = ~band.ravel()
    assert out[outside].tobytes() == clean[outside].tobytes()


def test_corruption_deterministic():
    labels, clean, band = corruption_setup()
    a = corrupt_unaries(clean, band, 0.3, 1, seed=11)
    b = corrupt_unaries(clean, band, 0.3, 1, seed=11)
    assert a.tobytes() == b.tobytes()


def test_bad_flip_probability_rejected():
    labels, clean, band = corruption_setup()
    with pytest.raises(InvalidInputError):
        corrupt_unaries(clean, band, flip_prob=1.5, blur_radius=0, seed=0)


# ---------------------------------------------------------------------------
# oracle affinities


def test_uniform_labels_give_unit_affinities():
    pattern = build_sparsity(4, 4, 1)
    w = oracle_affinity(np.zeros((4, 4), dtype=int), pattern)
    np.testing.assert_array_equal(w, 1.0)


def test_oracle_transition_rows_sum_to_one():
    (image, labels), = generate(SceneSpec(), 1, start_index=6)
    pattern = build_sparsity(labels.shape[0], labels.shape[1], 3)
    a = transition(pattern, oracle_affinity(labels, pattern))
    sums = np.bincount(pattern.rows, weights=a.values,
                       minlength=pattern.num_pixels)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_cross_label_edges_get_epsilon():
    labels = np.zeros((2, 2), dtype=int)
    labels[0, 0] = 1
    pattern = build_sparsity(2, 2, 1)
    w = oracle_affinity(labels, pattern)
    same = labels.ravel()[pattern.rows] == labels.ravel()[pattern.cols]
    half = pattern.num_edges // 2
    np.testing.assert_array_equal(same[:half], same[half:])
    np.testing.assert_array_equal(w[same[:half]], 1.0)
    np.testing.assert_array_equal(w[~same[:half]], 1e-6)
