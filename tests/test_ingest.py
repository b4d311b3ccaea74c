import struct

import numpy as np
import pytest

from tsclust.errors import (
    BadMagic,
    ConfigError,
    DimMismatch,
    InsufficientImages,
    NonFinite,
    TruncatedFile,
)
from tsclust.ingest import (
    IdxDataset,
    load_idx,
    remove_top_principal_components,
    singular_value_profile,
    subsample_digits,
)


def make_idx_pair(tmp_path, pixel_rows, labels, image_magic=0x803, label_magic=0x801,
                  label_count=None, side=28):
    """Hand-build an IDX image/label file pair byte by byte."""
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    count = len(pixel_rows)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, count, side, side))
        for row in pixel_rows:
            fh.write(bytes(row))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, label_count if label_count is not None else len(labels)))
        fh.write(bytes(labels))
    return images_path, labels_path


def two_image_fixture(tmp_path):
    # Image 0: all zeros except pixel 0 = 255; image 1: gradient start.
    img0 = [0] * 784
    img0[0] = 255
    img1 = [min(i, 255) for i in range(784)]
    return make_idx_pair(tmp_path, [img0, img1], [3, 7])


class TestLoadIdx:
    def test_two_image_fixture(self, tmp_path):
        ds = load_idx(*two_image_fixture(tmp_path))
        assert ds.images.shape == (784, 2)
        assert ds.images[0, 0] == pytest.approx(1.0)
        assert ds.images[1, 0] == 0.0
        assert ds.images[10, 1] == pytest.approx(10 / 255)
        np.testing.assert_array_equal(ds.digit_labels, [3, 7])
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_bad_image_magic(self, tmp_path):
        paths = make_idx_pair(tmp_path, [[0] * 784], [1], image_magic=0)
        with pytest.raises(BadMagic):
            load_idx(*paths)

    def test_bad_label_magic(self, tmp_path):
        paths = make_idx_pair(tmp_path, [[0] * 784], [1], label_magic=0x9999)
        with pytest.raises(BadMagic):
            load_idx(*paths)

    def test_label_count_mismatch(self, tmp_path):
        paths = make_idx_pair(tmp_path, [[0] * 784], [1, 2], label_count=2)
        with pytest.raises(DimMismatch):
            load_idx(*paths)

    def test_wrong_image_side(self, tmp_path):
        paths = make_idx_pair(tmp_path, [[0] * 100], [1], side=10)
        with pytest.raises(DimMismatch):
            load_idx(*paths)

    def test_truncated_pixels(self, tmp_path):
        images_path, labels_path = make_idx_pair(tmp_path, [[0] * 784], [1])
        data = images_path.read_bytes()
        images_path.write_bytes(data[:-10])
        with pytest.raises(TruncatedFile):
            load_idx(images_path, labels_path)

    def test_round_trip_bit_exact(self, tmp_path, write_idx):
        rng = np.random.default_rng(0)
        pixel_rows = [list(rng.integers(0, 256, size=784)) for _ in range(5)]
        ds = load_idx(*make_idx_pair(tmp_path, pixel_rows, [0, 1, 2, 3, 4]))
        out_images = tmp_path / "out_images.idx"
        out_labels = tmp_path / "out_labels.idx"
        write_idx(ds, out_images, out_labels)
        back = load_idx(out_images, out_labels)
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.digit_labels, ds.digit_labels)


def synthetic_dataset(n_per_digit=40, digits=(2, 4, 8), seed=0):
    """Low-rank synthetic images so each digit looks like a subspace."""
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for digit in digits:
        basis = rng.uniform(0, 1, size=(784, 4))
        coeffs = rng.uniform(0, 1, size=(4, n_per_digit))
        block = basis @ coeffs
        block = block / block.max()
        blocks.append(block)
        labels.extend([digit] * n_per_digit)
    images = np.round(np.hstack(blocks) * 255) / 255.0
    return IdxDataset(images=images, digit_labels=np.asarray(labels))


class TestSubsampleDigits:
    def test_counts_and_relabeling(self):
        ds = synthetic_dataset()
        ps = subsample_digits(ds, {2, 4, 8}, 10, seed=1)
        assert ps.N == 30
        np.testing.assert_array_equal(np.unique(ps.labels), [1, 2, 3])
        # The sampled images as they are, not normalized: each column is an
        # image of its digit, and centering subtracts the mean image.
        for k, digit in enumerate((2, 4, 8), start=1):
            pool = ds.images[:, ds.digit_labels == digit]
            for column in ps.data[:, ps.labels == k].T:
                assert np.any(np.all(pool == column[:, None], axis=0))
        centered = subsample_digits(ds, {2, 4, 8}, 10, seed=1, center=True)
        np.testing.assert_array_equal(centered.data, ps.data - ps.data.mean(axis=1, keepdims=True))

    def test_deterministic(self):
        ds = synthetic_dataset()
        a = subsample_digits(ds, [2, 8], 5, seed=7)
        b = subsample_digits(ds, [2, 8], 5, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_insufficient(self):
        ds = synthetic_dataset(n_per_digit=3)
        with pytest.raises(InsufficientImages):
            subsample_digits(ds, [2], 10, seed=0)

    def test_center_flag(self):
        ds = synthetic_dataset()
        centered = subsample_digits(ds, [2, 4], 10, seed=3, center=True)
        plain = subsample_digits(ds, [2, 4], 10, seed=3, center=False)
        assert not np.allclose(centered.data, plain.data)


class TestSingularValueProfile:
    def test_rank_one(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(20)
        v = rng.standard_normal(50)
        sv = singular_value_profile(np.outer(u, v))
        assert int(np.sum(sv > 1e-10)) == 1

    def test_identity(self):
        np.testing.assert_allclose(singular_value_profile(np.eye(3)), [1.0, 1.0, 1.0])

    def test_gram_eigenvalue_oracle(self):
        # Singular values equal the square roots of the Gram eigenvalues.
        rng = np.random.default_rng(5)
        M = rng.standard_normal((20, 50))
        sv = singular_value_profile(M)
        gram_ev = np.linalg.eigvalsh(M @ M.T)[::-1]
        np.testing.assert_allclose(sv, np.sqrt(np.clip(gram_ev, 0, None)), atol=1e-8)

    def test_descending_nonnegative(self):
        rng = np.random.default_rng(6)
        sv = singular_value_profile(rng.standard_normal((15, 8)))
        assert np.all(np.diff(sv) <= 0)
        assert np.all(sv >= 0)

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            singular_value_profile(np.array([[np.nan, 1.0]]))


class TestRemoveTopComponents:
    def test_removes_dominant_rank(self):
        rng = np.random.default_rng(7)
        strong = 100.0 * np.outer(rng.standard_normal(30), rng.standard_normal(40))
        weak = rng.standard_normal((30, 40))
        cleaned = remove_top_principal_components(strong + weak, 1)
        assert np.linalg.norm(cleaned) < 0.1 * np.linalg.norm(strong)

    def test_k_zero_is_copy(self):
        M = np.arange(6.0).reshape(2, 3)
        out = remove_top_principal_components(M, 0)
        np.testing.assert_array_equal(out, M)
        assert out is not M

    def test_k_at_least_min_dim_rejected(self):
        rng = np.random.default_rng(8)
        for M in (rng.standard_normal((5, 7)), rng.standard_normal((7, 5))):
            for k in (5, 6, 20):
                with pytest.raises(ConfigError, match=f"k={k} must be below min"):
                    remove_top_principal_components(M, k)
            # One component short of all of them leaves the weakest one.
            residual = np.linalg.svd(remove_top_principal_components(M, 4), compute_uv=False)
            np.testing.assert_allclose(residual[0], np.linalg.svd(M, compute_uv=False)[-1])
            assert np.all(residual[1:] < 1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: subsample_digits(synthetic_dataset(), [2], 0, seed=0),
         "n_per_digit must be >= 1"),
        (lambda: singular_value_profile(np.ones(3)), "matrix must be 2-D and nonempty"),
        (lambda: singular_value_profile(np.ones((0, 3))), "matrix must be 2-D and nonempty"),
        (lambda: remove_top_principal_components(np.ones((3, 3)), -1), "k must be >= 0"),
    ],
    ids=["no-images-per-digit", "one-dimensional-profile", "empty-profile", "negative-k"],
)
def test_bad_arguments_rejected(call, message):
    with pytest.raises(ValueError, match="^" + message):
        call()
