import json
import os
import struct

import numpy as np
import pytest

from quadtune.cli import main
from quadtune.datasets import (
    load_idx,
    make_blobs,
    make_bowl_dataset,
    make_dataset,
    make_linear_regression,
    make_moons,
)
from quadtune.errors import InvalidArgumentError, QuadtuneError


def test_split_is_80_20():
    ds = make_blobs(n=100, k=2, sep=5.0, seed=0)
    assert ds.train_x.shape[0] == 80
    assert ds.test_x.shape[0] == 20


def test_blobs_deterministic():
    a = make_blobs(n=200, k=3, sep=4.0, seed=9)
    b = make_blobs(n=200, k=3, sep=4.0, seed=9)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.test_y, b.test_y)
    c = make_blobs(n=200, k=3, sep=4.0, seed=10)
    assert not np.array_equal(a.train_x, c.train_x)


def test_blobs_center_separation():
    ds = make_blobs(n=2000, k=2, sep=5.0, seed=1)
    mean0 = ds.train_x[ds.train_y == 0].mean(axis=0)
    mean1 = ds.train_x[ds.train_y == 1].mean(axis=0)
    assert np.linalg.norm(mean1 - mean0) == pytest.approx(5.0, abs=0.3)


def test_blobs_on_a_circle_need_two_dimensions(tmp_path, capsys):
    # Three or more centers lie on a circle in the first two coordinates; two lie on the first axis.
    assert make_blobs(n=100, k=2, dim=1, seed=0).train_x.shape == (80, 1)
    raw = {"dataset": {"kind": "blobs", "n": 100, "k": 3, "dim": 1}, "model": {"kind": "logreg"},
           "optimizer": {"kind": "sgd"}, "lr_policy": {"kind": "schedule", "variant": "constant", "lr": 0.1},
           "epochs": 1, "seeds": [1], "out_dir": str(tmp_path / "out")}
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "need dim >= 2" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_moons_two_classes_balanced():
    ds = make_moons(n=1000, noise=0.1, seed=2)
    labels = np.concatenate([ds.train_y, ds.test_y])
    assert set(labels.tolist()) == {0, 1}
    assert abs(int((labels == 0).sum()) - 500) <= 1


def test_linreg_noise_level():
    ds = make_linear_regression(n=3000, dim=3, noise=0.0, seed=4)
    # noiseless targets are an exact linear function: lstsq residual ~ 0
    x = np.column_stack([ds.train_x, np.ones(ds.train_x.shape[0])])
    _, res, _, _ = np.linalg.lstsq(x, ds.train_y, rcond=None)
    assert res[0] < 1e-18


def test_bowl_dataset_placeholder():
    ds = make_bowl_dataset(64)
    assert ds.train_x.shape == (51, 1)
    assert np.all(ds.train_x == 0.0)


def test_make_dataset_dispatch_and_errors():
    ds = make_dataset({"kind": "moons", "n": 100, "seed": 0})
    assert ds.num_classes == 2
    with pytest.raises(InvalidArgumentError):
        make_dataset({"kind": "nope"})
    with pytest.raises(InvalidArgumentError):
        make_blobs(n=0)


@pytest.mark.parametrize("spec", [
    {"kind": "blobs", "seed": -1},
    {"kind": "moons", "seed": -1},
    {"kind": "moons", "noise": -0.5},
    {"kind": "linreg", "seed": -1},
    {"kind": "linreg", "noise": -0.5},
], ids=lambda spec: "-".join(map(str, spec.values())))
def test_negative_seed_and_noise_rejected(spec):
    with pytest.raises(InvalidArgumentError):
        make_dataset(spec)


def _write_idx_pair(tmpdir, count=4, rows=28, cols=28, image_magic=0x803, label_magic=0x801, label_count=None,
                    classes=10):
    images_path = os.path.join(tmpdir, "images.idx")
    labels_path = os.path.join(tmpdir, "labels.idx")
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(count, rows * cols), dtype=np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", image_magic, count, rows, cols))
        f.write(pixels.tobytes())
    n_labels = count if label_count is None else label_count
    labels = (np.arange(n_labels) % classes).astype(np.uint8)
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", label_magic, n_labels))
        f.write(labels.tobytes())
    return images_path, labels_path, pixels


def test_idx_round_trip(tmp_path):
    images_path, labels_path, pixels = _write_idx_pair(str(tmp_path))
    ds = load_idx(images_path, labels_path)
    assert ds.train_x.shape == (4, 784)
    assert np.allclose(ds.train_x, pixels.astype(np.float64) / 255.0)
    assert ds.train_y.tolist() == [0, 1, 2, 3]
    assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0


def test_idx_bad_magic(tmp_path):
    images_path, labels_path, _ = _write_idx_pair(str(tmp_path), image_magic=0)
    with pytest.raises(QuadtuneError, match="bad image magic 0x00000000"):
        load_idx(images_path, labels_path)


def test_idx_truncated(tmp_path):
    images_path, labels_path, _ = _write_idx_pair(str(tmp_path))
    data = open(images_path, "rb").read()
    with open(images_path, "wb") as f:
        f.write(data[:-100])
    with pytest.raises(QuadtuneError, match=r"truncated file \(wanted 3136 bytes, got 3036\)"):
        load_idx(images_path, labels_path)


def test_idx_count_mismatch(tmp_path):
    images_path, labels_path, _ = _write_idx_pair(str(tmp_path), label_count=3)
    with pytest.raises(QuadtuneError, match="image count 4 != label count 3"):
        load_idx(images_path, labels_path)


def _idx_spec(tmp_path, train_count=4, test_count=12, test_rows=28):
    train, test = tmp_path / "train", tmp_path / "test"
    train.mkdir()
    test.mkdir()
    images, labels, _ = _write_idx_pair(str(train), count=train_count)
    test_images, test_labels, test_pixels = _write_idx_pair(str(test), count=test_count, rows=test_rows)
    spec = {"kind": "idx", "images": images, "labels": labels, "test_images": test_images, "test_labels": test_labels}
    return spec, test_pixels


def test_idx_test_pair_fills_the_test_split(tmp_path):
    spec, test_pixels = _idx_spec(tmp_path)
    ds = make_dataset(spec)
    assert ds.train_y.tolist() == [0, 1, 2, 3]
    assert ds.test_x.shape == (12, 784)
    assert ds.test_x.tobytes() == (test_pixels.astype(np.float64) / 255.0).tobytes()
    assert ds.test_y.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]
    assert ds.num_classes == 10  # the train labels alone reach only 3


def test_idx_run_reports_test_metrics(tmp_path):
    spec, _ = _idx_spec(tmp_path, train_count=32, test_count=10)
    raw = {"dataset": spec, "model": {"kind": "logreg"}, "optimizer": {"kind": "sgd", "minibatch_size": 8},
           "lr_policy": {"kind": "schedule", "variant": "constant", "lr": 0.1}, "epochs": 1, "seeds": [1], "out_dir": str(tmp_path / "out")}
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())["per_seed"][0]
    assert summary["final_test_loss"] is not None and summary["final_test_acc"] is not None


@pytest.mark.parametrize("model", [{"kind": "mlp", "hidden": [4]}, {"kind": "logreg"}])
def test_a_one_class_idx_dataset_is_config_error(tmp_path, model, capsys):
    # All labels 0: an mlp would get one softmax output, whose loss and gradient are 0.
    images, labels, _ = _write_idx_pair(str(tmp_path), count=64, rows=2, cols=2, classes=1)
    raw = {"dataset": {"kind": "idx", "images": images, "labels": labels}, "model": model,
           "optimizer": {"kind": "sgd", "minibatch_size": 8},
           "lr_policy": {"kind": "schedule", "variant": "constant", "lr": 0.1}, "epochs": 1, "seeds": [1],
           "out_dir": str(tmp_path / "out")}
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "needs at least 2 classes, not 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["test_images", "test_labels"])
def test_idx_test_file_alone_is_rejected(tmp_path, missing):
    spec, _ = _idx_spec(tmp_path)
    del spec[missing]
    with pytest.raises(InvalidArgumentError, match="test_images and test_labels together"):
        make_dataset(spec)


def test_idx_test_images_must_match_the_train_size(tmp_path):
    spec, _ = _idx_spec(tmp_path, test_rows=27)
    with pytest.raises(QuadtuneError, match=r"image size \(27, 28\) != train image size \(28, 28\)"):
        make_dataset(spec)


@pytest.mark.skipif("MNIST_DIR" not in os.environ, reason="set MNIST_DIR to run against real MNIST files")
def test_idx_real_mnist():
    base = os.environ["MNIST_DIR"]
    ds = load_idx(
        os.path.join(base, "train-images-idx3-ubyte"),
        os.path.join(base, "train-labels-idx1-ubyte"),
    )
    assert ds.train_x.shape == (60000, 784)
    assert ds.train_y.min() == 0
    assert ds.train_y.max() == 9
