"""Dataset generation, ingestion and label-manipulation protocols.

Every dataset carries a provenance record (seed, source, applied
transforms) sufficient to rebuild it exactly.  Image data lives in
[0, 1]; sequence tasks store inputs as (m, T, channels).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidArchitecture, PathGeoError
from .netgraph import NetworkGraph, predict

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    task: str = "classification"
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise InvalidArchitecture("datasets must hold at least one example")
        if len(self.inputs) != len(self.labels):
            raise FormatError(f"{len(self.inputs)} inputs vs {len(self.labels)} labels")

    def __len__(self):
        return len(self.inputs)

    @property
    def n_classes(self) -> int:
        if self.task != "classification":
            raise PathGeoError("n_classes is defined for classification tasks")
        return int(self.labels.max()) + 1

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        prov = dict(self.provenance)
        prov = {**prov, "transforms": prov.get("transforms", []) + [("subset", idx.tolist())]}
        return Dataset(self.inputs[idx], self.labels[idx], self.task, prov)

    def flat_inputs(self) -> np.ndarray:
        return self.inputs.reshape(len(self), -1)


# -- synthetic tasks ------------------------------------------------------------


def gen_addition(T: int, m: int, seed: int) -> Dataset:
    """Masked-sum regression task over pairs of sequence entries.

    Each example is a (T, 2) sequence: channel 0 holds uniform [0, 1]
    values, channel 1 a mask with exactly two ones at distinct positions;
    the target is the sum of the two marked values.  Predicting the mean
    target has mean squared error 2/12 = 1/6.
    """
    if T < 2:
        raise InvalidArchitecture("addition sequences need T >= 2")
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size=(m, T))
    masks = np.zeros((m, T))
    firsts = rng.integers(0, T, size=m)
    shifts = rng.integers(1, T, size=m)
    seconds = (firsts + shifts) % T
    rows = np.arange(m)
    masks[rows, firsts] = 1.0
    masks[rows, seconds] = 1.0
    targets = values[rows, firsts] + values[rows, seconds]
    inputs = np.stack([values, masks], axis=2)
    return Dataset(inputs, targets, task="regression", provenance={"source": "addition", "T": T, "m": m, "seed": seed, "transforms": []})


ADDITION_BASELINE_MSE = 1.0 / 6.0


def gen_cluster_images(m: int, seed: int, n_classes: int = 10, side: int = 28, noise: float = 0.35, blobs_per_class: int = 3) -> Dataset:
    """Synthetic grayscale image classes: smooth per-class templates plus noise.

    A stand-in for small digit benchmarks when no IDX files are on disk;
    classes are separable but not trivially so at the default noise level.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1.0)
    templates = np.zeros((n_classes, side, side))
    for c in range(n_classes):
        trng = np.random.default_rng([seed, 7919, c])
        for _ in range(blobs_per_class):
            cx, cy = trng.uniform(0.15, 0.85, size=2)
            sg = trng.uniform(0.08, 0.2)
            amp = trng.uniform(0.6, 1.0)
            templates[c] += amp * np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sg * sg)))
        templates[c] /= max(templates[c].max(), 1e-12)
    labels = rng.integers(0, n_classes, size=m)
    images = templates[labels] + noise * rng.standard_normal((m, side, side))
    images = np.clip(images, 0.0, 1.0)
    return Dataset(images, labels.astype(np.int64), task="classification", provenance={"source": "cluster_images", "m": m, "seed": seed, "n_classes": n_classes, "side": side, "noise": noise, "transforms": []})


# -- IDX files ------------------------------------------------------------------


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Standard big-endian IDX ingestion; pixels scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", fh.read(16))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}")
        raw = fh.read(n * rows * cols)
        if len(raw) != n * rows * cols:
            raise FormatError("image file truncated")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols) / 255.0
    with open(labels_path, "rb") as fh:
        magic, nl = struct.unpack(">II", fh.read(8))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}")
        raw = fh.read(nl)
        if len(raw) != nl:
            raise FormatError("label file truncated")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n != nl:
        raise FormatError(f"{n} images vs {nl} labels")
    return Dataset(images, labels, task="classification", provenance={"source": "idx", "images": str(images_path), "labels": str(labels_path), "transforms": []})


def save_mnist_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write images/labels back out in IDX layout (inverse of load_mnist_idx)."""
    images = np.clip(np.round(dataset.inputs * 255.0), 0, 255).astype(np.uint8)
    if images.ndim != 3:
        raise FormatError("IDX image export needs (m, rows, cols) data")
    m, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, m, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, m))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def mnist_or_synthetic(m: int, seed: int, mnist_dir: str | None = None, noise: float = 0.35) -> Dataset:
    """Real MNIST when IDX files are available, the synthetic stand-in otherwise.

    Looks in mnist_dir (or $PATHGEO_MNIST_DIR) for train-images-idx3-ubyte /
    train-labels-idx1-ubyte and draws a seeded subset of size m.  `noise`
    only affects the synthetic fallback.
    """
    mnist_dir = mnist_dir or os.environ.get("PATHGEO_MNIST_DIR")
    if mnist_dir:
        imgs = os.path.join(mnist_dir, "train-images-idx3-ubyte")
        labs = os.path.join(mnist_dir, "train-labels-idx1-ubyte")
        if os.path.exists(imgs) and os.path.exists(labs):
            full = load_mnist_idx(imgs, labs)
            rng = np.random.default_rng(seed)
            idx = rng.choice(len(full), size=min(m, len(full)), replace=False)
            return full.subset(idx)
    return gen_cluster_images(m, seed, noise=noise)


# -- transforms -------------------------------------------------------------------


def to_sequential(dataset: Dataset) -> Dataset:
    """Reshape image data to one-pixel-per-step sequences (m, H*W, 1).

    Full-length sequential training exceeds desk scale; the generator
    exists for completeness and small-crop experiments.
    """
    if dataset.inputs.ndim != 3:
        raise InvalidArchitecture("sequential conversion expects image data")
    m = len(dataset)
    seq = dataset.inputs.reshape(m, -1, 1)
    prov = {**dataset.provenance, "transforms": dataset.provenance.get("transforms", []) + [("to_sequential",)]}
    return Dataset(seq, dataset.labels.copy(), dataset.task, prov)


def downsample(dataset: Dataset, side: int = 10) -> Dataset:
    """Area-weighted block-mean downsampling of square images to side x side."""
    images = dataset.inputs
    if images.ndim != 3 or images.shape[1] != images.shape[2]:
        raise InvalidArchitecture("downsampling expects square image data")
    src = images.shape[1]
    A = _overlap_matrix(src, side)
    out = np.einsum("ij,mjk,lk->mil", A, images, A, optimize=True)
    prov = {**dataset.provenance, "transforms": dataset.provenance.get("transforms", []) + [("downsample", side)]}
    return Dataset(out, dataset.labels.copy(), dataset.task, prov)


def _overlap_matrix(src: int, dst: int) -> np.ndarray:
    """A[i, j] = fraction of target cell i covered by source cell j."""
    A = np.zeros((dst, src))
    ratio = src / dst
    for i in range(dst):
        lo, hi = i * ratio, (i + 1) * ratio
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), src)):
            A[i, j] = max(0.0, min(hi, j + 1) - max(lo, j))
    return A / ratio


def randomize_labels(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Resample floor(fraction * m) labels uniformly; indices go to provenance."""
    if not 0.0 <= fraction <= 1.0:
        raise InvalidArchitecture("fraction must lie in [0, 1]")
    m = len(dataset)
    k = int(np.floor(fraction * m))
    rng = np.random.default_rng(seed)
    labels = dataset.labels.copy()
    idx = rng.choice(m, size=k, replace=False)
    if k:
        labels[idx] = rng.integers(0, dataset.n_classes, size=k)
    prov = {**dataset.provenance, "transforms": dataset.provenance.get("transforms", []) + [("randomize_labels", fraction, seed, sorted(idx.tolist()))]}
    return Dataset(dataset.inputs.copy(), labels, dataset.task, prov)


def censor_labels(dataset: Dataset, net: NetworkGraph, theta: np.ndarray) -> Dataset:
    """Replace every label with the argmax prediction of the given net.

    The resulting labels are recorded in provenance, so rebuilds do not
    need the censoring network itself.
    """
    scores = predict(net, theta, dataset.flat_inputs())
    labels = scores.argmax(axis=1).astype(np.int64)
    prov = {**dataset.provenance, "transforms": dataset.provenance.get("transforms", []) + [("censor", labels.tolist())]}
    return Dataset(dataset.inputs.copy(), labels, dataset.task, prov)


def confusion_union(train: Dataset, pool: Dataset, confusion_size: int, seed: int) -> Dataset:
    """Union of the training set with randomly labeled pool samples.

    Confusion members are flagged in provenance["confusion_mask"]; the pool's
    own provenance rides along so the union can be rebuilt.
    """
    if confusion_size > len(pool):
        raise InvalidArchitecture("confusion set larger than the pool")
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(train) + confusion_size, dtype=bool)
    if confusion_size == 0:
        prov = {**train.provenance, "transforms": train.provenance.get("transforms", []) + [("confusion_union", 0, seed, pool.provenance)], "confusion_mask": mask.tolist()}
        return Dataset(train.inputs.copy(), train.labels.copy(), train.task, prov)
    idx = rng.choice(len(pool), size=confusion_size, replace=False)
    conf_inputs = pool.inputs[idx]
    conf_labels = rng.integers(0, train.n_classes, size=confusion_size)
    inputs = np.concatenate([train.inputs, conf_inputs], axis=0)
    labels = np.concatenate([train.labels, conf_labels])
    mask[len(train):] = True
    prov = {**train.provenance, "transforms": train.provenance.get("transforms", []) + [("confusion_union", confusion_size, seed, pool.provenance)], "confusion_mask": mask.tolist()}
    return Dataset(inputs, labels, train.task, prov)


def minibatches(dataset: Dataset, batch_size: int, seed: int, epoch: int):
    """Index arrays for one epoch: a fixed permutation per (seed, epoch)."""
    if batch_size < 1:
        raise InvalidArchitecture("batch size must be >= 1")
    perm = np.random.default_rng([seed, epoch]).permutation(len(dataset))
    return [perm[i : i + batch_size] for i in range(0, len(dataset), batch_size)]


def rebuild_from_provenance(provenance: dict) -> Dataset:
    """Reconstruct a dataset from its provenance record alone."""
    src = provenance.get("source")
    if src == "cluster_images":
        ds = gen_cluster_images(provenance["m"], provenance["seed"], n_classes=provenance["n_classes"], side=provenance["side"], noise=provenance["noise"])
    elif src == "addition":
        ds = gen_addition(provenance["T"], provenance["m"], provenance["seed"])
    elif src == "idx":
        ds = load_mnist_idx(provenance["images"], provenance["labels"])
    else:
        raise FormatError(f"cannot rebuild from source {src!r}")
    for t in provenance.get("transforms", []):
        name = t[0]
        if name == "downsample":
            ds = downsample(ds, t[1])
        elif name == "randomize_labels":
            ds = randomize_labels(ds, t[1], t[2])
        elif name == "subset":
            ds = ds.subset(np.asarray(t[1]))
        elif name == "to_sequential":
            ds = to_sequential(ds)
        elif name == "censor":
            ds = Dataset(ds.inputs.copy(), np.asarray(t[1], dtype=np.int64), ds.task,
                         {**ds.provenance, "transforms": ds.provenance.get("transforms", []) + [tuple(t)]})
        elif name == "confusion_union":
            pool = rebuild_from_provenance(t[3])
            ds = confusion_union(ds, pool, t[1], t[2])
        else:
            raise FormatError(f"cannot rebuild transform {name!r}")
    return ds


# -- manifests --------------------------------------------------------------------


def dataset_from_manifest(manifest: dict) -> Dataset:
    """Build a dataset from a JSON-style manifest; see the CLI docs."""
    kind = manifest.get("kind")
    if kind == "addition":
        ds = gen_addition(manifest["T"], manifest["m"], manifest["seed"])
    elif kind == "cluster_images":
        ds = gen_cluster_images(
            manifest["m"], manifest["seed"],
            n_classes=manifest.get("n_classes", 10),
            side=manifest.get("side", 28),
            noise=manifest.get("noise", 0.35),
        )
    elif kind == "mnist_idx":
        ds = load_mnist_idx(manifest["images"], manifest["labels"])
        if "m" in manifest:
            rng = np.random.default_rng(manifest.get("seed", 0))
            ds = ds.subset(rng.choice(len(ds), size=manifest["m"], replace=False))
    elif kind == "mnist_or_synthetic":
        ds = mnist_or_synthetic(manifest["m"], manifest["seed"], manifest.get("dir"))
    else:
        raise FormatError(f"unknown dataset kind {kind!r}")
    for t in manifest.get("transforms", []):
        name = t[0] if isinstance(t, (list, tuple)) else t["op"]
        args = t[1:] if isinstance(t, (list, tuple)) else t.get("args", [])
        if name == "downsample":
            ds = downsample(ds, *args)
        elif name == "randomize_labels":
            ds = randomize_labels(ds, *args)
        else:
            raise FormatError(f"unknown transform {name!r}")
    return ds
