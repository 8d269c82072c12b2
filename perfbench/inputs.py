"""Benchmark inputs, made from the workload seed alone.

Embeddings are Gaussian clusters around unit-norm class centres, written by
this module's own CSV and OBSD writers (never by ``diffdistill.io``), so a
change to the program's I/O code cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# 200 classes x 10 samples in 16 dimensions: the n = 2000 size of the eval and
# diffuse workloads. The spread puts Recall@1 near 0.8, far from both 0 and 1,
# so a quality regression shows.
N_CLASSES = 200
PER_CLASS = 10
DIM = 16
SPREAD = 0.18


@dataclass(frozen=True)
class Embeddings:
    vectors: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def gaussian_clusters(
    seed: int, index: int = 0, n_classes: int = N_CLASSES, per_class: int = PER_CLASS,
    dim: int = DIM, spread: float = SPREAD,
) -> Embeddings:
    """Class-sorted Gaussian clusters, input set `index` of workload seed `seed`.

    The same (seed, index) gives the same array bytes.
    """
    rng = np.random.default_rng([seed, index])
    centers = rng.standard_normal((n_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    vectors = centers[labels] + spread * rng.standard_normal((labels.size, dim))
    return Embeddings(vectors=vectors, labels=labels)


def write_csv(path: Path, emb: Embeddings) -> None:
    """``id,label,e0..e{d-1}`` with round-trip ``repr`` floats."""
    dim = emb.vectors.shape[1]
    lines = ["id,label," + ",".join(f"e{i}" for i in range(dim))]
    for i, (label, row) in enumerate(zip(emb.labels.tolist(), emb.vectors.tolist())):
        lines.append(f"{i},{label}," + ",".join(repr(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_obsd(path: Path, emb: Embeddings) -> None:
    """Magic ``OBSD``, u16 version 1, u32 n, u32 d, float32 rows, uint32 labels."""
    n, d = emb.vectors.shape
    payload = b"OBSD" + struct.pack("<HII", 1, n, d)
    payload += emb.vectors.astype("<f4").tobytes(order="C")
    payload += emb.labels.astype("<u4").tobytes()
    path.write_bytes(payload)


def as_float32(emb: Embeddings) -> Embeddings:
    """The values a reader of the OBSD file sees."""
    return Embeddings(emb.vectors.astype(np.float32).astype(np.float64), emb.labels)


def describe(path: Path, n: int, d: int, classes: int) -> dict:
    """The input record a result carries: sha256, n, d and class count."""
    return {
        "file": path.name,
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "bytes": path.stat().st_size,
        "n": n,
        "d": d,
        "classes": classes,
    }


def train_config(default_text: str, overrides: dict) -> str:
    """The program's emitted default config with some keys replaced."""
    out, seen = [], set()
    for line in default_text.splitlines():
        key = line.partition("=")[0].strip()
        if not line.lstrip().startswith("#") and key in overrides:
            out.append(f"{key} = {overrides[key]}")
            seen.add(key)
        else:
            out.append(line)
    missing = set(overrides) - seen
    if missing:
        raise ValueError(f"default config lacks key(s) {sorted(missing)}")
    return "\n".join(out) + "\n"
