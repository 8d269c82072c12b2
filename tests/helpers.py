"""Parameter packing, readers and a binary writer that only the tests use."""

import csv
import json
import struct

import numpy as np

from diffdistill.io import BINARY_MAGIC, BINARY_VERSION, EmbeddingTable, FormatError
from diffdistill.training import EncoderParams


def flatten_params(params: EncoderParams) -> np.ndarray:
    return np.concatenate([a.ravel() for W, b in params.layers for a in (W, b)])


def unflatten_params(flat: np.ndarray, template: EncoderParams) -> EncoderParams:
    layers, pos = [], 0
    for W, b in template.layers:
        nW, nb = W.size, b.size
        layers.append(
            (flat[pos : pos + nW].reshape(W.shape).copy(), flat[pos + nW : pos + nW + nb].copy())
        )
        pos += nW + nb
    return EncoderParams(layers=tuple(layers))


def read_similarity_csv(path) -> dict[tuple[int, int], float]:
    """Refined similarities keyed by (i, j); later blocks overwrite earlier ones."""
    out: dict[tuple[int, int], float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        rows = [r for r in csv.reader(line for line in handle if not line.startswith("#")) if r]
    if not rows or rows[0] != ["batch", "i", "j", "value"]:
        raise FormatError(f"{path}: expected header batch,i,j,value")
    for row in rows[1:]:
        out[(int(row[1]), int(row[2]))] = float(row[3])
    return out


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_embeddings_binary(path, table: EmbeddingTable) -> None:
    """An OBSD embedding file in the layout `diffdistill.io` reads."""
    labels = np.asarray(table.labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) > np.iinfo(np.uint32).max:
        raise FormatError("labels must fit in uint32")
    with open(path, "wb") as handle:
        handle.write(BINARY_MAGIC + struct.pack("<HII", BINARY_VERSION, *table.vectors.shape))
        handle.write(table.vectors.astype("<f4").tobytes(order="C"))
        handle.write(labels.astype("<u4").tobytes())
