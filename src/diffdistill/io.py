"""On-disk formats: embedding tables (CSV and binary), similarity files, reports.

Text embeddings are CSV with header ``id,label,e0,...,e{d-1}`` (UTF-8, string
ids, nonnegative integer labels, decimal float coordinates). Binary embeddings
are magic ``OBSD``, version u16 LE, u32 n, u32 d, n*d float32 LE row-major,
then n uint32 labels. Readers skip leading ``#`` comment lines in CSVs; CSV
artifacts written by the CLI carry a ``# config_hash=...`` first line. All
writes stream into a temp file that is renamed over the target on success.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import struct
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

BINARY_MAGIC = b"OBSD"
BINARY_VERSION = 1
FORMAT_SPAN_ROWS = 64
PARALLEL_FORMAT_VALUES = 1 << 20


class FormatError(ValueError):
    """Raised when a file does not match its declared format."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Raw embedding rows as stored on disk (not necessarily unit-norm)."""

    ids: list[str]
    labels: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@contextmanager
def _atomic_open(path: str | Path, binary: bool = False):
    """Yield a handle on a temp file beside `path`, renamed over `path` on success.

    On any exception the temp file is removed and `path` is left as it was. The
    file gets mode 0o666 less the umask; text is UTF-8, newlines untranslated.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8", newline="") as handle:
            umask = os.umask(0)  # the only portable way to read the umask
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield handle
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _row_text(prefix: str, middles: list[str], values: list[float]) -> str:
    """One line per value, `prefix + middle + repr(value)`."""
    return prefix + ("\n" + prefix).join(map(operator.add, middles, map(repr, values))) + "\n"


def write_csv_rows(path: str | Path, rows, config_hash: str) -> None:
    """Comma-joined `str` cells, one row per line, after a ``# config_hash=...`` line."""
    with _atomic_open(path) as handle:
        handle.write(f"# config_hash={config_hash}\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")


def _expected_header(dim: int) -> list[str]:
    return ["id", "label"] + [f"e{i}" for i in range(dim)]


def write_embeddings_csv(
    path: str | Path, table: EmbeddingTable, config_hash: str | None = None
) -> None:
    with _atomic_open(path) as handle:
        if config_hash is not None:
            handle.write(f"# config_hash={config_hash}\n")
        handle.write(",".join(_expected_header(table.dim)) + "\n")
        for sid, label, row in zip(table.ids, table.labels, table.vectors):
            handle.write(f"{sid},{int(label)}," + ",".join(map(repr, row.tolist())) + "\n")


def read_embeddings_csv(path: str | Path) -> EmbeddingTable:
    with open(path, "r", encoding="utf-8") as handle:
        rows = [r for r in csv.reader(line for line in handle if not line.startswith("#")) if r]
    if not rows:
        raise FormatError(f"{path}: empty embedding file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise FormatError(f"{path}: header must start with id,label,e0,...")
    dim = len(header) - 2
    if header[2:] != [f"e{i}" for i in range(dim)]:
        raise FormatError(f"{path}: coordinate columns must be e0,...,e{dim - 1}")
    ids, labels, vectors = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        ids.append(row[0])
        try:
            label = int(row[1])
            coords = [float(x) for x in row[2:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if label < 0:
            raise FormatError(f"{path}:{lineno}: label must be nonnegative")
        labels.append(label)
        vectors.append(coords)
    return EmbeddingTable(
        ids=ids, labels=np.asarray(labels, dtype=np.int64), vectors=np.asarray(vectors, dtype=np.float64)
    )


def write_embeddings_binary(path: str | Path, table: EmbeddingTable) -> None:
    labels = np.asarray(table.labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) > np.iinfo(np.uint32).max:
        raise FormatError("labels must fit in uint32")
    with _atomic_open(path, binary=True) as handle:
        handle.write(BINARY_MAGIC + struct.pack("<HII", BINARY_VERSION, *table.vectors.shape))
        handle.write(table.vectors.astype("<f4").tobytes(order="C"))
        handle.write(labels.astype("<u4").tobytes())


def read_embeddings_binary(path: str | Path) -> EmbeddingTable:
    blob = Path(path).read_bytes()
    head = len(BINARY_MAGIC) + struct.calcsize("<HII")
    if len(blob) < head or blob[:4] != BINARY_MAGIC:
        raise FormatError(f"{path}: not a {BINARY_MAGIC.decode()} embedding file")
    version, n, d = struct.unpack_from("<HII", blob, 4)
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    need = head + 4 * n * d + 4 * n
    if len(blob) < need:
        raise FormatError(f"{path}: truncated payload (need {need} bytes, have {len(blob)})")
    vectors = np.frombuffer(blob, dtype="<f4", count=n * d, offset=head).reshape(n, d)
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=head + 4 * n * d)
    return EmbeddingTable(
        ids=[str(i) for i in range(n)],
        labels=labels.astype(np.int64),
        vectors=vectors.astype(np.float64),
    )


def read_embeddings_auto(path: str | Path) -> EmbeddingTable:
    """Dispatch on the binary magic; anything else is parsed as CSV."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic == BINARY_MAGIC:
        return read_embeddings_binary(path)
    return read_embeddings_csv(path)


def write_similarity_csv(
    path: str | Path,
    blocks: list[tuple[int, np.ndarray, np.ndarray]],
    config_hash: str,
) -> None:
    """Long-form refined similarities: one (batch, i, j, value) row per pair.

    `blocks` holds (batch_index, global_row_indices, matrix) triples; i and j
    are row indices of the input embedding file. Streams FORMAT_SPAN_ROWS matrix
    rows per write; a block of PARALLEL_FORMAT_VALUES or more values is
    formatted on every CPU in the affinity mask (`_write_spans`).
    """
    with _atomic_open(path) as handle:
        handle.write(f"# config_hash={config_hash}\nbatch,i,j,value\n")
        for batch_index, indices, matrix in blocks:
            indices = indices.tolist()
            prefixes = [f"{batch_index},{gi}" for gi in indices]
            _write_spans(handle, prefixes, [f",{gj}," for gj in indices], matrix)


def _format_span(rows, span: tuple[int, int]) -> str:
    """The lines of matrix rows span[0]:span[1] of a (prefixes, middles, matrix) block."""
    prefixes, middles, matrix = rows
    start, stop = span
    return "".join(map(_row_text, prefixes[start:stop], repeat(middles), matrix[start:stop].tolist()))


_forked_rows = None  # set only inside a pool worker, to the one block its pool formats


def _adopt_rows(rows, parent: int) -> None:
    """Pool initializer: keep the block; exit once the parent process is gone.

    A forked worker holds both ends of the task queue, so it never sees EOF
    there; without the watchdog a killed parent would leave it blocked forever.
    """
    global _forked_rows
    _forked_rows = rows
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _format_forked_span(span: tuple[int, int]) -> str:
    return _format_span(_forked_rows, span)


def _write_spans(handle, prefixes: list[str], middles: list[str], matrix: np.ndarray) -> None:
    """Write `_format_span` of every FORMAT_SPAN_ROWS rows of the block, in order.

    `float.__repr__` dominates the cost and spans are independent, so a large
    block is formatted in a pool of one process per CPU in the affinity mask;
    the bytes do not depend on the worker count. The workers are forked and
    inherit the block, so the matrix is never pickled. At most 2 x workers
    spans are in flight, so formatted text waiting to be written stays bounded.
    """
    rows, n = (prefixes, middles, matrix), len(prefixes)
    spans = [(start, min(start + FORMAT_SPAN_ROWS, n)) for start in range(0, n, FORMAT_SPAN_ROWS)]
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if matrix.size >= PARALLEL_FORMAT_VALUES and workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, context, _adopt_rows, (rows, os.getpid())) as pool:
                pending = deque()
                for span in spans:
                    pending.append(pool.submit(_format_forked_span, span))
                    if len(pending) == 2 * workers:
                        handle.write(pending.popleft().result())
                for future in pending:
                    handle.write(future.result())
            return
    handle.writelines(map(partial(_format_span, rows), spans))


def read_similarity_csv(path: str | Path) -> dict[tuple[int, int], float]:
    """Refined similarities keyed by (i, j); later blocks overwrite earlier ones."""
    out: dict[tuple[int, int], float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        rows = [r for r in csv.reader(line for line in handle if not line.startswith("#")) if r]
    if not rows or rows[0] != ["batch", "i", "j", "value"]:
        raise FormatError(f"{path}: expected header batch,i,j,value")
    for row in rows[1:]:
        out[(int(row[1]), int(row[2]))] = float(row[3])
    return out


def write_neighbors_csv(
    path: str | Path, blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], config_hash: str
) -> None:
    """Re-ranked neighbor lists: row index, rank (1-based), neighbor index, score.

    `blocks` holds (row_indices, neighbor_indices, scores) triples; the last two
    are (rows, top) arrays in rank order. Streams one row's list per write.
    """
    with _atomic_open(path) as handle:
        handle.write(f"# config_hash={config_hash}\ni,rank,neighbor,score\n")
        for indices, neighbors, scores in blocks:
            for gi, row_neighbors, row_scores in zip(indices.tolist(), neighbors.tolist(), scores.tolist()):
                middles = [f",{rank},{j}," for rank, j in enumerate(row_neighbors, start=1)]
                handle.write(_row_text(str(gi), middles, row_scores))


def write_json(path: str | Path, payload: dict) -> None:
    with _atomic_open(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
