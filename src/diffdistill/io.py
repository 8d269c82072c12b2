"""On-disk formats: embedding tables (CSV and binary), similarity files, reports.

Text embeddings are CSV with header ``id,label,e0,...,e{d-1}`` (UTF-8, string
ids, nonnegative integer labels, decimal float coordinates). Binary embeddings
are magic ``OBSD``, version u16 LE, u32 n, u32 d, n*d float32 LE row-major,
then n uint32 labels, and nothing after them. Readers skip leading ``#``
comment lines in CSVs; CSV artifacts written by the CLI carry a
``# config_hash=...`` first line. All writes stream into a temp file that is
renamed over the target on success.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

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
        # a comment becomes a blank line, so line_num stays the file's line number
        reader = csv.reader("\n" if line.startswith("#") else line for line in handle)
        rows = [(reader.line_num, r) for r in reader if r]
    if not rows:
        raise FormatError(f"{path}: empty embedding file")
    header = [h.strip() for h in rows[0][1]]
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise FormatError(f"{path}: header must start with id,label,e0,...")
    dim = len(header) - 2
    if header[2:] != [f"e{i}" for i in range(dim)]:
        raise FormatError(f"{path}: coordinate columns must be e0,...,e{dim - 1}")
    ids, labels, vectors = [], [], []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        ids.append(row[0])
        try:
            label = int(row[1])
            coords = [float(x) for x in row[2:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= label <= np.iinfo(np.int64).max:
            raise FormatError(f"{path}:{lineno}: label must lie in [0, 2**63 - 1]")
        labels.append(label)
        vectors.append(coords)
    return EmbeddingTable(
        ids=ids, labels=np.asarray(labels, dtype=np.int64), vectors=np.asarray(vectors, dtype=np.float64)
    )


def read_embeddings_binary(path: str | Path) -> EmbeddingTable:
    blob = Path(path).read_bytes()
    head = len(BINARY_MAGIC) + struct.calcsize("<HII")
    if len(blob) < head or blob[:4] != BINARY_MAGIC:
        raise FormatError(f"{path}: not a {BINARY_MAGIC.decode()} embedding file")
    version, n, d = struct.unpack_from("<HII", blob, 4)
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    need = head + 4 * n * d + 4 * n
    if len(blob) != need:
        problem = "truncated payload" if len(blob) < need else "trailing bytes after the labels"
        raise FormatError(f"{path}: {problem} (need {need} bytes, have {len(blob)})")
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
    are row indices of the input embedding file, and the square matrix is an
    ndarray or anything whose row slices give ndarray rows (a factored global
    result, which then computes each span's rows where it is formatted).
    Values are written as `repr` writes them. Streams FORMAT_SPAN_ROWS matrix
    rows per write; spans are independent, so a block of
    PARALLEL_FORMAT_VALUES or more values is formatted through `fork_map`. The
    bytes do not depend on the worker count.
    """
    with _atomic_open(path, binary=True) as handle:
        handle.write(f"# config_hash={config_hash}\nbatch,i,j,value\n".encode())
        for batch_index, indices, matrix in blocks:
            n, index = len(indices), _int_text(indices)
            rows = (_join(_int_text([batch_index]), _COMMA, index, _COMMA), _join(index, _COMMA), matrix)
            spans = [(start, min(start + FORMAT_SPAN_ROWS, n)) for start in range(0, n, FORMAT_SPAN_ROWS)]
            mapper = fork_map if n * n >= PARALLEL_FORMAT_VALUES else map
            handle.writelines(mapper(partial(_format_span, rows), spans))


def _format_span(rows, span: tuple[int, int]) -> bytes:
    """The lines of matrix rows span[0]:span[1] of a (row heads, column heads, matrix) block."""
    heads, columns, matrix = rows
    start, stop = span
    heads, values = heads[start:stop, None], matrix[start:stop]
    step = max(1, _PASS_VALUES // len(columns))
    return b"".join(_lines(values[a : a + step], heads[a : a + step], columns) for a in range(0, stop - start, step))


# ---------------------------------------------------------------------------
# lines of text built as numpy arrays of ASCII bytes, each field NUL-padded to
# a fixed width; `_lines` drops the padding. Floats are written as `repr`
# writes them, from Schubfach's shortest round-trip digits (R. Giulietti, "The
# Schubfach way to render doubles", 2020) in 64-bit integer arithmetic.

_PASS_VALUES = 1 << 14  # values per numpy pass, so the temporaries stay in cache
_REPR_WIDTH = 31  # sign and "0.000", 17 digits and a point, a ".0" zero, "e-308", a NUL
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
_ROWS = np.arange(18, dtype=np.uint8)[:, None]
_COMMA = np.frombuffer(b",", np.uint8)
_LOW32 = (1 << 32) - 1
_LOW63 = (1 << 63) - 1
_ONE_BITS = 0x3FF0000000000000  # 1.0, standing in for the values repr writes itself


class _Tables(NamedTuple):
    k: np.ndarray  # per exponent row: the decimal scale 10**k of the digits
    h: np.ndarray  # q + floor(log2(10**-k)) + 2, so (x << h) * g / 2**127 ~ x * 2**q / 10**k
    g1: np.ndarray  # g = g1 * 2**63 + g0 = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1
    g0: np.ndarray
    exponents: np.ndarray  # columns: "e-324" ... "e+308", then none


@cache
def _tables() -> _Tables:
    """The formatter's tables, built on first use.

    Row 2 * e + p serves the doubles c * 2**q of biased exponent e (q = e - 1075),
    with p = 1 for a power of two above the smallest normal, whose rounding
    interval reaches half as far below it as above. k is floor(log10) of
    the interval's width, 2**q, or 3/4 2**q when p = 1.
    """
    rows, g = [], {}
    for biased in range(2048):
        q = biased - 1075
        for power in (0, 1):
            num, den = (4 - power) << max(q, 0), 4 << max(-q, 0)
            k = len(str(num)) - len(str(den))
            k -= num * 10 ** max(-k, 0) < den * 10 ** max(k, 0)  # floor(log10(num / den))
            e = (10**-k).bit_length() - 1 if k <= 0 else -(10**k).bit_length()  # floor(log2(10**-k))
            if k not in g:
                g[k] = (10 ** max(-k, 0) << max(125 - e, 0)) // (10 ** max(k, 0) << max(e - 125, 0)) + 1
            rows.append((k, q + e + 2, g[k] >> 63, g[k] & _LOW63))
    k, h, g1, g0 = zip(*rows)
    return _Tables(
        k=np.array(k, dtype=np.int64),
        h=np.array(h, dtype=np.uint64),
        g1=np.array(g1, dtype=np.uint64),
        g0=np.array(g0, dtype=np.uint64),
        exponents=_ascii([b"e%+03d" % e for e in range(-324, 309)] + [b""], 5).T.copy(),
    )


def _ascii(texts: list[bytes], width: int) -> np.ndarray:
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


def _join(*texts: np.ndarray) -> np.ndarray:
    """Texts side by side, their leading axes broadcast together, as NUL-padded 8-byte words."""
    shape = np.broadcast_shapes(*(t.shape[:-1] for t in texts))
    texts += (np.zeros(-sum(t.shape[-1] for t in texts) % 8, np.uint8),)
    joined = np.concatenate([np.broadcast_to(t, shape + t.shape[-1:]) for t in texts], axis=-1)
    return np.ascontiguousarray(joined).view(np.uint64)


def _lines(values: np.ndarray, *heads: np.ndarray) -> bytes:
    """One line per value: the heads' text for its position, then repr(value), then a newline.

    The heads are `_join` words that broadcast against values' shape.
    """
    start = sum(head.shape[-1] for head in heads)
    line = np.empty((values.size, start + 4), np.uint64)
    grid, at = line.reshape(values.shape + line.shape[-1:]), 0
    for head in heads:
        grid[..., at : at + head.shape[-1]] = head
        at += head.shape[-1]
    text = line.view(np.uint8)
    _repr_text(np.ascontiguousarray(values, dtype=np.float64).ravel(), text[:, 8 * start : -1])
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def _int_text(ints) -> np.ndarray:
    """Integers in [0, 10**18) as right-aligned text, as wide as the largest."""
    ints = np.asarray(ints, dtype=np.uint64)
    width = len(str(int(ints.max(initial=0))))
    text = _digit_rows(ints.ravel(), width)
    text[:-1] *= ints.ravel() >= _POW10[width - 1 : 0 : -1, None]  # no leading zeros
    return text.T.reshape(ints.shape + (width,))


def _digit_rows(x: np.ndarray, count: int) -> np.ndarray:
    """The last `count` decimal digits of each x as ASCII, one row per digit, most significant first."""
    rows = np.empty((count, len(x)), np.uint8)
    for row in range(count - 1, -1, -1):
        rest = x // 10
        rows[row] = x - rest * 10 + ord("0")
        x = rest
    return rows


def _repr_text(values: np.ndarray, out: np.ndarray) -> None:
    """Write repr(float(x)) of each float64 value into a row of out, (len(values), _REPR_WIDTH).

    Regular doubles are laid out from their shortest digits as Python lays them
    out: positional for 1e-4 <= |x| < 1e16, else d.ddde+XX. Zero, subnormals
    and non-finite values take repr itself: Schubfach as published finds a
    subnormal's digits on a path of its own (without it, 7.9e-323 where repr
    gives 8e-323), and they are rare. The text is built one byte position per
    row, so every numpy pass runs over all values.
    """
    tables, bits = _tables(), values.view(np.uint64)
    biased = bits >> 52 & 0x7FF
    regular = (biased != 0) & (biased != 0x7FF)
    f, k = _shortest_digits(np.where(regular, bits, _ONE_BITS))
    short = f < 10**16  # in [4.5e15, 9.1e16): c >= 2**52, 10**k <= the interval's width < 10**(k+1)
    point = k + 17 - short  # the value is 0.d1d2...d17 * 10**point
    f = np.where(short, f * 10, f)
    high = f // 10**8
    digits = np.concatenate(
        [_digit_rows(high.astype(np.uint32), 9), _digit_rows((f - high * 10**8).astype(np.uint32), 8)]
    )
    significant = ((digits != ord("0")) * _ROWS[1:]).max(axis=0)
    exponent = (point < -3) | (point > 16)
    small = ~exponent & (point < 1)  # "0." and up to three zeros come first
    shown = np.where(exponent | small, significant, np.maximum(significant, point)).astype(np.uint8)
    dot = np.where(exponent, np.where(significant > 1, 1, 18), np.where(small, 18, point)).astype(np.uint8)
    area = np.zeros((19, len(values)), np.uint8)  # NUL, the shown digits, NUL
    np.multiply(digits, _ROWS[:17] < shown, out=area[1:18])
    text = np.empty((_REPR_WIDTH, len(values)), np.uint8)  # one row per byte position
    text[0] = (bits >> 63) * ord("-")
    text[1], text[2] = small * ord("0"), small * ord(".")
    text[3:6] = (_ROWS[:3] < (small * -point).astype(np.uint8)) * np.uint8(ord("0"))
    text[6:24] = area[1:] * (_ROWS < dot) + area[:-1] * (_ROWS > dot) + (_ROWS == dot) * np.uint8(ord("."))
    text[24] = (~exponent & (point >= significant)) * ord("0")
    text[25:30] = np.take(tables.exponents, np.where(exponent, point + 323, -1), axis=1)
    text[30] = 0
    out[...] = text.T
    if not regular.all():
        odd = np.flatnonzero(~regular)
        out[odd] = _ascii([repr(x).encode() for x in values[odd].tolist()], _REPR_WIDTH)


def _shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach: (f, k) per normal double, f * 10**k its shortest round-trip decimal.

    Of two shortest decimals in the rounding interval the closer is taken, ties
    to an even f, as repr takes them.
    """
    biased, fraction = bits >> 52 & 0x7FF, bits & (1 << 52) - 1
    irregular = (fraction == 0) & (biased > 1)  # a power of two: the interval is narrower below
    row = (biased << 1 | irregular).astype(np.intp)
    tables = _tables()
    k, h, g1, g0 = tables.k[row], tables.h[row], tables.g1[row], tables.g0[row]
    g = (g1, g1 >> 32, g1 & _LOW32, g0 >> 32, g0 & _LOW32)
    c = fraction | 1 << 52  # the value is c * 2**q
    cb, odd = c << 2, c & 1  # the rounding interval includes its ends for even c
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - 2 + irregular << h)
    vbr = _rop(g, cb + 2 << h)
    s = vb >> 2
    lower, upper = vbl + odd <= s << 2, (s + 1 << 2) + odd <= vbr
    twice_mid = s + s + 1 << 1
    closer_up = (vb > twice_mid) | (vb == twice_mid) & (s & 1 == 1)
    f = s + (upper & (~lower | closer_up))  # the one of s, s + 1 inside, or the closer
    s10 = s // 10 * 10
    lower10, upper10 = vbl + odd <= s10 << 2, (s10 + 10 << 2) + odd <= vbr
    np.copyto(f, np.where(upper10, s10 + 10, s10), where=lower10 != upper10)  # one digit fewer
    return f, k


def _rop(g: tuple, cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2**127), its last bit set when inexact, for g = g1 * 2**63 + g0."""
    g1, g1_high, g1_low, g0_high, g0_low = g
    cp_high, cp_low = cp >> 32, cp & _LOW32
    z = (g1 * cp >> 1) + _mul_high(g0_high, g0_low, cp_high, cp_low)  # g1 * cp wraps to its low 64 bits
    vbp = _mul_high(g1_high, g1_low, cp_high, cp_low) + (z >> 63)
    return vbp | (z & _LOW63) + _LOW63 >> 63


def _mul_high(a_high, a_low, b_high, b_low) -> np.ndarray:
    """The high 64 bits of the 128-bit product a * b, from the 32-bit halves of a and b."""
    low, cross1, cross2 = a_low * b_low, a_low * b_high, a_high * b_low
    middle = (low >> 32) + (cross1 & _LOW32) + (cross2 & _LOW32)
    return a_high * b_high + (cross1 >> 32) + (cross2 >> 32) + (middle >> 32)


def affinity_cpus() -> int:
    """The CPUs in this process's affinity mask (1 where the mask is not available)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def _forked_pool(fn, workers: int):
    """A pool of `workers` processes forked from this one, each holding `fn`; None when serial.

    Serial means one worker or no `fork` start method. The workers inherit
    `fn` through fork, so only items and results are pickled.
    """
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(workers, context, _adopt, (fn, os.getpid()))
            try:
                yield pool
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield None


def fork_map(fn, items):
    """Yield fn(item) for every item, in order, on every CPU in the affinity mask.

    Runs min(len(items), affinity CPUs) forked workers, or builtin `map` when
    that is 1 or `fork` is unavailable. At most 2 x workers items are in
    flight, so results waiting to be consumed stay bounded.
    """
    items = list(items)
    workers = min(len(items), affinity_cpus())
    with _forked_pool(fn, workers) as pool:
        if pool is None:
            yield from map(fn, items)
            return
        pending = deque()
        for item in items:
            pending.append(pool.submit(_call_adopted, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def fork_chains(fn, firsts, follow):
    """Yield [fn(first), fn(follow(first, out)), ...] per chain, in chain order.

    A chain ends where `follow(item, fn(item))` returns None. Runs on
    min(len(firsts), affinity CPUs) forked workers, or serially in this
    process. Every chain's first item is submitted at once and each next item
    when the one before it returns, so the links of different chains fill the
    workers. A chain that raises raises here once every chain before it has
    been yielded, as it would serially.
    """
    firsts = list(firsts)
    with _forked_pool(fn, min(len(firsts), affinity_cpus())) as pool:
        if pool is None:
            for item in firsts:
                outs = []
                while item is not None:
                    outs.append(fn(item))
                    item = follow(item, outs[-1])
                yield outs
            return
        from concurrent.futures import FIRST_COMPLETED, wait

        outs, finished = [[] for _ in firsts], {}  # finished: chain -> its exception or None
        running = {pool.submit(_call_adopted, item): (chain, item) for chain, item in enumerate(firsts)}
        for head in range(len(firsts)):
            while head not in finished:
                for future in wait(running, return_when=FIRST_COMPLETED).done:
                    chain, item = running.pop(future)
                    error = future.exception()
                    if error is None:
                        outs[chain].append(future.result())
                        item = follow(item, outs[chain][-1])
                    if error is None and item is not None:
                        running[pool.submit(_call_adopted, item)] = (chain, item)
                    else:
                        finished[chain] = error
            if finished[head] is not None:
                raise finished[head]
            yield outs[head]
            outs[head] = None


_adopted_fn = None  # set only inside a forked pool worker, to the function its pool maps


def _adopt(fn, parent: int) -> None:
    """Pool initializer: keep `fn`; exit once the parent process is gone.

    A forked worker holds both ends of the task queue, so it never sees EOF
    there; without the watchdog a killed parent would leave it blocked forever.
    """
    global _adopted_fn
    _adopted_fn = fn
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _call_adopted(item):
    return _adopted_fn(item)


def write_neighbors_csv(
    path: str | Path, blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], config_hash: str
) -> None:
    """Re-ranked neighbor lists: row index, rank (1-based), neighbor index, score.

    `blocks` holds (row_indices, neighbor_indices, scores) triples; the last two
    are (rows, top) arrays in rank order. Scores are written as `repr` writes them.
    """
    with _atomic_open(path, binary=True) as handle:
        handle.write(f"# config_hash={config_hash}\ni,rank,neighbor,score\n".encode())
        for indices, neighbors, scores in blocks:
            top = neighbors.shape[1]
            heads = _join(_int_text(indices), _COMMA)
            ranks = _join(_int_text(np.arange(1, top + 1)), _COMMA)
            columns = _join(_int_text(neighbors), _COMMA)
            step = max(1, _PASS_VALUES // max(top, 1))
            for a in range(0, len(indices), step):
                rows = slice(a, a + step)
                handle.write(_lines(scores[rows], heads[rows, None], ranks, columns[rows]))


def write_json(path: str | Path, payload: dict) -> None:
    with _atomic_open(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
