import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffdistill import io
from diffdistill.io import (
    BINARY_MAGIC,
    EmbeddingTable,
    FormatError,
    read_embeddings_auto,
    read_embeddings_binary,
    read_embeddings_csv,
    read_similarity_csv,
    write_embeddings_binary,
    write_embeddings_csv,
    write_neighbors_csv,
    write_similarity_csv,
)


def table(n=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(
        ids=[f"s{i}" for i in range(n)],
        labels=rng.integers(0, 3, size=n).astype(np.int64),
        vectors=rng.standard_normal((n, d)),
    )


def test_csv_round_trip_exact(tmp_path):
    t = table()
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, t, config_hash="abc123")
    back = read_embeddings_csv(path)
    assert back.ids == t.ids
    np.testing.assert_array_equal(back.labels, t.labels)
    np.testing.assert_array_equal(back.vectors, t.vectors)  # repr round-trips floats
    first = path.read_text().splitlines()[0]
    assert first == "# config_hash=abc123"


def test_csv_header_layout(tmp_path):
    t = table(n=2, d=4)
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, t)
    header = path.read_text().splitlines()[0]
    assert header == "id,label,e0,e1,e2,e3"


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,cls,e0\na,0,1.0\n")
    with pytest.raises(FormatError):
        read_embeddings_csv(path)


def test_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,e0,e1\na,0,1.0\n")
    with pytest.raises(FormatError):
        read_embeddings_csv(path)


def test_csv_rejects_negative_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,e0\na,-1,1.0\n")
    with pytest.raises(FormatError):
        read_embeddings_csv(path)


def test_binary_round_trip(tmp_path):
    t = table(n=7, d=4, seed=1)
    path = tmp_path / "emb.obsd"
    write_embeddings_binary(path, t)
    back = read_embeddings_binary(path)
    np.testing.assert_array_equal(back.labels, t.labels)
    np.testing.assert_allclose(back.vectors, t.vectors.astype(np.float32), rtol=0, atol=0)
    raw = path.read_bytes()
    assert raw[:4] == BINARY_MAGIC
    # version u16 LE, n u32 LE, d u32 LE
    assert int.from_bytes(raw[4:6], "little") == 1
    assert int.from_bytes(raw[6:10], "little") == 7
    assert int.from_bytes(raw[10:14], "little") == 4
    assert len(raw) == 14 + 7 * 4 * 4 + 7 * 4


def test_binary_truncation_detected(tmp_path):
    t = table()
    path = tmp_path / "emb.obsd"
    write_embeddings_binary(path, t)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        read_embeddings_binary(path)


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "emb.obsd"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        read_embeddings_binary(path)


def test_auto_dispatch_by_magic(tmp_path):
    t = table(n=3, d=2, seed=2)
    csv_path, bin_path = tmp_path / "a.csv", tmp_path / "b.obsd"
    write_embeddings_csv(csv_path, t)
    write_embeddings_binary(bin_path, t)
    assert read_embeddings_auto(csv_path).ids == t.ids
    np.testing.assert_array_equal(read_embeddings_auto(bin_path).labels, t.labels)


def test_similarity_rejects_bad_header(tmp_path):
    path = tmp_path / "sim.csv"
    path.write_text("i,j,value\n0,1,0.5\n")
    with pytest.raises(FormatError):
        read_similarity_csv(path)


def test_similarity_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    A0 = rng.standard_normal((3, 3))
    A1 = rng.standard_normal((2, 2))
    path = tmp_path / "sim.csv"
    write_similarity_csv(
        path,
        [(0, np.array([0, 1, 2]), A0), (1, np.array([3, 4]), A1)],
        config_hash="deadbeef",
    )
    back = read_similarity_csv(path)
    assert back[(0, 1)] == A0[0, 1]
    assert back[(4, 3)] == A1[1, 0]
    assert len(back) == 9 + 4
    assert path.read_text().splitlines()[0] == "# config_hash=deadbeef"


# ---------------------------------------------------------------------------
# streaming writers: byte format and atomicity


def old_similarity_text(blocks, config_hash):
    """Per-element formatter the streaming writer replaced."""
    lines = [f"# config_hash={config_hash}", "batch,i,j,value"]
    for batch_index, indices, matrix in blocks:
        for a, gi in enumerate(indices):
            row = matrix[a]
            for b, gj in enumerate(indices):
                lines.append(f"{batch_index},{int(gi)},{int(gj)},{float(row[b])!r}")
    return "\n".join(lines) + "\n"


def old_neighbors_text(neighbors, config_hash):
    lines = [f"# config_hash={config_hash}", "i,rank,neighbor,score"]
    for i, ranked in neighbors:
        for rank, (j, score) in enumerate(ranked, start=1):
            lines.append(f"{int(i)},{rank},{int(j)},{float(score)!r}")
    return "\n".join(lines) + "\n"


AWKWARD = [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, -2.5e-7, 1.0, 123456789.125, -1e-300]


def awkward_blocks():
    m0 = np.array(AWKWARD).reshape(3, 3)
    m1 = np.array([[1 / 3, -0.0], [0.1 + 0.2, 5e-324]])
    return [(3, np.array([7, 2, 11]), m0), (5, np.array([40, 0]), m1)]


def test_similarity_writer_matches_per_element_format(tmp_path):
    path = tmp_path / "sim.csv"
    write_similarity_csv(path, awkward_blocks(), config_hash="c0ffee")
    assert path.read_bytes() == old_similarity_text(awkward_blocks(), "c0ffee").encode("utf-8")


def test_neighbors_writer_matches_per_element_format(tmp_path):
    indices = np.array([7, 2, 11])
    neighbors = np.array([[2, 11], [11, 7], [7, 2]])
    scores = np.array([[1e16, -0.0], [0.1 + 0.2, 5e-324], [1 / 3, -1e-300]])
    path = tmp_path / "nb.csv"
    write_neighbors_csv(path, [(indices, neighbors, scores)], config_hash="c0ffee")
    old = [(int(i), list(zip(nb.tolist(), sc.tolist()))) for i, nb, sc in zip(indices, neighbors, scores)]
    assert path.read_bytes() == old_neighbors_text(old, "c0ffee").encode("utf-8")


def force_parallel(monkeypatch, cpus, threshold=64):
    """Blocks of `threshold` or more values take the pool path on `cpus` workers."""
    monkeypatch.setattr(io, "PARALLEL_FORMAT_VALUES", threshold)
    monkeypatch.setattr(io, "FORMAT_SPAN_ROWS", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def tiled_blocks():
    """A small block, then AWKWARD tiled over 61 x 61 values: 8 spans, the last one short."""
    n = 61
    return [awkward_blocks()[1], (4, np.arange(n)[::-1] + 3, np.resize(np.array(AWKWARD), (n, n)))]


@pytest.mark.parametrize("cpus", [1, 2])
def test_parallel_similarity_writer_matches_per_element_format(tmp_path, monkeypatch, cpus):
    force_parallel(monkeypatch, cpus)
    path = tmp_path / "sim.csv"
    write_similarity_csv(path, tiled_blocks(), config_hash="c0ffee")
    assert path.read_bytes() == old_similarity_text(tiled_blocks(), "c0ffee").encode("utf-8")


def test_failed_stream_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    for threshold in (io.PARALLEL_FORMAT_VALUES, 1):  # the failing block is serial, then parallel
        force_parallel(monkeypatch, 2, threshold)
        path = tmp_path / "sim.csv"
        path.write_text("previous contents\n")

        def blocks_then_failure():
            yield awkward_blocks()[0]
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            write_similarity_csv(path, blocks_then_failure(), config_hash="x")
        assert path.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.csv"]

        fresh = tmp_path / "fresh.csv"
        with pytest.raises(RuntimeError):
            write_similarity_csv(fresh, blocks_then_failure(), config_hash="x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.csv"]


def test_parallel_worker_exception_propagates_and_leaves_no_temp_file(tmp_path, monkeypatch):
    force_parallel(monkeypatch, 2)
    parent = os.getpid()
    row_text = io._row_text

    def fails_in_worker(*args):
        if os.getpid() != parent:
            raise ValueError("worker failed")
        return row_text(*args)

    monkeypatch.setattr(io, "_row_text", fails_in_worker)  # forked workers inherit the patch
    with pytest.raises(ValueError, match="worker failed"):
        write_similarity_csv(tmp_path / "sim.csv", tiled_blocks(), config_hash="x")
    assert list(tmp_path.iterdir()) == []


WORKER_DIES = """
import os
from concurrent.futures.process import BrokenProcessPool
import numpy as np
from diffdistill import io
io.PARALLEL_FORMAT_VALUES = 64
os.sched_getaffinity = lambda pid: {0, 1}
io._row_text = lambda *args: os._exit(7)
try:
    io.write_similarity_csv("sim.csv", [(0, np.arange(20), np.zeros((20, 20)))], "x")
except BrokenProcessPool:
    print("broken", sorted(os.listdir(".")))
"""


def test_parallel_worker_death_raises_broken_pool(tmp_path):
    src = str(Path(io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", WORKER_DIES], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "broken []\n"


WORKER_STALLS = """
import os, time
import numpy as np
from diffdistill import io
io.PARALLEL_FORMAT_VALUES = 64
io.FORMAT_SPAN_ROWS = 4
os.sched_getaffinity = lambda pid: {0, 1}

def stall(*args):
    print(os.getpid(), flush=True)
    time.sleep(300)

io._row_text = stall
io.write_similarity_csv("sim.csv", [(0, np.arange(20), np.zeros((20, 20)))], "x")
"""


def test_parallel_workers_exit_when_the_writer_is_killed(tmp_path):
    src = str(Path(io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", WORKER_STALLS], cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True
    )
    workers = []
    try:
        while len(workers) < 2:  # both workers are stalled in a span
            assert select.select([proc.stdout], [], [], 60)[0], "a worker did not start"
            workers.append(int(proc.stdout.readline()))
        proc.kill()
        proc.wait(timeout=60)
        # the workers hold the stdout pipe, so EOF means both have exited
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        proc.kill()
