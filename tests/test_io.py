import contextlib
import os
import select
import signal
import subprocess
import sys
import time
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
    write_embeddings_csv,
    write_neighbors_csv,
    write_similarity_csv,
)
from helpers import read_similarity_csv, write_embeddings_binary


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


def test_csv_error_names_the_file_line_past_comments_and_blanks(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# config_hash=x\nid,label,e0\na,0,1.0\n\n# note\nb,x,1.0\n")
    with pytest.raises(FormatError, match=r"c\.csv:6: "):
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


def test_binary_trailing_bytes_detected(tmp_path):
    # nothing may follow the labels: a longer file is not read as its first n rows
    path = tmp_path / "emb.obsd"
    write_embeddings_binary(path, table(n=10))
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(FormatError, match="trailing bytes"):
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


def pid_and_square(item):
    return os.getpid(), item * item


@pytest.mark.parametrize("cpus, items, forked", [(1, 6, False), (2, 1, False), (2, 6, True)])
def test_fork_map_yields_in_order_on_forked_workers(monkeypatch, cpus, items, forked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    results = list(io.fork_map(pid_and_square, range(items)))
    assert [square for _, square in results] == [i * i for i in range(items)]
    pids = {pid for pid, _ in results}
    assert (os.getpid() not in pids) == forked
    assert len(pids) <= min(cpus, items)


def pid_chain_link(item):
    return os.getpid(), item


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fork_chains_yields_every_chain_whole_and_in_order(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    lengths = [3, 1, 4, 2, 5]  # more chains than workers, of uneven lengths

    def follow(item, out):
        chain, link = item
        return (chain, link + 1) if link + 1 < lengths[chain] else None

    chains = list(io.fork_chains(pid_chain_link, [(chain, 0) for chain in range(5)], follow))
    assert [[item for _, item in outs] for outs in chains] == [
        [(chain, link) for link in range(n)] for chain, n in enumerate(lengths)
    ]
    pids = {pid for outs in chains for pid, _ in outs}
    assert (os.getpid() in pids) == (cpus == 1)
    assert len(pids) <= cpus


def test_fork_map_keeps_two_items_per_worker_in_flight(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    log = tmp_path / "started"

    def record(item):
        with open(log, "a") as handle:
            handle.write(f"{item}\n")
        return item

    results = io.fork_map(record, range(20))
    assert next(results) == 0
    time.sleep(1.0)  # the workers finish whatever was submitted
    assert len(log.read_text().split()) <= 4
    assert list(results) == list(range(1, 20))


def test_fork_map_imports_process_pools_only_when_parallel():
    code = (
        "import sys, diffdistill.cli, diffdistill.io as io; list(io.fork_map(abs, [-1])); "
        "list(io.fork_chains(abs, [-1], lambda item, out: None)); "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    src = str(Path(io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.stdout == "[]\n", result.stderr


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
io.FORMAT_SPAN_ROWS = 4  # 5 spans, so both CPUs get a worker
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
    # one write, so the two workers' lines cannot interleave (print writes the
    # pid and the newline separately when stdout is unbuffered)
    os.write(1, b"%d\\n" % os.getpid())
    time.sleep(300)

io._row_text = stall
io.write_similarity_csv("sim.csv", [(0, np.arange(20), np.zeros((20, 20)))], "x")
"""


def test_parallel_workers_exit_when_the_writer_is_killed(tmp_path):
    src = str(Path(io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # unbuffered, so readline takes one line and select sees any line still in the pipe
    proc = subprocess.Popen(
        [sys.executable, "-c", WORKER_STALLS], cwd=tmp_path, env=env, stdout=subprocess.PIPE, bufsize=0
    )
    workers = []
    try:
        while len(workers) < 2:  # both workers are stalled in a span
            started = select.select([proc.stdout], [], [], 60)[0]
            assert started, f"worker start: no pid within 60 s; worker pids seen {workers}"
            workers.append(int(proc.stdout.readline()))
        proc.kill()
        wait = "writer exit"
        proc.wait(timeout=60)
        wait = "pipe EOF"
        # the workers hold the stdout pipe, so EOF means both have exited
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired as exc:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):  # a worker that did exit
                os.kill(pid, signal.SIGKILL)
        raise AssertionError(f"{wait}: timed out after {exc.timeout} s; worker pids seen {workers}") from exc
    finally:
        proc.kill()
