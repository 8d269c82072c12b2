import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffdistill import cli, diffusion, embeddings, io, training
from diffdistill.cli import main
from diffdistill.config import default_config_text
from diffdistill.diffusion import DiffusionParams
from diffdistill.embeddings import EmbeddingBatch, normalize_rows
from diffdistill.errors import SingularSystem
from diffdistill.io import EmbeddingTable, read_embeddings_csv, write_embeddings_csv
from diffdistill.metrics import evaluate_batch
from helpers import read_json, read_similarity_csv, write_embeddings_binary


SMALL_TRAIN_ROWS = 4 * 6  # num_train_classes * samples_per_class of config_text


def config_text(**overrides):
    small = {
        "num_train_classes": 4,
        "num_test_classes": 4,
        "samples_per_class": 6,
        "input_dim": 8,
        "epochs": 3,
        "batch_size": 8,
        "hidden_dim": 8,
        "embed_dim": 8,
        "seeds": "0,1",
        "recall_ks": "1,2",
        "kmeans_restarts": 3,
        "knn_k": 8,
    }
    small.update(overrides)
    lines = []
    for line in default_config_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key = line.split("=")[0].strip()
        if key in small:
            lines.append(f"{key} = {small[key]}")
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


def write_table(path, vectors, labels):
    vectors = np.asarray(vectors, dtype=float)
    table = EmbeddingTable(
        ids=[str(i) for i in range(len(labels))],
        labels=np.asarray(labels, dtype=np.int64),
        vectors=vectors,
    )
    write_embeddings_csv(path, table)
    return table


def data_rows(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


# ---------------------------------------------------------------------------
# train


def test_train_writes_all_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out")))
    assert main(["train", str(cfg)]) == 0
    out = tmp_path / "out"
    for seed in (0, 1):
        assert (out / f"history_seed{seed}.csv").exists()
        assert (out / f"run_seed{seed}.json").exists()
        assert (out / f"embeddings_train_seed{seed}.csv").exists()
        assert (out / f"embeddings_test_seed{seed}.csv").exists()
    summary = read_json(out / "summary.json")
    # aggregate recomputable from the per-run files
    r1 = [read_json(out / f"run_seed{s}.json")["final"]["recall"]["1"] for s in (0, 1)]
    assert summary["aggregate"]["recall@1"]["mean"] == pytest.approx(np.mean(r1), abs=1e-15)
    assert summary["aggregate"]["recall@1"]["std"] == pytest.approx(np.std(r1), abs=1e-15)
    chash = summary["meta"]["config_hash"]
    for artifact in out.glob("*.csv"):
        assert artifact.read_text().splitlines()[0] == f"# config_hash={chash}"
    run_meta = read_json(out / "run_seed0.json")["meta"]
    assert run_meta["config_hash"] == chash
    assert run_meta["config"]["lambda"] == 40.0
    assert "version" in run_meta


MASK_DIFFUSION_SECONDS = re.compile(rb'"diffusion_seconds": [0-9.e+-]+')

# sha256 of each artifact of `train <default config> --seed 0 --out-dir out`, with
# every `"diffusion_seconds": <value>` cut out; pins the bytes across refactors
GOLDEN_DEFAULT_TRAIN = {
    "embeddings_test_seed0.csv": "927f3748b429b0dafb26de3dcf64b26899327e568c6f83b060ed1efd6fc3f8ad",
    "embeddings_train_seed0.csv": "2794e6301bc90a41590dd58c281a7dfe095609d3fd9a18476aea402f7effe92c",
    "history_seed0.csv": "de88d7c9fe704a8cd2a4328129fe04c77d154b059d37d56b3f60da1b4d63bd66",
    "run_seed0.json": "f57b66ad58c2aab326a9861af3fc938724596583cecf2c7d1bfa7fc256fbad0d",
    "summary.json": "1d045a66b263ff007e63edf73c65a994a1b47e8491f68ef246c8ee7d532d3af7",
}


def test_default_train_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    # a relative out_dir: it is part of config_hash, which every artifact embeds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(default_config_text())
    assert main(["train", "run.cfg", "--seed", "0", "--out-dir", "out"]) == 0
    digests = {
        path.name: hashlib.sha256(MASK_DIFFUSION_SECONDS.sub(b"", path.read_bytes())).hexdigest()
        for path in (tmp_path / "out").iterdir()
    }
    assert digests == GOLDEN_DEFAULT_TRAIN


def run_on_cpus(tmp_path, monkeypatch, capfd, cpus, command=("train",), **overrides):
    """Run `command run.cfg` from its own directory with the affinity mask forced to `cpus` CPUs.

    `command` is the subcommand, then any arguments after the config path.
    capfd also sees what forked workers write to the inherited file descriptors.
    """
    run_dir = tmp_path / f"cpus{cpus}"
    run_dir.mkdir()
    (run_dir / "run.cfg").write_text(config_text(out_dir="out", **overrides))
    monkeypatch.chdir(run_dir)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    code = main([command[0], "run.cfg", *command[1:]])
    return code, capfd.readouterr(), run_dir / "out"


# 5 epochs: 2 workers split each seed into 2 + 3 epochs, 3 workers into 1 + 2 + 2
SEGMENTS = {1: [(0, 5)], 2: [(0, 2), (2, 5)], 3: [(0, 1), (1, 3), (3, 5)]}


def run_in_segments(tmp_path, monkeypatch, capfd, command, seeds, runs_per_seed=1):
    """`run_on_cpus` with 5 epochs on 1, 2 and 3 CPUs, checking the segments each seed ran in."""
    real_run_training = cli.run_training
    runs = []
    for cpus, segments in SEGMENTS.items():
        log = tmp_path / f"segments{cpus}"

        def logged(config, seed, stop=None, resume=None):
            with open(log, "a") as handle:  # forked workers append here too
                handle.write(f"{seed} {0 if resume is None else resume.epoch} {stop}\n")
            return real_run_training(config, seed, stop, resume)

        monkeypatch.setattr(cli, "run_training", logged)
        runs.append(run_on_cpus(tmp_path, monkeypatch, capfd, cpus, command, seeds=seeds, epochs=5))
        ran = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        seed_list = [int(seed) for seed in seeds.split(",")]
        assert ran == sorted(runs_per_seed * [(seed, *span) for seed in seed_list for span in segments])
    return runs


def test_train_artifacts_and_stdout_do_not_depend_on_cpu_count(tmp_path, monkeypatch, capfd):
    # five seeds on two and three workers, their epochs split unevenly
    runs = run_in_segments(tmp_path, monkeypatch, capfd, ("train",), "0,1,2,3,4")
    code1, io1, out1 = runs[0]
    assert [line.split(":")[0] for line in io1.out.splitlines()] == [f"seed {s}" for s in range(5)]
    names = sorted(p.name for p in out1.iterdir())
    assert len(names) == 21
    for code, captured, out in runs:
        assert code == 0
        assert captured.out == io1.out and captured.err == io1.err
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            one, other = (out1 / name).read_bytes(), (out / name).read_bytes()
            assert MASK_DIFFUSION_SECONDS.sub(b"", one) == MASK_DIFFUSION_SECONDS.sub(b"", other), name


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_train_seed_failing_in_its_second_segment_keeps_the_seeds_before_it(
    tmp_path, monkeypatch, capfd, cpus
):
    # 5 epochs: epoch 2 lies in the second segment on 2 and on 3 workers
    failed = tmp_path / "seed1_failed"
    parent = os.getpid()
    real_evaluate = training.evaluate_batch

    def evaluate(*args, seed, **kwargs):
        if seed == 1000 + 2:  # seed 1, epoch 2
            failed.touch()
            raise SingularSystem("seed 1 failed in epoch 2")
        if seed == 4 and os.getpid() != parent:  # seed 0, epoch 4: wait until seed 1 has failed
            deadline = time.monotonic() + 60
            while not failed.exists():
                assert time.monotonic() < deadline, "seed 1 never failed"
                time.sleep(0.01)
        return real_evaluate(*args, seed=seed, **kwargs)

    monkeypatch.setattr(training, "evaluate_batch", evaluate)
    code, captured, out = run_on_cpus(tmp_path, monkeypatch, capfd, cpus, seeds="0,1,2", epochs=5)
    assert code == 3
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert json.loads(lines[0])["error"] == "SingularSystem"
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["seed 0"]
    assert sorted(p.name for p in out.iterdir()) == [
        "embeddings_test_seed0.csv", "embeddings_train_seed0.csv", "history_seed0.csv", "run_seed0.json"
    ]
    assert len(read_json(out / "run_seed0.json")["history"]) == 5


def test_train_and_sweep_report_floored_rows_once_per_seed(tmp_path, monkeypatch, capfd):
    # a 4-NN global graph over 24 train rows: seeds 0 and 1 floor rows, seed 2 none
    flooring = {"diffusion_scope": "global", "knn_k": 4, "seeds": "0,1,2"}
    floored = [(0, [1, 2], [7]), (1, [2], [12, 20])]  # (seed, epochs, train rows)
    for command, where in ((("train",), {}), (("sweep", "omega", "0.5"), {"value": 0.5})):
        (tmp_path / command[0]).mkdir()
        runs = [
            run_on_cpus(tmp_path / command[0], monkeypatch, capfd, cpus, command, **flooring)
            for cpus in (1, 2)
        ]
        (code1, io1, _), (code2, io2, _) = runs
        assert code1 == code2 == 0
        assert io1.out == io2.out and io1.err == io2.err
        assert io1.err.splitlines() == [
            json.dumps({"warning": "DegenerateGraph", **where, "seed": seed, "epochs": epochs, "rows": rows})
            for seed, epochs, rows in floored
        ]


def test_train_worker_numerical_failure_exit_3_one_json_line(tmp_path, monkeypatch, capfd):
    # above the dense bound the global solve iterates, and one sweep is too few
    above_dense_bound(monkeypatch, SMALL_TRAIN_ROWS)
    failing = {"diffusion_scope": "global", "max_iter": 1}
    runs = [run_on_cpus(tmp_path, monkeypatch, capfd, cpus, **failing) for cpus in (1, 2)]
    for code, captured, _ in runs:
        assert code == 3
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert json.loads(lines[0])["error"] == "NotConverged"
    listings = [sorted(p.name for p in out.iterdir()) if out.exists() else [] for _, _, out in runs]
    assert listings[0] == listings[1]


def test_train_config_naming_diffusion_mode_exit_2(tmp_path, capsys):
    # no setting chooses the diffusion solver: a config naming one is refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out")) + "diffusion_mode = closed_form\n")
    assert main(["train", str(cfg)]) == 2
    assert "unknown config field 'diffusion_mode'" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "out").exists()


def test_train_batch_the_train_classes_cannot_fill_exit_2(tmp_path, capsys, monkeypatch):
    # 9 classes per batch from the default 8 train classes: refused before any run
    def never(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_training", never)
    cfg = tmp_path / "run.cfg"
    text = default_config_text().replace("batch_size = 16", "batch_size = 18")
    cfg.write_text(text.replace("out_dir = runs/latest", f"out_dir = {tmp_path / 'out'}"))
    assert main(["train", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and record["exit_code"] == 2
    assert "field 'batch_size' must be <= 2 * num_train_classes = 16, got 18" in record["message"]
    assert not (tmp_path / "out").exists()


def test_train_zero_lambda_history_matches_baseline_preset(tmp_path):
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(config_text(out_dir=str(tmp_path / "a_out"), distill_mode="none"))
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(config_text(out_dir=str(tmp_path / "b_out"), **{"lambda": 0.0}))
    assert main(["train", str(cfg_a), "--seed", "0"]) == 0
    assert main(["train", str(cfg_b), "--seed", "0"]) == 0
    rows_a = data_rows(tmp_path / "a_out" / "history_seed0.csv")
    rows_b = data_rows(tmp_path / "b_out" / "history_seed0.csv")
    assert rows_a == rows_b


def test_history_csv_rows_equal_json_history_records(tmp_path):
    # recall_ks out of order and repeated: each K still gets exactly one column
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out"), recall_ks="2,1,2"))
    assert main(["train", str(cfg), "--seed", "0"]) == 0
    lines = data_rows(tmp_path / "out" / "history_seed0.csv")
    header, *rows = [line.split(",") for line in lines]
    history = read_json(tmp_path / "out" / "run_seed0.json")["history"]
    assert len(rows) == len(history) == 3
    for row, record in zip(rows, history):
        flat = {f"recall@{k}": v for k, v in record.pop("recall").items()}
        flat.update(record)
        assert sorted(header) == sorted(flat)
        assert row == [repr(flat[column]) for column in header]


def test_train_missing_field_exit_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("\n".join(l for l in config_text().splitlines() if not l.startswith("tau")))
    assert main(["train", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == 2
    assert "tau" in record["message"]


def test_train_unknown_field_exit_2(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(config_text() + "wibble = 3\n")
    assert main(["train", str(cfg)]) == 2


def test_train_emit_default_config(capsys):
    assert main(["train", "--emit-default-config"]) == 0
    out = capsys.readouterr().out
    assert "omega = 0.5" in out
    assert "lambda = 40.0" in out


def test_missing_config_file_exit_4(tmp_path):
    assert main(["train", str(tmp_path / "nope.cfg")]) == 4


# ---------------------------------------------------------------------------
# diffuse


def test_diffuse_tiny_omega_recovers_input_similarity(tmp_path):
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((10, 4))
    write_table(tmp_path / "emb.csv", vectors, rng.integers(0, 3, 10))
    assert (
        main(
            ["diffuse", str(tmp_path / "emb.csv"), "--omega", "1e-9",
             "--batch-size", "10", "--out-dir", str(tmp_path)]
        )
        == 0
    )
    refined = read_similarity_csv(tmp_path / "refined_similarity.csv")
    z = normalize_rows(vectors)
    D = np.clip(z @ z.T, -1, 1)
    for (i, j), value in refined.items():
        assert abs(value - D[i, j]) < 1e-7


def test_diffuse_global_saturated_knn_equals_single_batch(tmp_path):
    rng = np.random.default_rng(1)
    # all-positive similarities so clamping and mutual-kNN both keep every edge
    vectors = np.ones((8, 5)) + 0.1 * rng.standard_normal((8, 5))
    write_table(tmp_path / "emb.csv", vectors, np.zeros(8, dtype=int))
    a_dir = tmp_path / "batchmode"
    b_dir = tmp_path / "globalmode"
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5",
                 "--batch-size", "8", "--out-dir", str(a_dir)]) == 0
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5", "--mode", "global",
                 "--knn-k", "7", "--out-dir", str(b_dir)]) == 0
    batch = read_similarity_csv(a_dir / "refined_similarity.csv")
    globl = read_similarity_csv(b_dir / "refined_similarity.csv")
    assert set(batch) == set(globl)
    for key in batch:
        assert batch[key] == pytest.approx(globl[key], abs=1e-8)


def test_diffuse_reports_degenerate_row_once_with_file_index(tmp_path):
    rng = np.random.default_rng(3)
    vectors = np.array([1.0, 0.0, 0.0]) + 0.1 * rng.standard_normal((8, 3))
    vectors[6] = [-1.0, 0.0, 0.0]  # opposite every other row of the second batch
    write_table(tmp_path / "emb.csv", vectors, np.zeros(8, dtype=int))
    result = subprocess.run(
        [sys.executable, "-m", "diffdistill.cli", "diffuse", str(tmp_path / "emb.csv"),
         "--omega", "0.5", "--batch-size", "4", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        json.dumps({"warning": "DegenerateGraph", "batch": 1, "rows": [6]})
    ]


def test_diffuse_two_row_file(tmp_path):
    write_table(tmp_path / "emb.csv", [[1.0, 0.2], [0.9, 0.3]], [0, 1])
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5",
                 "--out-dir", str(tmp_path)]) == 0
    refined = read_similarity_csv(tmp_path / "refined_similarity.csv")
    assert len(refined) == 4
    assert all(np.isfinite(v) for v in refined.values())


def neighbor_lists(path):
    lists = {}
    for line in data_rows(path)[1:]:
        i, rank, j, score = line.split(",")
        lists.setdefault(int(i), []).append((int(rank), int(j), float(score)))
    return lists


def test_diffuse_neighbor_lists(tmp_path):
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((9, 4)) + 2.0  # positive cosines: no floored rows
    vectors[4] = vectors[1]  # duplicate rows give tied scores
    vectors[8] = vectors[6]
    write_table(tmp_path / "emb.csv", vectors, np.zeros(9, dtype=int))
    modes = [(["--batch-size", "5"], [5, 4]), (["--mode", "global", "--knn-k", "5"], [9])]
    for mode_args, block_sizes in modes:
        for neighbors in (2, 20):  # 20 exceeds every block and is clamped
            out = tmp_path / f"{mode_args[1]}-{neighbors}"
            assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.3", *mode_args,
                         "--neighbors", str(neighbors), "--out-dir", str(out)]) == 0
            assert data_rows(out / "neighbors.csv")[0] == "i,rank,neighbor,score"
            refined = read_similarity_csv(out / "refined_similarity.csv")
            lists = neighbor_lists(out / "neighbors.csv")
            assert sorted(lists) == list(range(9))
            starts = np.cumsum([0] + block_sizes)
            for b, size in enumerate(block_sizes):
                top = min(neighbors, size - 1)
                for i in range(starts[b], starts[b + 1]):
                    ranked = lists[i]
                    assert [rank for rank, _, _ in ranked] == list(range(1, top + 1))
                    assert i not in [j for _, j, _ in ranked]
                    for _, j, score in ranked:
                        assert score == refined[(i, j)]
                    candidates = [(j, v) for (a, j), v in refined.items() if a == i and j != i]
                    expected = sorted(candidates, key=lambda pair: (-pair[1], pair[0]))[:top]
                    assert [(j, score) for _, j, score in ranked] == expected


@pytest.mark.parametrize("span_rows, block_rows", [(8, 4), (8, 3), (3, 8)])
@pytest.mark.parametrize("cpus", [1, 2])
def test_diffuse_global_neighbor_scores_are_the_written_similarities(
    tmp_path, monkeypatch, cpus, span_rows, block_rows
):
    # 17 rows: the last writer span, the last ranking block or both hold one row,
    # a row whose product alone would round differently from a longer block's
    monkeypatch.setattr(io, "FORMAT_SPAN_ROWS", span_rows)
    monkeypatch.setattr(embeddings, "RANKING_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(io, "PARALLEL_FORMAT_VALUES", 1)  # forked workers compute their spans' rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    n = 17
    write_table(tmp_path / "emb.csv", np.random.default_rng(6).standard_normal((n, 16)), np.arange(n) % 3)
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.9", "--mode", "global",
                 "--knn-k", "5", "--neighbors", str(n - 1), "--out-dir", str(tmp_path)]) == 0
    refined = read_similarity_csv(tmp_path / "refined_similarity.csv")
    lists = neighbor_lists(tmp_path / "neighbors.csv")
    assert sorted(lists) == list(range(n))
    for i, ranked in lists.items():
        assert [refined[(i, j)] for _, j, _ in ranked] == [score for _, _, score in ranked]


@pytest.mark.parametrize("umask, mode", [(0o022, "-rw-r--r--"), (0o027, "-rw-r-----")])
def test_artifacts_get_umask_file_mode(tmp_path, umask, mode):
    rng = np.random.default_rng(4)
    write_table(tmp_path / "emb.csv", rng.standard_normal((6, 3)), [0, 0, 1, 1, 2, 2])
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5",
                     "--neighbors", "2", "--out-dir", str(out)]) == 0
        assert main(["eval", str(tmp_path / "emb.csv"), "--ks", "1",
                     "--kmeans-restarts", "1", "--out-dir", str(out)]) == 0
    finally:
        os.umask(previous)
    for name in ("refined_similarity.csv", "neighbors.csv", "metrics.json"):
        assert stat.filemode((out / name).stat().st_mode) == mode


def test_diffuse_bad_omega_exit_2(tmp_path):
    write_table(tmp_path / "emb.csv", [[1.0, 0.0], [0.0, 1.0]], [0, 1])
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "1.0",
                 "--out-dir", str(tmp_path)]) == 2


def refuse_dense(*args):
    raise AssertionError("n x n array built above the dense bound")


def above_dense_bound(monkeypatch, n):
    """Put n rows above diffusion.MAX_DENSE_ROWS, and refuse the dense solve."""
    monkeypatch.setattr(diffusion, "MAX_DENSE_ROWS", n - 1)
    monkeypatch.setattr(diffusion, "diffuse_closed_form", refuse_dense)


def test_diffuse_global_above_dense_bound_iterates(tmp_path, monkeypatch):
    n, d, omega = 60, 2, 0.5
    angles = np.linspace(0.0, 6.0, n)
    write_table(tmp_path / "emb.csv", np.column_stack([np.cos(angles), np.sin(angles)]), np.zeros(n, dtype=int))
    args = ["diffuse", str(tmp_path / "emb.csv"), "--omega", str(omega), "--mode", "global", "--knn-k", "4"]
    assert main([*args, "--out-dir", str(tmp_path / "dense")]) == 0
    monkeypatch.setattr(cli, "cosine_similarity_matrix", refuse_dense)
    above_dense_bound(monkeypatch, n)
    assert main([*args, "--out-dir", str(tmp_path / "out")]) == 0
    dense = read_similarity_csv(tmp_path / "dense" / "refined_similarity.csv")
    iterated = read_similarity_csv(tmp_path / "out" / "refined_similarity.csv")
    assert dense.keys() == iterated.keys() and len(dense) == n * n
    tol = DiffusionParams().tol  # diffuse runs the default solver settings
    bound = tol * omega / (1.0 - omega) * np.sqrt(n * d) + 1e-12
    assert max(abs(iterated[key] - dense[key]) for key in dense) <= bound


def test_train_global_scope_above_dense_bound_iterates(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(diffusion_scope="global", seeds="0", out_dir=str(tmp_path / "out")))
    n = SMALL_TRAIN_ROWS
    real = training.cosine_similarity_matrix
    monkeypatch.setattr(training, "cosine_similarity_matrix", lambda z: refuse_dense() if len(z) >= n else real(z))
    above_dense_bound(monkeypatch, n)
    assert main(["train", str(cfg)]) == 0
    run = read_json(tmp_path / "out" / "run_seed0.json")
    assert len(run["history"]) == 3 and run["final"]["diffusion_seconds"] > 0.0  # epochs 1 and 2 diffused


@pytest.mark.parametrize("epsilon", ["0", "-1e-8", "nan"])
def test_diffuse_nonpositive_degree_epsilon_exit_2(tmp_path, capsys, epsilon):
    vectors = np.array([[1.0, 0.1], [0.9, 0.2], [-1.0, 0.0]])  # row 2 has no positive affinity
    write_table(tmp_path / "emb.csv", vectors, [0, 0, 1])
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5", "--batch-size", "3",
                 f"--degree-epsilon={epsilon}", "--out-dir", str(tmp_path / "out")]) == 2
    assert "degree_epsilon" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "out").exists()


def test_diffuse_zero_row_exit_3(tmp_path):
    write_table(tmp_path / "emb.csv", [[1.0, 0.0], [0.0, 0.0]], [0, 1])
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5",
                 "--out-dir", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# eval


def test_eval_twin_classes_recall_one(tmp_path):
    vectors = np.repeat(np.eye(4), 2, axis=0) + 0.01
    write_table(tmp_path / "emb.csv", vectors, np.repeat(np.arange(4), 2))
    assert main(["eval", str(tmp_path / "emb.csv"), "--ks", "1", "2",
                 "--out-dir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "metrics.json")
    assert payload["recall"]["1"] == 1.0
    assert set(payload) == {"recall", "nmi", "density_ratio", "spectral_decay", "meta"}
    assert "config_hash" in payload["meta"]


@pytest.mark.parametrize("noise, unconverged", [(0.0, 10), (0.3, 0)])
def test_eval_meta_counts_kmeans_restarts_stopped_still_moving(tmp_path, noise, unconverged):
    # 5 classes over 3 distinct rows, 3 copies each: k-means keeps refilling
    # empty clusters, so max_iter stops all 10 restarts; with noise the 9
    # distinct rows settle
    rng = np.random.default_rng(4)
    vectors = rng.standard_normal((3, 3))[[0, 1, 2] * 3] + noise * rng.standard_normal((9, 3))
    write_table(tmp_path / "emb.csv", vectors, [0, 0, 1, 1, 2, 2, 3, 3, 4])
    assert main(["eval", str(tmp_path / "emb.csv"), "--ks", "1", "--out-dir", str(tmp_path)]) == 0
    assert read_json(tmp_path / "metrics.json")["meta"]["kmeans_unconverged_restarts"] == unconverged


def test_eval_unique_classes_zero_recall(tmp_path):
    rng = np.random.default_rng(3)
    write_table(tmp_path / "emb.csv", rng.standard_normal((8, 5)), np.arange(8))
    assert main(["eval", str(tmp_path / "emb.csv"), "--ks", "1", "2",
                 "--out-dir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "metrics.json")
    assert payload["recall"]["1"] == 0.0
    assert payload["recall"]["2"] == 0.0
    assert "nmi" in payload


def test_eval_matches_direct_library_call(tmp_path):
    rng = np.random.default_rng(4)
    vectors = rng.standard_normal((12, 6))
    labels = rng.integers(0, 3, 12)
    write_table(tmp_path / "emb.csv", vectors, labels)
    assert main(["eval", str(tmp_path / "emb.csv"), "--ks", "1", "2", "4",
                 "--seed", "9", "--out-dir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "metrics.json")
    table = read_embeddings_csv(tmp_path / "emb.csv")
    report = evaluate_batch(
        EmbeddingBatch(normalize_rows(table.vectors), table.labels), ks=[1, 2, 4], seed=9
    )
    direct = report.to_json_dict()
    assert payload["recall"] == direct["recall"]
    assert payload["nmi"] == direct["nmi"]
    assert payload["density_ratio"] == direct["density_ratio"]
    assert payload["spectral_decay"] == direct["spectral_decay"]


def test_eval_k_too_large_exit_2(tmp_path):
    write_table(tmp_path / "emb.csv", np.eye(3), [0, 1, 2])
    assert main(["eval", str(tmp_path / "emb.csv"), "--ks", "5",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_eval_nonpositive_kmeans_restarts_exit_2(tmp_path, capsys, restarts):
    write_table(tmp_path / "emb.csv", np.eye(4), [0, 0, 1, 1])
    code = main(["eval", str(tmp_path / "emb.csv"), "--ks", "1", "--kmeans-restarts", restarts,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "ValueError"
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_eval_and_diffuse_oversized_label_exit_2(tmp_path, capsys):
    path = tmp_path / "emb.csv"
    path.write_text(f"id,label,e0,e1\na,0,1.0,0.5\nb,{2**63},0.3,0.9\nc,1,0.5,0.5\n")
    for argv in (["eval", str(path), "--ks", "1"], ["diffuse", str(path), "--omega", "0.5"]):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "FormatError"
        assert f"{path}:3:" in record["message"]


# Both input readers behind `eval` and `diffuse --mode global`, on broken files:
# every case must end in a validation, numerical or I/O exit code, never a traceback.
FUZZ_DIM = 3
FUZZ_HEADER = ["id", "label"] + [f"e{i}" for i in range(FUZZ_DIM)]
FUZZ_COMMANDS = (
    ["eval", "--ks", "1", "--kmeans-restarts", "1"],
    ["diffuse", "--omega", "0.5", "--mode", "global", "--knn-k", "3"],
)


def fuzz_table():
    rng = np.random.default_rng(8)
    return EmbeddingTable(
        ids=[f"s{i}" for i in range(8)],
        labels=np.repeat(np.arange(4), 2),
        vectors=rng.standard_normal((8, FUZZ_DIM)),
    )


def assert_fails_closed(path, out_dir):
    for command, *options in FUZZ_COMMANDS:
        code = main([command, str(path), *options, "--out-dir", str(out_dir)])
        assert code in (2, 3, 4), (command, path.read_bytes())


def parsed(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


def bad_label(text):
    value = parsed(int, text)
    return value is None or not 0 <= value < 2**63


def bad_coordinate(text):
    value = parsed(float, text)
    return value is None or not math.isfinite(value)


# no comma, quote or newline: the mutated text stays one cell of its row
CELL_TEXT = st.text(st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",)), max_size=12)


@st.composite
def csv_mutations(draw):
    """(row, column, text) with row 0 the header; text None deletes the cell."""
    row = draw(st.integers(0, 8))
    column = draw(st.integers(0 if row == 0 else 1, FUZZ_DIM + 1))  # any id is a valid id
    if row == 0:
        invalid = CELL_TEXT.filter(lambda text: text.strip() != FUZZ_HEADER[column])
    elif column == 1:
        out_of_range = st.integers(max_value=-1) | st.integers(min_value=2**63)
        invalid = out_of_range.map(str) | CELL_TEXT.filter(bad_label)
    else:
        invalid = st.sampled_from(["nan", "inf", "-inf", "1e999"]) | CELL_TEXT.filter(bad_coordinate)
    return row, column, draw(st.none() | invalid)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=csv_mutations())
def test_cli_fails_closed_on_mutated_csv_cells(tmp_path, mutation):
    row, column, text = mutation
    table = fuzz_table()
    rows = [list(FUZZ_HEADER)] + [
        [sid, str(label), *map(repr, vector)]
        for sid, label, vector in zip(table.ids, table.labels.tolist(), table.vectors.tolist())
    ]
    if text is None:
        del rows[row][column]
    else:
        rows[row][column] = text
    path = tmp_path / "emb.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells in rows), encoding="utf-8")
    assert_fails_closed(path, tmp_path / "out")


def test_cli_fails_closed_on_every_obsd_truncation(tmp_path):
    path = tmp_path / "emb.obsd"
    write_embeddings_binary(path, fuzz_table())
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        assert_fails_closed(path, tmp_path / "out")


def test_eval_and_diffuse_accept_binary_input(tmp_path):
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((10, 5)).astype(np.float32).astype(np.float64)
    labels = np.repeat(np.arange(5), 2)
    table = EmbeddingTable(ids=[str(i) for i in range(10)], labels=labels, vectors=vectors)
    write_embeddings_binary(tmp_path / "emb.obsd", table)
    write_embeddings_csv(tmp_path / "emb.csv", table)

    assert main(["eval", str(tmp_path / "emb.obsd"), "--ks", "1", "2",
                 "--out-dir", str(tmp_path / "bin_eval")]) == 0
    assert main(["eval", str(tmp_path / "emb.csv"), "--ks", "1", "2",
                 "--out-dir", str(tmp_path / "csv_eval")]) == 0
    bin_payload = read_json(tmp_path / "bin_eval" / "metrics.json")
    csv_payload = read_json(tmp_path / "csv_eval" / "metrics.json")
    assert bin_payload["recall"] == csv_payload["recall"]
    assert bin_payload["nmi"] == csv_payload["nmi"]

    assert main(["diffuse", str(tmp_path / "emb.obsd"), "--omega", "0.5",
                 "--batch-size", "10", "--out-dir", str(tmp_path / "bin_diff")]) == 0
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5",
                 "--batch-size", "10", "--out-dir", str(tmp_path / "csv_diff")]) == 0
    assert read_similarity_csv(tmp_path / "bin_diff" / "refined_similarity.csv") == \
        read_similarity_csv(tmp_path / "csv_diff" / "refined_similarity.csv")


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_reproducible(tmp_path, capsys):
    assert main(["gradcheck", "--trials", "4", "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    first = read_json(tmp_path / "gradcheck.json")["results"]
    assert all(v["pass"] for v in first.values())
    capsys.readouterr()
    assert main(["gradcheck", "--trials", "4", "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    second = read_json(tmp_path / "gradcheck.json")["results"]
    assert first == second


def test_gradcheck_corrupted_gradient_fails(tmp_path, monkeypatch):
    real_psd_grad = cli.psd_grad
    monkeypatch.setattr(cli, "psd_grad", lambda *args: real_psd_grad(*args) + 1e-3)
    code = main(["gradcheck", "--trials", "2", "--seed", "5", "--out-dir", str(tmp_path)])
    assert code == 3
    failures = list(tmp_path.glob("gradcheck_failure_*.json"))
    assert failures
    replay = read_json(failures[0])
    assert "instance" in replay


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_row_per_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out"), seeds="0", epochs=2))
    assert main(["sweep", str(cfg), "omega", "0.2,0.8"]) == 0
    rows = data_rows(tmp_path / "out" / "sweep.csv")
    assert rows[0].startswith("parameter,value,seeds,recall@1_mean")
    assert len(rows) == 3
    assert rows[1].startswith("omega,0.2,1,")
    assert rows[2].startswith("omega,0.8,1,")


def test_sweep_single_value_matches_train(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out"), seeds="0", epochs=2))
    assert main(["sweep", str(cfg), "lambda", "40.0"]) == 0
    rows = data_rows(tmp_path / "out" / "sweep.csv")
    swept_r1 = float(rows[1].split(",")[3])
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text(config_text(out_dir=str(tmp_path / "out2"), seeds="0", epochs=2))
    assert main(["train", str(cfg2)]) == 0
    run = read_json(tmp_path / "out2" / "run_seed0.json")
    assert swept_r1 == run["final"]["recall"]["1"]


def test_sweep_programming_error_propagates(tmp_path, monkeypatch):
    def broken(config, seed, *segment):
        raise TypeError("bug, not a failed run")

    monkeypatch.setattr("diffdistill.cli.run_training", broken)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out"), seeds="0"))
    with pytest.raises(TypeError, match="bug"):
        main(["sweep", str(cfg), "omega", "0.5"])


def test_sweep_library_error_becomes_failed_row(tmp_path, monkeypatch):
    def failing(config, seed, *segment):
        raise FloatingPointError("overflow")

    monkeypatch.setattr("diffdistill.cli.run_training", failing)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out"), seeds="0"))
    assert main(["sweep", str(cfg), "omega", "0.5"]) == 0
    rows = data_rows(tmp_path / "out" / "sweep.csv")
    assert rows[1] == "omega,0.5,0,,,,,failed: FloatingPointError"


def test_sweep_omega_out_of_range_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out")))
    assert main(["sweep", str(cfg), "omega", "0.5,1.5"]) == 2


def test_sweep_csv_and_stdout_do_not_depend_on_cpu_count(tmp_path, monkeypatch, capfd):
    sweep = ("sweep", "omega", "0.3,0.7")
    runs = run_in_segments(tmp_path, monkeypatch, capfd, sweep, "0,1,2", runs_per_seed=2)
    code1, io1, out1 = runs[0]
    for code, captured, out in runs:
        assert code == 0
        assert captured.out == io1.out and captured.err == io1.err
        assert (out / "sweep.csv").read_bytes() == (out1 / "sweep.csv").read_bytes()
    rows = data_rows(out1 / "sweep.csv")
    assert [row.split(",")[:3] for row in rows[1:]] == [["omega", "0.3", "3"], ["omega", "0.7", "3"]]


def test_train_and_sweep_headline_is_the_smallest_recall_k(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # a wide spread, so recall@2 and recall@4 differ
    cfg.write_text(config_text(
        out_dir=str(tmp_path / "out"), seeds="0", epochs=2, recall_ks="4,2", cluster_spread=0.5
    ))
    assert main(["sweep", str(cfg), "lambda", "40.0"]) == 0
    header, row = data_rows(tmp_path / "out" / "sweep.csv")
    assert header.split(",")[3:5] == ["recall@2_mean", "recall@2_std"]
    assert main(["train", str(cfg), "--out-dir", str(tmp_path / "trained")]) == 0
    recall = read_json(tmp_path / "trained" / "run_seed0.json")["final"]["recall"]
    assert recall["2"] != recall["4"]
    assert float(row.split(",")[3]) == recall["2"]
    assert capsys.readouterr().out.splitlines()[-1] == f"seed 0: final recall@2 = {recall['2']:.4f}"


@pytest.mark.parametrize("parameter, values", [("omega", "0.5,1.5"), ("lambda", "40,-1")])
def test_sweep_bad_later_value_exit_2_before_any_run(tmp_path, monkeypatch, capsys, parameter, values):
    def never(config, seed, *segment):
        raise AssertionError("trained before every value was checked")

    monkeypatch.setattr("diffdistill.cli.run_training", never)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out")))
    assert main(["sweep", str(cfg), parameter, values]) == 2
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "ConfigError" and repr(parameter) in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_failure_on_one_seed_keeps_the_seeds_before_it(tmp_path, monkeypatch, capfd, cpus):
    real_run_training = cli.run_training

    def fails_on_seed_1(config, seed, *segment):
        if seed == 1:
            raise FloatingPointError("overflow on seed 1")
        return real_run_training(config, seed, *segment)

    monkeypatch.setattr("diffdistill.cli.run_training", fails_on_seed_1)
    sweep = ("sweep", "omega", "0.5")
    code, captured, out = run_on_cpus(tmp_path, monkeypatch, capfd, cpus, sweep, seeds="0,1,2")
    assert code == 0
    row = data_rows(out / "sweep.csv")[1]
    assert row.startswith("omega,0.5,1,") and row.endswith(",failed: FloatingPointError")
    assert "" not in row.split(",")
    warnings = [json.loads(line) for line in captured.err.splitlines() if "run_failed" in line]
    assert warnings == [
        {"warning": "run_failed", "value": 0.5, "seed": 1, "error": "overflow on seed 1"}
    ]


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "diffdistill.cli", "train", "--emit-default-config"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "omega = 0.5" in result.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "diffdistill.cli", "eval", str(tmp_path / "missing.csv")],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 4
    record = json.loads(bad.stderr.strip().splitlines()[-1])
    assert record["exit_code"] == 4
