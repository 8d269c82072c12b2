import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from diffdistill import cli, training
from diffdistill.cli import main
from diffdistill.config import default_config_text
from diffdistill.diffusion import MAX_DENSE_ROWS
from diffdistill.embeddings import EmbeddingBatch, normalize_rows
from diffdistill.io import (
    EmbeddingTable,
    read_embeddings_csv,
    read_json,
    read_similarity_csv,
    write_embeddings_csv,
)
from diffdistill.metrics import evaluate_batch


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
    raise AssertionError("n^2 similarity built before the scale guard")


def test_diffuse_global_above_dense_bound_exit_2(tmp_path, monkeypatch, capsys):
    n = MAX_DENSE_ROWS + 1
    angles = np.linspace(0.0, 6.0, n)
    write_table(tmp_path / "emb.csv", np.column_stack([np.cos(angles), np.sin(angles)]), np.zeros(n, dtype=int))
    monkeypatch.setattr(cli, "cosine_similarity_matrix", refuse_dense)
    assert main(["diffuse", str(tmp_path / "emb.csv"), "--omega", "0.5", "--mode", "global",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "MAX_DENSE_ROWS" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "out").exists()


def test_train_global_scope_above_dense_bound_exit_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(
        num_train_classes=2, num_test_classes=2, samples_per_class=MAX_DENSE_ROWS // 2 + 1,
        input_dim=2, diffusion_scope="global", out_dir=str(tmp_path / "out"),
    ))
    monkeypatch.setattr(training, "cosine_similarity_matrix", refuse_dense)
    assert main(["train", str(cfg)]) == 2
    assert "MAX_DENSE_ROWS" in json.loads(capsys.readouterr().err)["message"]
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


def test_eval_and_diffuse_accept_binary_input(tmp_path):
    from diffdistill.io import write_embeddings_binary

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


def test_gradcheck_corrupted_gradient_fails(tmp_path):
    code = main(["gradcheck", "--trials", "2", "--seed", "5", "--corrupt",
                 "--out-dir", str(tmp_path)])
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
    def broken(config, seed, distill_mode=None):
        raise TypeError("bug, not a failed run")

    monkeypatch.setattr("diffdistill.cli.run_training", broken)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out_dir=str(tmp_path / "out"), seeds="0"))
    with pytest.raises(TypeError, match="bug"):
        main(["sweep", str(cfg), "omega", "0.5"])


def test_sweep_library_error_becomes_failed_row(tmp_path, monkeypatch):
    def failing(config, seed, distill_mode=None):
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
