"""Self-tests of the benchmark: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(name, start, end, parent=-1, layer=None):
    return tracing.Span(name, layer or name.partition(".")[0], start, end, parent)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("metrics.evaluate_batch", 1.0, 4.0, parent=0),
        _span("metrics.kmeans", 1.5, 3.0, parent=1),
        _span("io.write_json", 5.0, 9.0, parent=0),
        _span("io.atomic_write_text", 6.0, 7.0, parent=3),
        # overlapping children are covered once
        _span("training.train", 20.0, 30.0),
        _span("training.sample_batch", 21.0, 25.0, parent=5),
        _span("training.encoder_forward", 23.0, 28.0, parent=5),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 3.0, 1.0, 3.0, 4.0, 5.0])
    by_layer = tracing.self_time_by_layer(spans)
    assert by_layer == pytest.approx({"cli": 3.0, "metrics": 3.0, "io": 4.0, "training": 12.0})
    # one root: the layer self times add up to the root's duration
    assert sum(tracing.self_times(spans[:5])) == pytest.approx(10.0)

    metrics = tracing.layer_metrics(spans)
    assert metrics["metrics.kmeans_s"] == pytest.approx(1.5)
    assert metrics["metrics.self_s"] == pytest.approx(3.0)
    assert metrics["io.write_s"] == pytest.approx(4.0)  # outermost io span only
    assert metrics["io.write_files"] == 1
    assert metrics["cli.self_s"] == pytest.approx(3.0)


def test_epoch_interval_uses_evaluate_starts_within_one_training_run():
    spans = [_span("training.train", 0.0, 100.0)]
    for start in (1.0, 3.0, 6.0, 10.0):
        spans.append(_span("metrics.evaluate_batch", start, start + 0.5, parent=0))
    spans.append(_span("training.train", 200.0, 300.0))
    spans.append(_span("metrics.evaluate_batch", 250.0, 251.0, parent=5))
    metrics = tracing.layer_metrics(spans)
    assert metrics["training.epoch_s_p50"] == pytest.approx(3.0)  # gaps 2, 3, 4
    assert metrics["training.epoch_s_p90"] == pytest.approx(3.8)


def test_install_wraps_every_binding_and_restore_undoes_it():
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import diffdistill
        import diffdistill.cli
        import diffdistill.training
    finally:
        sys.path.pop(0)
    original = diffdistill.training.refine_similarity
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, diffdistill)
    try:
        wrapped = diffdistill.training.refine_similarity
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert diffdistill.diffusion.refine_similarity is wrapped
        assert diffdistill.cli.write_similarity_csv.__wrapped__ is not None
        diffdistill.embeddings.normalize_rows(np.ones((2, 3)))
        assert [s.name for s in tracer.spans] == ["embeddings.normalize_rows"]
        assert tracer.spans[0].layer == "embeddings"
    finally:
        restore()
    assert diffdistill.training.refine_similarity is original


def test_generator_is_deterministic_per_seed(tmp_path):
    digests = {}
    for tag, seed, index in (("a", 3, 0), ("b", 3, 0), ("c", 4, 0), ("d", 3, 1)):
        emb = inputs.gaussian_clusters(seed, index, n_classes=5, per_class=4, dim=3)
        inputs.write_csv(tmp_path / f"{tag}.csv", emb)
        inputs.write_obsd(tmp_path / f"{tag}.obsd", emb)
        digests[tag] = tuple(
            inputs.describe(tmp_path / f"{tag}.{ext}", emb.n, 3, 5)["sha256"] for ext in ("csv", "obsd")
        )
    assert digests["a"] == digests["b"]
    for other in ("c", "d"):
        assert digests["a"][0] != digests[other][0] and digests["a"][1] != digests[other][1]


def _small():
    return inputs.gaussian_clusters(11, 0, n_classes=6, per_class=5, dim=4, spread=0.3)


def test_eval_check_flags_a_recall_off_by_one_row(tmp_path):
    emb = _small()
    ref = checks.EvalReference.of(emb, [1, 2])
    report = {
        "recall": {str(k): v for k, v in ref.recall.items()},
        "nmi": 0.5,
        "density_ratio": ref.density_ratio,
        "spectral_decay": ref.spectral_decay,
    }
    (tmp_path / "metrics.json").write_text(json.dumps(report))
    assert checks.check_eval(tmp_path, ref)["recall_at_1"] == ref.recall[1]

    report["recall"]["1"] = ref.recall[1] + 1.0 / emb.n
    (tmp_path / "metrics.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="recall@1"):
        checks.check_eval(tmp_path, ref)


def _write_neighbors(path: Path, ranked: np.ndarray, scores: np.ndarray) -> None:
    lines = ["# config_hash=test", "i,rank,neighbor,score"]
    for i, (js, row) in enumerate(zip(ranked, scores)):
        lines += [f"{i},{r},{j},{s!r}" for r, (j, s) in enumerate(zip(js.tolist(), row.tolist()), 1)]
    path.write_text("\n".join(lines) + "\n")


def test_neighbor_check_flags_one_corrupted_score(tmp_path):
    emb = _small()
    ref = checks.refined_reference(emb, omega=0.9, knn_k=5)
    ranked = checks._ranked(ref)[:, :3]
    scores = np.take_along_axis(ref, ranked, axis=1)
    path = tmp_path / "neighbors.csv"
    _write_neighbors(path, ranked, scores)
    checks.check_neighbors(*checks._neighbor_lists(path, emb.n, 3), ref)

    scores[4, 1] += 1e-6
    _write_neighbors(path, ranked, scores)
    with pytest.raises(checks.CheckFailed, match="row 4"):
        checks.check_neighbors(*checks._neighbor_lists(path, emb.n, 3), ref)


def test_metric_names_are_restricted_and_consistent():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["per_layer"]
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == {name: (e["unit"], e["better"]) for name, e in layers.items()}
    produced = set(tracing.layer_metrics([])) | {"trace_overhead_ratio"}
    assert produced == set(per_layer)
