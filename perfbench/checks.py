"""Output checks and the numpy references they compare against.

Each ``check_*`` function reads one invocation's output directory, raises
`CheckFailed` when an output is missing, malformed or wrong, and otherwise
returns the quality numbers of that invocation (``recall_at_1``, ``nmi``).
Nothing here imports diffdistill: the references are written independently
of the program under test.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import Embeddings

SCORE_TOL = 1e-8  # refined similarities and neighbour scores
METRIC_TOL = 1e-9  # density ratio and spectral decay, relative


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1)[:, None]


def _ranked(scores: np.ndarray) -> np.ndarray:
    """Column order per row: descending score, self excluded, ties by index."""
    n = scores.shape[0]
    masked = scores.copy()
    np.fill_diagonal(masked, -np.inf)
    return np.argsort(-masked, axis=1, kind="stable")[:, : n - 1]


def nmi(assignments: np.ndarray, labels: np.ndarray) -> float:
    """2 I(A, L) / (H(A) + H(L)), natural logs."""
    _, a = np.unique(assignments, return_inverse=True)
    _, b = np.unique(labels, return_inverse=True)
    joint = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(joint, (a, b), 1.0)
    joint /= joint.sum()
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    mutual = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])))
    entropy = -float(np.sum(pa * np.log(pa))) - float(np.sum(pb * np.log(pb)))
    return 2.0 * mutual / entropy if entropy > 0 else 0.0


# ---------------------------------------------------------------------------
# references


def recall_reference(emb: Embeddings, ks) -> dict[int, float]:
    """Brute-force Recall@K over the cosine ranking."""
    z = _unit_rows(emb.vectors)
    same = emb.labels[_ranked(np.clip(z @ z.T, -1.0, 1.0))] == emb.labels[:, None]
    return {k: float(np.mean(same[:, :k].any(axis=1))) for k in ks}


def density_reference(emb: Embeddings) -> float:
    """Mean within-class pair distance over mean distance between class means."""
    z = _unit_rows(emb.vectors)
    classes = np.unique(emb.labels)
    intra = []
    for c in classes:
        members = z[emb.labels == c]
        dist = np.sqrt(np.sum((members[:, None, :] - members[None, :, :]) ** 2, axis=2))
        intra.append(dist[~np.eye(len(members), dtype=bool)])
    means = np.stack([z[emb.labels == c].mean(axis=0) for c in classes])
    between = np.sqrt(np.sum((means[:, None, :] - means[None, :, :]) ** 2, axis=2))
    inter = between[~np.eye(len(classes), dtype=bool)].mean()
    return float(np.concatenate(intra).mean() / inter)


def spectral_reference(emb: Embeddings, exclude_top: int = 2) -> float:
    """KL(uniform || normalized singular spectrum without the top values)."""
    sv = np.linalg.svd(_unit_rows(emb.vectors), compute_uv=False)[exclude_top:]
    p = sv / sv.sum()
    return float(np.mean(np.log(1.0 / p.size) - np.log(p)))


def refined_reference(emb: Embeddings, omega: float, knn_k: int, eps: float = 1e-8) -> np.ndarray:
    """(1 - omega)(I - omega S)^{-1} D on the mutual-kNN cosine graph, dense."""
    z = _unit_rows(emb.vectors)
    n = z.shape[0]
    D = np.clip(z @ z.T, -1.0, 1.0)
    top = _ranked(D)[:, :knn_k]
    knn = np.zeros((n, n), dtype=bool)
    knn[np.repeat(np.arange(n), knn_k), top.ravel()] = True
    W = np.where(knn & knn.T, np.maximum(D, 0.0), 0.0)
    np.fill_diagonal(W, 0.0)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(W.sum(axis=1), eps))
    S = W * inv_sqrt[:, None] * inv_sqrt[None, :]
    return np.linalg.solve(np.eye(n) - omega * S, (1.0 - omega) * D)


# ---------------------------------------------------------------------------
# parsing


def _data_lines(path: Path) -> list[str]:
    _require(path.is_file(), f"missing artifact {path.name}")
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    _require(bool(lines) and lines[0].startswith("# config_hash="), f"{path.name}: no config hash")
    return lines[1:]


def _finite(value: str, where: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise CheckFailed(f"{where}: not a number: {value!r}") from None
    _require(math.isfinite(x), f"{where}: non-finite value {value!r}")
    return x


def _finite_json(node, where: str) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _finite_json(value, f"{where}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _finite_json(value, f"{where}[{index}]")
    elif isinstance(node, float):
        _require(math.isfinite(node), f"{where}: non-finite")
    elif node is None:
        raise CheckFailed(f"{where}: null")


def _json(path: Path) -> dict:
    _require(path.is_file(), f"missing artifact {path.name}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    _finite_json(payload, path.name)
    return payload


def _embedding_csv(path: Path) -> np.ndarray:
    rows = list(csv.reader(_data_lines(path)))
    _require(len(rows) >= 2 and rows[0][:2] == ["id", "label"], f"{path.name}: bad header")
    width = len(rows[0])
    values = []
    for lineno, row in enumerate(rows[1:], start=3):
        _require(len(row) == width, f"{path.name}:{lineno}: {len(row)} fields, want {width}")
        values.append([_finite(x, f"{path.name}:{lineno}") for x in row[2:]])
    vectors = np.asarray(values)
    _require(
        bool(np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) < 1e-9)),
        f"{path.name}: rows are not unit-norm",
    )
    return vectors


# ---------------------------------------------------------------------------
# per-workload checks


def check_train(out: Path, seeds: list[int], epochs: int) -> dict[str, float]:
    """Every artifact present, parseable and finite; summary consistent with runs."""
    finals = []
    for seed in seeds:
        rows = list(csv.reader(_data_lines(out / f"history_seed{seed}.csv")))
        _require(len(rows) == epochs + 1, f"history_seed{seed}.csv: {len(rows) - 1} epochs")
        header = rows[0]
        for lineno, row in enumerate(rows[1:], start=3):
            _require(len(row) == len(header), f"history_seed{seed}.csv:{lineno}: field count")
            for cell in row:
                _finite(cell, f"history_seed{seed}.csv:{lineno}")
        last = dict(zip(header, rows[-1]))
        for split in ("train", "test"):
            _embedding_csv(out / f"embeddings_{split}_seed{seed}.csv")
        run = _json(out / f"run_seed{seed}.json")
        _require(len(run.get("history", [])) == epochs, f"run_seed{seed}.json: history length")
        final = run["final"]
        _require(
            float(last["recall@1"]) == final["recall"]["1"] and float(last["nmi"]) == final["nmi"],
            f"run_seed{seed}.json: final metrics differ from the history CSV",
        )
        finals.append(final)
    summary = _json(out / "summary.json")
    aggregate = summary["aggregate"]
    recall = float(np.mean([f["recall"]["1"] for f in finals]))
    nmi_mean = float(np.mean([f["nmi"] for f in finals]))
    _require(
        math.isclose(aggregate["recall@1"]["mean"], recall, rel_tol=1e-12)
        and math.isclose(aggregate["nmi"]["mean"], nmi_mean, rel_tol=1e-12),
        "summary.json: aggregate differs from the per-seed runs",
    )
    return {"recall_at_1": recall, "nmi": nmi_mean}


@dataclass(frozen=True)
class EvalReference:
    recall: dict[int, float]
    density_ratio: float
    spectral_decay: float

    @classmethod
    def of(cls, emb: Embeddings, ks) -> "EvalReference":
        return cls(recall_reference(emb, ks), density_reference(emb), spectral_reference(emb))


def check_eval(out: Path, ref: EvalReference) -> dict[str, float]:
    """Recall@K exactly equal to brute force; density and decay to 1e-9."""
    report = _json(out / "metrics.json")
    recall = report["recall"]
    _require(
        sorted(recall) == sorted(str(k) for k in ref.recall),
        f"metrics.json: recall keys {sorted(recall)}",
    )
    for k, want in ref.recall.items():
        _require(recall[str(k)] == want, f"recall@{k} = {recall[str(k)]!r}, brute force {want!r}")
    for key, want in (("density_ratio", ref.density_ratio), ("spectral_decay", ref.spectral_decay)):
        got = report[key]
        _require(
            abs(got - want) <= METRIC_TOL * max(1.0, abs(want)), f"{key} = {got!r}, reference {want!r}"
        )
    _require(0.0 < report["nmi"] <= 1.0, f"nmi = {report['nmi']!r} outside (0, 1]")
    return {"recall_at_1": recall["1"], "nmi": report["nmi"]}


def _neighbor_lists(path: Path, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    rows = list(csv.reader(_data_lines(path)))
    _require(rows[:1] == [["i", "rank", "neighbor", "score"]], f"{path.name}: bad header")
    _require(len(rows) - 1 == n * count, f"{path.name}: {len(rows) - 1} rows, want {n * count}")
    index = np.empty((n, count), dtype=np.int64)
    score = np.empty((n, count))
    for lineno, row in enumerate(rows[1:], start=3):
        _require(len(row) == 4, f"{path.name}:{lineno}: field count")
        i, rank = int(row[0]), int(row[1])
        _require(
            (lineno - 3) == i * count + rank - 1, f"{path.name}:{lineno}: rows out of order"
        )
        index[i, rank - 1] = int(row[2])
        score[i, rank - 1] = _finite(row[3], f"{path.name}:{lineno}")
    return index, score


def check_neighbors(index: np.ndarray, score: np.ndarray, ref: np.ndarray) -> None:
    """Listed scores match the reference; order is (-score, index); nothing better left out."""
    n, count = index.shape
    for i in range(n):
        js = index[i]
        _require(
            len(set(js.tolist())) == count and i not in js and js.min() >= 0 and js.max() < n,
            f"neighbors of row {i}: bad indices {js.tolist()}",
        )
        err = np.abs(score[i] - ref[i, js])
        _require(
            bool(np.all(err <= SCORE_TOL)),
            f"neighbors of row {i}: score off by {err.max():.3e} from the reference",
        )
        for r in range(count - 1):
            _require(
                score[i, r] > score[i, r + 1] or (score[i, r] == score[i, r + 1] and js[r] < js[r + 1]),
                f"neighbors of row {i}: ranks {r + 1} and {r + 2} out of order",
            )
        rest = np.ones(n, dtype=bool)
        rest[js] = False
        rest[i] = False
        _require(
            not rest.any() or ref[i, rest].max() <= ref[i, js[-1]] + SCORE_TOL,
            f"neighbors of row {i}: a better neighbour was left out",
        )


def check_similarity_rows(path: Path, ref: np.ndarray, sample: np.ndarray) -> None:
    """The file has every (i, j) of one block; the sampled rows match the reference."""
    n = ref.shape[0]
    wanted = {int(i) for i in sample}
    got = {i: np.full(n, np.nan) for i in wanted}
    lines = 0
    with open(path, encoding="utf-8") as handle:
        _require(handle.readline().startswith("# config_hash="), f"{path.name}: no config hash")
        _require(handle.readline().rstrip("\n") == "batch,i,j,value", f"{path.name}: bad header")
        for line in handle:
            lines += 1
            batch, i, rest = line.split(",", 2)
            if int(i) in wanted:
                j, value = rest.split(",")
                _require(batch == "0", f"{path.name}: batch {batch} in global mode")
                got[int(i)][int(j)] = _finite(value, f"{path.name}: row {i}")
    _require(lines == n * n, f"{path.name}: {lines} pairs, want {n * n}")
    for i, row in got.items():
        err = np.abs(row - ref[i])
        _require(
            bool(np.all(err <= SCORE_TOL)),
            f"{path.name}: row {i} off by {np.nanmax(err):.3e} from the reference",
        )


def check_diffuse(
    out: Path, emb: Embeddings, ref: np.ndarray, sample: np.ndarray, count: int
) -> dict[str, float]:
    index, score = _neighbor_lists(out / "neighbors.csv", emb.n, count)
    check_neighbors(index, score, ref)
    check_similarity_rows(out / "refined_similarity.csv", ref, sample)
    first = emb.labels[index[:, 0]]
    return {"recall_at_1": float(np.mean(first == emb.labels)), "nmi": nmi(first, emb.labels)}
