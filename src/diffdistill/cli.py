"""Command-line surface: train, diffuse, eval, gradcheck, sweep.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
Failures emit a one-line JSON error record on stderr. Every artifact embeds
the hash of the configuration that produced it (JSON meta field, or a leading
``# config_hash=...`` comment in CSVs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, canonical_hash, default_config_text, load_config
from .diffusion import (
    DiffusionParams,
    build_affinity_batch,
    refine_global,
    refine_similarity,
    refinement_objective,
)
from .distill import psd_grad, psd_loss, row_softmax
from .embeddings import EmbeddingBatch, cosine_similarity_matrix, normalize_rows, top_neighbors
from .errors import DiffDistillError, KTooLarge
from .io import (
    EmbeddingTable,
    FormatError,
    affinity_cpus,
    fork_chains,
    read_embeddings_auto,
    write_csv_rows,
    write_embeddings_csv,
    write_json,
    write_neighbors_csv,
    write_similarity_csv,
)
from .metrics import evaluate_batch
from .training import baseline_contrastive_loss_and_grad, join_segments, train, zero_shot_task

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class CliValidationError(ValueError):
    pass


def _error_record(exc: Exception, exit_code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(json.dumps(record), file=sys.stderr)
    return exit_code


def _normalized_batch(table: EmbeddingTable) -> EmbeddingBatch:
    return EmbeddingBatch(normalize_rows(table.vectors), table.labels)


def _warn_degenerate(rows: list[int], **where) -> None:
    """One stderr line naming the rows whose affinity degree was floored, and where."""
    print(json.dumps({"warning": "DegenerateGraph", **where, "rows": rows}), file=sys.stderr)


def _warn_floored_rows(result, **where) -> None:
    """A training run's floored train-set rows, over all epochs, if there are any."""
    if result.degenerate_rows:
        rows = sorted(set().union(*result.degenerate_rows.values()))
        _warn_degenerate(rows, **where, epochs=list(result.degenerate_rows))


# ---------------------------------------------------------------------------
# train


_EPOCH_FIELDS = ("epoch", "distill_weight", "dml_loss", "distill_loss")


def _epoch_record(rec) -> dict:
    """One epoch as the run JSON stores it; the history CSV and `final` read it too."""
    report = rec.test_report.to_json_dict()
    del report["meta"]
    return {
        **{name: getattr(rec, name) for name in _EPOCH_FIELDS},
        **report,
        "train_density_ratio": rec.train_density_ratio,
        "train_spectral_decay": rec.train_spectral_decay,
    }


def _csv_rows(records: list[dict]) -> list[list]:
    """A header and one repr row per record; a dict field gives a `field@key` column per key."""
    flat = []
    for record in records:
        cells = {}
        for key, value in record.items():
            if isinstance(value, dict):
                cells.update((f"{key}@{k}", v) for k, v in value.items())
            else:
                cells[key] = value
        flat.append(cells)
    return [list(flat[0])] + [[repr(v) for v in cells.values()] for cells in flat]


def _embedding_table(batch: EmbeddingBatch) -> EmbeddingTable:
    return EmbeddingTable(
        ids=[str(i) for i in range(batch.n)], labels=batch.labels, vectors=batch.vectors
    )


def run_training(config: RunConfig, seed: int, stop: int | None = None, resume=None):
    """Train `seed` from `resume` (a Checkpoint; the start without one) up to epoch `stop`."""
    train_set, test_set = zero_shot_task(config, seed)
    return train(train_set, test_set, config, seed, stop, resume)


def _train_seeds(config: RunConfig, seeds: list[int]):
    """Yield each seed's TrainResult in seed order, training the seeds in forked workers.

    With w = min(affinity CPUs, seeds) workers, each seed's epochs run as
    min(w, epochs) contiguous segments, each resumed from the end of the one
    before, so the seeds' segments share out the workers; one worker trains
    every seed whole, in this process.
    """
    epochs = config["epochs"]
    parts = min(affinity_cpus(), len(seeds), epochs)
    stops = [epochs * (j + 1) // parts for j in range(parts)]

    def run(task):
        seed, part, resume = task
        return run_training(config, seed, stops[part], resume)

    def follow(task, result):
        seed, part, _ = task
        return (seed, part + 1, result.end) if part + 1 < parts else None

    for segments in fork_chains(run, [(seed, 0, None) for seed in seeds], follow):
        yield join_segments(segments)


def _config_and_seeds(args) -> tuple[RunConfig, list[int]]:
    """The config file with `--out-dir` bound, and `--seed` or else the config's seeds."""
    config = load_config(args.config)
    if args.out_dir is not None:
        config = config.with_overrides(out_dir=args.out_dir)
    return config, [args.seed] if args.seed is not None else list(config["seeds"])


def _final_record(result) -> dict:
    """The last epoch's record without its per-epoch training fields."""
    record = _epoch_record(result.history[-1])
    return {key: value for key, value in record.items() if key not in _EPOCH_FIELDS}


def _aggregate(finals: list[dict], ks) -> dict:
    """Mean and std over seeds of each final metric; recall once per K."""
    columns = {f"recall@{k}": [final["recall"][str(k)] for final in finals] for k in ks}
    for name in ("nmi", "density_ratio", "spectral_decay"):
        columns[name] = [final[name] for final in finals]
    return {name: {"mean": float(np.mean(v)), "std": float(np.std(v))} for name, v in columns.items()}


def cmd_train(args) -> int:
    if args.emit_default_config:
        sys.stdout.write(default_config_text())
        return EXIT_OK
    if args.config is None:
        raise CliValidationError("train requires a config file (or --emit-default-config)")
    config, seeds = _config_and_seeds(args)
    chash = config.config_hash()
    out_dir = Path(config["out_dir"])
    k = min(config["recall_ks"])  # the headline K

    per_seed = {}
    # seeds train in forked workers; this process writes and prints, in seed order
    for seed, result in zip(seeds, _train_seeds(config, seeds)):
        history = [_epoch_record(rec) for rec in result.history]
        write_csv_rows(out_dir / f"history_seed{seed}.csv", _csv_rows(history), chash)
        for split, batch in (("train", result.final_train), ("test", result.final_test)):
            path = out_dir / f"embeddings_{split}_seed{seed}.csv"
            write_embeddings_csv(path, _embedding_table(batch), config_hash=chash)
        final = _final_record(result)
        final["diffusion_seconds"] = result.diffusion_seconds
        write_json(
            out_dir / f"run_seed{seed}.json",
            {
                "meta": {
                    "config_hash": chash,
                    "version": __version__,
                    "seed": seed,
                    "optimizer": "gradient_descent_fixed_step",
                    "config": config.values,
                },
                "final": final,
                "history": history,
            },
        )
        per_seed[str(seed)] = final
        print(f"seed {seed}: final recall@{k} = {final['recall'][str(k)]:.4f}")
        _warn_floored_rows(result, seed=seed)

    summary = {
        "meta": {
            "config_hash": chash,
            "version": __version__,
            "seeds": seeds,
            "config": config.values,
        },
        "per_seed": per_seed,
        "aggregate": _aggregate(list(per_seed.values()), config["recall_ks"]),
    }
    write_json(out_dir / "summary.json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diffuse


def cmd_diffuse(args) -> int:
    params = DiffusionParams(omega=args.omega, degree_epsilon=args.degree_epsilon)
    table = read_embeddings_auto(args.embeddings)
    batch_all = _normalized_batch(table)
    n = batch_all.n
    chash = canonical_hash(
        {
            "command": "diffuse",
            "input": Path(args.embeddings).name,
            "omega": args.omega,
            "mode": args.mode,
            "knn_k": args.knn_k,
            "batch_size": args.batch_size,
            "degree_epsilon": args.degree_epsilon,
        }
    )

    if args.mode == "global":
        if not 1 <= args.knn_k < n:
            raise CliValidationError(f"knn_k must satisfy 1 <= k < n={n}, got {args.knn_k}")
        spans = [(0, n)]
    else:
        if args.batch_size < 2:
            raise CliValidationError("batch_size must be >= 2")
        spans = [(start, min(start + args.batch_size, n)) for start in range(0, n, args.batch_size)]
        # a trailing single row cannot form a graph; fold it into the last batch
        if len(spans) > 1 and spans[-1][1] - spans[-1][0] < 2:
            spans[-2:] = [(spans[-2][0], n)]
        if spans[0][1] - spans[0][0] < 2:
            raise CliValidationError("need at least 2 rows to diffuse")
    blocks = []
    for batch_index, (start, stop) in enumerate(spans):
        z = batch_all.vectors[start:stop]
        if args.mode == "global":
            result = refine_global(z, params, args.knn_k)  # A = Y Z^T, kept factored
        else:
            result = refine_similarity(cosine_similarity_matrix(z), params)
        if result.degenerate_rows:
            _warn_degenerate([start + r for r in result.degenerate_rows], batch=batch_index)
        blocks.append((batch_index, np.arange(start, stop), result.matrix))

    out_dir = Path(args.out_dir)
    write_similarity_csv(out_dir / "refined_similarity.csv", blocks, config_hash=chash)
    if args.neighbors > 0:
        ranked = []
        for _, indices, A in blocks:
            order, scores = top_neighbors(A, min(args.neighbors, len(indices) - 1))
            ranked.append((indices, indices[order], scores))
        write_neighbors_csv(out_dir / "neighbors.csv", ranked, config_hash=chash)
    print(f"wrote {len(blocks)} refined block(s) for {n} rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    table = read_embeddings_auto(args.embeddings)
    batch = _normalized_batch(table)
    ks = sorted(set(args.ks))
    report = evaluate_batch(
        batch,
        ks=ks,
        kmeans_restarts=args.kmeans_restarts,
        seed=args.seed if args.seed is not None else 0,
        density_distance=args.density_distance,
    )
    payload = report.to_json_dict()
    payload["meta"]["config_hash"] = canonical_hash(
        {
            "command": "eval",
            "input": Path(args.embeddings).name,
            "ks": tuple(ks),
            "kmeans_restarts": args.kmeans_restarts,
            "seed": args.seed if args.seed is not None else 0,
            "density_distance": args.density_distance,
        }
    )
    payload["meta"]["version"] = __version__
    write_json(Path(args.out_dir) / "metrics.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def _fd_grad(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central differences of the scalar function f at every entry of x."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        plus, minus = x.copy(), x.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (f(plus) - f(minus)) / (2 * step)
    return grad


# Each trial draws one random instance and returns (value, instance); a check
# passes when the worst value over all trials stays below its threshold.


def _distill_trial(rng):
    n = int(rng.integers(3, 9))
    d = int(rng.integers(2, 7))
    tau = float(rng.choice([0.5, 1.0, 2.0]))
    V = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 2.0))
    target = rng.standard_normal((n, n))
    target = (target + target.T) / 2.0
    analytic = psd_grad(V, row_softmax(target, tau), tau)
    fd = _fd_grad(
        lambda W: psd_loss(target, cosine_similarity_matrix(normalize_rows(W)), tau), V, 1e-6
    )
    rel = float(np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12))
    return rel, {"V": V.tolist(), "target": target.tolist(), "tau": tau}


def _baseline_trial(rng):
    n = int(rng.integers(4, 9))
    d = int(rng.integers(2, 7))
    margin = float(rng.uniform(0.1, 0.8))
    V = rng.standard_normal((n, d))
    labels = rng.integers(0, max(2, n // 2), size=n)
    if np.unique(labels).size < 2 or np.unique(labels).size == n:
        labels[0] = labels[1]  # guarantee one positive pair
        labels[-1] = labels[0] + 1  # and one negative
    _, analytic = baseline_contrastive_loss_and_grad(V, labels, margin)
    fd = _fd_grad(lambda W: baseline_contrastive_loss_and_grad(W, labels, margin)[0], V, 1e-6)
    rel = float(np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12))
    return rel, {"V": V.tolist(), "labels": labels.tolist(), "margin": margin}


def _stationarity_trial(rng):
    n = int(rng.integers(4, 11))
    d = int(rng.integers(3, 7))
    omega = float(rng.choice([0.1, 0.5, 0.9]))
    params = DiffusionParams(omega=omega)
    while True:
        # stationarity holds on graphs whose degrees needed no flooring
        Z = normalize_rows(rng.standard_normal((n, d)))
        D = cosine_similarity_matrix(Z)
        graph = build_affinity_batch(D, params)
        if not graph.degenerate_rows:
            break
    A = refine_similarity(D, params).matrix
    grad = _fd_grad(lambda M: refinement_objective(M, graph.W, graph.degrees, D, omega), A, 1e-5)
    max_grad = float(np.abs(grad).max())
    bound = 1e-6 * (1.0 + float(np.abs(D).max()))
    return max_grad / bound, {"Z": Z.tolist(), "omega": omega, "max_grad": max_grad, "bound": bound}


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise CliValidationError("trials must be >= 1")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    chash = canonical_hash({"command": "gradcheck", "seed": seed, "trials": args.trials})
    checks = [
        ("distill_grad_rel_err", _distill_trial, 1e-5),
        ("baseline_grad_rel_err", _baseline_trial, 1e-5),
        ("stationarity_over_bound", _stationarity_trial, 1.0),
    ]
    failed = False
    results = {}
    for name, trial, threshold in checks:
        worst, worst_case = 0.0, None
        for _ in range(args.trials):
            value, instance = trial(rng)
            if value > worst:
                worst, worst_case = value, instance
        ok = worst < threshold
        results[name] = {"max": worst, "threshold": threshold, "pass": bool(ok)}
        print(f"{name}: max={worst:.3e} threshold={threshold:.3e} -> {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed = True
            write_json(
                Path(args.out_dir) / f"gradcheck_failure_{name}.json",
                {
                    "meta": {"config_hash": chash, "version": __version__},
                    "check": name,
                    "value": worst,
                    "threshold": threshold,
                    "instance": worst_case,
                },
            )
    write_json(
        Path(args.out_dir) / "gradcheck.json",
        {
            "meta": {
                "config_hash": chash,
                "version": __version__,
                "seed": seed,
                "trials": args.trials,
            },
            "results": results,
        },
    )
    if failed:
        raise DiffDistillError("gradient check failed; failing instance serialized")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    config, seeds = _config_and_seeds(args)
    values = []
    for piece in args.values.split(","):
        piece = piece.strip()
        if piece:
            try:
                values.append(float(piece))
            except ValueError as exc:
                raise CliValidationError(f"bad sweep value {piece!r}") from exc
    if not values:
        raise CliValidationError("sweep needs at least one value")
    # every value is checked before the first run
    swept = [config.with_overrides(**{args.parameter: value}) for value in values]

    out_dir = Path(config["out_dir"])
    chash = canonical_hash(
        {
            "command": "sweep",
            "base_config": config.config_hash(),
            "parameter": args.parameter,
            "values": tuple(values),
            "seeds": tuple(seeds),
        }
    )
    k = min(config["recall_ks"])  # the headline K, as in `train`
    rows = [["parameter", "value", "seeds", f"recall@{k}_mean", f"recall@{k}_std", "nmi_mean", "nmi_std", "status"]]
    for value, value_config in zip(values, swept):
        finals, status = [], "ok"
        try:
            for seed, result in zip(seeds, _train_seeds(value_config, seeds)):
                finals.append(_final_record(result))
                _warn_floored_rows(result, value=value, seed=seed)
        except (DiffDistillError, ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
            # keep partial sweep results on library and numerical failures
            status = f"failed: {type(exc).__name__}"
            failed = {"warning": "run_failed", "value": value, "seed": seeds[len(finals)], "error": str(exc)}
            print(json.dumps(failed), file=sys.stderr)
        cells = [""] * 4
        if finals:
            aggregate = _aggregate(finals, [k])
            cells = [repr(aggregate[name][stat]) for name in (f"recall@{k}", "nmi") for stat in ("mean", "std")]
        rows.append([args.parameter, repr(value), len(finals), *cells, status])
        # partial results survive later failures
        write_csv_rows(out_dir / "sweep.csv", rows, chash)
    print(f"swept {args.parameter} over {len(values)} value(s); results in {out_dir / 'sweep.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffdistill",
        description="Diffusion-refined self-distillation for metric learning (desk scale).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed list")
        p.add_argument("--out-dir", default=None, help="output directory")

    p_train = sub.add_parser("train", help="run the self-distillation training loop")
    p_train.add_argument("config", nargs="?", default=None, help="path to a key = value config file")
    p_train.add_argument(
        "--emit-default-config", action="store_true", help="print the default config and exit"
    )
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_diff = sub.add_parser("diffuse", help="refine a similarity matrix by diffusion")
    p_diff.add_argument("embeddings", help="embedding file (CSV or OBSD binary)")
    p_diff.add_argument("--omega", type=float, required=True)
    p_diff.add_argument("--mode", choices=["batch", "global"], default="batch")
    p_diff.add_argument("--knn-k", type=int, default=10, dest="knn_k")
    p_diff.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p_diff.add_argument("--degree-epsilon", type=float, default=1e-8, dest="degree_epsilon")
    p_diff.add_argument("--neighbors", type=int, default=0, help="also write top-N neighbor lists")
    add_common(p_diff)
    p_diff.set_defaults(func=cmd_diffuse)

    p_eval = sub.add_parser("eval", help="compute the embedding-space metric suite")
    p_eval.add_argument("embeddings", help="embedding file (CSV or OBSD binary)")
    p_eval.add_argument("--ks", type=int, nargs="+", default=[1, 2, 4, 8])
    p_eval.add_argument("--kmeans-restarts", type=int, default=10, dest="kmeans_restarts")
    p_eval.add_argument(
        "--density-distance", choices=["euclidean", "cosine"], default="euclidean",
        dest="density_distance",
    )
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    p_grad.add_argument("--trials", type=int, default=50)
    add_common(p_grad)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="train once per parameter value per seed")
    p_sweep.add_argument("config", help="path to a key = value config file")
    p_sweep.add_argument("parameter", choices=["omega", "lambda"])
    p_sweep.add_argument("values", help="comma-separated values")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out_dir is None and args.command in ("diffuse", "eval", "gradcheck"):
        args.out_dir = "."
    try:
        return args.func(args)
    except (ConfigError, FormatError, CliValidationError, KTooLarge, ValueError) as exc:
        return _error_record(exc, EXIT_VALIDATION)
    except DiffDistillError as exc:
        return _error_record(exc, EXIT_NUMERICAL)
    except np.linalg.LinAlgError as exc:
        return _error_record(exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _error_record(exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
