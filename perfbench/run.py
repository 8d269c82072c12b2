"""Benchmark of the diffdistill command line, end to end and layer by layer.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 40 --trace 0

Self-tests: ``python3 -m pytest -q perfbench``.

``--trace 0`` runs the workload as a closed loop of fresh ``diffdistill``
processes, one at a time, for at least ``--seconds`` of measured time and at
least once per input set, checks every invocation's outputs and reports the
end-to-end metrics. ``--trace 1`` calls ``diffdistill.cli.main(argv)`` in this
process, alternating untraced calls with calls whose package functions are
wrapped in spans (see tracing.py), and reports the per-layer metrics. The last
line of standard output is the JSON result; the lines before it name every
metric with its unit, the inputs and the environment. ``--negative-control``
corrupts each output before it is checked, so every invocation must count as
failed.

BLAS and OpenMP run one thread, in this process and in every child.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_FIRST = 3  # set-up samples before the first invocation
DIFFUSE_ARGS = ["--mode", "global", "--omega", "0.9", "--knn-k", "50", "--neighbors", "10"]
NEIGHBORS = 10
SIMILARITY_SAMPLE_ROWS = 16


@dataclass(frozen=True)
class Prepared:
    """One input set made ready: CLI arguments, output check, negative control."""

    argv: list[str]  # without --out-dir
    check: Callable[[Path], dict]  # out_dir -> {"recall_at_1", "nmi"}; raises CheckFailed
    corrupt: Callable[[Path], None]  # the negative control's damage to an output
    record: dict  # sha256, n, d and class count of the input


# ---------------------------------------------------------------------------
# workloads


@functools.cache
def _default_config() -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "diffdistill.cli", "train", "--emit-default-config"],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


def _config_value(text: str, key: str) -> str:
    for line in text.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return value.strip()
    raise KeyError(key)


def _corrupt_history(out: Path) -> None:
    path = sorted(out.glob("history_seed*.csv"))[0]
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _prepare_train(seed, index, work, overrides: dict, run_seed: int | None) -> Prepared:
    # run seed s trains on data_seed + s, so input sets stay 10 data seeds apart
    text = inputs.train_config(_default_config(), {"data_seed": 1000 * seed + 10 * index, **overrides})
    path = work / "train.cfg"
    path.write_text(text, encoding="utf-8")
    value = functools.partial(_config_value, text)
    if run_seed is None:
        seeds, extra = [int(s) for s in value("seeds").split(",")], []
    else:
        seeds, extra = [run_seed], ["--seed", str(run_seed)]
    epochs = int(value("epochs"))
    classes = int(value("num_train_classes")) + int(value("num_test_classes"))
    n = classes * int(value("samples_per_class"))
    return Prepared(
        argv=["train", str(path), *extra],
        check=lambda out: checks.check_train(out, seeds, epochs),
        corrupt=_corrupt_history,
        record=inputs.describe(path, n, int(value("input_dim")), classes),
    )


def prepare_train_default(seed: int, index: int, work: Path) -> Prepared:
    return _prepare_train(seed, index, work, {}, None)


def prepare_train_global(seed: int, index: int, work: Path) -> Prepared:
    # Tight clusters keep the 2-class test quality at its ceiling on every
    # seed, so quality is a steady sentinel here; the workload times diffusion.
    overrides = {
        "diffusion_scope": "global",
        "samples_per_class": 50,
        "num_test_classes": 2,
        "cluster_spread": 0.07,
    }
    return _prepare_train(seed, index, work, overrides, 0)


def _corrupt_recall(out: Path) -> None:
    path = out / "metrics.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["recall"]["1"] += 1.0 / report["meta"]["n"]  # one more query counted as a hit
    path.write_text(json.dumps(report), encoding="utf-8")


def prepare_eval(seed: int, index: int, work: Path) -> Prepared:
    emb = inputs.gaussian_clusters(seed, index)
    path = work / "embeddings.csv"
    inputs.write_csv(path, emb)
    ks = [1, 2, 4, 8]
    ref = checks.EvalReference.of(emb, ks)
    return Prepared(
        argv=["eval", str(path), "--ks", *map(str, ks)],
        check=lambda out: checks.check_eval(out, ref),
        corrupt=_corrupt_recall,
        record=inputs.describe(path, emb.n, emb.vectors.shape[1], inputs.N_CLASSES),
    )


def _corrupt_neighbor_score(out: Path) -> None:
    path = out / "neighbors.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    i, rank, j, score = lines[2].split(",")
    lines[2] = f"{i},{rank},{j},{float(score) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def prepare_diffuse(seed: int, index: int, work: Path) -> Prepared:
    emb = inputs.gaussian_clusters(seed, index)
    path = work / "embeddings.obsd"
    inputs.write_obsd(path, emb)
    seen = inputs.as_float32(emb)
    ref = checks.refined_reference(seen, omega=0.9, knn_k=50)
    rng = np.random.default_rng([seed, index, 1])
    sample = rng.choice(emb.n, SIMILARITY_SAMPLE_ROWS, replace=False)
    return Prepared(
        argv=["diffuse", str(path), *DIFFUSE_ARGS],
        check=lambda out: checks.check_diffuse(out, seen, ref, sample, NEIGHBORS),
        corrupt=_corrupt_neighbor_score,
        record=inputs.describe(path, emb.n, emb.vectors.shape[1], inputs.N_CLASSES),
    )


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, int, Path], Prepared]  # (seed, input-set index, dir)
    input_sets: int  # cycled through by one end-to-end run; quality is their mean


# Why each workload was chosen: BENCHMARK.json and layers.json, which also say
# what each layer should move. BENCHMARK.json lists train-default and
# diffuse-global-2000; the other two are for runs by hand. Input sets per run
# are about as many as fit in one run of BENCHMARK.json's run_seconds.
WORKLOADS = {
    "train-default": Workload(prepare_train_default, 8),
    "train-global": Workload(prepare_train_global, 6),
    "eval-2000": Workload(prepare_eval, 3),
    "diffuse-global-2000": Workload(prepare_diffuse, 2),
}


# ---------------------------------------------------------------------------
# end-to-end run: fresh processes


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def run_cli(argv: list[str], log_dir: Path) -> Invocation:
    """One fresh ``diffdistill`` process: wall time, peak RSS and exit code."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "diffdistill.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=_child_env(), cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # the child's own rusage
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def setup_time(work: Path) -> float:
    """Interpreter start, package import and parser build: ``diffdistill --version``."""
    inv = run_cli(["--version"], work / "setup")
    if inv.exit_code != 0:
        raise RuntimeError(f"diffdistill --version exited {inv.exit_code}")
    return inv.wall_s


def _checked(prepared: Prepared, out: Path, negative_control: bool) -> dict | None:
    """Quality numbers of one output, or None when the output fails its check."""
    try:
        if negative_control:
            prepared.corrupt(out)
        return prepared.check(out)
    except (checks.CheckFailed, OSError, KeyError, ValueError, TypeError) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}")
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _mean_quality(quality: dict[int, dict], key: str) -> float:
    return statistics.fmean(q[key] for q in quality.values()) if quality else 0.0


def run_end_to_end(sets: list[Prepared], work: Path, seconds: float, negative_control: bool):
    setup_time(work)  # the first start fills the page and bytecode caches
    # set-up samples are spread over the run, one before each invocation
    setup = [setup_time(work) for _ in range(SETUP_FIRST)]
    walls, rss, failed = [], [], 0
    quality: dict[int, dict] = {}  # input set -> its (deterministic) quality
    while len(walls) < len(sets) or sum(walls) < seconds:
        setup.append(setup_time(work))
        index = len(walls) % len(sets)
        out = work / f"out{len(walls)}"
        inv = run_cli([*sets[index].argv, "--out-dir", str(out)], out)
        walls.append(inv.wall_s)
        rss.append(inv.peak_rss_mb)
        result = None
        if inv.exit_code == 0:
            result = _checked(sets[index], out, negative_control)
        else:
            stderr = (out / "stderr.txt").read_text(errors="replace").strip()
            print(f"invocation {len(walls)} exited {inv.exit_code}: {stderr[-300:]}")
            shutil.rmtree(out, ignore_errors=True)
        if result is None:
            failed += 1
        else:
            quality.setdefault(index, result)
    runs = len(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)}"),
        "wall_s": (statistics.median(walls), "s", f"median of {runs}"),
        "peak_rss_mb": (statistics.median(rss), "MB", f"median of {runs}"),
        "recall_at_1": (_mean_quality(quality, "recall_at_1"), "ratio",
                        f"mean over {len(quality)} input sets"),
        "nmi": (_mean_quality(quality, "nmi"), "ratio", f"mean over {len(quality)} input sets"),
    }
    info = {"fail_ratio": (failed / runs, "ratio", f"{failed}/{runs} failed")}
    print("walls " + json.dumps([round(w, 4) for w in walls]))
    return metrics, runs, failed, info


# ---------------------------------------------------------------------------
# traced run: in-process


def _import_package():
    sys.path.insert(0, str(SRC))
    import diffdistill
    import diffdistill.cli

    where = Path(diffdistill.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"diffdistill imported from {where}, not from {SRC}")
    return diffdistill


def _call_main(main, argv: list[str]) -> tuple[float, int]:
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - started
    return wall, code


def _load_layer_units() -> dict[str, str]:
    spec = json.loads((Path(__file__).parent / "layers.json").read_text(encoding="utf-8"))
    return {name: entry["unit"] for name, entry in spec["per_layer"].items()}


def run_traced(sets: list[Prepared], work: Path, seconds: float, negative_control: bool):
    """Alternate untraced and traced in-process calls of ``cli.main`` on input set 0."""
    package = _import_package()
    prepared = sets[0]
    plain, traced, per_run, coverage, spans = [], [], [], [], []
    attempted = failed = 0
    while not traced or sum(plain) + sum(traced) < seconds:
        # ABBA order, so that warm-up and drift fall on both sides alike
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            out = work / f"out{attempted}"
            argv = [*prepared.argv, "--out-dir", str(out)]
            attempted += 1
            if with_trace:
                tracer = tracing.Tracer()
                restore = tracing.install(tracer, package)
                try:
                    wall, code = _call_main(package.cli.main, argv)
                finally:
                    restore()
                spans = tracer.spans
                per_run.append(tracing.layer_metrics(spans))
                coverage.append(sum(tracing.self_time_by_layer(spans).values()) / wall)
                traced.append(wall)
            else:
                wall, code = _call_main(package.cli.main, argv)
                plain.append(wall)
            if code != 0:
                print(f"in-process call {attempted} returned {code}")
                shutil.rmtree(out, ignore_errors=True)
                failed += 1
                continue
            ok = _checked(prepared, out, negative_control) is not None
            if with_trace and abs(coverage[-1] - 1.0) > 0.05:
                print(f"layer self times cover {coverage[-1]:.3f} of the traced wall")
                ok = False
            failed += 0 if ok else 1
    tracing.write_spans(WORK / f"spans-{work.name}.jsonl", spans)
    units = _load_layer_units()
    metrics = {
        name: (statistics.median(run[name] for run in per_run), unit, f"median of {len(per_run)}")
        for name, unit in units.items()
        if name != "trace_overhead_ratio"
    }
    t_plain, t_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace_overhead_ratio"] = (
        t_traced / t_plain, units["trace_overhead_ratio"],
        f"traced {t_traced:.4f} s / untraced {t_plain:.4f} s",
    )
    info = {
        "traced_wall_s": (t_traced, "s", f"median of {len(traced)}"),
        "self_time_coverage": (statistics.median(coverage), "ratio", "layer self times / traced wall"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} failed"),
    }
    return metrics, attempted, failed, info


# ---------------------------------------------------------------------------
# environment and output


def _git_commit() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"{prefix} {name} = {value:.6g} {unit} ({note})")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt each output before checking it; every call must fail")
    return parser.parse_args(argv)


def _exit_on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_cli, which kills its child


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_term)
    if not (SRC / "diffdistill" / "__init__.py").is_file():
        print(f"perfbench: no diffdistill sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        count = 1 if args.trace else workload.input_sets
        sets = []
        for index in range(count):
            (work / f"in{index}").mkdir(parents=True)
            sets.append(workload.prepare(args.seed, index, work / f"in{index}"))
        runner = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed, info = runner(sets, work, args.seconds, args.negative_control)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    for prepared in sets:
        print("input " + json.dumps(prepared.record, sort_keys=True))
    _print_metrics(f"{args.workload}:", metrics)
    _print_metrics(f"{args.workload}:", info)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
