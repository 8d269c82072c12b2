"""Run configuration: a flat key = value text format, fail-closed.

Every key has a recorded default (see DEFAULTS / default_config_text), but a
config file handed to a command must bind every key explicitly: unknown keys
and missing keys are both validation errors that name the offending field, as
is a batch_size that the train classes cannot fill.
`config_hash` is a sha256 over the canonical sorted key=value lines and is
embedded in every artifact a command writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .diffusion import DiffusionParams
from .metrics import COSINE, EUCLIDEAN
from .training import (
    DISTILL_NONE,
    DISTILL_OBDSD,
    DISTILL_PSD,
    SCOPE_BATCH,
    SCOPE_GLOBAL,
)


class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(piece) for piece in items)


def _identity(raw: str) -> str:
    return raw.strip()


# key -> (parser, default, validator or None)
_SCHEMA: dict[str, tuple] = {
    "num_train_classes": (int, 8, lambda v: v >= 2 or "must be >= 2"),
    "num_test_classes": (int, 8, lambda v: v >= 2 or "must be >= 2"),
    "samples_per_class": (int, 12, lambda v: v >= 2 or "must be >= 2"),
    "input_dim": (int, 16, lambda v: v >= 1 or "must be >= 1"),
    "cluster_spread": (float, 0.15, lambda v: v >= 0 or "must be nonnegative"),
    "label_flip_ratio": (float, 0.0, lambda v: 0 <= v <= 0.5 or "must lie in [0, 0.5]"),
    "data_seed": (int, 7, None),
    "omega": (float, 0.5, lambda v: 0 < v < 1 or "must lie in (0, 1)"),
    "degree_epsilon": (float, 1e-8, lambda v: v > 0 or "must be positive"),
    "knn_k": (int, 50, lambda v: v >= 1 or "must be >= 1"),
    "distill_mode": (
        _identity,
        DISTILL_OBDSD,
        lambda v: v in (DISTILL_NONE, DISTILL_PSD, DISTILL_OBDSD)
        or f"must be one of {DISTILL_NONE}, {DISTILL_PSD}, {DISTILL_OBDSD}",
    ),
    "tau": (float, 1.0, lambda v: v > 0 or "must be positive"),
    "lambda": (float, 40.0, lambda v: v >= 0 or "must be nonnegative"),
    "dynamic_weight": (_parse_bool, True, None),
    "diffusion_scope": (
        _identity,
        SCOPE_BATCH,
        lambda v: v in (SCOPE_BATCH, SCOPE_GLOBAL) or f"must be {SCOPE_BATCH} or {SCOPE_GLOBAL}",
    ),
    "epochs": (int, 60, lambda v: v >= 1 or "must be >= 1"),
    "batch_size": (int, 16, lambda v: v >= 2 and v % 2 == 0 or "must be even and >= 2"),
    "hidden_dim": (int, 32, lambda v: v >= 0 or "must be >= 0"),
    "embed_dim": (int, 16, lambda v: v >= 1 or "must be >= 1"),
    "learning_rate": (float, 0.2, lambda v: v >= 0 or "must be nonnegative"),
    "margin": (float, 0.5, None),
    "recall_ks": (_parse_int_list, (1, 2, 4, 8), lambda v: min(v) >= 1 or "Ks must be >= 1"),
    "kmeans_restarts": (int, 10, lambda v: v >= 1 or "must be >= 1"),
    "density_distance": (
        _identity,
        EUCLIDEAN,
        lambda v: v in (EUCLIDEAN, COSINE) or f"must be {EUCLIDEAN} or {COSINE}",
    ),
    "seeds": (_parse_int_list, (0, 1, 2, 3, 4), None),
    "out_dir": (_identity, "runs/latest", None),
}

DEFAULTS = {key: default for key, (_, default, _v) in _SCHEMA.items()}


def _check_value(key: str, value, where: str):
    """`value` if it passes the schema check of `key`, else a ConfigError prefixed by `where`."""
    validator = _SCHEMA[key][2]
    verdict = True if validator is None else validator(value)
    if verdict is not True:
        raise ConfigError(f"{where}field {key!r} {verdict}, got {value!r}")
    return value


def _canonical_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def canonical_hash(values: dict) -> str:
    """First 16 hex digits of sha256 over the sorted ``key=canonical value`` lines."""
    canonical = "\n".join(f"{key}={_canonical_value(values[key])}" for key in sorted(values))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def default_config_text() -> str:
    lines = [
        "# full run configuration; every key must be present",
        "# desk-scale defaults; full-scale reference settings for fine-grained",
        "# retrieval benchmarks: batch_size 112, tau 1, lambda 75..1000, omega 0.3..0.99",
    ]
    lines += [f"{key} = {_canonical_value(DEFAULTS[key])}" for key in _SCHEMA]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def config_hash(self) -> str:
        return canonical_hash(self.values)

    def diffusion_params(self) -> DiffusionParams:
        return DiffusionParams(omega=self.values["omega"], degree_epsilon=self.values["degree_epsilon"])

    def with_overrides(self, **overrides) -> "RunConfig":
        """A copy with `overrides` bound; each value passes its field's schema check."""
        unknown = set(overrides) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        for key, value in overrides.items():
            _check_value(key, value, "override: ")
        return _run_config({**self.values, **overrides}, "override: ")


def _run_config(values: dict, where: str) -> RunConfig:
    """`values` as a RunConfig if the train classes can fill a batch (batch_size/2 of them)."""
    most, size = 2 * values["num_train_classes"], values["batch_size"]
    if size > most:
        raise ConfigError(f"{where}field 'batch_size' must be <= 2 * num_train_classes = {most}, got {size!r}")
    return RunConfig(values=values)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config field {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config field {key!r}")
        parser = _SCHEMA[key][0]
        try:
            value = parser(raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: field {key!r}: {exc}") from exc
        values[key] = _check_value(key, value, f"{source}:{lineno}: ")
    missing = [key for key in _SCHEMA if key not in values]
    if missing:
        raise ConfigError(f"{source}: missing config field(s): {', '.join(missing)}")
    return _run_config(values, f"{source}: ")


def load_config(path: str | Path) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), source=str(path))
