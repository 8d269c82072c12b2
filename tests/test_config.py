import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdistill.config import (
    _SCHEMA,
    ConfigError,
    DEFAULTS,
    RunConfig,
    _canonical_value,
    _check_value,
    default_config_text,
    load_config,
    parse_config_text,
)
from diffdistill.training import generate_synthetic, zero_shot_task


def test_default_text_parses_and_matches_defaults():
    config = parse_config_text(default_config_text())
    assert config.values == DEFAULTS


def test_unknown_key_rejected():
    text = default_config_text() + "mystery_knob = 3\n"
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config_text(text)


def test_missing_key_named():
    text = "\n".join(
        line for line in default_config_text().splitlines() if not line.startswith("omega")
    )
    with pytest.raises(ConfigError, match="omega"):
        parse_config_text(text)


def test_duplicate_key_rejected():
    text = default_config_text() + "omega = 0.3\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(text)


def test_bad_value_names_field():
    text = default_config_text().replace("omega = 0.5", "omega = 1.5")
    with pytest.raises(ConfigError, match="omega"):
        parse_config_text(text)


def test_type_error_names_field():
    text = default_config_text().replace("epochs = 60", "epochs = soon")
    with pytest.raises(ConfigError, match="epochs"):
        parse_config_text(text)


def test_hash_stable_and_sensitive():
    a = parse_config_text(default_config_text())
    b = parse_config_text(default_config_text())
    assert a.config_hash() == b.config_hash()
    c = a.with_overrides(omega=0.31)
    assert c.config_hash() != a.config_hash()


def test_overrides_reject_unknown():
    config = parse_config_text(default_config_text())
    with pytest.raises(ConfigError):
        config.with_overrides(nonsense=1)


@pytest.mark.parametrize(
    "field, value", [("omega", 1.5), ("lambda", -1.0), ("epochs", 0), ("tau", 0.0), ("tau", float("nan"))]
)
def test_overrides_pass_the_schema_check(field, value):
    config = parse_config_text(default_config_text())
    with pytest.raises(ConfigError, match=f"override: field '{field}' .*, got {value!r}"):
        config.with_overrides(**{field: value})


def test_derived_objects(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text())
    config = load_config(path)
    # 8 + 8 classes of 12 rows in 16 dimensions, spread 0.15, seed data_seed 7 + run seed 3
    full = generate_synthetic(16, 12, 16, 0.15, 10)
    train_set, test_set = zero_shot_task(config, 3)
    np.testing.assert_array_equal(np.concatenate([train_set.inputs, test_set.inputs]), full.inputs)
    np.testing.assert_array_equal(np.concatenate([train_set.labels, test_set.labels]), full.labels)
    assert set(train_set.labels.tolist()) == set(range(8))
    assert config.diffusion_params().omega == DEFAULTS["omega"]


def test_batch_the_train_classes_cannot_fill_is_rejected():
    # a batch draws batch_size / 2 distinct train classes
    text = default_config_text().replace("batch_size = 16", "batch_size = 18")
    with pytest.raises(ConfigError, match=r"<config>: field 'batch_size' .* = 16, got 18"):
        parse_config_text(text)
    config = parse_config_text(default_config_text())
    with pytest.raises(ConfigError, match=r"override: field 'batch_size' .* = 16, got 18"):
        config.with_overrides(batch_size=18)
    with pytest.raises(ConfigError, match=r"override: field 'batch_size' .* = 14, got 16"):
        config.with_overrides(num_train_classes=7)
    assert config.with_overrides(batch_size=14, num_train_classes=7)["batch_size"] == 14


def _positive_floats():
    return st.floats(min_value=0.0, exclude_min=True, allow_nan=False)


def _nonnegative_floats():
    return st.floats(min_value=0.0, allow_nan=False)


# one strategy of schema-valid values per config key
_VALID = {
    "num_train_classes": st.integers(2, 10**6),
    "num_test_classes": st.integers(2, 10**6),
    "samples_per_class": st.integers(2, 10**6),
    "input_dim": st.integers(1, 10**6),
    "cluster_spread": _nonnegative_floats(),
    "label_flip_ratio": st.floats(0.0, 0.5),
    "data_seed": st.integers(-(10**12), 10**12),
    "omega": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "max_iter": st.integers(1, 10**9),
    "tol": _positive_floats(),
    "degree_epsilon": _positive_floats(),
    "knn_k": st.integers(1, 10**6),
    "distill_mode": st.sampled_from(["none", "psd", "obdsd"]),
    "tau": _positive_floats(),
    "lambda": _nonnegative_floats(),
    "dynamic_weight": st.booleans(),
    "diffusion_scope": st.sampled_from(["batch", "global"]),
    "epochs": st.integers(1, 10**6),
    "batch_size": st.integers(1, 10**6).map(lambda v: 2 * v),
    "hidden_dim": st.integers(0, 10**6),
    "embed_dim": st.integers(1, 10**6),
    "learning_rate": _nonnegative_floats(),
    "margin": st.floats(allow_nan=False),
    "recall_ks": st.lists(st.integers(1, 10**6), min_size=1, max_size=6).map(tuple),
    "kmeans_restarts": st.integers(1, 10**6),
    "density_distance": st.sampled_from(["euclidean", "cosine"]),
    "seeds": st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=6).map(tuple),
    # no line breaks, surrounding whitespace or control characters
    "out_dir": st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), max_size=30),
}


def test_every_config_key_has_a_round_trip_strategy():
    assert _VALID.keys() == _SCHEMA.keys()


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(_VALID))
def test_canonical_config_text_round_trips(values):
    for key, value in values.items():
        _check_value(key, value, "")
    text = "\n".join(f"{key} = {_canonical_value(value)}" for key, value in values.items())
    if values["batch_size"] > 2 * values["num_train_classes"]:
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config_text(text)
        return
    config = parse_config_text(text)
    assert config.values == values
    assert config.config_hash() == RunConfig(values=values).config_hash()
