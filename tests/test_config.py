import pytest

from diffdistill.config import (
    ConfigError,
    DEFAULTS,
    default_config_text,
    load_config,
    parse_config_text,
)


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


@pytest.mark.parametrize("field, value", [("omega", 1.5), ("lambda", -1.0), ("epochs", 0)])
def test_overrides_pass_the_schema_check(field, value):
    config = parse_config_text(default_config_text())
    with pytest.raises(ConfigError, match=f"override: field '{field}' .*, got {value!r}"):
        config.with_overrides(**{field: value})


def test_derived_objects(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(default_config_text())
    config = load_config(path)
    spec = config.dataset_spec(run_seed=3)
    assert spec.num_classes == DEFAULTS["num_train_classes"] + DEFAULTS["num_test_classes"]
    assert spec.seed == DEFAULTS["data_seed"] + 3
    trainer = config.trainer_config()
    assert trainer.distill_weight == DEFAULTS["lambda"]
    assert trainer.diffusion.omega == DEFAULTS["omega"]
    baseline = config.with_overrides(distill_mode="none").trainer_config()
    assert baseline.distill_mode == "none"
