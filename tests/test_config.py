"""Config parsing, canonical serialization, schema documentation."""

import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import config
from caden.errors import ConfigError

SAMPLE = """
# convex benchmark
seed = 3
rounds = 60
algorithm = caden          # trailing comment
topology.kind = random
topology.m = 10
caden.mu_z = auto
caden.mu_y = 0.5
metrics.wall_time = false
"""


class TestParsing:
    def test_defaults_fill_unlisted_keys(self):
        cfg = config.parse_config(SAMPLE)
        assert cfg.seed == 3
        assert cfg.rounds == 60
        assert cfg.caden_tau == 5  # default
        assert cfg.caden_mu_z is None
        assert cfg.caden_mu_y == 0.5
        assert cfg.metrics_wall_time is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config.parse_config("topology.size = 4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            config.parse_config("rounds = soon\n")

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError, match="one of"):
            config.parse_config("algorithm = sgd\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            config.parse_config("rounds 7\n")

    def test_empty_text_is_all_defaults(self):
        assert config.parse_config("") == config.ExperimentConfig()


class TestSerialization:
    def test_round_trip_idempotent(self):
        cfg = config.parse_config(SAMPLE)
        once = config.serialize_config(cfg)
        twice = config.serialize_config(config.parse_config(once))
        assert once == twice
        assert config.parse_config(once) == cfg

    def test_auto_spelled_in_output(self):
        text = config.serialize_config(config.ExperimentConfig())
        assert "caden.mu_z = auto" in text
        assert "gt.step = auto" in text

    def test_every_key_present(self):
        text = config.serialize_config(config.ExperimentConfig())
        for key in config.KEYS:
            assert f"{key.name} = " in text

    def test_file_round_trip(self, tmp_path):
        cfg = config.parse_config(SAMPLE)
        path = tmp_path / "exp.cfg"
        path.write_text(config.serialize_config(cfg))
        assert config.load_config(str(path)) == cfg


_FIELD_TYPES = typing.get_type_hints(config.ExperimentConfig)


def _value_strategy(key):
    # Drawn from the evaluated annotation, not from the derived key kind, so
    # a wrongly derived kind fails the round trip.
    if key.choices:
        return st.sampled_from(key.choices)
    annotation = _FIELD_TYPES[key.attr]
    floats = st.floats(allow_nan=False)
    if annotation == float | None:
        return st.none() | floats
    return {
        int: st.integers(),
        float: floats,
        bool: st.booleans(),
        str: st.text(),
    }[annotation]


def _reads_back(key, value) -> bool:
    """Whether the value, written alone on a config line, parses back to itself."""
    try:
        return getattr(config.parse_config(f"{key.name} = {value}\n"), key.attr) == value
    except ConfigError:
        return False


random_configs = st.fixed_dictionaries(
    {key.attr: _value_strategy(key) for key in config.KEYS}
).map(lambda values: config.ExperimentConfig(**values))


@settings(deadline=None)
@given(random_configs)
def test_round_trip_every_key(cfg):
    # A config either round-trips exactly or is refused with ConfigError,
    # and it is refused exactly when one of its strings does not read back.
    strings = [k for k in config.KEYS if _FIELD_TYPES[k.attr] is str]
    if not all(_reads_back(k, getattr(cfg, k.attr)) for k in strings):
        with pytest.raises(ConfigError, match="cannot be written"):
            config.serialize_config(cfg)
        return
    parsed = config.parse_config(config.serialize_config(cfg))
    assert parsed == cfg
    assert [type(v) for v in vars(parsed).values()] == [type(v) for v in vars(cfg).values()]


@pytest.mark.parametrize("value", ["runs/#3", " a ", "a\nb"])
def test_unreadable_string_value_refused(value):
    cfg = config.ExperimentConfig(output_dir=value)
    with pytest.raises(ConfigError, match="output.dir"):
        config.serialize_config(cfg)
    assert config.config_as_dict(cfg)["output.dir"] == value


class TestSchemaDoc:
    def test_shipped_schema_matches_registry(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "config_schema.txt"
        assert doc.read_text(encoding="utf-8") == config.schema_text()

    def test_helpers(self):
        cfg = config.ExperimentConfig(loss_shard_seed=-1, seed=9)
        assert cfg.shard_seed() == 9
        assert cfg.replace(loss_shard_seed=4).shard_seed() == 4
        assert config.ExperimentConfig().thresholds() == [1e-2, 1e-4, 1e-6]
