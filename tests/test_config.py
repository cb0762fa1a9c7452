"""Config parsing, canonical serialization, schema documentation."""

import dataclasses
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caden import config, graphs, theory
from caden.engine import CadenConfig
from caden.errors import ConfigError
from caden.losses import LossStack, QuadraticLoss, estimate_lipschitz

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

    def test_key_set_twice_rejected(self):
        # The last value does not silently win.
        with pytest.raises(ConfigError, match=r"^line 3: rounds is already set on line 1$"):
            config.parse_config("rounds = 5\n# again\nrounds = 7\n")

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
        assert config.float_list(" 0, ,2,") == [0.0, 2.0]


class TestCheck:
    def test_every_default_is_valid(self):
        config.check_config(config.ExperimentConfig())

    @pytest.mark.parametrize(
        "attr, value, message",
        [
            ("algorithm", "sgd", "algorithm must be one of caden, caden-gd, gt, got 'sgd'"),
            ("caden_tau", 0, "caden.tau must be at least 1, got 0"),
            ("loss_l2", float("inf"), "loss.l2 must be in [0, inf), got inf"),
            ("caden_participation", 1.5, "caden.participation must be in (0, 1], got 1.5"),
            ("quadratic_targets", "0,,x", "quadratic.targets must be a comma list of numbers"
             " each in (-inf, inf), got '0,,x'"),
            ("caden_tau", 2.5, "caden.tau must be of kind int, got 2.5"),
            ("caden_tau", "5", "caden.tau must be of kind int, got '5'"),
            ("metrics_cadence", True, "metrics.cadence must be of kind int, got True"),
            ("caden_mu_z", True, "caden.mu_z must be of kind autofloat, got True"),
            ("metrics_wall_time", 1, "metrics.wall_time must be of kind bool, got 1"),
            ("output_label", 3, "output.label must be of kind str, got 3"),
        ],
    )
    def test_message_names_key_requirement_and_value(self, attr, value, message):
        cfg = config.ExperimentConfig().replace(**{attr: value})
        with pytest.raises(ConfigError) as err:
            config.check_config(cfg)
        assert str(err.value) == message


_NAN, _INF = float("nan"), float("inf")


def _probe(**kwargs):
    stack = LossStack([QuadraticLoss(q=np.ones(2), a=np.zeros(2))])
    return estimate_lipschitz(stack, np.ones(2), **kwargs)


def _constants(p_min=1.0, **params):
    selected = theory.SelectedParameters(**{"mu_z": 3.0, "mu_y": 1728.0, "tau": 5, **params})
    spectral = graphs.laplacian_spectrum(graphs.complete_graph(2))
    return theory.compute_constants(1.0, spectral, p_min, 0.5, selected)


def _select(p_min):
    spectral = graphs.laplacian_spectrum(graphs.complete_graph(3))
    return theory.select_parameters(1.0, spectral, p_min, 0.5)


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: CadenConfig(mu_z=_NAN, mu_y=1.0), "caden.mu_z"),
        (lambda: CadenConfig(mu_z=None, mu_y=1.0), "caden.mu_z"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=_INF), "caden.mu_y"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=0.0), "caden.mu_y"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, participation=1.5), "caden.participation"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, participation=_NAN), "caden.participation"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, seed=-1), "seed"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, lbfgs_memory=0), "caden.lbfgs_memory"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, solver="gd", gd_step=_NAN), "caden.gd_step"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, tau=2.5), "caden.tau"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, tau=True), "caden.tau"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, tau=0), "caden.tau"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, tau_reduced=0), "caden.tau_reduced"),
        (lambda: CadenConfig(mu_z=1.0, mu_y=1.0, tau_reduce_round=-2), "caden.tau_reduce_round"),
        (lambda: graphs.complete_graph(1), "topology.m"),
        (lambda: graphs.from_edges(2.0, [(0, 1)]), "topology.m"),
        (lambda: graphs.build_random_graph(1, 0.5, seed=0), "topology.m"),
        (lambda: graphs.build_random_graph(-1, 0.5, seed=0), "topology.m"),
        (lambda: graphs.build_random_graph(5, 0.0, seed=0), "topology.edge_prob"),
        (lambda: graphs.build_random_graph(5, _NAN, seed=0), "topology.edge_prob"),
        (lambda: _probe(probe_epochs=0), "lipschitz.probe_epochs"),
        (lambda: _probe(warm_epochs=-1), "lipschitz.warm_epochs"),
        (lambda: _probe(warm_lr=_NAN), "lipschitz.warm_lr"),
        (lambda: _probe(probe_lr=_INF), "lipschitz.probe_lr"),
        (lambda: _constants(mu_y=_NAN), "caden.mu_y"),
        (lambda: _constants(mu_z=_INF), "caden.mu_z"),
        (lambda: _constants(tau=2.5), "caden.tau"),
        (lambda: _constants(p_min=_NAN), "caden.participation"),
        (lambda: _select(p_min=0.0), "caden.participation"),
        (lambda: _select(p_min=_NAN), "caden.participation"),
        (lambda: _select(p_min=1.5), "caden.participation"),
    ],
)
def test_direct_caller_refuses_through_the_registry(call, key):
    # The engine, graph builders, theory constants and smoothness probe take
    # config parameters directly; each refuses a value as its key.
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must"):
        call()


def _engine_key(name):
    """The config key an engine field is named after, or None."""
    key = "seed" if name == "seed" else f"caden.{name}"
    return next((k for k in config.KEYS if k.name == key), None)


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(CadenConfig) if _engine_key(f.name)]
)
def test_every_engine_field_named_after_a_key_is_checked_as_it(name):
    # Just below each key's interval: its open lower end, or one under its
    # closed one.
    key = _engine_key(name)
    low = float(key.within[1:].split(",")[0])
    value = low if key.within[0] == "(" else low - 1
    value = int(value) if key.kind == "int" else value
    with pytest.raises(ConfigError, match=rf"^{re.escape(key.name)} must be"):
        CadenConfig(**{"mu_z": 1.0, "mu_y": 1.0, name: value})
