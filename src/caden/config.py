"""Experiment configuration: flat key-value text files with dotted sections.

Every key has a typed default; parsing fills defaults so a loaded config is
fully explicit, and re-serialization is canonical (sorted registry order,
shortest-roundtrip floats), hence idempotent.  ``auto`` is the spelled value
of the optional floats that the harness resolves from problem data.  Each
key's kind and valid values sit on its ``_key`` entry, and only there;
``check_value`` checks one value against them, wherever the value comes from.

The shipped ``docs/config_schema.txt`` is generated from this registry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

from .errors import ConfigError

AUTO = None  # spelled "auto" in config files


def _key(default, doc: str, valid: tuple[str, ...] | str = ()):
    """A config field: its default, help text and valid values, which are a
    tuple of choices or an interval like ``[1, inf)`` (each entry's, for a
    comma-list key) whose upper bound ``inf`` is open."""
    choices, within = (valid, "") if isinstance(valid, tuple) else ((), valid)
    return field(default=default, metadata={"help": doc, "choices": choices, "within": within})


@dataclass
class ExperimentConfig:
    """The config schema: each field is the key ``<section>.<rest>`` (the
    field name with its first ``_`` as the dot), typed by its annotation."""

    seed: int = _key(0, "master seed for every derived random stream", "[0, inf)")
    rounds: int = _key(100, "number of synchronous rounds T", "[0, inf)")
    algorithm: str = _key("caden", "method to run", ("caden", "caden-gd", "gt"))
    mode: str = _key(
        "practice", "parameter source: user-set (practice) or prescribed (theory)",
        ("practice", "theory"),
    )

    topology_kind: str = _key(
        "random", "graph family", ("random", "file", "complete", "path", "ring")
    )
    topology_m: int = _key(20, "number of agents", "[2, inf)")
    topology_edge_prob: float = _key(0.2, "edge probability for random graphs", "(0, 1]")
    topology_file: str = _key("", "edge-list file path when topology.kind = file")

    loss_kind: str = _key("quadratic", "per-agent loss family", ("quadratic", "logistic", "mlp"))
    loss_dimension: int = _key(
        2, "model dimension (quadratic losses only; data losses derive it)", "[1, inf)"
    )
    loss_classes: int = _key(3, "number of classes", "[1, inf)")
    loss_features: int = _key(16, "feature dimension for blob data", "[1, inf)")
    loss_hidden: int = _key(25, "hidden width of the two-layer net", "[1, inf)")
    loss_l2: float = _key(0.0, "L2 coefficient for data losses", "[0, inf)")
    loss_samples_per_agent: int = _key(
        40, "training samples held by each agent (blob data)", "[1, inf)"
    )
    loss_eval_samples: int = _key(200, "size of the shared held-out set", "[1, inf)")
    loss_blob_spread: float = _key(1.0, "within-class standard deviation of blob data", "[0, inf)")
    loss_feature_scale_max: float = _key(
        1.0, "log-spaced per-column scaling of blob features up to this factor", "(0, inf)"
    )
    loss_data: str = _key("blobs", "data source for data losses", ("blobs", "idx"))
    loss_idx_images: str = _key("", "IDX image file (training)")
    loss_idx_labels: str = _key("", "IDX label file (training)")
    loss_idx_eval_images: str = _key(
        "", "IDX image file (evaluation); empty carves the tail of training data"
    )
    loss_idx_eval_labels: str = _key("", "IDX label file (evaluation)")
    loss_shard_seed: int = _key(
        -1, "seed for the random shard shuffle; -1 uses the master seed", "[-1, inf)"
    )

    quadratic_style: str = _key("identity", "curvature of quadratic losses", ("identity", "random"))
    quadratic_cond: float = _key(
        10.0, "condition number for random quadratic curvature", "[1, inf)"
    )
    quadratic_targets: str = _key(
        "", "comma-separated per-agent scalar targets (forces dimension 1)", "(-inf, inf)"
    )
    quadratic_target_spread: float = _key(
        1.0, "standard deviation of seeded random targets", "[0, inf)"
    )

    caden_mu_z: float | None = _key(AUTO, "quadratic penalty; auto = 2 L + 1", "(0, inf)")
    caden_mu_y: float | None = _key(
        AUTO,
        "dual ascent coefficient; auto = mu_z in practice mode, prescribed floor in theory mode",
        "(0, inf)",
    )
    caden_tau: int = _key(5, "local solver iterations per round", "[1, inf)")
    caden_tau_reduce_round: int = _key(
        -1, "round from which the reduced budget applies; -1 disables", "[-1, inf)"
    )
    caden_tau_reduced: int = _key(1, "budget after the reduction round", "[1, inf)")
    caden_participation: float = _key(
        1.0, "per-round activity probability, identical across agents", "(0, 1]"
    )
    caden_lbfgs_memory: int = _key(10, "curvature pairs kept by the local solver", "[1, inf)")
    caden_gd_step: float | None = _key(
        AUTO, "step for the gradient-descent solver; auto = 1 / (L + mu_z d_i)", "(0, inf)"
    )

    gt_step: float | None = _key(
        AUTO, "gradient-tracking step; auto tunes over {1e-1,1e-2,1e-3,1e-4}", "(0, inf)"
    )
    gt_tune_rounds: int = _key(
        100, "rounds of the short tuning runs for gt.step = auto", "[1, inf)"
    )

    init_strategy: str = _key("zeros", "model initialization", ("zeros", "random", "warmstart"))
    init_scale: float = _key(1.0, "scale of random initialization")
    init_state_file: str = _key(
        "", "checkpoint to resume from (its models and duals replace init.strategy's)"
    )

    lipschitz_warm_epochs: int = _key(
        20, "full-gradient warm-up steps of the smoothness probe", "[0, inf)"
    )
    lipschitz_warm_lr: float = _key(0.1, "warm-up learning rate", "(0, inf)")
    lipschitz_probe_epochs: int = _key(10, "tiny-step probe iterations", "[1, inf)")
    lipschitz_probe_lr: float = _key(1e-7, "probe learning rate", "(0, inf)")

    contraction_probe_iters: int = _key(
        20, "solver iterations of the local contraction probe (theory mode)", "[1, inf)"
    )

    metrics_cadence: int = _key(1, "log every k-th round", "[1, inf)")
    metrics_thresholds: str = _key(
        "1e-2,1e-4,1e-6", "relative-error thresholds for the time/communication table", "(0, inf)"
    )
    metrics_wall_time: bool = _key(
        True, "record wall time in the CSV; disable for byte-reproducible output"
    )

    output_dir: str = _key("out", "output directory")
    output_label: str = _key("run", "basename of the emitted files")
    output_save_state: str = _key("", "write a final checkpoint to this path")

    def replace(self, **updates) -> "ExperimentConfig":
        return dataclasses.replace(self, **updates)

    def shard_seed(self) -> int:
        return self.seed if self.loss_shard_seed < 0 else self.loss_shard_seed

    def thresholds(self) -> list[float]:
        return float_list(self.metrics_thresholds)


def float_list(text: str) -> list[float]:
    """The numbers of a comma list, blank entries skipped; ValueError for an
    entry that is no number."""
    return [float(tok) for tok in text.split(",") if tok.strip()]


@dataclass(frozen=True)
class _Key:
    name: str  # dotted config key
    attr: str  # ExperimentConfig attribute
    kind: str  # int | float | autofloat | str | bool
    default: object
    help: str
    choices: tuple[str, ...]
    within: str  # interval, or "" for none; a ranged str key is a comma list of floats


# Field annotations (strings under postponed evaluation) to value kinds.
_KINDS = {"int": "int", "float": "float", "float | None": "autofloat", "str": "str", "bool": "bool"}

# The registry in field order; a field's first "_" is the section dot.
KEYS: tuple[_Key, ...] = tuple(
    _Key(
        name=f.name.replace("_", ".", 1),
        attr=f.name,
        kind=_KINDS[f.type],
        default=f.default,
        help=f.metadata["help"],
        choices=f.metadata["choices"],
        within=f.metadata["within"],
    )
    for f in fields(ExperimentConfig)
)

_BY_NAME = {k.name: k for k in KEYS}


def _parse_value(key: _Key, raw: str):
    raw = raw.strip()
    try:
        if key.kind == "int":
            return int(raw)
        if key.kind == "float":
            return float(raw)
        if key.kind == "autofloat":
            return AUTO if raw == "auto" else float(raw)
        if key.kind == "bool":
            if raw.lower() in ("true", "on", "yes", "1"):
                return True
            if raw.lower() in ("false", "off", "no", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key.name}: {raw!r}") from exc


def _format_value(key: _Key, value) -> str:
    if key.kind == "autofloat" and value is None:
        return "auto"
    if key.kind == "bool":
        return "true" if value else "false"
    if key.kind == "float" or (key.kind == "autofloat" and value is not None):
        return repr(float(value))
    return str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and bad values raise ConfigError."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        name, raw = body.split("=", 1)
        name = name.strip()
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        value = _parse_value(key, raw)
        if key.choices and value not in key.choices:
            raise ConfigError(f"line {lineno}: {name} must be {_requirement(key)}")
        values[key.attr] = value
    return ExperimentConfig(**values)


def _requirement(key: _Key) -> str:
    """What the key's value must be, in words."""
    if key.choices:
        return f"one of {', '.join(key.choices)}"
    low, high = key.within[1:-1].split(", ")
    ray = key.within[0] == "[" and high == "inf"
    bound = f"at least {low}" if key.kind == "int" and ray else f"in {key.within}"
    return f"a comma list of numbers each {bound}" if key.kind == "str" else bound


def _in(interval: str, value: float) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def _valid(key: _Key, value) -> bool:
    if key.choices:
        return value in key.choices
    if not key.within:
        return True
    try:
        entries = float_list(value) if key.kind == "str" else [value]
    except ValueError:
        return False
    return all(_in(key.within, entry) for entry in entries)


# The type each kind takes; only a bool key takes a bool.
_TYPES = {"int": Integral, "float": Real, "autofloat": Real, "str": str, "bool": bool}


def check_value(name: str, value, auto: bool = True) -> None:
    """Raise ConfigError "<name> must be ..., got ..." unless ``value`` fits
    key ``name``: its kind and its choices or interval, or ``auto`` (None)
    for an autofloat key unless ``auto`` is False."""
    key = _BY_NAME[name]
    if value is AUTO and key.kind == "autofloat" and auto:
        return
    if not isinstance(value, _TYPES[key.kind]) or isinstance(value, bool) != (key.kind == "bool"):
        raise ConfigError(f"{name} must be of kind {key.kind}, got {value!r}")
    if not _valid(key, value):
        raise ConfigError(f"{name} must be {_requirement(key)}, got {value!r}")


def read_value(name: str, raw: str):
    """Key ``name``'s value spelled ``raw`` in a config file, checked."""
    value = _parse_value(_BY_NAME[name], raw)
    check_value(name, value)
    return value


def check_config(cfg: ExperimentConfig) -> None:
    """``check_value`` every key, in registry order, whether or not it
    applies to the run."""
    for key in KEYS:
        check_value(key.name, getattr(cfg, key.attr))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text: every key, registry order, canonical value spelling.

    Raises ConfigError for a value that ``parse_config`` would not read back:
    one holding a ``#`` or a line break, or with leading or trailing
    whitespace.
    """
    lines = []
    for k in KEYS:
        text = _format_value(k, getattr(cfg, k.attr))
        if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
            raise ConfigError(
                f"{k.name} = {text!r} cannot be written to a config file: values hold no"
                " '#' or line break and no leading or trailing whitespace"
            )
        lines.append(f"{k.name} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_config(fp.read())


def config_as_dict(cfg: ExperimentConfig) -> dict:
    """Dotted-key mapping with canonical value spellings (for JSON echoes)."""
    return {k.name: _format_value(k, getattr(cfg, k.attr)) for k in KEYS}


def schema_text() -> str:
    """Human-readable schema, one block per key (shipped as a doc file)."""
    lines = [
        "Configuration schema",
        "====================",
        "",
        "Flat text files, one `key = value` per line; `#` starts a comment.",
        "Keys are dotted section names.  Every key is optional and defaults as",
        "listed.  Floats accept any Python literal; `auto` marks values the",
        "harness resolves from problem data.  Every run checks every key's",
        "value against its kind, then (each entry of a comma list) against its",
        "choices or its range, whose upper bound inf is open; `auto` always passes.",
        "",
    ]
    for k in KEYS:
        default = _format_value(k, k.default)
        head = f"{k.name}  ({k.kind}, default {default})"
        lines.append(head)
        lines.append(f"    {k.help}")
        if k.choices:
            lines.append(f"    choices: {', '.join(k.choices)}")
        if k.within:
            each = "each entry in " if k.kind == "str" else ""
            lines.append(f"    range: {each}{k.within}")
        lines.append("")
    return "\n".join(lines)
