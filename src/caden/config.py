"""Experiment configuration: flat key-value text files with dotted sections.

Every key has a typed default; parsing fills defaults so a loaded config is
fully explicit, and re-serialization is canonical (sorted registry order,
shortest-roundtrip floats), hence idempotent.  ``auto`` is the spelled value
of the optional floats that the harness resolves from problem data.

The shipped ``docs/config_schema.txt`` is generated from this registry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields

from .errors import ConfigError

AUTO = None  # spelled "auto" in config files


def _key(default, doc: str, choices: tuple[str, ...] = ()):
    """A config field: its default plus the help text and allowed values that
    the parser and the schema document read."""
    return field(default=default, metadata={"help": doc, "choices": choices})


@dataclass
class ExperimentConfig:
    """The config schema: each field is the key ``<section>.<rest>`` (the
    field name with its first ``_`` as the dot), typed by its annotation."""

    seed: int = _key(0, "master seed for every derived random stream")
    rounds: int = _key(100, "number of synchronous rounds T")
    algorithm: str = _key("caden", "method to run", ("caden", "caden-gd", "gt"))
    mode: str = _key(
        "practice", "parameter source: user-set (practice) or prescribed (theory)",
        ("practice", "theory"),
    )

    topology_kind: str = _key(
        "random", "graph family", ("random", "file", "complete", "path", "ring")
    )
    topology_m: int = _key(20, "number of agents")
    topology_edge_prob: float = _key(0.2, "edge probability for random graphs")
    topology_file: str = _key("", "edge-list file path when topology.kind = file")

    loss_kind: str = _key("quadratic", "per-agent loss family", ("quadratic", "logistic", "mlp"))
    loss_dimension: int = _key(2, "model dimension (quadratic losses only; data losses derive it)")
    loss_classes: int = _key(3, "number of classes")
    loss_features: int = _key(16, "feature dimension for blob data")
    loss_hidden: int = _key(25, "hidden width of the two-layer net")
    loss_l2: float = _key(0.0, "L2 coefficient for data losses")
    loss_samples_per_agent: int = _key(40, "training samples held by each agent (blob data)")
    loss_eval_samples: int = _key(200, "size of the shared held-out set")
    loss_blob_spread: float = _key(1.0, "within-class standard deviation of blob data")
    loss_feature_scale_max: float = _key(
        1.0, "log-spaced per-column scaling of blob features up to this factor"
    )
    loss_data: str = _key("blobs", "data source for data losses", ("blobs", "idx"))
    loss_idx_images: str = _key("", "IDX image file (training)")
    loss_idx_labels: str = _key("", "IDX label file (training)")
    loss_idx_eval_images: str = _key(
        "", "IDX image file (evaluation); empty carves the tail of training data"
    )
    loss_idx_eval_labels: str = _key("", "IDX label file (evaluation)")
    loss_shard_seed: int = _key(-1, "seed for the random shard shuffle; -1 uses the master seed")

    quadratic_style: str = _key("identity", "curvature of quadratic losses", ("identity", "random"))
    quadratic_cond: float = _key(10.0, "condition number for random quadratic curvature")
    quadratic_targets: str = _key(
        "", "comma-separated per-agent scalar targets (forces dimension 1)"
    )
    quadratic_target_spread: float = _key(1.0, "standard deviation of seeded random targets")

    caden_mu_z: float | None = _key(AUTO, "quadratic penalty; auto = 2 L + 1")
    caden_mu_y: float | None = _key(
        AUTO,
        "dual ascent coefficient; auto = mu_z in practice mode, prescribed floor in theory mode",
    )
    caden_tau: int = _key(5, "local solver iterations per round")
    caden_tau_reduce_round: int = _key(
        -1, "round from which the reduced budget applies; -1 disables"
    )
    caden_tau_reduced: int = _key(1, "budget after the reduction round")
    caden_participation: float = _key(
        1.0, "per-round activity probability, identical across agents"
    )
    caden_lbfgs_memory: int = _key(10, "curvature pairs kept by the local solver")
    caden_gd_step: float | None = _key(
        AUTO, "step for the gradient-descent solver; auto = 1 / (L + mu_z d_i)"
    )

    gt_step: float | None = _key(
        AUTO, "gradient-tracking step; auto tunes over {1e-1,1e-2,1e-3,1e-4}"
    )
    gt_tune_rounds: int = _key(100, "rounds of the short tuning runs for gt.step = auto")

    init_strategy: str = _key("zeros", "model initialization", ("zeros", "random", "warmstart"))
    init_scale: float = _key(1.0, "scale of random initialization")
    init_state_file: str = _key("", "checkpoint to resume from (overrides init.strategy)")

    lipschitz_warm_epochs: int = _key(20, "full-gradient warm-up steps of the smoothness probe")
    lipschitz_warm_lr: float = _key(0.1, "warm-up learning rate")
    lipschitz_probe_epochs: int = _key(10, "tiny-step probe iterations")
    lipschitz_probe_lr: float = _key(1e-7, "probe learning rate")

    contraction_probe_iters: int = _key(
        20, "solver iterations of the local contraction probe (theory mode)"
    )

    metrics_cadence: int = _key(1, "log every k-th round")
    metrics_thresholds: str = _key(
        "1e-2,1e-4,1e-6", "relative-error thresholds for the time/communication table"
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
        text = self.metrics_thresholds.strip()
        return [float(tok) for tok in text.split(",") if tok.strip()] if text else []


@dataclass(frozen=True)
class _Key:
    name: str  # dotted config key
    attr: str  # ExperimentConfig attribute
    kind: str  # int | float | autofloat | str | bool
    default: object
    help: str
    choices: tuple[str, ...]


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
            raise ConfigError(
                f"line {lineno}: {name} must be one of {', '.join(key.choices)}"
            )
        values[key.attr] = value
    return ExperimentConfig(**values)


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
        "harness resolves from problem data.",
        "",
    ]
    for k in KEYS:
        default = _format_value(k, k.default)
        head = f"{k.name}  ({k.kind}, default {default})"
        lines.append(head)
        lines.append(f"    {k.help}")
        if k.choices:
            lines.append(f"    choices: {', '.join(k.choices)}")
        lines.append("")
    return "\n".join(lines)
