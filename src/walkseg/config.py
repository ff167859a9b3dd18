"""Plain-text configuration: "section.key = value" lines, no nesting.

Every tunable of the scene generator, feature banks, trainer, solver,
corruption harness, and evaluator lives here: the sections are the
fields of `Config`, a section's keys the fields of its dataclass, each
parsed by its declared type. Parsing rejects unknown keys; serialization
emits every key in field order with canonical value formatting, so
parse(serialize(cfg)) round-trips exactly and serialized configs are
diffable across runs.
"""

from dataclasses import dataclass, field, fields

from .errors import DataFormatError
from .features import FilterBankConfig
from .pipeline import CorruptionConfig
from .solver import SolverConfig
from .synth import SceneSpec
from .training import TrainConfig


@dataclass
class EvalConfig:
    trimap_max_width: int = 10
    boundary_tolerance: float = 2.0
    thresholds: int = 20


@dataclass
class GenerateConfig:
    train_count: int = 100
    test_count: int = 20


@dataclass
class InferConfig:
    radius: int = 5  # test-time neighborhood radius


@dataclass
class Config:
    scene: SceneSpec = field(default_factory=SceneSpec)
    generate: GenerateConfig = field(default_factory=GenerateConfig)
    bank: FilterBankConfig = field(default_factory=FilterBankConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    infer: InferConfig = field(default_factory=InferConfig)
    corrupt: CorruptionConfig = field(default_factory=CorruptionConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _parse_shapes(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# declared field type -> parser of the value's text form
_PARSERS = {int: int, float: float, str: str, bool: _parse_bool,
            tuple: _parse_shapes}

# literal training recipe: lr 1e-5, momentum 0.9, weight decay 5e-5,
# batch 15, 2000 iterations, alpha 0.01, single step at radius 40
PRESETS = {
    "paper": {
        "train.learning_rate": "1e-05",
        "train.momentum": "0.9",
        "train.weight_decay": "5e-05",
        "train.batch_size": "15",
        "train.iterations": "2000",
        "train.train_radius": "40",
        "train.alpha": "0.01",
        "train.augment_hflip": "true",
    },
    # desk-scale smoke recipe: small scenes, small banks, short schedule
    "smoke": {
        "scene.height": "24",
        "scene.width": "24",
        "bank.f1": "8",
        "bank.f2": "8",
        "generate.train_count": "12",
        "generate.test_count": "4",
        "train.learning_rate": "0.01",
        "train.batch_size": "3",
        "train.iterations": "200",
        "train.train_radius": "5",
        "train.aff_loss_weight": "0.0001",
    },
}


def _keys(section) -> dict:
    """A section's config keys: its dataclass fields, by name."""
    return {key.name: key for key in fields(section)}


def set_value(cfg: Config, dotted: str, raw: str) -> None:
    """Assign one "section.key" from its text, parsed by the key's type."""
    if dotted.count(".") != 1:
        raise DataFormatError(f"expected section.key, got {dotted!r}")
    section, key = dotted.split(".")
    if section not in _keys(Config):
        raise DataFormatError(f"unknown config section {section!r}")
    target = getattr(cfg, section)
    keys = _keys(target)
    if key not in keys:
        raise DataFormatError(f"unknown config key {dotted!r}")
    try:
        value = _PARSERS[keys[key].type](raw.strip())
    except ValueError as exc:
        raise DataFormatError(f"bad value for {dotted}: {exc}") from exc
    setattr(target, key, value)


def parse_config(text: str, cfg: Config = None) -> Config:
    """Parse config text over defaults (or over an existing config)."""
    cfg = cfg or Config()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataFormatError(f"line {lineno}: expected key = value")
        dotted, raw = (part.strip() for part in stripped.split("=", 1))
        set_value(cfg, dotted, raw)
    return cfg


def load_config(path, cfg: Config = None) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), cfg)


def serialize_config(cfg: Config) -> str:
    """Canonical text form: every key, fixed order, canonical formatting."""
    lines = []
    for section in _keys(Config):
        values = getattr(cfg, section)
        for key in _keys(values):
            lines.append(f"{section}.{key} = {_fmt(getattr(values, key))}")
    return "\n".join(lines) + "\n"


def apply_preset(cfg: Config, name: str) -> Config:
    if name not in PRESETS:
        raise DataFormatError(
            f"unknown preset {name!r} (have {', '.join(sorted(PRESETS))})")
    for dotted, raw in PRESETS[name].items():
        set_value(cfg, dotted, raw)
    return cfg


def apply_overrides(cfg: Config, pairs) -> Config:
    """Apply key=value override strings (the --set flag)."""
    for pair in pairs:
        if "=" not in pair:
            raise DataFormatError(f"override {pair!r} is not key=value")
        dotted, raw = pair.split("=", 1)
        set_value(cfg, dotted.strip(), raw)
    return cfg
