"""Model and training configuration dataclasses."""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum

from ..domain import boolean, integer, one_of, read_fields
from ..errors import ConstraintViolation, SchemaError

POSITIONAL = ("fixed", "learned")  # sinusoidal or a learned table


def _at_least_one(config, what: str, names: tuple[str, ...]) -> None:
    if small := tuple(name for name in names if getattr(config, name) < 1):
        raise ConstraintViolation(f"{what} must be >= 1", keys=small)


class ModelKind(str, Enum):
    MLP = "mlp"
    LSTM = "lstm"
    TRANSFORMER = "transformer"  # causal decoder, fixed positions
    ENCODER = "encoder"  # bidirectional, learned positions


@dataclass(frozen=True, slots=True)
class TransformerConfig:
    input_dim: int
    embed_dim: int = 256
    n_blocks: int = 3
    n_heads: int = 8
    head_dim: int = 32
    ff_dim: int = 2048
    causal: bool = True
    positional: str = "fixed"  # "fixed" sinusoidal or "learned" table
    max_positions: int = 512

    def __post_init__(self) -> None:
        if self.n_heads * self.head_dim != self.embed_dim:
            raise ConstraintViolation(
                f"n_heads * head_dim must equal embed_dim "
                f"({self.n_heads} * {self.head_dim} != {self.embed_dim})",
                keys=("n_heads", "head_dim", "embed_dim"),
            )
        if self.ff_dim < self.embed_dim:
            raise ConstraintViolation(
                f"ff_dim ({self.ff_dim}) must be >= embed_dim ({self.embed_dim})",
                keys=("ff_dim", "embed_dim"),
            )
        if self.positional not in POSITIONAL:
            raise ConstraintViolation(
                f"positional must be 'fixed' or 'learned', got {self.positional!r}"
            )
        if self.positional == "fixed" and self.embed_dim % 2 != 0:
            raise ConstraintViolation(
                "fixed positional encoding needs an even embed_dim", keys=("embed_dim",)
            )
        _at_least_one(self, "transformer dimensions", ("input_dim", "embed_dim", "n_heads",
                                                        "n_blocks", "max_positions"))


@dataclass(frozen=True, slots=True)
class LSTMConfig:
    input_dim: int
    hidden_dim: int = 128
    n_layers: int = 2

    def __post_init__(self) -> None:
        _at_least_one(self, "LSTM dimensions", ("input_dim", "hidden_dim", "n_layers"))


@dataclass(frozen=True, slots=True)
class MLPConfig:
    input_dim: int
    hidden_dim: int = 256
    n_layers: int = 3

    def __post_init__(self) -> None:
        _at_least_one(self, "MLP dimensions", ("input_dim", "hidden_dim", "n_layers"))


@dataclass(frozen=True, slots=True)
class TrainConfig:
    """Teacher-forced training with early stopping on an inner validation split."""

    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0
    validation_fraction: float = 0.1
    patience: int = 5

    def __post_init__(self) -> None:
        _at_least_one(self, "epochs and batch_size", ("epochs", "batch_size"))
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConstraintViolation(
                "validation_fraction must be in [0, 1)", keys=("validation_fraction",)
            )
        _at_least_one(self, "patience", ("patience",))


_CONFIG_TYPES = {
    ModelKind.MLP: MLPConfig,
    ModelKind.LSTM: LSTMConfig,
    ModelKind.TRANSFORMER: TransformerConfig,
    ModelKind.ENCODER: TransformerConfig,
}


def config_to_json(kind: ModelKind, config) -> dict:
    return {"kind": kind.value, **asdict(config)}


# each config field's rule, by its annotation; positional is the one str field
_FIELD_RULES = {"int": integer, "bool": boolean, "str": one_of(*POSITIONAL)}
_KIND = {"kind": one_of(*(kind.value for kind in ModelKind))}


def config_fields(kind: ModelKind) -> dict:
    """The fields of a config_to_json object of ``kind`` but "kind": each
    field's rule, and its default where the config dataclass has one."""
    return {
        field.name: _FIELD_RULES[field.type] if field.default is MISSING
        else (_FIELD_RULES[field.type], field.default)
        for field in fields(_CONFIG_TYPES[kind])
    }


def config_from_json(obj: dict) -> tuple[ModelKind, object]:
    """The (kind, config) of a config_to_json object, read by config_fields:
    never a cast, so 1.5 or "false" is a SchemaError naming the field."""
    kind = ModelKind(read_fields(obj, _KIND)["kind"])
    table = config_fields(kind)
    if unknown := sorted(set(obj) - {"kind", *table}):
        raise SchemaError(f"unexpected field {unknown[0]!r} for kind {kind.value!r}")
    return kind, _CONFIG_TYPES[kind](**read_fields(obj, table))
