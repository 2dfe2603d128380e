"""Simulation configuration: one frozen record shared by every stage.

Compilation (iteration bounds, bare-verb duration range), scene building
(distances, placement) and kinematics (timestep, speeds, contact width)
all read from the same object, so a trace header can snapshot it whole.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigFormatError
from .record import asdict, record
from .record import replace as replace_fields

_FLOAT_FIELDS = (
    "dt", "speed", "ground_distance", "contact_eps", "gravity", "restitution",
)
_INT_FIELDS = ("min_bare_frames", "max_bare_frames", "max_frames", "seed")


@record
class SceneConfig:
    dt: float = 1.0 / 60.0
    speed: float = 1.0
    ground_distance: float = 5.0
    contact_eps: float = 1e-3
    gravity: float = 9.81
    restitution: float = 0.8
    min_bare_frames: int = 30
    max_bare_frames: int = 300
    max_frames: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.contact_eps <= 0:
            raise ValueError("contact_eps must be positive")
        if not 0 < self.restitution <= 1:
            raise ValueError("restitution must be in (0, 1]")
        if self.min_bare_frames > self.max_bare_frames:
            raise ValueError("min_bare_frames must not exceed max_bare_frames")
        if self.min_bare_frames < 0 or self.max_frames < 1:
            raise ValueError("frame counts must be positive")

    def replace(self, **kwargs) -> "SceneConfig":
        return replace_fields(self, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(data: dict, base: SceneConfig | None = None) -> SceneConfig:
    """Build a config from a JSON-shaped dict, starting from ``base``."""
    if not isinstance(data, dict):
        raise ConfigFormatError("config document must be an object")
    cfg = base or SceneConfig()
    updates = {}
    for key, value in data.items():
        if key in _FLOAT_FIELDS:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigFormatError("expected a number", field=key)
            updates[key] = float(value)
        elif key in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigFormatError("expected an integer", field=key)
            updates[key] = value
        else:
            raise ConfigFormatError("unknown config field", field=key)
    try:
        return cfg.replace(**updates)
    except ValueError as exc:
        raise ConfigFormatError(str(exc)) from exc


def load_config(text: str, base: SceneConfig | None = None) -> SceneConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    return config_from_dict(data, base)
