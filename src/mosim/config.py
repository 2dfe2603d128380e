"""Simulation configuration: one frozen record shared by every stage.

Compilation (iteration bounds, bare-verb duration range), scene building
(distances, placement) and kinematics (timestep, speeds, contact width)
all read from the same object, so a trace header can snapshot it whole.
"""

from __future__ import annotations

import math

from .errors import INTEGER, NUMBER, ConfigFormatError, parse_json, walk_fields
from .record import asdict, record
from .record import replace as replace_fields

_FLOAT_FIELDS = (
    "dt", "speed", "ground_distance", "contact_eps", "gravity", "restitution",
)

# Inclusive ranges of the float fields, in s, m/s, m, m and m/s^2, and the most
# frames a run may take.  Inside them a run moves a body at most
# speed * dt * MAX_FRAMES = 1e9 m, so squared gaps stay far from overflowing.
RANGES = {
    "dt": (1e-4, 1.0),
    "speed": (1e-3, 1e3),
    "ground_distance": (1e-3, 1e3),
    "contact_eps": (1e-6, 0.1),
    "gravity": (1e-3, 1e3),
}
MAX_FRAMES = 1_000_000


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
        # a boolean is an int to Python, but the trace reader, as a config document, refuses it
        for name, value in zip(self._fields, self._values()):
            if isinstance(value, bool):
                kind = "a number" if name in _FLOAT_FIELDS else "an integer"
                raise ValueError(f"{name} must be {kind}, not a boolean")
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
        for name, (lo, hi) in RANGES.items():
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must lie within [{lo:g}, {hi:g}]")
        if max(self.max_bare_frames, self.max_frames) > MAX_FRAMES:
            raise ValueError(f"frame counts must not exceed {MAX_FRAMES:,}")

    def replace(self, **kwargs) -> "SceneConfig":
        return replace_fields(self, **kwargs)

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(data: dict, base: SceneConfig | None = None) -> SceneConfig:
    """Build a config from a JSON-shaped dict, starting from ``base``."""
    defaults = SceneConfig._defaults if base is None else base.to_dict()
    spec = {
        name: (NUMBER if name in _FLOAT_FIELDS else INTEGER, value) for name, value in defaults.items()
    }
    fields = walk_fields(data, spec, None, ConfigFormatError)
    try:
        return SceneConfig(**fields)
    except ValueError as exc:
        raise ConfigFormatError(str(exc)) from exc


def load_config(text: str, base: SceneConfig | None = None) -> SceneConfig:
    return config_from_dict(parse_json(text, ConfigFormatError), base)
