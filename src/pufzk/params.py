"""Named parameter sets for the PUF and protocol layers, which the CLI
selects with ``--params <name>``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParamSet:
    name: str
    challenge_count: int = 256
    noise_ratio: float = 0.05


PRESETS = {
    "default": ParamSet("default"),
    "noiseless": ParamSet("noiseless", noise_ratio=0.0),
    "fast": ParamSet("fast", challenge_count=64, noise_ratio=0.0),
}

DEFAULT_PARAMS = PRESETS["default"]
