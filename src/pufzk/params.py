"""Named parameter sets for the PUF and protocol layers.

The CLI accepts ``--params <name>``; the ``PUFZK_PARAMS`` environment
variable overrides the default when no flag is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ParamSet:
    name: str
    challenge_count: int = 256
    repetitions: int = 9
    noise_ratio: float = 0.05
    screen_rounds: int = 2

    def describe(self) -> dict:
        return {
            "name": self.name,
            "challenge_count": self.challenge_count,
            "repetitions": self.repetitions,
            "noise_ratio": self.noise_ratio,
            "screen_rounds": self.screen_rounds,
        }


PRESETS = {
    "default": ParamSet("default"),
    "noiseless": ParamSet("noiseless", noise_ratio=0.0),
    "fast": ParamSet("fast", challenge_count=64, noise_ratio=0.0),
}

DEFAULT_PARAMS = PRESETS["default"]

ENV_VAR = "PUFZK_PARAMS"


def resolve_params(name: str | None = None) -> ParamSet:
    """Pick a preset: explicit name wins, then the environment
    variable, then the default set."""
    if name is None:
        name = os.environ.get(ENV_VAR)
    if name is None:
        return DEFAULT_PARAMS
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown parameter set {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
