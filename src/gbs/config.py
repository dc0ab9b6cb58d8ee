"""Workbench configuration.

Everything the harness and CLI need to know that is not part of a spec file:
the working bound, sampling budgets, and the seed.  Values resolve in the
usual priority order: explicit argument, config file, GBS_SEED environment
variable (seed only), built-in default.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .ordinals import OMEGA_SQ, Ordinal, nat

__all__ = ["ConfigError", "WorkbenchConfig", "default_seed", "load_config_file"]

MAX_SEED = (1 << 64) - 1


class ConfigError(ValueError):
    pass


def default_seed() -> int:
    raw = os.environ.get("GBS_SEED")
    if raw is None:
        return 0
    try:
        seed = int(raw, 0)
    except ValueError:
        raise ConfigError(f"GBS_SEED must be an integer, got {raw!r}") from None
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError("GBS_SEED out of the 64-bit range")
    return seed


@dataclass(frozen=True)
class WorkbenchConfig:
    lam: Ordinal = OMEGA_SQ
    word_bound: Ordinal = nat(4)
    sample_count: int = 50
    seed: int = field(default_factory=default_seed)
    grid_depth: int = 20

    def __post_init__(self):
        # the whole grid story needs limits of limits below the bound
        if self.lam.is_zero() or any(e < 2 for e, _ in self.lam.terms):
            raise ConfigError(f"working bound {self.lam} is not a limit of limits")
        if not self.word_bound < self.lam:
            raise ConfigError("word bound must sit below the working bound")
        if self.sample_count < 1:
            raise ConfigError("sample count must be positive")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError("seed out of the 64-bit range")
        if self.grid_depth < 1:
            raise ConfigError("grid depth must be positive")


def load_config_file(path: str) -> dict:
    """Optional INI config: a [workbench] section with lambda, word-bound,
    samples, seed, and grid-depth keys, and no other.  Returns keyword
    overrides for WorkbenchConfig; flag values take precedence over these."""
    from .dsl import parse_ordinal_text

    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if not cp.has_section("workbench"):
        raise ConfigError(f"{path}: missing [workbench] section")
    keys = {
        "lambda": ("lam", parse_ordinal_text),
        "word-bound": ("word_bound", parse_ordinal_text),
        "samples": ("sample_count", int),
        "seed": ("seed", lambda v: int(v, 0)),
        "grid-depth": ("grid_depth", int),
    }
    out: dict = {}
    for key, raw in cp["workbench"].items():
        if key not in keys:
            raise ConfigError(f"{path}: unknown key {key!r} in [workbench]")
        name, parse = keys[key]
        try:
            out[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return out
