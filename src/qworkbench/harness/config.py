"""Scenario configuration: YAML files plus command-line overrides.

A config names one scenario and overrides a subset of its published
parameters; unknown keys are rejected against the scenario's parameter
schema so typos fail loudly instead of silently running defaults.  PyYAML
loads only when a config file is read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Malformed configuration or unknown scenario/parameter keys."""


@dataclass
class ScenarioConfig:
    scenario: str
    overrides: dict = field(default_factory=dict)
    master_seed: int = 0
    out_dir: str = "runs"
    threads: int = 1

    def resolved(self, defaults: dict) -> dict:
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.master_seed}")
        params = dict(defaults)
        unknown = set(self.overrides) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown parameter keys for scenario {self.scenario!r}: "
                f"{sorted(unknown)}; known keys: {sorted(defaults)}")
        for key, value in self.overrides.items():
            params[key] = _coerce_like(defaults[key], value, key)
        return params


def _coerce_like(reference, value, key: str):
    """Cast an override to the default's type (int/float/str/list); a
    number, or a list element, must be finite."""
    if isinstance(reference, int):
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"cannot read {value!r} as an integer for {key!r}") from None
        if not math.isfinite(as_float) or as_float != int(as_float):
            raise ConfigError(f"{key!r} expects an integer, got {value!r}")
        return int(as_float)
    if isinstance(reference, float):
        try:
            as_float = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"cannot read {value!r} as a number for {key!r}") from None
        if not math.isfinite(as_float):
            raise ConfigError(f"{key!r} expects a finite number, got {value!r}")
        return as_float
    if isinstance(reference, (list, tuple)):
        if isinstance(value, str):
            value = [p for p in value.split(",") if p != ""]
        elif not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key!r} expects a list, got {value!r}")
        elem = reference[0] if reference else 0.0
        return [_coerce_like(elem, p, key) for p in value]
    return value


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a YAML config file: {scenario, seed, out_dir, threads, params}."""
    import yaml

    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict) or "scenario" not in raw:
        raise ConfigError(f"config file {path} must be a mapping with a 'scenario' key")
    known = {"scenario", "seed", "out_dir", "threads", "params"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    params = raw.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigError("'params' must be a mapping")
    return ScenarioConfig(scenario=str(raw["scenario"]), overrides=params,
                          master_seed=_coerce_like(0, raw.get("seed", 0), "seed"),
                          out_dir=str(raw.get("out_dir", "runs")),
                          threads=_coerce_like(1, raw.get("threads", 1), "threads"))


def parse_set_overrides(pairs) -> dict:
    """--set key=value pairs into an override mapping (values stay strings
    until they are coerced against the scenario defaults)."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out
