"""Scenario configuration: YAML files plus command-line overrides.

A config names one scenario and overrides a subset of its published
parameters; unknown keys are rejected against the scenario's parameter
schema so typos fail loudly instead of silently running defaults.  Every
parameter is then checked once against the range the registry declares for
it, before the runner starts.  PyYAML loads only when a config file is read.
"""
from __future__ import annotations

import math
import re
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

    def resolved(self, defaults: dict, ranges: dict | None = None) -> dict:
        check_ranges({"threads": self.threads, "seed": self.master_seed},
                     {"threads": "[1, inf)", "seed": "[0, inf)"})
        params = dict(defaults)
        unknown = set(self.overrides) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown parameter keys for scenario {self.scenario!r}: "
                f"{sorted(unknown)}; known keys: {sorted(defaults)}")
        for key, value in self.overrides.items():
            params[key] = _coerce_like(defaults[key], value, key)
        check_ranges(params, ranges or {})
        return params


_RANGE = re.compile(r"([\[(])([^,]+),(.+)([\])])(?:\s*\*\s*(\w+))?")


def check_ranges(params: dict, ranges: dict) -> None:
    """ConfigError unless every list is non-empty and each number, or list
    element, lies in its range: an interval string such as ``"(0, 1]"``,
    whose ends may be arithmetic over the number parameters, then optionally
    ``* name`` for a list of one element per unit of ``name``.  A parameter
    with no declared range must be finite.  The ends are evaluated with no
    builtins; the strings are the registry's constants."""
    names = {k: v for k, v in params.items() if not isinstance(v, list)} | {"inf": math.inf}
    for key, value in params.items():
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ConfigError(f"{key!r} must not be empty")
        match = _RANGE.fullmatch(ranges.get(key, "(-inf, inf)"))
        left, low, high, right, count = match.groups()
        low, high = (eval(end, {"__builtins__": {}}, names) for end in (low, high))
        if count is not None and len(values) != params[count]:
            raise ConfigError(f"{key!r} needs one element per {count}, got {value}")
        if not all((low < x or left == "[" and x == low)
                   and (x < high or right == "]" and x == high) for x in values):
            raise ConfigError(f"{key!r} = {value} lies outside {left}{low:g}, {high:g}{right}")


def _coerce_like(reference, value, key: str):
    """Cast an override to the default's type (int/float/str/list); an
    integer must be finite, and a float's range is checked afterwards."""
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
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"cannot read {value!r} as a number for {key!r}") from None
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
