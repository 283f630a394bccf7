"""Scenario registry, configuration, run artifacts, and the CLI.

Importing the package loads the registry alone.  The configuration and
artifact names (``ConfigError``, ``ScenarioConfig``, ``load_config``,
``RunArtifact``, ``Table``) are bound on first access, so ``list`` and
``describe`` load neither their modules nor PyYAML, which loads only to
read a config file or to write ``metadata.yaml``.
"""
from importlib import import_module

from .scenarios import (
    InvariantBreach,
    SCENARIOS,
    describe_scenario,
    list_scenarios,
    run_scenario,
)

_DEFERRED = {
    "ConfigError": ".config",
    "ScenarioConfig": ".config",
    "load_config": ".config",
    "RunArtifact": ".artifact",
    "Table": ".artifact",
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_DEFERRED[name], __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ConfigError",
    "InvariantBreach",
    "RunArtifact",
    "SCENARIOS",
    "ScenarioConfig",
    "Table",
    "describe_scenario",
    "list_scenarios",
    "load_config",
    "run_scenario",
]
