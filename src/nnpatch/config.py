"""Config file loading.

Configs are versioned YAML documents with sections: dataset, split,
subject, experiment, and optionally drift and repair (search knobs); any
other top-level key is an error. They are the single source of
hyperparameters, and a config is read whole into one `ExperimentSpec`. Every
section is checked (dataset by its source's kind, when the data is read): an
omitted key takes its default, one without a default and a key that names no
field are errors, as is a key set in a section other than its own.
"""
from __future__ import annotations

import dataclasses

import yaml

from .formats import from_dict
from .harness import ExperimentSpec

CONFIG_VERSION = 1
_SECTIONS = frozenset({"config_version", "dataset", "split", "drift", "subject", "experiment", "repair"})


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be a mapping")
    version = cfg.get("config_version")
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config_version {version!r} (expected {CONFIG_VERSION})")
    unknown = sorted(map(str, cfg.keys() - _SECTIONS))
    if unknown:
        raise ValueError(f"config has no section {', '.join(map(repr, unknown))}")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ValueError(f"config is missing the '{name}' section")
    sect = cfg[name]
    if not isinstance(sect, dict):
        raise ValueError(f"config section '{name}' must be a mapping")
    return sect


def _refuse(sect: dict, name: str, keys) -> None:
    """Each key has one section: raise on the keys of section `name` that
    another section sets, which would otherwise be silently replaced or read
    from the wrong place."""
    misplaced = sorted(sect.keys() & set(keys))
    if misplaced:
        raise ValueError(f"config section '{name}' must not set {', '.join(misplaced)}")


# ExperimentSpec's fields set in the experiment section; the others but
# `subject` are search knobs, set in the repair section
_EXPERIMENT_KEYS = frozenset({"target_class", "grid", "repetitions", "master_seed"})


def experiment_spec_from_config(cfg: dict, master_seed: int | None = None) -> ExperimentSpec:
    """The whole config as one spec, built by one `from_dict`: the dataset (as
    `source`), split and drift sections nest in the subject's, as in sweep.json,
    and the optional repair section's `layer` is the spec's `repair_layer`."""
    sect = _section(cfg, "experiment")
    _refuse(sect, "experiment", {f.name for f in dataclasses.fields(ExperimentSpec)} - _EXPERIMENT_KEYS)
    if master_seed is not None:
        sect = {**sect, "master_seed": master_seed}
    search = {} if cfg.get("repair") is None else dict(_section(cfg, "repair"))
    _refuse(search, "repair", _EXPERIMENT_KEYS | {"subject", "repair_layer"})
    if "layer" in search:
        search["repair_layer"] = search.pop("layer")
    subject = _section(cfg, "subject")
    _refuse(subject, "subject", ("source", "split", "drift"))
    subject = {**subject, "source": _section(cfg, "dataset"), "split": _section(cfg, "split"),
               "drift": None if cfg.get("drift") is None else _section(cfg, "drift")}
    return from_dict(ExperimentSpec, {**sect, **search, "subject": subject})
