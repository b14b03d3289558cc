"""Config file loading.

Configs are versioned YAML documents with sections: dataset, split,
subject, experiment, and optionally drift, repair (search knobs) and
localization. They are the single source of hyperparameters; CLI --seed
only overrides the seed relevant to the verb at hand. Every section but
dataset and localization is read by `from_dict`, so an omitted key takes the
spec's default and a key that names no field is an error.
"""
from __future__ import annotations

import yaml

from .data import DriftSpec, SplitSpec
from .harness import ExperimentSpec, from_dict
from .training import SubjectSpec, load_source

CONFIG_VERSION = 1


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a mapping")
    version = cfg.get("config_version")
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config_version {version!r} (expected {CONFIG_VERSION})")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ValueError(f"config is missing the '{name}' section")
    sect = cfg[name]
    if not isinstance(sect, dict):
        raise ValueError(f"config section '{name}' must be a mapping")
    return sect


def _seeded(sect: dict, seed: int | None) -> dict:
    return sect if seed is None else {**sect, "seed": seed}


def dataset_from_config(cfg: dict, seed: int | None = None):
    return load_source(_seeded(_section(cfg, "dataset"), seed))


def split_spec_from_config(cfg: dict, seed: int | None = None) -> SplitSpec:
    return from_dict(SplitSpec, _seeded(_section(cfg, "split"), seed))


def drift_spec_from_config(cfg: dict, seed: int | None = None) -> DriftSpec | None:
    if cfg.get("drift") is None:
        return None
    return from_dict(DriftSpec, _seeded(_section(cfg, "drift"), seed))


def subject_spec_from_config(cfg: dict, seed: int | None = None) -> SubjectSpec:
    sect = _seeded(_section(cfg, "subject"), seed)
    return from_dict(
        SubjectSpec,
        {
            **sect,
            "source": _section(cfg, "dataset"),
            "split": split_spec_from_config(cfg),
            "drift": drift_spec_from_config(cfg),
        },
    )


def experiment_spec_from_config(cfg: dict, master_seed: int | None = None) -> ExperimentSpec:
    """The experiment section plus the optional repair section, whose `layer`
    is the spec's `repair_layer`."""
    sect = _section(cfg, "experiment")
    if master_seed is not None:
        sect = {**sect, "master_seed": master_seed}
    search = {} if cfg.get("repair") is None else dict(_section(cfg, "repair"))
    if "layer" in search:
        search["repair_layer"] = search.pop("layer")
    both = sorted(sect.keys() & search.keys())
    if both:
        raise ValueError(f"config sections 'experiment' and 'repair' both set {', '.join(both)}")
    return from_dict(ExperimentSpec, {**sect, **search, "subject": subject_spec_from_config(cfg)})
