"""The benchmark's workloads: bundled configs, loaded through the public
config API, with the sweep length fixed here so it is the same on every
commit.

Why each workload is here is written in README.md beside this file.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

from nnpatch.config import experiment_spec_from_config, load_config

# name -> (config file, repetitions per sweep, subject layer sizes or None
# for the config's, repair layer or None for the config's)
WORKLOADS = {
    "exp_c": ("exp_c.yaml", 2, None, None),
    "exp_c_l0": ("exp_c.yaml", 2, None, 0),
    "quickstart_many": ("quickstart.yaml", 50, None, None),
    # not in BENCHMARK.json: its wall time is bimodal on shared hosts
    "deep_l0": ("exp_c.yaml", 1, [2, 64, 64, 7], 0),
}


def load(root: Path, name: str, seed: int | None):
    """ExperimentSpec of one workload; `seed` replaces the config's
    master_seed (None keeps it)."""
    config_file, repetitions, layer_sizes, repair_layer = WORKLOADS[name]
    cfg = load_config(Path(root) / "configs" / config_file)
    if layer_sizes is not None:
        cfg["subject"]["layer_sizes"] = layer_sizes
    if repair_layer is not None:
        cfg["repair"] = {**(cfg.get("repair") or {}), "layer": repair_layer}
    exp = experiment_spec_from_config(cfg, master_seed=seed)
    return dataclasses.replace(exp, repetitions=repetitions)
