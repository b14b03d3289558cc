"""Command line entry points.

Each verb takes only the flags it reads. `--config` is a versioned YAML
config, read whole into one spec by every verb but evaluate and report, so a
bad value in any section is refused before a file is written; `--seed`
overrides the one seed a verb uses: the dataset, split or subject seed for
gen-data, split and train, the master seed for repair and sweep. localize
takes no `--seed`, as localization draws nothing at random. split writes the
splits the subject is trained on, the config's drift included.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import experiment_spec_from_config, load_config
from .data import SPLIT_NAMES, load_dataset, load_model, save_dataset, select_repair_inputs
from .formats import as_dict, write_json
from .harness import (
    build_subject,
    emit_report,
    load_sweep_dir,
    run_repair_pipeline,
    run_sweep,
    train_and_save_subject,
)
from .localization import compute_impacts, localize_to_count, write_impact_csv, write_localized_csv
from .metrics import evaluate
from .training import load_source, materialize_splits

# the config section whose seed `--seed` sets; for repair and sweep it sets the master seed
_SEEDED_SECTION = {"gen-data": "dataset", "split": "split", "train": "subject"}


def _experiment(args):
    """The config read into one spec, with `--seed` (if the verb takes one) applied."""
    cfg = load_config(args.config)
    seed = getattr(args, "seed", None)
    name = _SEEDED_SECTION.get(args.verb)
    if name is None:
        return experiment_spec_from_config(cfg, master_seed=seed)
    if seed is not None and isinstance(cfg.get(name), dict):  # else refused by name
        cfg = {**cfg, name: {**cfg[name], "seed": seed}}
    return experiment_spec_from_config(cfg)


def _write_splits(splits, out_dir: Path) -> None:
    for name, ds in zip(SPLIT_NAMES, splits):
        save_dataset(ds, out_dir / f"{name}.csv")
        print(f"wrote {out_dir / f'{name}.csv'} ({len(ds)} samples)")


def _cmd_gen_data(args) -> int:
    ds = load_source(_experiment(args).subject.source)
    save_dataset(ds, args.out)
    print(f"wrote {args.out} ({len(ds)} samples, {ds.n_classes} classes)")
    return 0


def _cmd_split(args) -> int:
    _, splits = materialize_splits(_experiment(args).subject)
    _write_splits(splits, Path(args.out_dir))
    return 0


def _cmd_train(args) -> int:
    exp = _experiment(args)
    out = Path(args.out_dir)
    _, splits, _ = train_and_save_subject(exp, out)
    _write_splits(splits, out)
    print(f"wrote {out / 'model.json'} and {out / 'subject.json'}")
    return 0


def _cmd_localize(args) -> int:
    exp = _experiment(args)
    model, splits, before = build_subject(exp, args.model)
    inputs = select_repair_inputs(splits[0], splits[2], exp.target_class,
                                  before[0].passed, before[2].passed)
    table = compute_impacts(model, inputs.negative_set, inputs.positive_pool, exp.layer)
    localized = localize_to_count(table, exp.grid[0].target_lw)
    out = Path(args.out_dir)
    write_impact_csv(table, out / "impacts.csv")
    write_localized_csv(localized, out / "localized.csv")
    print(f"localized {len(localized)} weights in layer {exp.layer} at n_g={localized.n_g}")
    if localized.warning:
        print(f"warning: {localized.warning}", file=sys.stderr)
    return 0


def _cmd_repair(args) -> int:
    exp = _experiment(args)
    model, splits, before = build_subject(exp, args.model)
    result = run_repair_pipeline(model, splits, before, exp, 0, 0, Path(args.out_dir))
    print(json.dumps(result, default=as_dict, sort_keys=True, indent=2))
    return 0 if result.status != "error" else 1


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    report = evaluate(model, ds)
    if args.out:
        write_json(args.out, report.to_dict())
        print(f"wrote {args.out}")
    else:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    exp = _experiment(args)
    agg = run_sweep(exp, Path(args.out_dir), n_workers=args.workers)
    emit_report(agg, Path(args.out_dir) / "report")
    failed = [r for r in agg.runs if r.status == "error"]
    for r in failed:
        print(f"run {r.config_id}/rep{r.rep:02d} failed: {r.error}", file=sys.stderr)
    print(f"{len(agg.runs)} runs, {len(failed)} failed; report in {Path(args.out_dir) / 'report'}")
    return 1 if failed else 0


def _cmd_report(args) -> int:
    _, agg = load_sweep_dir(args.sweep_dir)
    written = emit_report(agg, Path(args.sweep_dir) / "report")
    for p in written:
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nnpatch",
        description="Localize-and-repair for small feedforward classifiers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, config=True, seed=True):
        p = sub.add_parser(name)
        if config:
            p.add_argument("--config", required=True, help="YAML config file")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the verb's seed")
        p.set_defaults(fn=fn)
        return p

    p = add("gen-data", _cmd_gen_data)
    p.add_argument("--out", required=True)

    p = add("split", _cmd_split)
    p.add_argument("--out-dir", required=True)

    p = add("train", _cmd_train)
    p.add_argument("--out-dir", required=True)

    p = add("localize", _cmd_localize, seed=False)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", help="reuse a trained model file instead of retraining")

    p = add("repair", _cmd_repair)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", help="reuse a trained model file instead of retraining")

    p = add("evaluate", _cmd_evaluate, config=False, seed=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")

    p = add("sweep", _cmd_sweep)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1)

    p = add("report", _cmd_report, config=False, seed=False)
    p.add_argument("--sweep-dir", required=True)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a refused input: a bad value, an unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
