"""Command line entry points.

Every verb reads its hyperparameters from a versioned YAML config; --seed
overrides the one seed that verb cares about (dataset seed for gen-data,
subject seed for train, master seed for sweep, and so on).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    dataset_from_config,
    drift_spec_from_config,
    experiment_spec_from_config,
    load_config,
    split_spec_from_config,
    subject_spec_from_config,
)
from .data import (
    SPLIT_NAMES,
    apply_drift,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    select_repair_inputs,
    split,
)
from .harness import as_dict, emit_report, load_sweep_dir, run_repair_pipeline, run_sweep
from .localization import localize_to_count, compute_impacts, write_impact_csv, write_localized_csv
from .metrics import evaluate
from .training import materialize_splits, train_subject


def _write_splits(splits, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, ds in zip(SPLIT_NAMES, splits):
        save_dataset(ds, out_dir / f"{name}.csv")
        print(f"wrote {out_dir / f'{name}.csv'} ({len(ds)} samples)")


def _cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    ds = dataset_from_config(cfg, seed=args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out} ({len(ds)} samples, {ds.n_classes} classes)")
    return 0


def _cmd_split(args) -> int:
    cfg = load_config(args.config)
    ds = dataset_from_config(cfg)
    spec = split_spec_from_config(cfg, seed=args.seed)
    _write_splits(split(ds, spec), Path(args.out_dir))
    return 0


def _cmd_drift(args) -> int:
    cfg = load_config(args.config)
    ds = dataset_from_config(cfg)
    spec = split_spec_from_config(cfg)
    drift = drift_spec_from_config(cfg, seed=args.seed)
    if drift is None:
        print("config has no drift section", file=sys.stderr)
        return 2
    _write_splits(apply_drift(ds, spec, drift), Path(args.out_dir))
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    spec = subject_spec_from_config(cfg, seed=args.seed)
    _, splits = materialize_splits(spec)
    model = train_subject(spec, splits)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    accs = {name: evaluate(model, ds).overall_accuracy for name, ds in zip(SPLIT_NAMES, splits)}
    (out / "subject.json").write_text(
        json.dumps({"split_accuracies": accs}, sort_keys=True, indent=2) + "\n",
        encoding="ascii",
    )
    _write_splits(splits, out)
    print(f"wrote {out / 'model.json'}; accuracies: {accs}")
    return 0


def _subject_and_splits(cfg, args):
    spec = subject_spec_from_config(cfg)
    _, splits = materialize_splits(spec)
    if getattr(args, "model", None):
        model = load_model(args.model)
    else:
        model = train_subject(spec, splits)
    return model, splits


def _cmd_localize(args) -> int:
    cfg = load_config(args.config)
    exp = experiment_spec_from_config(cfg, master_seed=args.seed)
    model, splits = _subject_and_splits(cfg, args)
    inputs = select_repair_inputs(model, splits[0], splits[2], exp.target_class)
    layer = exp.repair_layer % model.n_layers
    loc_sect = cfg.get("localization", {}) or {}
    target_lw = int(loc_sect.get("target_lw", exp.grid[0].target_lw))
    localized = localize_to_count(
        model, inputs.negative_set, inputs.positive_pool, layer, target_lw
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = compute_impacts(model, inputs.negative_set, inputs.positive_pool, layer)
    write_impact_csv(table, out / "impacts.csv")
    write_localized_csv(localized, out / "localized.csv")
    print(f"localized {len(localized)} weights in layer {layer}")
    if localized.warning:
        print(f"warning: {localized.warning}", file=sys.stderr)
    return 0


def _cmd_repair(args) -> int:
    cfg = load_config(args.config)
    exp = experiment_spec_from_config(cfg, master_seed=args.seed)
    model, splits = _subject_and_splits(cfg, args)
    result = run_repair_pipeline(
        model, splits, exp.grid[0], exp, config_idx=0, rep_idx=0, out_dir=Path(args.out_dir)
    )
    print(json.dumps(result, default=as_dict, sort_keys=True, indent=2))
    return 0 if result.status != "error" else 1


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    report = evaluate(model, ds)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="ascii")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    exp = experiment_spec_from_config(cfg, master_seed=args.seed)
    try:
        agg = run_sweep(exp, Path(args.out_dir), n_workers=args.workers)
    except ValueError as exc:  # e.g. a directory that holds a sweep of another spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
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

    def add(name, fn, needs_config=True):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override the verb's seed")
        p.set_defaults(fn=fn)
        return p

    p = add("gen-data", _cmd_gen_data)
    p.add_argument("--out", required=True)

    p = add("split", _cmd_split)
    p.add_argument("--out-dir", required=True)

    p = add("drift", _cmd_drift)
    p.add_argument("--out-dir", required=True)

    p = add("train", _cmd_train)
    p.add_argument("--out-dir", required=True)

    p = add("localize", _cmd_localize)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", help="reuse a trained model file instead of retraining")

    p = add("repair", _cmd_repair)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", help="reuse a trained model file instead of retraining")

    p = add("evaluate", _cmd_evaluate, needs_config=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")

    p = add("sweep", _cmd_sweep)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1)

    p = add("report", _cmd_report, needs_config=False)
    p.add_argument("--sweep-dir", required=True)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
