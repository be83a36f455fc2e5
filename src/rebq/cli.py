"""Command-line surface: pretrain, run, sweep, report.

Configuration comes from a JSON file matching RunConfig. `--set
key=value` overrides one of its keys (a mapping value for a nested config
such as synth or backbone overrides only the keys it names), and `sweep
--axis key=v1,v2` runs the grid over any keys but output_dir, each axis and
value once; the root seed is the key `seed`, so `--set seed=3` and `--axis
seed=1,2,3` vary a run's randomness. A value list is cut only at the
commas outside brackets, braces and quotes, so a mapping can be a value.
A run's tag and directory join `<axis><value>` for each axis; a mapping or
list value is named by its position in the axis list instead. sweep.csv has
a column per axis, and with a `seed` axis the sweep prints AP and FG as
mean (min-max) over the seeds. Each value is checked against the rule its
field declares (rebq.rules) before any command runs. No flag mirrors a
RunConfig field: the other flags set only what RunConfig does not hold
(output paths, sweep jobs). $REBQ_OUTPUT_ROOT, when set, roots the
relative output directories of run, sweep and report --emit. It does not
root the checkpoint path, so pretrain writes the checkpoint where run and
sweep read it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import pretrain
from .bench import synth_generate
from .runner import (ExperimentError, Report, RunConfig, emit_report,
                     run_experiment)

OUTPUT_ROOT_ENV = "REBQ_OUTPUT_ROOT"
PRETRAIN_SAMPLES_PER_CLASS = 100  # size of the pretraining corpus per class


def _resolve_output(path: str) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    p = Path(path)
    if root and not p.is_absolute():
        return str(Path(root) / p)
    return str(p)


def _parse_value(raw: str):
    """A `--set` or `--axis` value: JSON when it parses, else the raw string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _override(config: dict, key: str, value):
    """Set config[key] to value; a mapping value is merged into a mapping
    already there, so a nested config keeps the keys it does not name."""
    old = config.get(key)
    both = isinstance(old, dict) and isinstance(value, dict)
    config[key] = {**old, **value} if both else value


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"{path} is not JSON: {exc}") from None


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_dict(_read_json(args.config))
    else:
        cfg = RunConfig()
    if args.set:
        d = cfg.to_dict()
        for item in args.set:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(f"--set expects key=value, got {item!r}")
            _override(d, key, _parse_value(raw))
        cfg = RunConfig.from_dict(d)
    cfg.check()  # before a command resolves a path or builds anything from it
    return cfg


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    pretrain_seed = int(np.random.SeedSequence([cfg.seed, 97]).generate_state(1)[0])
    corpus = synth_generate(cfg.backbone.pretrain_classes, PRETRAIN_SAMPLES_PER_CLASS,
                            cfg.synth, seed=pretrain_seed, id_prefix="p")
    model, report = pretrain(cfg.backbone, corpus, seed=pretrain_seed)
    out = args.out or cfg.backbone_checkpoint
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(out, {"accuracy": report.accuracy, "usable": report.usable,
                                "steps_used": report.steps_used})
    print(f"pretrained backbone -> {out}")
    print(f"held-out accuracy {report.accuracy:.4f} after {report.steps_used} steps"
          f" ({'usable' if report.usable else 'UNUSABLE'})")
    return 0 if report.usable else 1


def _run_single(cfg: RunConfig) -> Report:
    report, artifacts = run_experiment(cfg)
    emit_report(report, cfg.output_dir, artifacts)
    return report


def cmd_run(args) -> int:
    cfg = _load_config(args)
    cfg = dataclasses.replace(cfg, output_dir=_resolve_output(args.out or cfg.output_dir))
    report = _run_single(cfg)
    fg = "n/a" if report.fg is None else f"{report.fg:.4f}"
    print(f"variant={cfg.variant} eta={cfg.eta} AP={report.ap:.4f} FG={fg}")
    print(f"report written to {cfg.output_dir}")
    return 0


def _sweep_worker(cfg_dict: dict) -> tuple[str, float, float | None]:
    cfg = RunConfig.from_dict(cfg_dict)
    report = _run_single(cfg)
    return cfg.output_dir, report.ap, report.fg


def _cell(value) -> str:
    """A sweep.csv axis cell: a string as it is, any other value as JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def _spread(values: tuple) -> str:
    """mean (min-max) of values, or n/a when one is None."""
    if None in values:
        return "n/a"
    return f"{float(np.mean(values)):.4f} ({min(values):.4f}-{max(values):.4f})"


def _print_over_seeds(axes: list[tuple[str, list]], combos: list[tuple],
                      results: list[tuple]):
    """Print AP and FG as mean (min-max) over the seed axis for each
    combination of the other axes."""
    names = [name for name, _ in axes]
    groups: dict[str, list[tuple]] = {}
    for combo, (_, (_, ap, fg)) in zip(combos, results):
        label = " ".join(f"{n}={_cell(v)}" for n, v in zip(names, combo) if n != "seed")
        groups.setdefault(label or "all runs", []).append((ap, fg))
    print(f"over seeds {dict(axes)['seed']}, mean (min-max):")
    for label, runs in groups.items():
        aps, fgs = zip(*runs)
        print(f"{label}: AP={_spread(aps)} FG={_spread(fgs)}")


def _split_top_level(raw: str) -> list[str]:
    """raw cut at each comma outside brackets, braces and double-quoted strings."""
    parts, start, depth, quoted, escaped = [], 0, 0, False, False
    for i, ch in enumerate(raw):
        if escaped:
            escaped = False
        elif quoted:
            escaped, quoted = ch == "\\", ch != '"'
        elif ch == '"':
            quoted = True
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(raw[start:i])
            start = i + 1
    return parts + [raw[start:]]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"sweep: --jobs must be >= 1, got {args.jobs}")
    base = _load_config(args)
    keys = sorted(set(base.to_dict()) - {"output_dir"})
    axes: list[tuple[str, list]] = []
    for spec in args.axis:
        name, _, raw = spec.partition("=")
        if name not in keys:
            raise ValueError(f"unknown sweep axis {name!r}; choose a config key from {keys}")
        values = [_parse_value(v) for v in _split_top_level(raw) if v]
        if not values:
            raise ValueError(f"axis {name} has no values")
        if name in (n for n, _ in axes):
            raise ValueError(f"sweep axis {name} is given twice, the second time as {spec!r}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"sweep axis {name} repeats the value {repeated[0]!r}")
        axes.append((name, values))
    if not axes:
        raise ValueError("sweep needs at least one --axis")
    names = [name for name, _ in axes]

    root = _resolve_output(args.out or base.output_dir)
    combos = list(itertools.product(*(vals for _, vals in axes)))
    configs = []
    for combo in combos:
        d = base.to_dict()
        tag_parts = []
        for (name, values), value in zip(axes, combo):
            _override(d, name, value)
            named = values.index(value) if isinstance(value, (dict, list)) else value
            tag_parts.append(f"{name}{named}")
        tag = "_".join(tag_parts)
        d["output_dir"] = str(Path(root) / tag)
        cfg = RunConfig.from_dict(d)
        cfg.check()
        configs.append((tag, cfg.to_dict()))

    results = []
    if args.jobs > 1:
        # the runs share the cores: each splits its passes into at most
        # cores // jobs parts, so jobs processes start no more threads than cores
        with ProcessPoolExecutor(max_workers=args.jobs, initializer=T.set_row_parts,
                                 initargs=(max(1, T.row_parts() // args.jobs),)) as pool:
            for (tag, _), res in zip(configs, pool.map(_sweep_worker,
                                                       [d for _, d in configs])):
                results.append((tag, res))
    else:
        for tag, d in configs:
            results.append((tag, _sweep_worker(d)))

    summary = Path(root) / "sweep.csv"
    summary.parent.mkdir(parents=True, exist_ok=True)
    with open(summary, "w", newline="") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(["tag", *names, "ap", "fg", "output_dir"])
        for combo, (tag, (out_dir, ap, fg)) in zip(combos, results):
            rows.writerow([tag, *map(_cell, combo), ap, fg, out_dir])
    for tag, (_, ap, fg) in results:
        fgs = "n/a" if fg is None else f"{fg:.4f}"
        print(f"{tag}: AP={ap:.4f} FG={fgs}")
    if "seed" in names:
        _print_over_seeds(axes, combos, results)
    print(f"sweep summary -> {summary}")
    return 0


def cmd_report(args) -> int:
    report = Report.from_dict(_read_json(args.report))
    ap, fg = report.recompute()
    ok = abs(ap - report.ap) <= 1e-12 and (
        (fg is None and report.fg is None) or abs(fg - report.fg) <= 1e-12)
    print(f"artifact version: {report.artifact_version}")
    print(f"variant: {report.config['variant']}  eta: {report.config['eta']}")
    fgs = "n/a" if report.fg is None else f"{report.fg:.4f}"
    print(f"AP: {report.ap:.4f}  FG: {fgs}")
    print(f"matrix check: {'consistent' if ok else 'MISMATCH'}")
    for entry in report.per_session:
        print(f"  session {entry['session']}: classes={entry['classes']} "
              f"mean loss {entry['mean_total']:.4f}")
    if args.emit:
        out = _resolve_output(args.emit)
        emit_report(report, out)
        print(f"re-emitted CSVs to {out}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebq",
        description="Continual missing-modality learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (RunConfig schema)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (JSON-parsed value; a mapping is "
                            "merged into a nested config)")

    p = sub.add_parser("pretrain", help="pretrain and freeze a backbone checkpoint")
    common(p)
    p.add_argument("--out", help="checkpoint path (default: config backbone_checkpoint)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("run", help="run one continual experiment")
    common(p)
    p.add_argument("--out", help="output directory (default: config output_dir)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="grid sweep over config axes")
    common(p)
    p.add_argument("--axis", action="append", default=[], metavar="KEY=V1,V2,...",
                   help="sweep axis; any config key but output_dir")
    p.add_argument("--out", help="sweep output root")
    p.add_argument("--jobs", type=int, default=1, help="parallel runs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="verify and print a saved report")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--emit", help="directory to re-emit CSVs into")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExperimentError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
