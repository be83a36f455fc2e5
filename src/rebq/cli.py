"""Command-line surface: run, sweep, report.

A run's settings come from a JSON file matching RunConfig (`--config`) and
from `--set key=value`, which overrides one key (a mapping value for a
nested config such as synth or backbone overrides only the keys it names);
no flag mirrors a RunConfig field. run writes its report to `output_dir`,
and sweep writes sweep.csv and one directory per run there.
$REBQ_OUTPUT_ROOT, when set, roots a relative `output_dir` and the
directory of `report --emit`.

`sweep --axis key=v1,v2` runs the grid over any keys but output_dir, each
axis and value once; the root seed is the key `seed`. A value list is read
as one JSON array. When a bare string such as `text-missing` keeps it from
parsing, it is cut at every comma and each non-empty item is read as a
`--set` value (JSON, else the raw string), so a string that holds a comma
is listed quoted, beside quoted items only. A run's tag and directory join
`<axis><value>` for each axis, with a mapping or list value named by its
position in the axis list. The runs execute in `--jobs` worker processes,
or one per run when the grid has fewer, that share the cores, and a
failing run ends the sweep with its stage error. sweep.csv has a column
per axis, and with a `seed` axis the sweep prints AP and FG as mean
(min-max) over the seeds. The file's mapping and the overrides make one
RunConfig, which checks each value against the rule its field declares
(rebq.rules) when built, before any command runs. A refused value prints
`error [stage]`, a nested one of backbone or synth the stage its parent
field declares; an unknown or missing key prints `error:`.
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

from . import rules
from . import tensor as T
from .runner import (ExperimentError, Report, RunConfig, emit_report,
                     run_experiment)

OUTPUT_ROOT_ENV = "REBQ_OUTPUT_ROOT"


def _resolve_output(path: str) -> str:
    """An output directory: a relative path under $REBQ_OUTPUT_ROOT when set."""
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
    """The RunConfig of the --config file's mapping with each --set applied,
    checked when built, before a command resolves a path or builds anything."""
    d = rules.mapping(_read_json(args.config), RunConfig, "config") if args.config else {}
    for item in args.set or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        _override(d, key, _parse_value(raw))
    return RunConfig.from_dict(d)


def _run_single(cfg: RunConfig) -> Report:
    report, artifacts = run_experiment(cfg)
    emit_report(report, cfg.output_dir, artifacts)
    return report


def cmd_run(args) -> int:
    cfg = _load_config(args)
    cfg = dataclasses.replace(cfg, output_dir=_resolve_output(cfg.output_dir))
    report = _run_single(cfg)
    fg = "n/a" if report.fg is None else f"{report.fg:.4f}"
    print(f"variant={cfg.variant} eta={cfg.eta} AP={report.ap:.4f} FG={fg}")
    print(f"report written to {cfg.output_dir}")
    return 0


def _sweep_worker(cfg: RunConfig) -> tuple[str, float, float | None]:
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


def _axis_values(raw: str) -> list:
    """An --axis value list: one JSON array, or, when a bare string keeps it
    from parsing, each non-empty comma-separated item read as a --set value."""
    try:
        return json.loads(f"[{raw}]")
    except json.JSONDecodeError:
        return [_parse_value(v) for v in raw.split(",") if v]


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
        values = _axis_values(raw)
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

    root = _resolve_output(base.output_dir)
    combos = list(itertools.product(*(vals for _, vals in axes)))
    tags, configs = [], []
    for combo in combos:
        d = base.to_dict()
        tag_parts = []
        for (name, values), value in zip(axes, combo):
            _override(d, name, value)
            named = values.index(value) if isinstance(value, (dict, list)) else value
            tag_parts.append(f"{name}{named}")
        tag = "_".join(tag_parts)
        d["output_dir"] = str(Path(root) / tag)
        tags.append(tag)
        configs.append(RunConfig.from_dict(d))

    # the pool starts all its workers at once, so no more than the grid has
    # runs; each splits its passes into at most cores // jobs parts, so the
    # workers start no more threads than cores
    jobs = min(args.jobs, len(configs))
    with ProcessPoolExecutor(max_workers=jobs, initializer=T.set_row_parts,
                             initargs=(max(1, T.row_parts() // jobs),)) as pool:
        results = list(zip(tags, pool.map(_sweep_worker, configs)))

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

    p = sub.add_parser("run", help="run one continual experiment")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="grid sweep over config axes")
    common(p)
    p.add_argument("--axis", action="append", default=[], metavar="KEY=V1,V2,...",
                   help="sweep axis; any config key but output_dir")
    p.add_argument("--jobs", type=int, default=1, help="worker processes that run the grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="verify and print a saved report")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--emit", help="directory to re-emit report.json, matrix.csv and "
                                  "trajectory.csv into (a report holds no steps.csv)")
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
