"""Command-line interface: benchmarking, streaming prediction, snapshots.

Subcommands
    bench     run the online protocol from a config file over a CSV series,
              emit the JSON summary and optionally the per-step CSV
    predict   stream values from stdin, one prediction per line
    snapshot  save a trained forecaster, or show/verify a saved one

Every engine error maps to its own exit code; ANARX_LOG sets verbosity
(DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import errors
from .pipeline import load_config, load_csv, run_experiment
from .snapshot import snapshot_load, snapshot_save

log = logging.getLogger("anarx")

EXIT_CODES = [
    (FileNotFoundError, 3),
    (errors.ParseError, 4),
    (errors.EmptySeries, 5),
    (errors.DegenerateRange, 6),
    (errors.InvalidRange, 7),
    (errors.InvalidOrder, 8),
    (errors.VersionMismatch, 9),
    (errors.CorruptSnapshot, 10),
    (errors.SingularCorrelation, 11),
    (errors.DimensionMismatch, 12),
    # 13 and 14 are retired and not reused: they were ZeroRegressor and
    # ZeroGain, which the learners no longer raise (they mask the row)
    (errors.DegenerateActivation, 15),
    (errors.DegenerateStep, 16),
    (errors.NumericalDivergence, 17),
    (errors.AnarxError, 20),
    (ValueError, 21),
]


def _exit_code(exc: BaseException) -> int:
    for etype, code in EXIT_CODES:
        if isinstance(exc, etype):
            return code
    return 70


def _setup_logging() -> None:
    level_name = os.environ.get("ANARX_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _column_arg(value: str | None):
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _cmd_bench(args) -> int:
    config = load_config(args.config)
    series = load_csv(args.data, _column_arg(args.column))
    report = run_experiment(series, config)
    text = report.to_json()
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(report.steps_csv())
    print(
        f"rmse_train={report.rmse_train:.6f} rmse_test={report.rmse_test:.6f} "
        f"params={report.parameter_count} time={report.wall_time_s:.3f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_predict(args) -> int:
    forecaster = snapshot_load(args.snapshot)
    learn = not args.freeze
    for lineno, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise errors.ParseError(f"stdin line {lineno}: non-numeric value {line!r}") from None
        try:
            pred = forecaster.step(value, learn=learn)
        except errors.AnarxError as exc:
            raise type(exc)(f"stdin line {lineno}: {exc}") from exc
        print(repr(pred))
    return 0


def _cmd_snapshot_save(args) -> int:
    config = load_config(args.config)
    series = load_csv(args.data, _column_arg(args.column))
    # the forecaster `bench` streams, so both build the same model
    snapshot_save(run_experiment(series, config).forecaster, args.out)
    print(f"snapshot written to {args.out}", file=sys.stderr)
    return 0


def _cmd_snapshot_show(args) -> int:
    forecaster = snapshot_load(args.snapshot)
    model = forecaster.model
    print(f"nodes: {model.n} ({model.nodes[0].kind})")
    print(f"training: {model.training}, learner: {model.learner_kind}, alpha: {model.alpha}")
    print(f"weighted: {forecaster.combiner is not None}")
    if forecaster.combiner is not None:
        print(f"c: {forecaster.combiner.c.tolist()}")
    print(f"scale: {forecaster.scale}")
    health = _learner_health(model)
    if health:
        print(f"learner health: {health}")
    if forecaster.evolution is None:
        print("evolution: off")
    else:
        print(f"evolution: {forecaster.evolution}, learned steps: {forecaster.learned_steps}")
    print("integrity: ok")
    return 0


def _learner_health(model) -> str:
    """RLS ``trace(P)`` and largest diagonal entry of ``P`` (wind-up shows
    as growth), or the adaptive gain ``r``; min/max over the learner's
    rows when it has several (independent training). Empty for KWH,
    which keeps no gain state."""
    learner = model.learner
    if model.learner_kind == "rls":
        stats = {
            "trace(P)": np.trace(learner.P, axis1=1, axis2=2).tolist(),
            "max diag(P)": learner.P.diagonal(axis1=1, axis2=2).max(axis=1).tolist(),
        }
    elif model.learner_kind == "adaptive":
        stats = {"r": learner.r.tolist()}
    else:
        return ""
    if len(learner.w) == 1:
        return ", ".join(f"{name} {v[0]!r}" for name, v in stats.items())
    return ", ".join(f"{name} min {min(v)!r} max {max(v)!r}" for name, v in stats.items())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anarx",
        description="Online forecasting with additive per-lag fuzzy nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the benchmark protocol")
    bench.add_argument("--config", required=True, help="flat key=value config file")
    bench.add_argument("--data", required=True, help="CSV file with the series")
    bench.add_argument("--column", default=None, help="column name or index (default: first)")
    bench.add_argument("--out-json", default=None, help="write the JSON summary here")
    bench.add_argument("--out-csv", default=None, help="write per-step records here")
    bench.set_defaults(func=_cmd_bench)

    predict = sub.add_parser("predict", help="stream stdin values, one prediction per line")
    predict.add_argument("--snapshot", required=True, help="snapshot file to load")
    predict.add_argument("--freeze", action="store_true", help="do not learn while streaming")
    predict.set_defaults(func=_cmd_predict)

    snap = sub.add_parser("snapshot", help="save or inspect model snapshots")
    snapsub = snap.add_subparsers(dest="snapshot_command", required=True)
    save = snapsub.add_parser("save", help="train per config and save the forecaster")
    save.add_argument("--config", required=True)
    save.add_argument("--data", required=True)
    save.add_argument("--column", default=None)
    save.add_argument("--out", required=True)
    save.set_defaults(func=_cmd_snapshot_save)
    show = snapsub.add_parser("show", help="print snapshot metadata after verifying it")
    show.add_argument("--snapshot", required=True)
    show.set_defaults(func=_cmd_snapshot_show)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single funnel to exit codes
        code = _exit_code(exc)
        print(f"error: {exc}", file=sys.stderr)
        log.debug("fatal error", exc_info=True)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
