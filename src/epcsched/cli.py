"""Command-line front end.

    epcsched run    --config experiment.cfg
    epcsched report --dir artifacts --figure 7 [--figure 8 ...]
    epcsched report --dir artifacts --figure all
    epcsched scale  --in trace.csv --out jobs.csv [scaling flags]

Exit codes: 0 on success, 2 for configuration errors, 3 for I/O problems
such as a missing trace or artifact directory.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import trace
from .engine import ConfigError
from .experiment import as_size, load_config, run_experiment
from .report import FIGURES, figure_dataset, figure_datasets
from .trace import TRACE_FORMATS, ScalingConfig, TraceParseError


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_root = run_experiment(cfg)
    print(f"experiment finished; artifacts under {out_root}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    figures = (FIGURES if "all" in args.figure
               else tuple(dict.fromkeys(args.figure)))
    if args.out is None:
        paths = figure_datasets(args.dir, figures)
    elif len(figures) == 1:
        paths = [figure_dataset(args.dir, figures[0], args.out)]
    else:
        raise ConfigError("--out names the file of one figure; "
                          f"{len(figures)} figures were asked for")
    for path in paths:
        print(f"wrote {path}")
    return 0


# Each scaling field's flag, its argparse type (None: a size, parsed under
# the flag's name) and its help; errors name the flag in place of the field.
_SCALING_FLAGS = {
    "slice_start_s": ("--slice-start", float, "slice window start, seconds"),
    "slice_end_s": ("--slice-end", float,
                    "slice window end, seconds (exclusive)"),
    "sampling_stride": ("--stride", int,
                        "keep every stride-th record of the slice"),
    "sgx_fraction": ("--sgx-fraction", float,
                     "share of jobs tagged as enclave-backed"),
    "std_multiplier": ("--std-multiplier", None, "standard-node capacity "
                       "behind the fractions (e.g. 32GiB)"),
    "sgx_multiplier": ("--sgx-multiplier", None, "protected-memory capacity "
                       "behind the fractions (e.g. 93.5MiB)"),
    "rng_seed": ("--seed", int, "tagging seed"),
}


def _cmd_scale(args: argparse.Namespace) -> int:
    values = {}
    for name, (flag, kind, _) in _SCALING_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
        values[name] = value if kind else as_size(value, flag)
    try:
        scaling = ScalingConfig(**values)
    except ValueError as exc:
        message = str(exc)
        for name, (flag, *_) in _SCALING_FLAGS.items():
            message = message.replace(name, flag)
        raise ConfigError(message) from None
    # looked up in `trace`, where a per-layer split wraps them by name
    records = trace.slice_and_sample(
        trace.parse_trace(args.trace_in, args.format), scaling)
    jobs = trace.materialize(records, scaling)
    trace.write_jobs_csv(jobs, args.jobs_out)
    print(f"wrote {len(jobs)} jobs to {args.jobs_out}")
    return 0


def figure_or_all(text: str) -> int | str:
    """A --figure value: 'all' as is, a figure number as an int."""
    return text if text == "all" else int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epcsched",
        description="Replay job traces against a cluster model with "
                    "protected-memory accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("--config", required=True, help="JSON or key=value config file")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="emit a plot-ready dataset from run artifacts")
    p_report.add_argument("--dir", required=True, help="experiment artifact directory")
    p_report.add_argument("--figure", required=True, action="append",
                          type=figure_or_all, choices=[*FIGURES, "all"],
                          help="which dataset to emit; repeat it for "
                               "several, or give 'all'")
    p_report.add_argument("--out", default=None,
                          help="output path of a single figure "
                               "(default: <dir>/fig<N>.dat)")
    p_report.set_defaults(func=_cmd_report)

    p_scale = sub.add_parser("scale", help="slice and scale a raw trace into a jobs CSV")
    p_scale.add_argument("--in", dest="trace_in", required=True,
                         help="input trace: a canonical CSV file for "
                              "canonical_csv; for borg_tables, the trace root "
                              "directory holding task_events/ and, "
                              "optionally, task_usage/ of gzip *.csv.gz "
                              "shards")
    p_scale.add_argument("--out", dest="jobs_out", required=True, help="output jobs CSV")
    p_scale.add_argument("--format", choices=TRACE_FORMATS,
                         default=TRACE_FORMATS[0])
    scaling = ScalingConfig()  # the defaults of the scaling flags
    for name, (flag, kind, help_text) in _SCALING_FLAGS.items():
        default = getattr(scaling, name)
        p_scale.add_argument(flag, type=kind, help=help_text,
                             default=default if kind else str(default))
    p_scale.set_defaults(func=_cmd_scale)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TraceParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
