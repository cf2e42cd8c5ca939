"""Experiment driver: load a config, expand its sweeps, replay each point,
and leave one artifact directory per run.

Sweep points are independent (each gets a fresh engine), so they can run in
worker processes.  `report` names and writes every file of the artifact
root, each run directory staged and renamed into place only when complete.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ._units import PAGE_SIZE, format_size, parse_size
from .cluster import (DEFAULT_EPC_TOTAL, DEFAULT_EPC_USABLE, EpcModel,
                      NodeSpec, default_cluster)
from .engine import ConfigError, SimConfig, run
from .report import EXPERIMENT_FILE, write_json, write_run_dir
from .trace import (TRACE_FORMATS, JobSpec, RawJobRecord, ScalingConfig,
                    inject_malicious, malicious_id, materialize, parse_trace,
                    slice_and_sample)


@dataclass(frozen=True)
class MaliciousConfig:
    """Adversarial jobs to inject.  n = None means one per enclave node."""

    n: int | None = None
    declared_pages: int = 1
    use_fraction: float = 0.5

    def __post_init__(self):
        if self.n is not None and self.n < 0:
            raise ConfigError("malicious_n must be >= 0 (or 'auto')")
        if self.declared_pages < 1:
            raise ConfigError("malicious_declared_pages must be >= 1, "
                              f"got {self.declared_pages!r}")
        if not 0.0 < self.use_fraction <= 1.0:
            raise ConfigError("malicious_use_fraction must lie in (0, 1], "
                              f"got {self.use_fraction!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    trace_file: str
    trace_format: str = TRACE_FORMATS[0]
    cluster_file: str | None = None
    scaling: ScalingConfig = field(default_factory=ScalingConfig)
    policy: str = SimConfig.policy
    enforce_limits: bool = SimConfig.enforce_limits
    include_startup_delays: bool = SimConfig.include_startup_delays
    epc_usable_sweep: tuple[int, ...] | None = None
    apply_usable_fraction: bool = False
    sgx_fraction_sweep: tuple[float, ...] | None = None
    malicious: MaliciousConfig | None = None
    scheduler_period_ms: int = SimConfig.scheduler_period_ms
    probe_period_ms: int = SimConfig.probe_period_ms
    window_ms: int = SimConfig.window_ms
    check_invariants: bool = SimConfig.check_invariants
    output_dir: str = "artifacts"
    workers: int = 1

    def __post_init__(self):
        # The paths are echoed into experiment.json, which takes strings.
        for name in ("trace_file", "cluster_file", "output_dir"):
            value = getattr(self, name)
            if isinstance(value, os.PathLike):
                object.__setattr__(self, name, os.fspath(value))
        if self.trace_format not in TRACE_FORMATS:
            raise ConfigError(f"unknown trace_format {self.trace_format!r}")
        # Each swept value is checked by the model it builds.
        for key, build in (
                ("epc_usable_sweep",
                 lambda size: _swept_epc(size, self.apply_usable_fraction)),
                ("sgx_fraction_sweep",
                 lambda f: replace(self.scaling, sgx_fraction=f))):
            values = getattr(self, key)
            if values is not None and not values:
                raise ConfigError(f"{key} must not be empty")
            for value in values or ():
                try:
                    build(value)
                except ValueError as exc:
                    raise ConfigError(f"{key} {value}: {exc}") from None
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # surfaces period/window inconsistencies before any run starts
        self.sim_config()

    def sim_config(self) -> SimConfig:
        return SimConfig(**{f.name: getattr(self, f.name)
                            for f in fields(SimConfig)})


_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _as_bool(value: Any, key: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in _BOOL_WORDS:
        return _BOOL_WORDS[value.lower()]
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _as_int(value: Any, key: str) -> int:
    # int() would truncate 2.5 and read true as 1; an integral float passes.
    if not isinstance(value, bool) and (not isinstance(value, float)
                                        or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def _as_float(value: Any, key: str) -> float:
    # float() would read true as 1.0
    if isinstance(value, str) and value.lower() in ("inf", "infinity"):
        return math.inf
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key}: expected a number, got {value!r}")


def as_size(value: Any, key: str) -> int:
    try:
        return parse_size(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _as_tuple_of(coerce: Callable[[Any, str], Any]
                 ) -> Callable[[Any, str], tuple]:
    """A coercer of a comma-separated string or a list, item by item."""
    def as_tuple(value: Any, key: str) -> tuple:
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        elif not isinstance(value, (list, tuple)):
            value = [value]
        return tuple(coerce(v, key) for v in value)
    return as_tuple


def _parse_flat(text: str) -> dict[str, str]:
    data: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in line_of:
            raise ConfigError(f"config line {lineno}: key {key!r} is already "
                              f"set on line {line_of[key]}")
        data[key], line_of[key] = value, lineno
    return data


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's dict (an `object_pairs_hook`); a key given twice is a
    ConfigError naming it, where `json.loads` would keep the last value."""
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"key {key!r} is given twice")
        data[key] = value
    return data


def _as_str(value: Any, key: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key}: expected a string, got {value!r}")


def _as_count_or_auto(value: Any, key: str) -> int | None:
    return None if str(value).lower() == "auto" else _as_int(value, key)


# Config key -> (section, field, coercer).  Sections: "run" is
# ExperimentConfig, "scaling" its ScalingConfig, and "malicious" its
# MaliciousConfig, which exists as soon as one malicious_ key is given.
_FIELDS: dict[str, tuple[str, str, Callable[[Any, str], Any]]] = {
    "slice_start_s": ("scaling", "slice_start_s", _as_float),
    "slice_end_s": ("scaling", "slice_end_s", _as_float),
    "sampling_stride": ("scaling", "sampling_stride", _as_int),
    "sgx_fraction": ("scaling", "sgx_fraction", _as_float),
    "std_multiplier": ("scaling", "std_multiplier", as_size),
    "sgx_multiplier": ("scaling", "sgx_multiplier", as_size),
    "rng_seed": ("scaling", "rng_seed", _as_int),
    "malicious_n": ("malicious", "n", _as_count_or_auto),
    "malicious_declared_pages": ("malicious", "declared_pages", _as_int),
    "malicious_use_fraction": ("malicious", "use_fraction", _as_float),
    "epc_usable_sweep": ("run", "epc_usable_sweep", _as_tuple_of(as_size)),
    "sgx_fraction_sweep": ("run", "sgx_fraction_sweep",
                           _as_tuple_of(_as_float)),
    "trace": ("run", "trace_file", _as_str),
    "trace_format": ("run", "trace_format", _as_str),
    "cluster": ("run", "cluster_file", _as_str),
    "policy": ("run", "policy", _as_str),
    "enforce_limits": ("run", "enforce_limits", _as_bool),
    "include_startup_delays": ("run", "include_startup_delays", _as_bool),
    "apply_usable_fraction": ("run", "apply_usable_fraction", _as_bool),
    "check_invariants": ("run", "check_invariants", _as_bool),
    "scheduler_period_ms": ("run", "scheduler_period_ms", _as_int),
    "probe_period_ms": ("run", "probe_period_ms", _as_int),
    "window_ms": ("run", "window_ms", _as_int),
    "workers": ("run", "workers", _as_int),
    "output_dir": ("run", "output_dir", _as_str),
}


def config_from_mapping(data: dict[str, Any]) -> ExperimentConfig:
    """Build a validated ExperimentConfig from flat key/value data (both the
    JSON and key=value file formats decode to this)."""
    unknown = data.keys() - _FIELDS.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "trace" not in data:
        raise ConfigError("config must name a trace file ('trace = ...')")
    sections: dict[str, dict[str, Any]] = {
        "run": {}, "scaling": {}, "malicious": {}}
    for key, (section, name, coerce) in _FIELDS.items():
        if key in data:
            sections[section][name] = coerce(data[key], key)
    try:
        scaling = ScalingConfig(**sections["scaling"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    malicious = None
    if sections["malicious"]:
        malicious = MaliciousConfig(**sections["malicious"])
    return ExperimentConfig(scaling=scaling, malicious=malicious,
                            **sections["run"])


def _read_text(path, what: str) -> str:
    """A UTF-8 file's text; bytes that do not decode are a ConfigError
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    """Read an experiment config file: a flat JSON object or key = value
    lines with '#' comments.  Both use the same key names."""
    text = _read_text(path, "config file")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
    except json.JSONDecodeError:
        data = _parse_flat(text)
    return config_from_mapping(data)


# A node's protected-memory keys -> the EpcModel fields they set.
_EPC_KEYS = {"epc_total": "total_bytes", "epc_usable": "usable_bytes"}
_NODE_KEYS = frozenset({"node_id", "std_capacity", *_EPC_KEYS})


def load_cluster(path) -> list[NodeSpec]:
    """Read a cluster file: a JSON list of {node_id, std_capacity, and for
    enclave-capable nodes epc_total / epc_usable}.  Sizes may be plain bytes
    or suffixed strings.  A missing path means the built-in default cluster.
    A fault is a ConfigError naming the file and, once its id is checked,
    the node."""
    if path is None:
        return default_cluster()
    text = _read_text(path, "cluster file")
    where = prefix = f"cluster file {path}: "
    specs: dict[str, NodeSpec] = {}
    try:
        rows = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(rows, list) or not rows:
            raise ConfigError("expected a non-empty list")
        for row in rows:
            where = prefix
            if not isinstance(row, dict) or "node_id" not in row:
                raise ConfigError("each node needs node_id and std_capacity")
            node_id = row["node_id"]
            if not isinstance(node_id, str) or not node_id:
                raise ConfigError("node_id must be a non-empty string, "
                                  f"got {node_id!r}")
            if node_id in specs:
                raise ConfigError(f"duplicate node_id {node_id!r}")
            where = f"{prefix}node {node_id!r}: "
            unknown = sorted(row.keys() - _NODE_KEYS)
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r}")
            if "std_capacity" not in row:
                raise ConfigError("each node needs node_id and std_capacity")
            epc = None
            if row.keys() & _EPC_KEYS:  # an absent one keeps its default
                epc = EpcModel(**{name: as_size(row[key], key)
                                  for key, name in _EPC_KEYS.items()
                                  if key in row})
            specs[node_id] = NodeSpec(
                node_id, as_size(row["std_capacity"], "std_capacity"), epc)
    except ValueError as exc:
        raise ConfigError(where + str(exc)) from None
    return list(specs.values())


def _swept_epc(size: int, apply_fraction: bool) -> EpcModel:
    """The protected memory of a swept size: all of it usable, or with
    apply_fraction a region of that size whose usable share is the default
    node's, rounded down to a whole page."""
    if not apply_fraction:
        return EpcModel(size, size)
    usable = size * DEFAULT_EPC_USABLE // DEFAULT_EPC_TOTAL
    return EpcModel(size, usable - usable % PAGE_SIZE)


def _label(epc_bytes: int | None, fraction: float,
           cfg: ExperimentConfig) -> str:
    parts = [
        f"epc-{format_size(epc_bytes)}" if epc_bytes is not None else "epc-default",
        f"sgx-{int(round(fraction * 100)):03d}",
        cfg.policy,
    ]
    if cfg.malicious is not None:
        parts.append("mal")
    if not cfg.enforce_limits:
        parts.append("noenforce")
    return "_".join(parts)


class SweepPoint(NamedTuple):
    label: str
    epc_bytes: int | None  # swept usable protected bytes; None: the file's
    fraction: float


def run_point(cfg: ExperimentConfig, jobs: list[JobSpec], point: SweepPoint,
              specs: list[NodeSpec], out_root: str) -> str:
    """Replay one sweep point on its cluster and write its artifact
    directory.  `jobs` are the trace's jobs materialized at the point's
    fraction; the malicious jobs, whose pages depend on the cluster's usable
    protected memory, are injected here.  Returns the run label."""
    label, epc_bytes, fraction = point
    if cfg.malicious is not None:
        sgx_specs = sorted((s for s in specs if s.is_sgx),
                           key=lambda s: s.node_id)
        jobs = inject_malicious(jobs, _malicious_n(cfg, specs),
                                cfg.malicious.declared_pages,
                                cfg.malicious.use_fraction,
                                sgx_specs[0].epc.usable_pages)
    result = run(jobs, specs, cfg.sim_config())
    write_run_dir(Path(out_root), label, jobs, result, {
        "epc_usable_sweep_bytes": epc_bytes,
        "sgx_fraction": fraction,
        "policy": cfg.policy,
        "enforce_limits": cfg.enforce_limits,
        "malicious": None if cfg.malicious is None else asdict(cfg.malicious),
    })
    return label


def _sweep_points(cfg: ExperimentConfig) -> list[SweepPoint]:
    """Every sweep point with its run label, usable sizes outer and
    fractions inner.  Two points whose labels match would write one
    directory, so they are a ConfigError naming both."""
    points = [SweepPoint(_label(epc, frac, cfg), epc, frac)
              for epc in cfg.epc_usable_sweep or (None,)
              for frac in cfg.sgx_fraction_sweep or (cfg.scaling.sgx_fraction,)]
    seen: dict[str, str] = {}
    for label, epc, frac in points:
        name = (f"(epc_usable {'default' if epc is None else epc}, "
                f"sgx_fraction {frac!r})")
        if label in seen:
            raise ConfigError(f"sweep points {seen[label]} and {name} share "
                              f"the run label {label!r}")
        seen[label] = name
    return points


def _malicious_n(cfg: ExperimentConfig, specs: list[NodeSpec]) -> int:
    """How many malicious jobs a point on this cluster injects: the
    configured count, or one per enclave-capable node for `auto`."""
    if cfg.malicious.n is not None:
        return cfg.malicious.n
    return sum(spec.is_sgx for spec in specs)


def _check_malicious_ids(cfg: ExperimentConfig, records: list[RawJobRecord],
                         clusters: dict[int | None, list[NodeSpec]]) -> None:
    """ConfigError if a trace job has the id of a malicious job that some
    point injects."""
    if cfg.malicious is None:
        return
    ids = {rec.job_id for rec in records}
    n = max(_malicious_n(cfg, specs) for specs in clusters.values())
    for k in range(n):
        if malicious_id(k) in ids:
            raise ConfigError(
                f"trace {cfg.trace_file}: job {malicious_id(k)!r} has the id "
                f"of an injected malicious job (malicious_n = {n})")


def _sweep_clusters(cfg: ExperimentConfig) -> dict[int | None, list[NodeSpec]]:
    """The cluster of every swept usable size, from one read of the cluster
    file; ConfigError if a point cannot run."""
    base = load_cluster(cfg.cluster_file)
    if cfg.malicious is not None and not any(s.is_sgx for s in base):
        raise ConfigError("malicious jobs need an enclave-capable node")
    if not cfg.epc_usable_sweep:
        return {None: base}
    return {size: [replace(s, epc=_swept_epc(size, cfg.apply_usable_fraction))
                   if s.is_sgx else s for s in base]
            for size in cfg.epc_usable_sweep}


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Expand the config's sweeps and replay every point.  Returns the
    artifact root, which holds one subdirectory per sweep point."""
    points = _sweep_points(cfg)
    records = slice_and_sample(
        parse_trace(cfg.trace_file, cfg.trace_format), cfg.scaling)
    clusters = _sweep_clusters(cfg)  # a bad point fails before anything runs
    _check_malicious_ids(cfg, records, clusters)
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    echo = {
        "trace": cfg.trace_file,
        "trace_format": cfg.trace_format,
        "cluster": cfg.cluster_file,
        "policy": cfg.policy,
        "enforce_limits": cfg.enforce_limits,
        "jobs_in_slice": len(records),
    }
    write_json(out_root / EXPERIMENT_FILE, echo)
    # The points run grouped by fraction, and the trace is materialized once
    # per distinct fraction: the points of a fraction share its jobs.
    by_fraction: dict[float, list[SweepPoint]] = {}
    for point in points:
        by_fraction.setdefault(point.fraction, []).append(point)

    if cfg.workers > 1 and len(points) > 1:
        # Imported only here: loading the process pool would slow every
        # import of the package, and a serial run never uses it.
        from concurrent.futures import (FIRST_EXCEPTION, ProcessPoolExecutor,
                                        wait)
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = []
            for fraction, group in by_fraction.items():
                jobs = materialize(records, replace(cfg.scaling,
                                                   sgx_fraction=fraction))
                futures += [pool.submit(run_point, cfg, jobs, point,
                                        clusters[point.epc_bytes],
                                        str(out_root))
                            for point in group]
            # The first failure cancels the points that have not started.
            wait(futures, return_when=FIRST_EXCEPTION)
            pool.shutdown(cancel_futures=True)
            for future in futures:
                if not future.cancelled():
                    future.result()
    else:
        for fraction, group in by_fraction.items():
            jobs = materialize(records, replace(cfg.scaling,
                                                sgx_fraction=fraction))
            for point in group:
                run_point(cfg, jobs, point, clusters[point.epc_bytes],
                          str(out_root))
            del jobs  # one fraction's jobs in memory at a time
    return out_root
