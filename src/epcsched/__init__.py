"""Deterministic replay simulator for clusters that schedule enclave-backed
containers against a scarce protected-memory region.

The pieces compose bottom-up: traces become job specs (`trace`), jobs land on
modeled nodes (`cluster`) whose protected pages a driver facsimile hands out
(`driver`), placement policies (`scheduler`) admit against each node's
measured usage, which a ledger of every pod's lingering window keeps on the
node (`metrics`), and an integer-millisecond loop over scheduler ticks
replays the whole thing (`engine`).
`experiment` and `report` wrap runs into sweep directories and plot-ready
datasets; `synthetic` ships a workload to replay.
"""

from .cluster import (CapacityError, ClusterState, EpcModel, NodeSpec,
                      NodeState, Pod, default_cluster)
from .driver import DriverError, DriverState, InitResult, startup_delay
from .engine import ConfigError, JobOutcome, JobStatus, SimConfig, SimResult, run
from .experiment import (ExperimentConfig, MaliciousConfig, load_cluster,
                         load_config, run_experiment)
from .metrics import (METRIC_EPC_PAGES, METRIC_STD_BYTES, MetricSample,
                      SeriesStore, UsageLedger)
from .report import (BucketStat, figure_dataset, figure_datasets,
                     mean_waiting, summary, turnaround_sum, waiting_by_memory,
                     waiting_cdf)
from .scheduler import (PendingQueue, binpack_select, feasible, schedule_tick,
                        spread_select)
from .synthetic import (bundled_trace_path, load_bundled_trace,
                        synthetic_trace)
from .trace import (JobKind, JobSpec, RawJobRecord, ScalingConfig,
                    TraceParseError, inject_malicious, materialize,
                    parse_trace, slice_and_sample)

__version__ = "0.1.0"

__all__ = [
    "BucketStat", "CapacityError", "ClusterState", "ConfigError",
    "DriverError", "DriverState", "EpcModel", "ExperimentConfig",
    "InitResult", "JobKind", "JobOutcome", "JobSpec", "JobStatus",
    "MaliciousConfig", "METRIC_EPC_PAGES", "METRIC_STD_BYTES",
    "MetricSample", "NodeSpec", "NodeState", "PendingQueue", "Pod",
    "RawJobRecord", "ScalingConfig", "SeriesStore", "SimConfig", "SimResult",
    "TraceParseError", "UsageLedger", "binpack_select", "bundled_trace_path",
    "default_cluster", "feasible", "figure_dataset", "figure_datasets",
    "inject_malicious",
    "load_bundled_trace", "load_cluster", "load_config", "materialize",
    "mean_waiting", "parse_trace", "run", "run_experiment",
    "schedule_tick", "slice_and_sample", "spread_select",
    "startup_delay", "summary", "synthetic_trace", "turnaround_sum",
    "waiting_by_memory", "waiting_cdf",
]
