"""Drive a full experiment sweep and turn the artifacts into plot data.

`run_experiment` expands the config's sweep axes (protected-region size x
enclave share here), replays each point, and writes one directory of CSV
artifacts per run.  `figure_dataset` then flattens those directories into a
single whitespace-separated .dat file ready for gnuplot or pandas.
"""

import tempfile
from pathlib import Path

from epcsched import bundled_trace_path, figure_dataset, load_config, run_experiment

with tempfile.TemporaryDirectory(prefix="epcsched-demo-") as tmp:
    workdir = Path(tmp)
    config_text = (f"trace = {bundled_trace_path()}\n"
                   "epc_usable_sweep = 64MiB, 128MiB\n"
                   "sgx_fraction_sweep = 0.5, 1.0\n"
                   "policy = binpack\n"
                   f"output_dir = {workdir / 'artifacts'}\n")
    config_path = workdir / "sweep.conf"
    config_path.write_text(config_text)

    artifacts = run_experiment(load_config(config_path))
    run_dirs = sorted(p for p in artifacts.iterdir() if p.is_dir())
    print(f"ran {len(run_dirs)} points:")
    for run_dir in run_dirs:
        print(f"  {run_dir.name}/  ({len(list(run_dir.iterdir()))} files)")

    dat = figure_dataset(artifacts, 6, workdir / "fig6.dat")
    lines = dat.read_text().splitlines()
    print(f"\n{dat.name} ({len(lines)} lines), backlog peaks per run:")
    peaks = {}
    for line in lines[1:]:
        label, _t, pending = line.split()
        peaks[label] = max(peaks.get(label, 0), int(pending))
    for label in sorted(peaks):
        print(f"  {label}: {peaks[label]:>14} bytes queued at worst")
