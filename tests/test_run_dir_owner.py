"""The artifact root has one owner: `report` names every file in it and
writes each run directory, `experiment` names no file, and no module of the
package imports a private name from a sibling; the file helpers that
several modules share are public names of `_csvio`."""

import ast
from pathlib import Path

from epcsched import experiment, report
from epcsched.experiment import ExperimentConfig, run_experiment

SRC = Path(report.__file__).resolve().parent

TRACE = ("job_id,submit_s,duration_s,assigned_mem_frac,max_mem_frac\n"
         "j1,0,30,0.2,0.15\nj2,2,40,0.1,0.1\n")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [f"{path.name}: {alias.name} from {node.module or '.'}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("epcsched"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_experiment_names_no_file():
    names = [node.value for node in ast.walk(_tree(Path(experiment.__file__)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.endswith((".csv", ".json"))]
    assert names == []


def test_a_sweep_leaves_exactly_the_files_report_names(tmp_path):
    run_files = {value for name, value in vars(report).items()
                 if name.endswith("_FILE") and name != "EXPERIMENT_FILE"}
    assert len(run_files) == 6
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE)
    root = run_experiment(ExperimentConfig(
        trace_file=str(trace), sgx_fraction_sweep=(0.0, 1.0),
        output_dir=str(tmp_path / "out")))
    runs = sorted(p for p in root.iterdir() if p.is_dir())
    assert [p.name for p in root.iterdir() if not p.is_dir()] == [
        report.EXPERIMENT_FILE]
    assert len(runs) == 2
    for run_dir in runs:
        assert {p.name for p in run_dir.iterdir()} == run_files
