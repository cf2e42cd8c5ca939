"""Replay benchmark of epcsched.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`.  Set-up (importing the package in a fresh interpreter
and generating the inputs) runs several times and is reported as a median.
Then the workload's pass repeats until the next pass would overrun
`--seconds` of timed work, at least once.  Every timed region is corrected
for the speed of a shared host (see hostspeed.py).  Every pass's outputs are
hashed and checked outside the timed region: against the golden digests in
`golden.json` for the default seed, against the first pass otherwise, and
against oracles on every seed.

With `--trace 0` the last line of standard output is the JSON result with
every end-to-end metric of BENCHMARK.json.  With `--trace 1` untraced and
traced passes alternate, each traced pass records a span per call into the
package's public functions, the spans are written to
`.bench_work/<workload>/spans.csv.gz`, and the result carries every per-layer
metric.  The command exits 1 when any output is wrong, 2 on bad usage or a
checkout without the package source.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 140051
SETUP_REPEATS = 3

_IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
import hostspeed
with hostspeed.SpeedProbe() as speed:
    start = time.perf_counter()
    import epcsched
    raw = time.perf_counter() - start
print(speed.corrected(raw))
"""


def import_seconds() -> float:
    """Corrected host time to import the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(BENCH),
                           str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def mismatched(expected: dict[str, str], got: dict[str, str]) -> set[str]:
    """Operations whose artifacts differ from, or are missing against, the
    expected digests."""
    return {key.split("/")[0] for key in expected.keys() | got.keys()
            if expected.get(key) != got.get(key)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epcsched" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import epcsched
    import hostspeed
    if Path(epcsched.__file__).resolve().parent != (SRC / "epcsched").resolve():
        print(f"bench: imported {epcsched.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2
    import layers
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    generate = []
    for _ in range(SETUP_REPEATS):
        with hostspeed.SpeedProbe() as speed:
            start = time.perf_counter()
            wl.setup(args.seed, work)
            raw = time.perf_counter() - start
        generate.append(speed.corrected(raw))
    setup_s = statistics.median(imports) + statistics.median(generate)

    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads((BENCH / "golden.json").read_text())[wl.name]
    reference = golden
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: dict[bool, list[float]] = {False: [], True: []}
    layer_rows: list[dict[str, float]] = []
    attempted = failed = 0
    elapsed = 0.0
    spans_path = work / "spans.csv.gz"
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        wl.prepare()
        gc.collect()
        inst = layers.Instrument(tracing.SpanRecorder()) if traced else None
        attempted += wl.ops
        try:
            with contextlib.ExitStack() as stack:
                if inst is not None:
                    stack.enter_context(inst)
                speed = stack.enter_context(hostspeed.SpeedProbe())
                start = time.perf_counter()
                out = wl.run()
                raw = time.perf_counter() - start
            digests, problems = wl.verify(out)
        except Exception:
            traceback.print_exc()
            failed += wl.ops
            break
        del out
        elapsed += raw
        raw_walls[traced].append(raw)
        walls[traced].append(speed.corrected(raw))
        bad = {op for op, _ in problems}
        for op, message in problems:
            print(f"check failed: {op}: {message}")
        if reference is None:
            reference = digests
            for key in sorted(digests):
                print(f"digest {wl.name} seed={args.seed} {key} {digests[key]}")
        else:
            for op in sorted(mismatched(reference, digests)):
                print(f"digest mismatch: {op} "
                      f"({'golden' if golden else 'first pass'})")
                bad.add(op)
        failed += len(bad)
        if inst is not None:
            if inst.missing:
                print(f"not traced (absent): {', '.join(inst.missing)}")
            layer_rows.append(layers.pass_metrics(inst, wl.artifact_bytes(),
                                                  speed.speed_factor()))
            inst.recorder.write_csv_gz(spans_path, len(layer_rows) - 1,
                                       append=len(layer_rows) > 1)
            del inst
        if failed:
            break
        enough = walls[False] and (not args.trace or walls[True])
        longest = max(raw_walls[False] + raw_walls[True])
        if enough and elapsed + longest > args.seconds:
            break

    untraced = statistics.median(walls[False]) if walls[False] else 0.0
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for traced in (False, True):
        if walls[traced]:
            print(f"workload {wl.name} seed {args.seed}: "
                  f"{'traced' if traced else 'untraced'} passes, host s "
                  f"{[round(w, 4) for w in raw_walls[traced]]}, corrected s "
                  f"{[round(w, 4) for w in walls[traced]]}")
    print(f"setup: import {[round(t, 4) for t in imports]} s, generate "
          f"{[round(t, 4) for t in generate]} s")
    print(f"error_rate {tracing.ratio(failed, attempted)} "
          f"({failed} of {attempted} operations failed)")
    if golden is not None and not failed:
        print(f"golden: all {len(golden)} digests match")

    if args.trace:
        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]} if layer_rows else {}
        if walls[True]:
            values["bench.tracing_overhead_frac"] = tracing.overhead_frac(
                statistics.median(walls[True]), untraced)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": untraced,
            "jobs_per_s": tracing.ratio(wl.units(), untraced),
            "peak_rss_mib": rss_mib,
            "setup_s": setup_s,
        }
        wanted = spec["end_to_end"]
    # A failed run may stop before anything was measured; a good run must
    # have computed every metric BENCHMARK.json names.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0) if failed
                           else values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
