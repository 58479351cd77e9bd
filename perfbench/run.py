"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline-dtg --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload a second time, traced, and prints every
per-layer metric instead. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the run's provenance and sample counts. Workload parameters and the
reasoning behind them live in ``perfbench/workloads.json``.

Exit codes: 0 measured and correct, 1 an output was wrong, 2 the program
or its inputs are missing, 3 the run was invalid (the generator fell
behind or the server's backlog grew) and reports no numbers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(raw: dict) -> dict[str, float]:
    from perfbench.stats import percentile

    latency, result = raw["latency_s"], raw["result_s"]
    return {
        "setup_s": statistics.median(raw["setups_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "latency_p50_ms": percentile(latency, 50) * 1e3,
        "latency_p99_ms": percentile(latency, 99) * 1e3,
        "result_p50_ms": percentile(result, 50) * 1e3,
        "result_p75_ms": percentile(result, 75) * 1e3,
    }


def speed_stamp(raw: dict) -> dict:
    """The speed probe's range and the figures before rescaling."""
    from perfbench.speed import REFERENCE_S
    from perfbench.stats import interpolate

    probes, unscaled = sorted(raw["probes_s"]), raw["unscaled"]
    return {
        "reference_probe_ms": REFERENCE_S * 1e3,
        "probe_ms_min_median_max": [p * 1e3 for p in (probes[0], interpolate(probes, 50), probes[-1])],
        "unscaled_setup_s": statistics.median(unscaled["setups_s"]),
        "unscaled_latency_p50_ms": interpolate(sorted(unscaled["latency_s"]), 50) * 1e3,
        "unscaled_result_p50_ms": interpolate(sorted(unscaled["result_s"]), 50) * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The script's own directory comes first on sys.path; its module names
    # must not shadow anything, so import the package from the root instead.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != BENCH
    ]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((BENCH / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = {**config["workloads"][args.workload], "validity": config["validity"]}

    from repro.metrics.compare import EquivalenceError

    from perfbench import offline, served
    from perfbench.system import pin, placement, provenance

    stamp = provenance(ROOT)
    cpus = placement()
    pin(0, cpus[0])
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    trace = bool(args.trace)
    try:
        if spec["mode"] == "offline":
            raw = offline.run(config["job"], spec, args.seed, args.seconds, trace)
        else:
            raw = served.run(ROOT, work, config["job"], spec, args.seed, args.seconds, trace, cpus)
    except served.InvalidRun as exc:
        print(f"perfbench: invalid run, no numbers reported: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, EquivalenceError):
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if trace:
        values = raw["layers"]
        names = declared["per_layer"]
    else:
        values = end_to_end(raw)
        names = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    stamp = {
        **stamp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": {k: v for k, v in spec.items() if k not in ("why",)},
        "setups_s": raw["setups_s"],
        "speed": speed_stamp(raw),
        "samples": {
            "setups": len(raw["setups_s"]),
            "latency": len(raw["latency_s"]),
            "result": len(raw["result_s"]),
        },
        **raw["provenance"],
    }
    print("provenance " + json.dumps(stamp, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
