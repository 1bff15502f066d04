#!/usr/bin/env python3
"""The ledger benchmark's one command.

Pipeline form (one workload, last stdout line is the result object)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Developer form (all six workloads at the issue's fixed sizes)::

    PYTHONPATH=src python -m benchmarks.ledger.run --seed N [--workload W]
        [--traced] [--quick] [--repeat R] [--seconds S]

Every workload runs in a fresh subprocess of this same file
(``--child``): the process-wide atom-space interner would otherwise
pre-warm later workloads.  The child's environment is scrubbed of
``RVAAS_*`` and pins ``PYTHONHASHSEED=0`` (``build_testbed`` seeds the
client RNGs with ``hash(name)``).  ``--trace 1`` runs the workload
twice — untraced, then with spans installed — because the tracing
overhead is the difference between the two.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170

#: the traced ledger may leave at most this share of an operation's wall
#: time outside every named layer
MAX_UNATTRIBUTED = 0.15


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def stamp(seed: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the pipeline's checkout is not a repository
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Child: run one workload in this process
# ----------------------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.ledger import harness

    result = harness.run_workload(
        args.workload,
        args.seed,
        seconds=args.seconds,
        quick=args.quick,
        traced=bool(args.trace),
    )
    print(json.dumps(result))
    return 0


def spawn(workload: str, args: argparse.Namespace, traced: bool) -> dict:
    """One workload subprocess; returns its parsed result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RVAAS_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed), "--trace", str(int(traced)),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S}s")
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Parent: report
# ----------------------------------------------------------------------


def check(contract: dict, result: dict, failures: List[str]) -> None:
    """Every check that makes a run incorrect, appended to ``failures``."""
    name = result["workload"]
    for message in result["failures"]:
        failures.append(f"{name}: {message}")
    if result["failed"] > len(result["failures"]):
        failures.append(f"{name}: {result['failed'] - len(result['failures'])} more failures")
    wanted = "per_layer" if result["traced"] else "end_to_end"
    emitted = result.get(wanted, {})
    for metric in contract[wanted]:
        value = emitted.get(metric["name"])
        if value is None or not math.isfinite(value):
            failures.append(f"{name}: {metric['name']} missing or not finite")
    if not result["traced"]:
        for metric, value in emitted.items():
            if value <= 0:
                failures.append(f"{name}: {metric} = {value} (must be positive)")
        return
    if not result["identity_ok"]:
        failures.append(
            f"{name}: ledger identity off by {result['identity_worst']:.2%} of an operation"
        )
    unattributed = emitted.get("ledger.unattributed_frac", 1.0)
    if unattributed > MAX_UNATTRIBUTED:
        failures.append(f"{name}: {unattributed:.1%} of operation time is unattributed")


def print_result(contract: dict, result: dict) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(
        f"\n-- {result['workload']} ({mode})  attempted={result['attempted']} "
        f"failed={result['failed']}  failed_frac={result['failed'] / max(1, result['attempted']):.4f}"
    )
    for message in result["failures"]:
        print(f"   FAILED: {message}")
    if not result["traced"]:
        print(f"   {'metric':<18}{'value':>14} {'unit':<6}{'samples':>8}  bound")
        for metric in contract["end_to_end"]:
            value = result.get("end_to_end", {}).get(metric["name"])
            if value is None:
                continue
            samples = result["samples"].get(metric["name"], 0)
            print(
                f"   {metric['name']:<18}{value:>14.4f} {metric['unit']:<6}{samples:>8}"
                f"  {metric['bound']:.0%}"
            )
    for key, value in sorted(result["info"].items()):
        print(f"   info {key} = {value:.4f}")
    if "gate_decision" in result.get("samples", {}):
        print(f"   info gate decisions sampled = {result['samples']['gate_decision']}")
    if not result["traced"]:
        return
    print(
        f"   spans={result['spans']}  identity worst={result['identity_worst']:.3%}  "
        f"trace={result['trace_file']}"
    )
    print(f"   {'per-layer metric':<46}{'value':>14} unit")
    for metric in contract["per_layer"]:
        value = result["per_layer"][metric["name"]]
        print(f"   {metric['name']:<46}{value:>14.4f} {metric['unit']}")
    for phase, table in result["ledgers"].items():
        wall = table["wall_s"]
        print(
            f"   ledger [{phase}]: mean of {table['operations']} operation(s), "
            f"wall {wall * 1e3:.3f} ms"
        )
        rows = sorted(table["rows_s"].items(), key=lambda row: -row[1])
        for layer, seconds in rows:
            print(f"     {layer:<28}{seconds * 1e3:>12.4f} ms {seconds / wall:>7.1%}")
        total = sum(table["rows_s"].values())
        print(f"     {'sum of rows':<28}{total * 1e3:>12.4f} ms {total / wall:>7.1%}")


def run_set(contract: dict, names: List[str], args: argparse.Namespace) -> List[dict]:
    """One pass over ``names``; with tracing, each runs untraced first."""
    results = []
    for name in names:
        plain = spawn(name, args, traced=False)
        results.append(plain)
        if args.trace:
            traced = spawn(name, args, traced=True)
            base = plain.get("end_to_end", {}).get("verdict_p50_ms", 0.0) / 1e3
            if base and "per_layer" in traced:
                traced["per_layer"]["ledger.trace_overhead_frac"] = (
                    traced["traced_op_median_s"] - base
                ) / base
            results.append(traced)
    return results


def print_spreads(contract: dict, sets: List[List[dict]]) -> None:
    print("\n== spread across repeated sets: (max - min) / median, against the bound ==")
    print(f"   {'workload':<16}{'metric':<18}{'spread':>9}  bound")
    by_workload: Dict[str, List[dict]] = {}
    for results in sets:
        for result in results:
            if not result["traced"] and "end_to_end" in result:
                by_workload.setdefault(result["workload"], []).append(result["end_to_end"])
    for workload, runs in by_workload.items():
        for metric in contract["end_to_end"]:
            values = sorted(run[metric["name"]] for run in runs)
            spread = (values[-1] - values[0]) / values[len(values) // 2]
            flag = "" if spread <= metric["bound"] else "  OVER"
            print(
                f"   {workload:<16}{metric['name']:<18}{spread:>9.2%}  "
                f"{metric['bound']:.0%}{flag}"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="cap the timed window at this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true", help="about 1/20 of each size")
    parser.add_argument("--repeat", type=int, default=1, help="run the whole set this many times")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found: nothing to benchmark", file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]

    header = stamp(args.seed)
    size = "quick" if args.quick else "full"
    window = f"{args.seconds:g}s window" if args.seconds is not None else "fixed sizes"
    print("== ledger benchmark ==  " + "  ".join(f"{k}={v}" for k, v in header.items())
          + f"  size={size}  {window}")

    sets = []
    failures: List[str] = []
    for _ in range(args.repeat):
        results = run_set(contract, names, args)
        sets.append(results)
        for result in results:
            print_result(contract, result)
            check(contract, result, failures)
    if args.repeat > 1:
        print_spreads(contract, sets)

    final = sets[-1]
    wanted = "per_layer" if args.trace else "end_to_end"
    reported = [r for r in final if r["traced"] == bool(args.trace)]
    units = {m["name"]: m["unit"] for m in contract[wanted]}

    def metrics_of(result: dict) -> dict:
        return {
            name: {"value": result.get(wanted, {}).get(name), "unit": unit}
            for name, unit in units.items()
        }

    summary = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reported),
        "failed": len(failures),
        "metrics": (
            metrics_of(reported[0])
            if len(reported) == 1
            else {r["workload"]: metrics_of(r) for r in reported}
        ),
    }
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
