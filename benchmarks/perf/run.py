#!/usr/bin/env python3
"""The repo benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py --workload deepcam_disk --seed 1
    python3 benchmarks/perf/run.py --workload deepcam_disk --seed 1 --trace 1
    python3 benchmarks/perf/run.py --aa 10          # noise floor, all workloads

One run sets the workload up once (``setup_s``), measures for
``--seconds``, checks what was delivered, prints a table and ends with
one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` gives the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  The full record
(seed, git sha, machine, sample counts) is written under ``--out``.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import common
import ladder
import measure
from workloads import WORKLOADS

TIMEOUT_S = 170


class WorkloadTimeout(RuntimeError):
    pass


def _on_alarm(signum, frame):
    raise WorkloadTimeout(f"workload exceeded its {TIMEOUT_S} s timeout")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str, out_dir: Path) -> dict:
    """Set up, measure, verify and tear down one workload."""
    contract = common.load_contract()
    why = next(w["why"] for w in contract["workloads"] if w["name"] == name)
    work_root = common.HERE / "_work"
    work_root.mkdir(exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIMEOUT_S)
    cpus = os.sched_getaffinity(0)
    w = None
    try:
        if WORKLOADS[name].one_cpu:
            # threads and the server subprocess started from here on
            # inherit it
            os.sched_setaffinity(0, {max(cpus)})
        w = WORKLOADS[name](seed, scale, workdir, timing=trace)
        setup_phases = w.setup()
        conformance = measure.conformance_failures(w)
        if trace:
            result = ladder.run_traced(w, seconds, setup_phases, out_dir)
        else:
            result = measure.run_untraced(
                w, seconds, sum(setup_phases.values()))
        result["attempted"] += 2
        result["failed"] += conformance
    finally:
        signal.alarm(0)
        try:
            if w is not None:
                w.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            os.sched_setaffinity(0, cpus)
    wanted = [m["name"] for m in
              contract["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        raise RuntimeError(
            "metrics emitted differ from BENCHMARK.json: "
            f"{sorted(set(wanted) ^ set(result['metrics']))}"
        )
    record = {
        "workload": name,
        "why": why,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "seconds": seconds,
        "tag": "measured",
        "git_sha": common.git_sha(),
        "machine": common.fingerprint(),
        "cpus": 1 if WORKLOADS[name].one_cpu else len(cpus),
        "setup_phases_s": setup_phases,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": unit, "n": n}
            for key, (value, unit, n) in result["metrics"].items()
        },
        **result.get("extra", {}),
    }
    path = out_dir / f"record-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    record["record_path"] = str(path)
    return record


def print_table(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"trace={record['trace']} scale={record['scale']} "
          f"seconds={record['seconds']}  [{record['tag']}]")
    print(f"   {record['why']}")
    print(f"   {'metric':<34}{'value':>16}  {'unit':<8}{'n':>8}")
    for key, m in record["metrics"].items():
        print(f"   {key:<34}{m['value']:>16.6g}  {m['unit']:<8}{m['n']:>8}")
    for key, m in record.get("tails", {}).items():  # carry no bound
        print(f"   tail   {key:<27}{m['value']:>16.6g}  {m['unit']:<8}"
              f"{m['n']:>8}")
    for rung in record.get("ladder", ()):
        print("   ladder {name:<22}{ms:>10.4f} ms/sample "
              "{rate:>10.1f} /s {mbps:>10.1f} MB/s  +{added_ms:.4f} ms"
              .format(**rung))
    for key, row in record.get("span_summary", {}).items():
        print(f"   span   {key:<22}n={row['n']:<7} total "
              f"{row['total_ms']:>10.2f} ms  self {row['self_ms']:>10.2f} ms")
    print(f"   attempted={record['attempted']} failed={record['failed']} "
          f"failed_frac={record['failed'] / record['attempted']:.3g} "
          f"correct={record['correct']}")
    print(f"   record: {record['record_path']}")


def contract_line(record: dict) -> str:
    """The one-line result the driver reads."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": m["value"], "unit": m["unit"]}
            for key, m in record["metrics"].items()
        },
    })


# -- A/A: the noise floor ----------------------------------------------------


def aa(n: int, names: list[str], seed: int, seconds: float, scale: str,
       out_dir: Path) -> int:
    """``n`` back-to-back sets of the same code, each in a fresh process
    with its own seed, as the driver runs them.

    Per metric x workload: median, quartiles, spread (interquartile
    distance over the median) and whether the two halves of the series
    agree.  PASS needs both within the metric's bound; anything else is
    UNRESOLVED — a later change may not call that metric "unchanged".
    """
    bounds = {m["name"]: m for m in common.load_contract()["end_to_end"]}
    series: dict = {name: {key: [] for key in bounds} for name in names}
    for i in range(n):
        for name in names:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed + i), "--seconds", str(seconds),
                 "--scale", scale, "--out", str(out_dir)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"A/A: {name} seed {seed + i} failed "
                      f"(exit {proc.returncode})")
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            for key in bounds:
                series[name][key].append(line["metrics"][key]["value"])
            print(f"A/A set {i + 1}/{n}: {name} done", file=sys.stderr)
    report = []
    print(f"{'workload':<17}{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'halves':>9}{'bound':>7}  verdict")
    for name in names:
        for key, spec in bounds.items():
            values = series[name][key]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            half = len(values) // 2
            first = statistics.median(values[:half])
            second = statistics.median(values[half:])
            halves = abs(second - first) / first
            ok = spread <= spec["bound"] and halves <= spec["bound"]
            verdict = "PASS" if ok else "UNRESOLVED"
            report.append({
                "workload": name, "metric": key, "values": values,
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "halves": halves, "bound": spec["bound"], "verdict": verdict,
            })
            print(f"{name:<17}{key:<20}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{halves:>9.3f}{spec['bound']:>7.2f}  "
                  f"{verdict}")
    path = out_dir / f"aa-n{n}-seed{seed}.json"
    path.write_text(json.dumps({
        "n": n, "seed": seed, "seconds": seconds, "scale": scale,
        "tag": "measured", "git_sha": common.git_sha(),
        "machine": common.fingerprint(), "report": report,
    }, indent=2) + "\n")
    print(f"A/A report: {path}")
    return 0


def main(argv=None) -> int:
    contract = common.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=float(contract["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                    const=1, default=0,
                    help="1: the traced run and the per-layer metrics")
    ap.add_argument("--aa", type=int, metavar="N",
                    help="N sets of untraced runs; report the noise floor")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-tests only")
    ap.add_argument("--out", type=Path, default=common.HERE / "_out")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    selected = [args.workload] if args.workload else names
    if args.aa:
        if args.aa < 2:
            ap.error("--aa needs at least 2 sets")
        args.out.mkdir(parents=True, exist_ok=True)
        return aa(args.aa, selected, args.seed, args.seconds, args.scale,
                  args.out)
    records = []
    for name in selected:
        record = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.scale, args.out)
        print_table(record)
        records.append(record)
    if args.workload:
        print(contract_line(records[0]))
    else:
        print(json.dumps({
            r["workload"]: json.loads(contract_line(r)) for r in records
        }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
