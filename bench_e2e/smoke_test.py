#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: every workload at minimal size, in
both modes, through run.py. Each run must pass its output checks and print
exactly the metric names and units BENCHMARK.json lists for its mode.

    python3 bench_e2e/smoke_test.py
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in catalogue["end_to_end"]},
        1: {m["name"]: m["unit"] for m in catalogue["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in catalogue["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                catalogue["command"] + ["--workload", workload, "--seed", "1",
                                        "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result line (exit {proc.returncode})")
                continue
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"exit {proc.returncode}, correct={result['correct']}, "
                                f"failed={result['failed']}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result keys {sorted(result)}")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                units = sorted(n for n in set(printed) & set(expected[trace])
                               if printed[n] != expected[trace][n])
                problems.append(f"missing {missing}, extra {extra}, unit mismatch {units}")
            status = "FAIL " + "; ".join(problems) if problems else "ok"
            print(f"{label}: {status}", flush=True)
            if problems:
                failures.append(label)
    if failures:
        print(f"{len(failures)} smoke run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
