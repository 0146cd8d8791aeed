#!/usr/bin/env python3
"""Validate and summarize a Chrome trace_event JSON file from --trace.

Checks the schema the telemetry tracer promises (so CI catches a malformed
trace before anyone loads it into chrome://tracing), then prints:

  * a per-category table of event counts, total time, and SELF time —
    wall time minus the time covered by child spans on the same thread,
    so nested spans (run-batch containing store lookups and puts) are not
    double-counted;
  * the critical path: the longest chain of nested spans by duration,
    which is where an optimization pays off first.

Schema checks (any failure exits 1):
  * top level is an object with a "traceEvents" array;
  * every event has name/cat/ph/ts/pid/tid; ph is "X" (with a numeric,
    non-negative "dur") or "i";
  * timestamps are numeric and non-negative.

Usage:
  tools/trace_summarize.py TRACE.json [--require-categories a,b,c]

--require-categories fails (exit 1) unless every named category appears at
least once — CI uses it to prove the instrumentation actually covers the
compile / run-batch / store layers instead of silently going dark.
"""
import argparse
import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"trace_summarize: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(doc):
    """Schema-checks the document; returns the event list."""
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail('missing or non-array "traceEvents"')
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"event {i} is missing {key!r}")
        if not isinstance(ev["name"], str) or not isinstance(ev["cat"], str):
            fail(f"event {i}: name/cat must be strings")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            fail(f"event {i}: ts must be a non-negative number")
        ph = ev["ph"]
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"event {i}: complete event needs a non-negative dur")
        elif ph == "i":
            pass
        else:
            fail(f"event {i}: unexpected phase {ph!r}")
        if "args" in ev and not isinstance(ev["args"], dict):
            fail(f"event {i}: args must be an object")
    return events


def self_times(events):
    """Per-category totals with nested-child time subtracted.

    Spans nest per thread: sort each thread's complete events by (start,
    -duration) and keep an enclosing-span stack. A span's time is charged
    to its own category and subtracted from the innermost enclosing span.
    Spans that merely OVERLAP on one thread without nesting (the process
    pool runs many children concurrently from its event loop) charge only
    the overlapping part, and self time is clamped at zero per span.
    """
    per_cat = defaultdict(lambda: {"events": 0, "total_us": 0.0,
                                   "self_us": 0.0})
    by_tid = defaultdict(list)
    for ev in events:
        per_cat[ev["cat"]]["events"] += 1
        if ev["ph"] == "X":
            per_cat[ev["cat"]]["total_us"] += ev["dur"]
            by_tid[ev["tid"]].append(ev)

    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end_ts, cat, remaining_self_accumulator)
        for ev in spans:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            while stack and start >= stack[-1][0] - 1e-9:
                finished = stack.pop()
                per_cat[finished[1]]["self_us"] += max(0.0, finished[2][0])
            if stack:
                parent_end = stack[-1][0]
                stack[-1][2][0] -= min(ev["dur"], parent_end - start)
            stack.append((end, ev["cat"], [ev["dur"]]))
        while stack:
            finished = stack.pop()
            per_cat[finished[1]]["self_us"] += max(0.0, finished[2][0])
    return per_cat


def critical_path(events):
    """Longest chain of nested spans (per thread) by leaf-to-root nesting."""
    best = []
    for tid in {e["tid"] for e in events if e["ph"] == "X"}:
        spans = sorted((e for e in events
                        if e["ph"] == "X" and e["tid"] == tid),
                       key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in spans:
            while stack and ev["ts"] >= stack[-1]["ts"] + stack[-1]["dur"] - 1e-9:
                stack.pop()
            stack.append(ev)
            if (not best or
                    sum(e["dur"] for e in stack) > sum(e["dur"] for e in best)):
                best = list(stack)
    return best


def main():
    parser = argparse.ArgumentParser(
        description="Validate and summarize a telemetry Chrome trace.")
    parser.add_argument("trace", help="trace JSON file written by --trace")
    parser.add_argument("--require-categories", default="",
                        help="comma-separated categories that must appear")
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {args.trace}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{args.trace} is not valid JSON: {e}")

    events = validate(doc)
    if not events:
        fail("trace contains no events")

    per_cat = self_times(events)
    # Check coverage before any stdout printing: a closed pipe (| head)
    # must not let a trace with missing layers slip past.
    required = [c for c in args.require_categories.split(",") if c]
    missing = [c for c in required if c not in per_cat]
    if missing:
        fail(f"required categories missing from trace: {', '.join(missing)}")

    print(f"{args.trace}: {len(events)} events, "
          f"{len(per_cat)} categories\n")
    header = f"{'category':<12} {'events':>8} {'total ms':>10} {'self ms':>10}"
    print(header)
    print("-" * len(header))
    for cat in sorted(per_cat,
                      key=lambda c: -per_cat[c]["self_us"]):
        row = per_cat[cat]
        print(f"{cat:<12} {row['events']:>8} "
              f"{row['total_us'] / 1e3:>10.2f} "
              f"{row['self_us'] / 1e3:>10.2f}")

    chain = critical_path(events)
    if chain:
        print("\ncritical path (deepest/longest nested chain):")
        for depth, ev in enumerate(chain):
            print(f"  {'  ' * depth}{ev['cat']}/{ev['name']}: "
                  f"{ev['dur'] / 1e3:.2f} ms")

    if required:
        print(f"\nall required categories present: {', '.join(required)}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)  # validation already ran; a closed pipe is benign
