#!/usr/bin/env python3
"""Bench-trajectory gate: committed baseline JSON vs a fresh run.

CI regenerates BENCH_serve.json / BENCH_interp.json on every PR and this
script diffs them against the copies committed at the repo root. Only
*ratio* metrics are gated (speedups, overheads, allocs/op): they are
dimensionless and survive runner-hardware churn, unlike absolute ops/s,
which this script reports but never fails on. A gated metric that moves
>20% in its bad direction fails the build; metrics that are absent,
zero, or unparseable in either file are reported as skipped rather than
failed, because several benchmarks legitimately self-skip (sanitizer
builds, single-core runners).

Usage:
  bench_compare.py --baseline-dir DIR --fresh-dir DIR [options] FILE...

  FILE...            bench JSON basenames present in both dirs
  --max-regression   fractional tolerance, default 0.20
  --summary PATH     append the markdown delta table (e.g.
                     $GITHUB_STEP_SUMMARY); stdout always gets it
"""

import argparse
import json
import os
import re
import sys


def parse_ratio(value):
    """'1.91x' / 1.91 / 191 (pct) -> float, or None when unusable."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value) if value > 0 else None
    if isinstance(value, str):
        m = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)x?\s*", value)
        if m:
            v = float(m.group(1))
            return v if v > 0 else None
    return None


class Metric:
    """One comparable number. direction: 'higher' or 'lower' is better.

    gated=False rows are informational (absolute throughput): shown in
    the table, never part of the exit status.
    """

    def __init__(self, name, value, direction, gated=True):
        self.name = name
        self.value = value
        self.direction = direction
        self.gated = gated


def serve_metrics(doc):
    out = [
        Metric("speedup_at_gate", parse_ratio(doc.get("speedup_at_gate")), "higher"),
        Metric("wal_overhead", parse_ratio(doc.get("wal_overhead")), "lower"),
        Metric("keepalive_speedup", parse_ratio(doc.get("keepalive_speedup")), "higher"),
    ]
    # Serve-path allocs/request (x10 integers, like the interpreter bench's
    # alloc_per_op_x10): counted rather than timed, so machine-independent.
    # Absent in old baselines and sanitizer runs -> parse_ratio yields None
    # and the row is reported as skipped.
    if doc.get("serve_alloc_per_req_x10") is not None:
        out.append(Metric("serve_alloc_per_req_x10",
                          parse_ratio(doc.get("serve_alloc_per_req_x10")), "lower"))
    for row in doc.get("closed_loop", []) or []:
        name = f"closed_loop/{row.get('config')}/c{row.get('concurrency')}"
        out.append(Metric(name + " ops/s", parse_ratio(row.get("throughput_ops_s")),
                          "higher", gated=False))
    return out


def interp_metrics(doc):
    out = [Metric("overall_speedup_pct", parse_ratio(doc.get("overall_speedup_pct")),
                  "higher")]
    for fam, row in sorted((doc.get("families") or {}).items()):
        out.append(Metric(f"families/{fam}/speedup_pct",
                          parse_ratio(row.get("speedup_pct")), "higher"))
        if row.get("alloc_per_op_x10") is not None:
            # allocs/op is counted, not timed: machine-independent, so a
            # tight gate here is safe even across runner generations.
            out.append(Metric(f"families/{fam}/alloc_per_op_x10",
                              parse_ratio(row.get("alloc_per_op_x10")), "lower"))
    tg = doc.get("timer_gate") or {}
    # Wheel-driven fire cost relative to a client modify in the same run:
    # a within-process ratio, so it survives runner churn like the
    # speedups do.
    out.append(Metric("timer_gate/fire_overhead_x10",
                      parse_ratio(tg.get("fire_overhead_x10")), "lower"))
    return out


EXTRACTORS = {
    "serve_throughput": serve_metrics,
    "interpreter_micro": interp_metrics,
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        return None


def compare_file(name, base_doc, fresh_doc, tolerance):
    """Returns (rows, failures). rows are markdown table cells."""
    bench = fresh_doc.get("bench") or base_doc.get("bench") or ""
    extract = EXTRACTORS.get(bench)
    if extract is None:
        return ([(name, "(unknown bench '%s')" % bench, "-", "-", "-", "skipped")], [])
    base = {m.name: m for m in extract(base_doc)}
    fresh = {m.name: m for m in extract(fresh_doc)}
    rows, failures = [], []
    for key in fresh:
        f = fresh[key]
        b = base.get(key)
        bval = b.value if b else None
        if bval is None or f.value is None:
            rows.append((name, key, fmt(bval), fmt(f.value), "-", "skipped"))
            continue
        if f.direction == "higher":
            delta = f.value / bval - 1.0
            regressed = delta < -tolerance
        else:
            delta = f.value / bval - 1.0
            regressed = delta > tolerance
        arrow = f"{delta:+.1%}"
        if not f.gated:
            status = "info"
        elif regressed:
            status = "**FAIL**"
            failures.append(
                f"{name}: {key} {fmt(bval)} -> {fmt(f.value)} ({arrow}, "
                f"{f.direction} is better, tolerance {tolerance:.0%})")
        else:
            status = "ok"
        rows.append((name, key, fmt(bval), fmt(f.value), arrow, status))
    for key in base:
        if key not in fresh:
            rows.append((name, key, fmt(base[key].value), "(gone)", "-", "skipped"))
    return rows, failures


def fmt(v):
    if v is None:
        return "-"
    if v == int(v) and abs(v) >= 100:
        return str(int(v))
    return f"{v:g}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+")
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("--fresh-dir", required=True)
    ap.add_argument("--max-regression", type=float, default=0.20)
    ap.add_argument("--summary")
    args = ap.parse_args()

    all_rows, all_failures = [], []
    for name in args.files:
        base_doc = load(os.path.join(args.baseline_dir, name))
        fresh_doc = load(os.path.join(args.fresh_dir, name))
        if fresh_doc is None:
            all_failures.append(f"{name}: fresh results missing — bench did not run")
            continue
        if base_doc is None:
            # First bench of its kind: nothing to diff against. Not a
            # failure, or adding a new benchmark would break its own PR.
            all_rows.append((name, "(no committed baseline)", "-", "-", "-", "skipped"))
            continue
        rows, failures = compare_file(name, base_doc, fresh_doc, args.max_regression)
        all_rows.extend(rows)
        all_failures.extend(failures)

    lines = ["### Bench trajectory (baseline vs this run)", "",
             "| file | metric | baseline | fresh | delta | status |",
             "|---|---|---|---|---|---|"]
    lines += [f"| {' | '.join(r)} |" for r in all_rows]
    if all_failures:
        lines += ["", f"**{len(all_failures)} gated regression(s) past "
                      f"{args.max_regression:.0%}:**"]
        lines += [f"- {f}" for f in all_failures]
    else:
        lines += ["", "No gated ratio metric regressed past "
                      f"{args.max_regression:.0%}."]
    table = "\n".join(lines) + "\n"

    sys.stdout.write(table)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write(table)

    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(main())
