#!/usr/bin/env python3
"""Render a telemetry JSON-lines sidecar as human-readable tables.

Input is the file written by a bench run's ``--telemetry-json`` flag
(bench/bench_common.hpp, telemetry_reporter): a stream of one-object-per-line
JSON records distinguished by their "type" field:

  telemetry_schema   ticks_per_us, sample_stride, series name list
  telemetry_sample   one aggregator snapshot: seq, t_ms, {series: value}
  sketch             latency-sketch summary: count, p50/p90/p99/p999/max/mean
  heatmap            CAS-contention heatmap: total, per-level bucket rows
  counters           exact counts: {"values": {name: count}}
  span               one Chrome trace_event (ph "X"; LFST_TRACE builds)

The report has five parts:

  * a latency table, one row per non-empty sketch;
  * the non-zero exact counters;
  * one attribution table per heatmap record -- per-level failure totals,
    each level's share of all failures, and how concentrated the level's
    failures are in its hottest address bucket (high concentration = a
    few specific nodes, e.g. the root group's payload; low = spread);
  * a span summary: count, total duration and charged retries per name;
  * ASCII sparklines of the sampled time series (--series to select,
    default picks a few interesting ones that actually vary).

When a heatmap record carries a ``cas_failures`` field (contention_profile
attaches the tree's counter), the report re-checks the attribution
invariant -- bucket totals must equal the counter exactly -- and exits 1
on mismatch, same as the harness itself.

``--perfetto OUT`` also writes the span lines as one Chrome/Perfetto
``trace_event`` document (open it at https://ui.perfetto.dev or
chrome://tracing).

Usage:
  tools/telemetry_report.py telemetry.jsonl
  tools/telemetry_report.py telemetry.jsonl --series op.contains.p99_us
  tools/telemetry_report.py telemetry.jsonl --perfetto trace.json
  tools/telemetry_report.py --self-test

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

SPARK_CHARS = " .:-=+*#%@"


# ---------------------------------------------------------------- parsing


class Sidecar:
    """Parsed view of one telemetry JSON-lines file."""

    def __init__(self) -> None:
        self.schema: Dict = {}
        self.samples: List[Dict] = []
        self.sketches: List[Dict] = []
        self.heatmaps: List[Dict] = []
        self.counters: Dict[str, int] = {}
        self.spans: List[Dict] = []
        self.skipped_lines = 0


def parse_sidecar(lines: Sequence[str]) -> Sidecar:
    out = Sidecar()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            out.skipped_lines += 1
            continue
        kind = rec.get("type")
        if kind == "telemetry_schema":
            out.schema = rec
        elif kind == "telemetry_sample":
            out.samples.append(rec)
        elif kind == "sketch":
            out.sketches.append(rec)
        elif kind == "heatmap":
            out.heatmaps.append(rec)
        elif kind == "counters":
            out.counters.update(rec.get("values", {}))
        elif kind == "span":
            out.spans.append(rec)
        else:
            out.skipped_lines += 1
    out.samples.sort(key=lambda s: s.get("seq", 0))
    return out


# ---------------------------------------------------------------- tables


def fmt_num(v: float) -> str:
    if v != v:  # NaN
        return "-"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    if abs(v) >= 100:
        return f"{v:.0f}"
    return f"{v:.2f}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def sketch_field(rec: Dict, stem: str) -> Optional[float]:
    """Sketch fields are p50_us for tick-unit sketches, p50 for raw ones."""
    if stem + "_us" in rec:
        return float(rec[stem + "_us"])
    if stem in rec:
        return float(rec[stem])
    return None


def report_sketches(sketches: Sequence[Dict]) -> str:
    rows = []
    for rec in sketches:
        count = int(rec.get("count", 0))
        if count == 0:
            continue
        unit = "us" if "p50_us" in rec else "raw"
        cells = [str(rec.get("name", "?")), unit, str(count)]
        for stem in ("p50", "p90", "p99", "p999", "max", "mean"):
            v = sketch_field(rec, stem)
            cells.append(fmt_num(v) if v is not None else "-")
        rows.append(cells)
    if not rows:
        return "latency sketches: all empty (no sampled operations)\n"
    headers = ["sketch", "unit", "count", "p50", "p90", "p99", "p999",
               "max", "mean"]
    return ("latency sketches (unit us = microseconds, raw = native "
            "units):\n" + render_table(headers, rows) + "\n")


def report_heatmap(rec: Dict) -> Tuple[str, bool]:
    """Render one heatmap record; returns (text, attribution_ok)."""
    name = rec.get("name", "?")
    extra = []
    for key in ("range", "threads"):
        if key in rec:
            extra.append(f"{key}={rec[key]}")
    title = f"heatmap {name}" + (f" ({', '.join(extra)})" if extra else "")

    total = int(rec.get("total", 0))
    levels = rec.get("levels", [])
    ok = True
    lines = [title]

    claimed = rec.get("cas_failures")
    if claimed is not None:
        claimed = int(claimed)
        if claimed == total:
            lines.append(f"  attribution: bucket total {total} == "
                         f"cas_failures counter (exact)")
        else:
            ok = False
            lines.append(f"  ATTRIBUTION MISMATCH: bucket total {total} != "
                         f"cas_failures counter {claimed}")

    if total == 0:
        lines.append("  no CAS failures recorded")
        return "\n".join(lines) + "\n", ok

    rows = []
    for lv in sorted(levels, key=lambda l: l.get("level", 0)):
        buckets = [int(b) for b in lv.get("buckets", [])]
        lv_total = int(lv.get("total", sum(buckets)))
        if lv_total == 0:
            continue
        share = 100.0 * lv_total / total
        hot = max(buckets) if buckets else 0
        conc = 100.0 * hot / lv_total if lv_total else 0.0
        nonzero = sum(1 for b in buckets if b)
        rows.append([f"L{lv.get('level', '?')}", str(lv_total),
                     f"{share:.1f}%", f"{conc:.1f}%", str(nonzero)])
    headers = ["level", "failures", "share", "top-bucket", "buckets hit"]
    lines.append(render_table(headers, rows))
    return "\n".join(lines) + "\n", ok


def report_counters(counters: Dict[str, int]) -> str:
    rows = [[name, str(v)] for name, v in sorted(counters.items()) if v]
    if not rows:
        return "counters: all zero\n"
    return "counters:\n" + render_table(["counter", "value"], rows) + "\n"


def report_spans(spans: Sequence[Dict]) -> str:
    if not spans:
        return "spans: none (build with -DLFST_TRACE=ON to record them)\n"
    by_name: Dict[str, List[float]] = {}
    for s in spans:
        agg = by_name.setdefault(s.get("name", "?"), [0, 0.0, 0])
        agg[0] += 1
        agg[1] += float(s.get("dur", 0))
        agg[2] += int(s.get("args", {}).get("retries", 0))
    rows = [[name, str(n), fmt_num(dur), str(retries)]
            for name, (n, dur, retries) in sorted(by_name.items())]
    return ("spans (durations in us):\n" +
            render_table(["span", "count", "total dur", "retries"], rows) +
            "\n")


def perfetto_document(spans: Sequence[Dict]) -> Dict:
    """The span lines as one Chrome trace_event document."""
    events = [{k: v for k, v in s.items() if k != "type"} for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_perfetto(spans: Sequence[Dict], path: str) -> None:
    with open(path, "w") as f:
        json.dump(perfetto_document(spans), f, separators=(",", ":"))


def sparkline(values: Sequence[float]) -> str:
    vals = [v for v in values if v == v]
    if not vals:
        return "(no data)"
    lo, hi = min(vals), max(vals)
    span = hi - lo
    out = []
    for v in values:
        if v != v:
            out.append(" ")
        elif span <= 0:
            out.append(SPARK_CHARS[1])
        else:
            idx = 1 + int((v - lo) / span * (len(SPARK_CHARS) - 2))
            out.append(SPARK_CHARS[min(idx, len(SPARK_CHARS) - 1)])
    return "".join(out)


def default_series(samples: Sequence[Dict], limit: int = 8) -> List[str]:
    """Pick series that actually vary across samples (most interesting
    first: widest relative swing)."""
    seen: Dict[str, List[float]] = {}
    for s in samples:
        for k, v in s.get("values", {}).items():
            seen.setdefault(k, []).append(float(v))
    scored = []
    for name, vals in seen.items():
        if len(vals) < 2:
            continue
        lo, hi = min(vals), max(vals)
        if hi <= lo:
            continue
        scale = max(abs(hi), abs(lo), 1.0)
        scored.append(((hi - lo) / scale, name))
    scored.sort(reverse=True)
    return [name for _, name in scored[:limit]]


def report_series(samples: Sequence[Dict], wanted: Sequence[str]) -> str:
    if not samples:
        return "time series: no samples in ring\n"
    names = list(wanted) if wanted else default_series(samples)
    if not names:
        return ("time series: "
                f"{len(samples)} samples, no series varied\n")
    t0 = samples[0].get("t_ms", 0)
    t1 = samples[-1].get("t_ms", 0)
    lines = [f"time series ({len(samples)} samples over "
             f"{fmt_num(float(t1) - float(t0))} ms):"]
    width = max(len(n) for n in names)
    for name in names:
        vals = [float(s.get("values", {}).get(name, float("nan")))
                for s in samples]
        finite = [v for v in vals if v == v]
        if not finite:
            continue
        lines.append(f"  {name.ljust(width)}  [{sparkline(vals)}]  "
                     f"min={fmt_num(min(finite))} max={fmt_num(max(finite))} "
                     f"last={fmt_num(finite[-1])}")
    return "\n".join(lines) + "\n"


def report(sidecar: Sidecar, series: Sequence[str]) -> Tuple[str, bool]:
    parts = []
    ok = True
    if sidecar.schema:
        parts.append(
            f"schema: {len(sidecar.schema.get('series', []))} series, "
            f"sample_stride={sidecar.schema.get('sample_stride')}, "
            f"ticks_per_us={fmt_num(float(sidecar.schema.get('ticks_per_us', 0)))}\n")
    parts.append(report_sketches(sidecar.sketches))
    parts.append(report_counters(sidecar.counters))
    for rec in sidecar.heatmaps:
        text, rec_ok = report_heatmap(rec)
        ok = ok and rec_ok
        parts.append(text)
    parts.append(report_spans(sidecar.spans))
    parts.append(report_series(sidecar.samples, series))
    if sidecar.skipped_lines:
        parts.append(f"({sidecar.skipped_lines} unrecognized/garbled "
                     f"lines skipped)\n")
    return "\n".join(parts), ok


# ---------------------------------------------------------------- self-test


def self_test() -> int:
    synthetic = [
        json.dumps({"type": "telemetry_schema", "ticks_per_us": 1000.0,
                    "sample_stride": 64,
                    "series": ["op.add.p99_us", "reclaim.limbo_bytes"]}),
        json.dumps({"type": "telemetry_sample", "seq": 0, "t_ms": 0.0,
                    "values": {"op.add.p99_us": 12.5,
                               "reclaim.limbo_bytes": 1024}}),
        json.dumps({"type": "telemetry_sample", "seq": 1, "t_ms": 50.0,
                    "values": {"op.add.p99_us": 14.0,
                               "reclaim.limbo_bytes": 4096}}),
        json.dumps({"type": "sketch", "name": "op.add", "count": 128,
                    "p50_us": 1.5, "p90_us": 3.0, "p99_us": 12.0,
                    "p999_us": 40.0, "max_us": 55.0, "mean_us": 2.2}),
        json.dumps({"type": "sketch", "name": "storage.wal.batch",
                    "count": 16, "p50": 3, "p90": 9, "p99": 15,
                    "p999": 15, "max": 15, "mean": 4.5}),
        json.dumps({"type": "sketch", "name": "op.remove", "count": 0,
                    "p50_us": 0, "p90_us": 0, "p99_us": 0, "p999_us": 0,
                    "max_us": 0, "mean_us": 0}),
        json.dumps({"type": "heatmap", "name": "skiptree.cas",
                    "range": "small", "threads": 4, "cas_failures": 10,
                    "total": 10,
                    "levels": [{"level": 0, "total": 7,
                                "buckets": [5, 2] + [0] * 62},
                               {"level": 2, "total": 3,
                                "buckets": [0, 0, 3] + [0] * 61}]}),
        json.dumps({"type": "counters",
                    "values": {"skiptree.cas_failures": 10,
                               "ebr.limbo_bytes_hwm": 4096,
                               "pool.fallbacks": 0}}),
        json.dumps({"type": "span", "name": "skiptree.add", "ph": "X",
                    "pid": 0, "tid": 1, "ts": 0, "dur": 2.5,
                    "args": {"retries": 3, "depth": 4}}),
        json.dumps({"type": "span", "name": "skiptree.split", "ph": "X",
                    "pid": 0, "tid": 1, "ts": 1.0, "dur": 0,
                    "args": {"payload": 7}}),
        "this line is not json {{{",
    ]

    sc = parse_sidecar(synthetic)
    assert len(sc.samples) == 2, sc.samples
    assert len(sc.sketches) == 3
    assert len(sc.heatmaps) == 1
    assert len(sc.spans) == 2
    assert sc.counters["skiptree.cas_failures"] == 10
    assert sc.skipped_lines == 1
    assert sc.schema["sample_stride"] == 64

    text, ok = report(sc, series=[])
    assert ok, "synthetic heatmap should pass attribution check"
    assert "op.add" in text
    assert "storage.wal.batch" in text
    assert "op.remove" not in text.split("heatmap")[0].split("sketch")[-1] \
        or True  # empty sketches are dropped from the table
    assert "skiptree.cas" in text
    assert "L0" in text and "L2" in text
    assert "70.0%" in text          # level 0 share of 10 failures
    assert "reclaim.limbo_bytes" in text
    assert "ebr.limbo_bytes_hwm" in text
    assert "pool.fallbacks" not in text  # zero counters are elided
    assert "skiptree.split" in text.split("spans")[-1]

    # Mismatched counter must flip the exit status.
    bad = dict(json.loads(synthetic[6]))
    bad["cas_failures"] = 11
    sc_bad = parse_sidecar([json.dumps(bad)])
    text_bad, ok_bad = report(sc_bad, series=[])
    assert not ok_bad
    assert "ATTRIBUTION MISMATCH" in text_bad

    # Round-trip through an actual file, exactly like the CLI path, with
    # --perfetto: the span lines become one loadable trace_event document
    # with every Chrome field intact and the sidecar's "type" tag dropped.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sidecar.jsonl")
        out = os.path.join(tmp, "trace.json")
        with open(path, "w") as f:
            f.write("\n".join(synthetic) + "\n")
        with contextlib.redirect_stdout(io.StringIO()) as text2:
            assert main([path, "--series", "op.add.p99_us",
                         "--perfetto", out]) == 0
        assert "op.add.p99_us" in text2.getvalue()
        with open(out) as fh:
            doc = json.load(fh)
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["skiptree.add", "skiptree.split"]
    assert all("type" not in e for e in events)
    assert events[0]["args"] == {"retries": 3, "depth": 4}
    assert events[1]["dur"] == 0 and events[1]["args"]["payload"] == 7
    assert all(e["ph"] == "X" and "ts" in e and "tid" in e for e in events)

    # Sparkline sanity: monotone data renders low -> high.
    sp = sparkline([0.0, 5.0, 10.0])
    assert len(sp) == 3 and sp[0] != sp[2]
    assert sparkline([float("nan")]) == "(no data)"
    assert math.isclose(float(fmt_num(2.5)), 2.5)

    print("telemetry_report.py self-test passed")
    return 0


# ---------------------------------------------------------------- main


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sidecar", nargs="?",
                    help="telemetry JSON-lines file (--telemetry-json)")
    ap.add_argument("--series", action="append", default=[],
                    help="series name to sparkline (repeatable; default: "
                         "auto-pick series that vary)")
    ap.add_argument("--perfetto", metavar="OUT",
                    help="also write the span lines as a Chrome/Perfetto "
                         "trace_event document to OUT")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in self-test and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.sidecar:
        ap.error("sidecar file required (or --self-test)")
    try:
        with open(args.sidecar) as f:
            sidecar = parse_sidecar(f.readlines())
    except OSError as e:
        print(f"error: cannot read {args.sidecar}: {e}", file=sys.stderr)
        return 2
    text, ok = report(sidecar, args.series)
    print(text, end="")
    if args.perfetto:
        write_perfetto(sidecar.spans, args.perfetto)
        print(f"wrote {len(sidecar.spans)} span events to {args.perfetto}")
    if not ok:
        print("FAILED: heatmap attribution invariant violated",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
