#!/usr/bin/env python3
"""Round-trip an LFST_TRACE sidecar through telemetry_report.py --perfetto.

Usage: check_sidecar.py PROBE TELEMETRY_REPORT

Runs PROBE (tests/trace/sidecar_probe.cpp) with --telemetry-json, renders
the sidecar with ``TELEMETRY_REPORT --perfetto``, and checks the resulting
trace_event document against the sidecar's exact counters:

  * the number of skiptree.add/contains/remove spans equals probe.ops, the
    number of operations the probe issued;
  * the retries charged to skiptree.add/remove spans equal
    skiptree.cas_failures;
  * every event is a well-formed complete event ("ph":"X", ts, dur >= 0).

Exits 0 on success, 1 with a message on any mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile

OPS = {"skiptree.add", "skiptree.contains", "skiptree.remove"}


def main(probe, report_tool):
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = os.path.join(tmp, "sidecar.jsonl")
        trace = os.path.join(tmp, "trace.json")
        subprocess.run([probe, f"--telemetry-json={sidecar}"], check=True)
        subprocess.run([sys.executable, report_tool, sidecar,
                        "--perfetto", trace], check=True,
                       stdout=subprocess.DEVNULL)
        counters = {}
        with open(sidecar) as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("type") == "counters":
                    counters.update(rec["values"])
        with open(trace) as f:
            events = json.load(f)["traceEvents"]

    failures = []
    for e in events:
        if e.get("ph") != "X" or "ts" not in e or e.get("dur", -1) < 0:
            failures.append(f"malformed event: {e}")
    ops = [e for e in events if e["name"] in OPS]
    if len(ops) != counters["probe.ops"]:
        failures.append(f"{len(ops)} skiptree op spans != "
                        f"{counters['probe.ops']} ops issued")
    retries = sum(e["args"]["retries"] for e in ops
                  if e["name"] != "skiptree.contains")
    if retries != counters["skiptree.cas_failures"]:
        failures.append(f"span retries {retries} != cas_failures "
                        f"{counters['skiptree.cas_failures']}")
    for msg in failures:
        print("check_sidecar: FAIL:", msg)
    if failures:
        return 1
    print(f"check_sidecar: {len(events)} events, {len(ops)} op spans, "
          f"{retries} retries == cas_failures")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
