#!/usr/bin/env python3
"""Summarise and compare hostbench results.

    python3 hostbench/compare.py A.jsonl [B.jsonl]

Reads the lines hostbench appends to ``hostbench/out/results.jsonl``. For
each workload and mode it prints every metric's median and quartiles over
the runs in A and, if given, in B with B's median relative to A's. Runs of
another ``--seconds`` form their own group: they step a different count.
Wall-time metrics compare only between results whose host fingerprint (CPU
model, nproc, build profile) is the same. Other metrics compare across
hosts: the virtual, accuracy, count and memory metrics.
"""

import json
import statistics
import sys

# Metrics read from the host clock.
WALL = {
    "setup_s",
    "step_s_p50",
    "body_steps_per_s",
    "fmm-math.p2p_mpairs_per_s",
    "fmm-math.m2l_us_per_op",
    "fmm-math.p2m_ns_per_body",
    "afmm.solve_s",
    "afmm.solve.upsweep_s",
    "afmm.solve.downsweep_s",
    "afmm.solve.near_field_s",
    "afmm.solve.other_s",
    "octree.build_s",
    "octree.rebin_s",
    "octree.rebin_mbodies_per_s",
    "afmm.plan.refresh_s",
    "afmm.exec.time_step_s",
    "afmm.balance.post_step_s",
    "telemetry.trace_overhead_frac",
}


def host_key(entry):
    h = entry["host"]
    return f'{h["cpu"]} | nproc={h["nproc"]} | {h["profile"]}'


def load(path):
    """{(workload, trace, seconds): {"hosts": set, "metrics": {name: [values]}}}"""
    groups = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            e = json.loads(line)
            key = (e["workload"], e["trace"], e["seconds"])
            g = groups.setdefault(key, {"hosts": set(), "metrics": {}})
            g["hosts"].add(host_key(e))
            for name, m in e["result"]["metrics"].items():
                g["metrics"].setdefault(name, []).append(m["value"])
    return groups


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a = load(argv[1])
    b = load(argv[2]) if len(argv) == 3 else {}
    for key in sorted(a):
        ga, gb = a[key], b.get(key)
        same_host = gb is not None and len(ga["hosts"] | gb["hosts"]) == 1
        print(f"== {key[0]} trace={int(key[1])} seconds={key[2]}  hosts: {sorted(ga['hosts'])}")
        if gb is not None and not same_host:
            print("   different hosts: wall-time metrics are not compared")
        for name, values in ga["metrics"].items():
            q1, med, q3 = summary(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"   {name:<40} n={len(values):<3} p50={med:<12.6g} iqr/p50={spread:.3f}"
            if gb is not None and name in gb["metrics"]:
                if name in WALL and not same_host:
                    line += "   B: (other host)"
                else:
                    _, med_b, _ = summary(gb["metrics"][name])
                    rel = (med_b - med) / med if med else 0.0
                    line += f"   B p50={med_b:<12.6g} ({rel:+.2%})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
