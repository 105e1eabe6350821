"""Serving benchmark for the provenance server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload join10k_hot --seed 31 --seconds 24 --trace 0

Runs one workload against the real ``repro-prov serve`` (see
``perfbench/README.md`` for the workloads, metrics and layer map) and
prints, as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; set-up is repeated and its median reported, and a
workload with ``phases`` above one shares the window out over that
many of its set-ups.  With
``--trace 1`` the workload runs twice, untraced and then behind the
traced launcher, and the metrics are the per-layer table; the traced
run's response bodies must equal the untraced run's.  The line before
the result holds the exact counts and per-kind latencies of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from harness import ROOT, SRC, BenchError

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, tmp: str) -> dict:
    # Imported here: repro (under src/) is only importable once the
    # source tree has been found.
    from layers import end_to_end, latency_table, per_layer, stats_counters
    from workloads import WORKLOADS, Phase

    if args.workload not in WORKLOADS:
        raise BenchError(
            "unknown workload {!r}; choose from {}".format(
                args.workload, ", ".join(sorted(WORKLOADS))
            )
        )
    workload = WORKLOADS[args.workload](tmp, args.seed)
    if args.trace:
        plain = workload.run_phase(args.seconds)
        traced = workload.run_phase(args.seconds, traced=True)
        phases = [plain, traced]
        metrics, detail = per_layer(workload, plain, traced)
        differing = sorted(
            str(key)
            for key in set(plain.digests) & set(traced.digests)
            if plain.digests[key] != traced.digests[key]
        )
        if differing:
            traced.mismatch(
                "traced bodies differ from untraced ones: {}".format(differing[:5])
            )
        detail["bodies_compared"] = len(set(plain.digests) & set(traced.digests))
        last = traced
    else:
        setups = [
            workload.setup_only() for _ in range(SETUPS - workload.phases)
        ]
        phases = [
            workload.run_phase(args.seconds / workload.phases)
            for _ in range(workload.phases)
        ]
        setups += [phase.setup_s for phase in phases]
        last = Phase.merged(phases)
        metrics = end_to_end(workload, last, setups)
        detail = {
            "setups_s": setups,
            "rates": last.rates,
            "latency": latency_table(last),
            "stats": [stats_counters(phase) for phase in phases],
        }
    mismatches = workload.setup_mismatches + [
        problem for phase in phases for problem in phase.mismatches
    ]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        cycles=last.cycles,
        window_s=last.window_s,
        counts=last.counts,
        forced_stops=workload.forced_stops,
        mismatches=mismatches[:20],
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {
        "correct": not mismatches,
        "attempted": sum(phase.requests for phase in phases),
        "failed": sum(phase.failed for phase in phases)
        + len(workload.setup_mismatches),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(
            "error: no repro source tree at {}; run from a checkout".format(SRC),
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    tmp = os.path.join(
        ROOT, ".perfbench_tmp", "{}-{}".format(args.workload, os.getpid())
    )
    os.makedirs(tmp)
    try:
        result = run(args, tmp)
    except BenchError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
