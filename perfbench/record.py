#!/usr/bin/env python3
"""Runs every workload of the benchmark, untraced and traced, on the
default seed and on one held-out seed, and writes the record
`perfbench/RECORD.json`: each workload's reason and paper figure, the
layer -> end-to-end map, the command, the host's cores, the sample count
behind each median, and every metric with its unit. The command, the run
length and each workload's reason are read from `BENCHMARK.json`; this
script adds only what that file has no place for.

Run from the repository root:

    python3 perfbench/record.py
"""

import json
import os
import re
import subprocess
import sys

OUT = "perfbench/RECORD.json"
DEFAULT_SEED = 11
HELD_OUT_SEED = 29

FIGURES = {
    "pdd_mixedcast": "Fig. 8 (PDD with simultaneous consumers), quick point",
    "retrieval_pdr_mdr": "Fig. 16 (5 simultaneous PDR consumers, redundancy 1) "
                         "and Figs. 13/14 (MDR at redundancy 3), quick item size",
    "city_stadium": "none: city-scale kernel run (CityScenario::StadiumExit, "
                    "n = 10,000, 2 s horizon)",
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = [
    {"layer": "pds-core", "metrics": [
        "core.callbacks", "core.self_s", "core.share", "core.us_per_callback",
        "core.on_message_s", "core.on_timer_s"],
     "moves": "wall_s", "on": ["pdd_mixedcast"],
     "note": "no change expected on city_stadium, which has no callbacks"},
    {"layer": "pds-core", "metrics": [
        "core.codec.decode_us", "core.codec.encode_us",
        "core.codec.msg_bytes_mean"],
     "moves": "wall_s", "on": ["pdd_mixedcast"]},
    {"layer": "pds-core", "metrics": [
        "core.lqt.entries", "core.lqt.bytes", "core.store.meta_entries",
        "core.cache.chunk_bytes"],
     "moves": "peak_rss_mb", "on": ["pdd_mixedcast", "retrieval_pdr_mdr"]},
    {"layer": "pds-core", "metrics": ["core.decode_errors", "core.resends"],
     "moves": "diagnostics (decode_errors must stay 0)", "on": []},
    {"layer": "pds-bloom", "metrics": [
        "bloom.query_filters", "bloom.filter_bytes_mean",
        "bloom.fill_ratio_mean"],
     "moves": "overhead_mb and recall",
     "on": ["pdd_mixedcast", "retrieval_pdr_mdr (MDR half)"]},
    {"layer": "pds-sim kernel", "metrics": [
        "sim.events", "sim.self_s", "sim.ns_per_event"],
     "moves": "wall_s", "on": ["retrieval_pdr_mdr", "city_stadium"]},
    {"layer": "pds-sim radio", "metrics": [
        "sim.radio.frames_sent", "sim.radio.receptions",
        "sim.radio.delivered_ratio", "sim.radio.collided_ratio",
        "sim.radio.ns_per_reception"],
     "moves": "wall_s", "on": ["city_stadium"]},
    {"layer": "pds-sim transport", "metrics": [
        "sim.transport.messages_sent", "sim.transport.messages_failed",
        "sim.transport.failed_ratio", "sim.transport.retx_frames",
        "sim.transport.retx_ratio", "sim.transport.ack_bytes_share",
        "sim.transport.os_drops"],
     "moves": "overhead_mb and session_delay_p50_s",
     "on": ["retrieval_pdr_mdr"]},
    {"layer": "pds-sim traffic and queues", "metrics": [
        "sim.bytes.pdd", "sim.bytes.pdr", "sim.bytes.mdr", "sim.bytes.other",
        "sim.queue.os_depth_max", "sim.queue.bucket_depth_max"],
     "moves": "overhead_mb and session_delay_p50_s",
     "on": ["pdd_mixedcast", "retrieval_pdr_mdr"]},
    {"layer": "sessions (simulated outcome)", "metrics": [
        "sessions", "recall", "sessions_failed_ratio", "session_delay_p50_s",
        "session_delay_max_s"],
     "moves": "the paper's own outcome metrics; deterministic for a seed",
     "on": ["pdd_mixedcast", "retrieval_pdr_mdr"]},
    {"layer": "tracing", "metrics": ["trace.overhead_ratio"],
     "moves": "nothing: traced wall / untraced wall", "on": []},
]

SAMPLES = re.compile(r"^samples: (.*)$")


def run(command, workload, seed, trace, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        m = SAMPLES.match(line)
        if m:
            result["samples"] = dict(
                (k, int(v)) for k, v in (kv.split("=") for kv in m.group(1).split()))
    return result


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    record = {
        "command": command + ["--workload", "<name>", "--seed", "<n>",
                              "--seconds", str(seconds), "--trace", "<0|1>"],
        "host_cores": len(os.sched_getaffinity(0)),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for workload in bench["workloads"]:
        name = workload["name"]
        entry = {"figure": FIGURES[name], "why": workload["why"]}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                print(f"{name} seed {seed} trace {trace}", file=sys.stderr)
                entry[f"seed_{seed}_trace_{trace}"] = run(
                    command, name, seed, trace, seconds)
        record["workloads"][name] = entry
    with open(OUT, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
