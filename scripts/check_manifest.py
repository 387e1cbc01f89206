#!/usr/bin/env python3
"""Diff a freshly generated run manifest against the checked-in golden.

Usage: check_manifest.py BENCH_pipeline.json crates/bench/goldens/manifest_golden.json

The full manifest covers more programs than the golden and includes
host-dependent `host_wall_nanos` timings; this script restricts the fresh
manifest to the golden's program set, strips every `host_*` key, and then
requires exact structural equality. It is the CI half of the
`manifest_golden` regression test: the Rust test pins `golden_manifest()`
directly, this pins the `figures --json` binary's output path through the
same goldens.
"""

import json
import sys


def strip_host_keys(node):
    """Recursively drops dict keys starting with `host_` (host-dependent)."""
    if isinstance(node, dict):
        return {
            k: strip_host_keys(v) for k, v in node.items() if not k.startswith("host_")
        }
    if isinstance(node, list):
        return [strip_host_keys(v) for v in node]
    return node


def describe_diff(path, got, want, out):
    """Appends human-readable leaf differences between two JSON trees."""
    if type(got) is not type(want):
        out.append(f"{path}: type {type(got).__name__} != {type(want).__name__}")
        return
    if isinstance(got, dict):
        for k in sorted(set(got) | set(want)):
            if k not in got:
                out.append(f"{path}.{k}: missing from fresh manifest")
            elif k not in want:
                out.append(f"{path}.{k}: not in golden")
            else:
                describe_diff(f"{path}.{k}", got[k], want[k], out)
    elif isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            describe_diff(f"{path}[{i}]", g, w, out)
    elif got != want:
        out.append(f"{path}: {got!r} != {want!r}")


def check_opt_axis(fresh, fresh_path):
    """Validates the schema-v4 `opt` section of the full fresh manifest.

    Two invariants, checked over the *whole* corpus before restricting to
    the golden program set:

    * the O2 optimizer must actually pay for itself — at least three
      programs must show a strictly positive dynamic instruction-count
      reduction (`instructions_delta > 0`);
    * optimization must never cost simulated time — every program's O2
      `timed_cycles` must be <= its O0 `timed_cycles`.
    """
    opt = fresh.get("opt")
    if not isinstance(opt, list) or not opt:
        sys.exit(f"{fresh_path}: missing or empty `opt` section (schema v4)")

    wins = []
    for entry in opt:
        name = entry.get("name", "<unnamed>")
        for key in ("instr_static_delta", "instructions_delta", "timed_cycles_delta"):
            if not isinstance(entry.get(key), int):
                sys.exit(f"{fresh_path}: opt entry {name!r} lacks integer {key!r}")
        for level in ("O0", "O2"):
            if not isinstance(entry.get(level), dict):
                sys.exit(f"{fresh_path}: opt entry {name!r} lacks {level!r} metrics")
        if entry["instructions_delta"] > 0:
            wins.append(name)
        o0, o2 = entry["O0"]["timed_cycles"], entry["O2"]["timed_cycles"]
        if o2 > o0:
            sys.exit(
                f"{fresh_path}: opt entry {name!r} regressed simulated time: "
                f"O2 timed_cycles {o2} > O0 {o0}"
            )

    if len(wins) < 3:
        sys.exit(
            f"{fresh_path}: only {len(wins)} program(s) show a strictly "
            f"positive O2 instruction reduction ({wins}); need >= 3"
        )
    print(
        f"{fresh_path}: opt axis ok — {len(wins)}/{len(opt)} programs reduce "
        "dynamic instructions at O2, none regress simulated cycles"
    )


def check_tasks_axis(fresh, fresh_path):
    """Validates the schema-v5 `tasks` section of the full fresh manifest.

    Every barrier-vs-task pair the manifest ran must agree: the task
    port's `outputs_match` verdict (same output, same exit code as the
    barrier original) is the correctness gate for the task-dataflow
    runtime, checked over the whole corpus before restricting to the
    golden program set.
    """
    tasks = fresh.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        sys.exit(f"{fresh_path}: missing or empty `tasks` section (schema v5)")

    for entry in tasks:
        name = entry.get("name", "<unnamed>")
        if not isinstance(entry.get("task_program"), str):
            sys.exit(f"{fresh_path}: tasks entry {name!r} lacks `task_program`")
        if entry.get("outputs_match") is not True:
            sys.exit(
                f"{fresh_path}: tasks entry {name!r} diverged: the "
                "task-dataflow port no longer matches the barrier original"
            )
        for side in ("barrier", "task"):
            block = entry.get(side)
            if not isinstance(block, dict):
                sys.exit(f"{fresh_path}: tasks entry {name!r} lacks {side!r} metrics")
            for key in ("timed_cycles", "total_cycles", "instructions", "exit_code"):
                if not isinstance(block.get(key), int):
                    sys.exit(
                        f"{fresh_path}: tasks entry {name!r} {side} block "
                        f"lacks integer {key!r}"
                    )
    print(
        f"{fresh_path}: task axis ok — {len(tasks)} barrier/task pair(s), "
        "all outputs match"
    )


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} FRESH_MANIFEST GOLDEN_MANIFEST")
    fresh_path, golden_path = sys.argv[1], sys.argv[2]
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(golden_path) as f:
        golden = json.load(f)

    if "error" in fresh:
        err = fresh["error"]
        sys.exit(
            f"{fresh_path} is an error manifest: the sweep failed in the "
            f"{err.get('stage')!r} stage: {err.get('message')}"
        )

    # The sweep engine must actually have reused artifacts across the
    # baseline/HSM runs of each program: a manifest with zero cache hits
    # means every pipeline ran cold and the session cache is broken.
    cache = fresh.get("sweep", {}).get("cache", {})
    if cache.get("total_hits", 0) <= 0:
        sys.exit(f"{fresh_path}: sweep cache recorded no hits: {cache}")
    if cache.get("total_misses", 0) <= 0:
        sys.exit(f"{fresh_path}: sweep cache recorded no misses: {cache}")

    check_opt_axis(fresh, fresh_path)
    check_tasks_axis(fresh, fresh_path)

    if "opt" not in golden or "tasks" not in golden:
        sys.exit(
            f"{golden_path} lacks the `opt` or `tasks` section: it "
            f"predates manifest schema v5 (it reports schema_version "
            f"{golden.get('schema_version')!r}). Regenerate the golden with\n"
            "  UPDATE_GOLDENS=1 cargo test -p hsm-bench --test manifest_golden"
        )

    # The `sweep` section is compared only via the hit/miss assertions
    # above: its counter totals legitimately differ between the full
    # 5-program manifest and the 2-program golden.
    golden_names = [p["name"] for p in golden["programs"]]
    restricted = {
        "schema_version": fresh["schema_version"],
        "config": fresh["config"],
        "opt": [o for o in fresh["opt"] if o["name"] in golden_names],
        "tasks": [t for t in fresh["tasks"] if t["name"] in golden_names],
        "programs": [p for p in fresh["programs"] if p["name"] in golden_names],
    }
    restricted = strip_host_keys(restricted)
    golden = strip_host_keys(
        {
            "schema_version": golden["schema_version"],
            "config": golden["config"],
            "opt": golden["opt"],
            "tasks": golden["tasks"],
            "programs": golden["programs"],
        }
    )

    fresh_names = [p["name"] for p in restricted["programs"]]
    if fresh_names != golden_names:
        sys.exit(
            f"golden programs {golden_names} not covered: fresh manifest has {fresh_names}"
        )

    if restricted != golden:
        diffs = []
        describe_diff("$", restricted, golden, diffs)
        listing = "\n".join(f"  {d}" for d in diffs[:40])
        sys.exit(
            f"{fresh_path} diverged from {golden_path}:\n{listing}\n"
            "If the change is intentional, regenerate the golden with\n"
            "  UPDATE_GOLDENS=1 cargo test -p hsm-bench --test manifest_golden"
        )

    print(f"{fresh_path} matches {golden_path} on {len(golden_names)} programs")


if __name__ == "__main__":
    main()
