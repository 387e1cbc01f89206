#!/usr/bin/env python3
"""Verify the persistent artifact store's warm-cache guarantees.

Usage: check_warm_cache.py COLD_MANIFEST WARM_MANIFEST

COLD_MANIFEST and WARM_MANIFEST are two `figures --json` manifests
generated back to back against the same `--cache-dir`. The script checks
the store's three acceptance properties:

* determinism — the two manifests are identical once every host-dependent
  `host_*` key is stripped (the persistent store must never leak into the
  simulated numbers);
* warm reuse — the warm manifest's `sweep.host_store` block reports
  loads > 0 and zero store misses (nothing was re-parsed, re-analyzed,
  re-translated or re-compiled), while the cold manifest reports
  misses > 0 and writes > 0 (the store was actually populated);
* no simulation — `host_store.run` counts the sweep's points: the cold
  run simulated every one (`misses` == `host_points`), the warm run read
  every one back (`loads` == `host_points`, `misses` == 0).
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


def store_block(manifest, path):
    store = manifest.get("sweep", {}).get("host_store")
    if not isinstance(store, dict):
        sys.exit(
            f"{path}: no `sweep.host_store` block — was the manifest "
            "generated with --cache-dir (and host timings enabled)?"
        )
    return store


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} COLD_MANIFEST WARM_MANIFEST")
    cold_path, warm_path = sys.argv[1], sys.argv[2]
    with open(cold_path) as f:
        cold = json.load(f)
    with open(warm_path) as f:
        warm = json.load(f)

    for manifest, path in ((cold, cold_path), (warm, warm_path)):
        if "error" in manifest:
            err = manifest["error"]
            sys.exit(
                f"{path} is an error manifest: the sweep failed in the "
                f"{err.get('stage')!r} stage: {err.get('message')}"
            )

    if strip_host_keys(cold) != strip_host_keys(warm):
        sys.exit(
            f"{cold_path} and {warm_path} differ outside host_* keys: the "
            "persistent store changed the simulated results"
        )

    cold_store = store_block(cold, cold_path)
    if cold_store.get("misses", 0) <= 0 or cold_store.get("writes", 0) <= 0:
        sys.exit(
            f"{cold_path}: cold run did not populate the store: {cold_store}"
        )

    warm_store = store_block(warm, warm_path)
    if warm_store.get("misses", 0) != 0:
        sys.exit(
            f"{warm_path}: warm run missed the store "
            f"{warm_store['misses']} time(s): {warm_store}"
        )
    if warm_store.get("corrupt", 0) != 0:
        sys.exit(f"{warm_path}: warm run hit corrupt entries: {warm_store}")
    if warm_store.get("loads", 0) <= 0:
        sys.exit(f"{warm_path}: warm run loaded nothing from disk: {warm_store}")

    points = warm["sweep"].get("host_points")
    cold_runs, warm_runs = cold_store.get("run", {}), warm_store.get("run", {})
    if cold_runs != {"loads": 0, "misses": points}:
        sys.exit(
            f"{cold_path}: cold run should have simulated all {points} "
            f"points: run shelf {cold_runs}"
        )
    if warm_runs != {"loads": points, "misses": 0}:
        sys.exit(
            f"{warm_path}: warm run should have read all {points} points "
            f"back without simulating: run shelf {warm_runs}"
        )

    print(
        f"warm cache ok: manifests identical modulo host_* keys; cold wrote "
        f"{cold_store['writes']} entries, warm loaded {warm_store['loads']} "
        f"with zero misses and simulated none of its {points} points"
    )


if __name__ == "__main__":
    main()
