#!/usr/bin/env python3
"""Gate a fresh bench run against the committed baseline.

Usage: check_bench.py BASELINE_JSON FRESH_JSON [--tolerance FRAC]

Three document schemas are understood, dispatched on the JSON `schema`
field (both files must carry the same one):

* `irma-bench/mining/v2` — written by
  `cargo bench -p irma-bench --bench mining`; committed baseline
  BENCH_6.json at the repository root.
* `irma-bench/serve/v1` — written by
  `cargo bench -p irma-bench --bench serve`; committed baseline
  BENCH_9.json at the repository root.
* `irma-bench/rules/v1` — written by
  `cargo bench -p irma-bench --bench rules`; committed baseline
  BENCH_10.json at the repository root.

Mining checks, in decreasing order of strictness:

* **Grid completeness.** Each document declares its own
  `scales` x `miners` x `threads` grid; every cell must carry either a
  measured row or an explicit `skipped` record with a reason. An
  undeclared missing cell is a FAILURE — silently dropping a miner from
  a scale is exactly the bug this caught once already.

* **Itemset counts are exact.** For every cell measured in both files,
  the fresh `itemsets` must equal the baseline's — the workload is
  seeded and miners are deterministic, so any drift is a correctness
  bug, not noise. This check ignores --tolerance and host differences.

* **Wall time is bounded, same-host only.** `best_wall_s` may exceed
  the baseline by at most `--tolerance` (a fraction: 0.10 means +10%),
  but ONLY when both documents report the same `host_cores` — comparing
  wall times across machines with different core counts is noise dressed
  as a gate, so mismatched hosts skip this check with a loud notice.

* **Speedup gate, >=4-core hosts only.** When the fresh host reports
  >= 4 cores and the fresh run measured widths 1 and 4, each miner must
  show a width response at the largest scale it was measured at:
  FP-Growth and Eclat >= 2.5x, Apriori >= 1.5x. On narrower hosts the
  gate is skipped with a loud notice (it cannot be demonstrated there).

Cells in the baseline's grid but outside the fresh run's declared grid
are merely noted: scale and thread sweeps are environment-tunable
(IRMA_BENCH_SCALES, ...), and smoke runs deliberately measure a subset.

Serve checks mirror the same philosophy:

* **Grid completeness.** Every `clients` x `modes` x `paths` cell must
  be measured or carry an explicit `skipped` record (1-core hosts
  declare-skip the multi-client cells rather than dropping them).

* **Every request succeeded.** A measured cell's `ok` must equal its
  `requests` — a lost or non-200 response under closed-loop load is a
  robustness bug, not noise, and is checked host-independently.

* **Throughput and p95 latency, same-host only.** Fresh `rps` may fall
  below baseline by at most `--tolerance`, and fresh `p95_ms` may exceed
  it by at most the same fraction — only when `host_cores` matches.

Rules checks:

* **Grid completeness.** Every `scales` x `impls` x `threads` cell must
  be measured or carry an explicit `skipped` record (the flat oracle
  declare-skips width > 1 and scales past IRMA_BENCH_RULES_FLAT_CAP).

* **Kept/pruned counts are exact.** The synthetic rule set is a
  deterministic function of scale and pruning is deterministic, so both
  counts must match the baseline exactly, host-independently.

* **Wall time is bounded, same-host only** (as for mining).

* **Flat-vs-subset speedup floor, within-document.** Any document — the
  baseline included — that measures both `flat` and `subset` (the
  production prune, nested pairs found by subset lookup) at width 1 for
  a scale >= 100000 must show subset at least 10x faster. Both cells
  come from one host, so this gate never depends on who runs it; the
  committed BENCH_10.json always carries the qualifying pair.

* **Width-4 subset speedup floor, >=4-core hosts only.** When the fresh
  host reports >= 4 cores and measured subset widths 1 and 4, the largest
  such scale must show >= 1.5x (independent prune groups parallelize).
  On narrower hosts the gate is skipped with a loud notice.

Exit code 0 on pass, 1 on any failure, 2 on usage/parse errors.
"""

import json
import sys

MINING_SCHEMA = "irma-bench/mining/v2"
SERVE_SCHEMA = "irma-bench/serve/v1"
RULES_SCHEMA = "irma-bench/rules/v1"

REQUIRED_FIELDS = {
    MINING_SCHEMA: ("host_cores", "scales", "miners", "threads"),
    SERVE_SCHEMA: ("host_cores", "clients", "modes", "paths", "requests_per_client"),
    RULES_SCHEMA: ("host_cores", "scales", "impls", "threads"),
}

# miner -> required width-4 speedup (vs the same run's width-1 best).
SPEEDUP_FLOORS = {"fpgrowth": 2.5, "eclat": 2.5, "apriori": 1.5}
SPEEDUP_MIN_CORES = 4
SPEEDUP_WIDTH = 4

# The subset-lookup prune must beat the flat oracle by this factor at
# qualifying scales (within one document, so host-independent).
RULES_FLAT_FLOOR = 10.0
RULES_FLAT_MIN_SCALE = 100_000
# Width-4 subset prune speedup floor (vs width 1), >=4-core hosts only.
RULES_WIDTH_FLOOR = 1.5


def fail_usage(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    print(__doc__, file=sys.stderr)
    sys.exit(2)


# schema -> (per-row key fields, document-level grid axis fields).
KEYS = {
    MINING_SCHEMA: (("scale", "miner", "threads"), ("scales", "miners", "threads")),
    SERVE_SCHEMA: (("clients", "mode", "path"), ("clients", "modes", "paths")),
    RULES_SCHEMA: (("scale", "impl", "threads"), ("scales", "impls", "threads")),
}


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"reading {path}: {e}")
    schema = doc.get("schema")
    if schema not in REQUIRED_FIELDS:
        fail_usage(
            f"{path}: unexpected schema {schema!r} "
            f"(want one of {sorted(REQUIRED_FIELDS)})"
        )
    for field in REQUIRED_FIELDS[schema]:
        if field not in doc:
            fail_usage(f"{path}: missing required field {field!r}")
    return doc


def split_rows(doc: dict) -> tuple[dict, dict]:
    """Returns (measured, skipped), both keyed by the schema's key fields."""
    key_fields, _ = KEYS[doc["schema"]]
    measured, skipped = {}, {}
    for row in doc.get("results", []):
        key = tuple(row[f] for f in key_fields)
        if "skipped" in row:
            skipped[key] = row["skipped"]
        else:
            measured[key] = row
    return measured, skipped


def grid(doc: dict) -> set:
    _, axes = KEYS[doc["schema"]]
    cells = {()}
    for axis in axes:
        cells = {cell + (value,) for cell in cells for value in doc[axis]}
    return cells


def label(key: tuple, schema: str) -> str:
    if schema == MINING_SCHEMA:
        scale, miner, threads = key
        return f"{miner} @ {scale} jobs, {threads} thread(s)"
    if schema == RULES_SCHEMA:
        scale, impl, threads = key
        return f"{impl} prune @ {scale} rules, {threads} thread(s)"
    clients, mode, path = key
    return f"{mode}/{path} @ {clients} client(s)"


def check_grid(name: str, doc: dict, measured: dict, skipped: dict, failures: list) -> None:
    schema = doc["schema"]
    for key in sorted(grid(doc)):
        if key in measured and key in skipped:
            failures.append(f"{name}: {label(key, schema)}: both measured and skipped")
        elif key not in measured and key not in skipped:
            failures.append(
                f"{name}: {label(key, schema)}: undeclared missing cell "
                "(no measurement, no skipped record)"
            )
    for key in sorted(set(measured) | set(skipped)):
        if key not in grid(doc):
            failures.append(f"{name}: {label(key, schema)}: row outside the declared grid")


def check_speedup(doc: dict, measured: dict, failures: list) -> None:
    cores = doc["host_cores"]
    if cores < SPEEDUP_MIN_CORES:
        print(
            f"NOTICE: speedup gate SKIPPED — fresh host reports {cores} core(s), "
            f"needs >= {SPEEDUP_MIN_CORES}. Width response cannot be demonstrated here; "
            "rerun on a wider host to arm this gate."
        )
        return
    if SPEEDUP_WIDTH not in doc["threads"] or 1 not in doc["threads"]:
        print(
            f"NOTICE: speedup gate SKIPPED — fresh run lacks widths 1 and "
            f"{SPEEDUP_WIDTH} (threads = {doc['threads']})."
        )
        return
    for miner, floor in SPEEDUP_FLOORS.items():
        if miner not in doc["miners"]:
            continue
        # Largest scale where this miner has both width-1 and width-4 rows.
        scales = [
            s
            for s in doc["scales"]
            if (s, miner, 1) in measured and (s, miner, SPEEDUP_WIDTH) in measured
        ]
        if not scales:
            print(f"NOTICE: speedup gate: {miner} has no measured width-1/width-{SPEEDUP_WIDTH} pair")
            continue
        scale = max(scales)
        base = measured[(scale, miner, 1)]["best_wall_s"]
        wide = measured[(scale, miner, SPEEDUP_WIDTH)]["best_wall_s"]
        speedup = base / wide if wide > 0 else float("inf")
        verdict = "ok" if speedup >= floor else "FAIL"
        print(
            f"{verdict}: speedup gate: {miner} @ {scale} jobs: "
            f"{speedup:.2f}x at width {SPEEDUP_WIDTH} (floor {floor}x)"
        )
        if speedup < floor:
            failures.append(
                f"{miner} @ {scale} jobs: width-{SPEEDUP_WIDTH} speedup "
                f"{speedup:.2f}x below required {floor}x on a {cores}-core host"
            )


def compare_mining(
    key: tuple, base: dict, new: dict, same_host: bool, tolerance: float, failures: list
) -> None:
    name = label(key, MINING_SCHEMA)
    if new["itemsets"] != base["itemsets"]:
        failures.append(
            f"{name}: itemset count changed "
            f"{base['itemsets']} -> {new['itemsets']} (correctness, not noise)"
        )
        return
    if not same_host:
        print(f"ok: {name}: itemsets exact ({new['itemsets']}); wall skipped")
        return
    limit = base["best_wall_s"] * (1.0 + tolerance)
    verdict = "ok" if new["best_wall_s"] <= limit else "REGRESSION"
    print(
        f"{verdict}: {name}: {new['best_wall_s']:.4f}s vs baseline "
        f"{base['best_wall_s']:.4f}s (limit {limit:.4f}s)"
    )
    if new["best_wall_s"] > limit:
        failures.append(
            f"{name}: {new['best_wall_s']:.4f}s exceeds baseline "
            f"{base['best_wall_s']:.4f}s by more than {tolerance:.0%}"
        )


def compare_rules(
    key: tuple, base: dict, new: dict, same_host: bool, tolerance: float, failures: list
) -> None:
    name = label(key, RULES_SCHEMA)
    if (new["kept"], new["pruned"]) != (base["kept"], base["pruned"]):
        failures.append(
            f"{name}: kept/pruned changed "
            f"{base['kept']}/{base['pruned']} -> {new['kept']}/{new['pruned']} "
            "(correctness, not noise)"
        )
        return
    if not same_host:
        print(f"ok: {name}: kept/pruned exact ({new['kept']}/{new['pruned']}); wall skipped")
        return
    limit = base["best_wall_s"] * (1.0 + tolerance)
    verdict = "ok" if new["best_wall_s"] <= limit else "REGRESSION"
    print(
        f"{verdict}: {name}: {new['best_wall_s']:.4f}s vs baseline "
        f"{base['best_wall_s']:.4f}s (limit {limit:.4f}s)"
    )
    if new["best_wall_s"] > limit:
        failures.append(
            f"{name}: {new['best_wall_s']:.4f}s exceeds baseline "
            f"{base['best_wall_s']:.4f}s by more than {tolerance:.0%}"
        )


def check_rules_flat_speedup(name: str, doc: dict, measured: dict, failures: list) -> None:
    """Within-document flat-vs-subset floor: both cells share one host, so
    the gate is machine-independent and applies to the baseline too."""
    gated = False
    for scale in sorted(doc["scales"]):
        if scale < RULES_FLAT_MIN_SCALE:
            continue
        flat = measured.get((scale, "flat", 1))
        subset = measured.get((scale, "subset", 1))
        if flat is None or subset is None:
            continue
        gated = True
        speedup = (
            flat["best_wall_s"] / subset["best_wall_s"]
            if subset["best_wall_s"] > 0
            else float("inf")
        )
        verdict = "ok" if speedup >= RULES_FLAT_FLOOR else "FAIL"
        print(
            f"{verdict}: {name}: flat-vs-subset @ {scale} rules: "
            f"{speedup:.2f}x (floor {RULES_FLAT_FLOOR}x)"
        )
        if speedup < RULES_FLAT_FLOOR:
            failures.append(
                f"{name}: subset prune only {speedup:.2f}x faster than flat at "
                f"{scale} rules (floor {RULES_FLAT_FLOOR}x)"
            )
    if not gated:
        print(
            f"NOTICE: {name}: flat-vs-subset gate not armed — no scale >= "
            f"{RULES_FLAT_MIN_SCALE} with both width-1 impls measured."
        )


def check_rules_width_speedup(doc: dict, measured: dict, failures: list) -> None:
    cores = doc["host_cores"]
    if cores < SPEEDUP_MIN_CORES:
        print(
            f"NOTICE: width-{SPEEDUP_WIDTH} subset gate SKIPPED — fresh host reports "
            f"{cores} core(s), needs >= {SPEEDUP_MIN_CORES}. Width response cannot "
            "be demonstrated here; rerun on a wider host to arm this gate."
        )
        return
    if SPEEDUP_WIDTH not in doc["threads"] or 1 not in doc["threads"]:
        print(
            f"NOTICE: width-{SPEEDUP_WIDTH} subset gate SKIPPED — fresh run lacks "
            f"widths 1 and {SPEEDUP_WIDTH} (threads = {doc['threads']})."
        )
        return
    scales = [
        s
        for s in doc["scales"]
        if (s, "subset", 1) in measured and (s, "subset", SPEEDUP_WIDTH) in measured
    ]
    if not scales:
        print(
            f"NOTICE: width-{SPEEDUP_WIDTH} subset gate: no measured "
            f"width-1/width-{SPEEDUP_WIDTH} subset pair"
        )
        return
    scale = max(scales)
    base = measured[(scale, "subset", 1)]["best_wall_s"]
    wide = measured[(scale, "subset", SPEEDUP_WIDTH)]["best_wall_s"]
    speedup = base / wide if wide > 0 else float("inf")
    verdict = "ok" if speedup >= RULES_WIDTH_FLOOR else "FAIL"
    print(
        f"{verdict}: width gate: subset @ {scale} rules: "
        f"{speedup:.2f}x at width {SPEEDUP_WIDTH} (floor {RULES_WIDTH_FLOOR}x)"
    )
    if speedup < RULES_WIDTH_FLOOR:
        failures.append(
            f"subset @ {scale} rules: width-{SPEEDUP_WIDTH} speedup {speedup:.2f}x "
            f"below required {RULES_WIDTH_FLOOR}x on a {cores}-core host"
        )


def check_serve_success(key: tuple, row: dict, failures: list) -> None:
    """Host-independent: closed-loop load must not lose a single request."""
    name = label(key, SERVE_SCHEMA)
    if row["ok"] != row["requests"]:
        failures.append(
            f"{name}: only {row['ok']}/{row['requests']} requests returned 200 "
            "(robustness, not noise)"
        )


def compare_serve(
    key: tuple, base: dict, new: dict, same_host: bool, tolerance: float, failures: list
) -> None:
    name = label(key, SERVE_SCHEMA)
    if not same_host:
        print(f"ok: {name}: all {new['ok']} requests succeeded; timing skipped")
        return
    rps_floor = base["rps"] / (1.0 + tolerance)
    p95_limit = base["p95_ms"] * (1.0 + tolerance)
    rps_ok = new["rps"] >= rps_floor
    p95_ok = new["p95_ms"] <= p95_limit
    verdict = "ok" if rps_ok and p95_ok else "REGRESSION"
    print(
        f"{verdict}: {name}: {new['rps']:.1f} req/s (floor {rps_floor:.1f}), "
        f"p95 {new['p95_ms']:.3f} ms (limit {p95_limit:.3f})"
    )
    if not rps_ok:
        failures.append(
            f"{name}: throughput {new['rps']:.1f} req/s below baseline "
            f"{base['rps']:.1f} by more than {tolerance:.0%}"
        )
    if not p95_ok:
        failures.append(
            f"{name}: p95 {new['p95_ms']:.3f} ms exceeds baseline "
            f"{base['p95_ms']:.3f} ms by more than {tolerance:.0%}"
        )


def main(argv: list[str]) -> int:
    tolerance = 0.10
    paths = []
    i = 0
    while i < len(argv):
        if argv[i] == "--tolerance":
            if i + 1 >= len(argv):
                fail_usage("--tolerance needs a value")
            try:
                tolerance = float(argv[i + 1])
            except ValueError:
                fail_usage(f"bad --tolerance {argv[i + 1]!r}")
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 2:
        fail_usage("need exactly BASELINE_JSON and FRESH_JSON")

    base_doc = load(paths[0])
    fresh_doc = load(paths[1])
    schema = base_doc["schema"]
    if fresh_doc["schema"] != schema:
        fail_usage(
            f"schema mismatch: {paths[0]} is {schema!r}, "
            f"{paths[1]} is {fresh_doc['schema']!r}"
        )
    base_measured, base_skipped = split_rows(base_doc)
    fresh_measured, fresh_skipped = split_rows(fresh_doc)
    if not fresh_measured:
        fail_usage(f"{paths[1]} has no measured results")

    failures: list = []
    check_grid("baseline", base_doc, base_measured, base_skipped, failures)
    check_grid("fresh", fresh_doc, fresh_measured, fresh_skipped, failures)

    same_host = base_doc["host_cores"] == fresh_doc["host_cores"]
    if not same_host:
        what = "Itemset counts" if schema == MINING_SCHEMA else "Success counts"
        print(
            f"NOTICE: timing comparison SKIPPED — baseline host has "
            f"{base_doc['host_cores']} core(s), fresh host {fresh_doc['host_cores']}; "
            f"cross-host timings are not comparable. {what} are still exact."
        )

    compared = 0
    for key in sorted(fresh_measured):
        if key not in base_measured:
            if key in base_skipped:
                print(f"note: {label(key, schema)}: skipped in baseline ({base_skipped[key]})")
            else:
                print(f"note: {label(key, schema)}: not in baseline")
            continue
        base, new = base_measured[key], fresh_measured[key]
        compared += 1
        if schema == MINING_SCHEMA:
            compare_mining(key, base, new, same_host, tolerance, failures)
        elif schema == RULES_SCHEMA:
            compare_rules(key, base, new, same_host, tolerance, failures)
        else:
            compare_serve(key, base, new, same_host, tolerance, failures)
    for key in sorted(set(base_measured) - set(fresh_measured) - set(fresh_skipped)):
        print(f"note: {label(key, schema)}: not re-measured")
    for key in sorted(fresh_skipped):
        if key in base_measured:
            print(
                f"note: {label(key, schema)}: measured in baseline, "
                f"skipped fresh ({fresh_skipped[key]})"
            )

    if schema == MINING_SCHEMA:
        check_speedup(fresh_doc, fresh_measured, failures)
    elif schema == RULES_SCHEMA:
        check_rules_flat_speedup("baseline", base_doc, base_measured, failures)
        check_rules_flat_speedup("fresh", fresh_doc, fresh_measured, failures)
        check_rules_width_speedup(fresh_doc, fresh_measured, failures)
    else:
        for key in sorted(fresh_measured):
            check_serve_success(key, fresh_measured[key], failures)

    if compared == 0:
        failures.append("no overlapping measured rows between baseline and fresh run")
    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  FAIL: {f}", file=sys.stderr)
        return 1
    print(f"\nall checks passed ({compared} overlapping measured row(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
