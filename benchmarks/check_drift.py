"""Deterministic counter drift guard over the committed BENCH_*.json files.

The simulator's cost model is deterministic: re-running the exact workload
behind each committed benchmark artefact must reproduce every bus-cycle /
ALU / transaction counter bit-for-bit. This script regenerates each
artefact in-process and fails (exit 1) on any counter difference —
**wall-clock fields are explicitly excluded** (they are host-dependent and
never guarded).

Run it from the repository root:

    PYTHONPATH=src python benchmarks/check_drift.py

CI runs it as the ``perf-regression-guard`` job (see
``.github/workflows/ci.yml``); docs/performance.md explains how to
regenerate the artefacts intentionally after a cost-model change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PROFILE_DIR = Path(__file__).parent / "profiles"

INF16 = (1 << 16) - 1


def _mcp_profile(n: int, d: int, seed: int, arch: str):
    """Regenerate one of the T1/T5 MCP span profiles in-process."""
    from repro.baselines import GCNMachine, HypercubeMachine, MeshMachine
    from repro.core import minimum_cost_path
    from repro.ppa import PPAConfig, PPAMachine
    from repro.telemetry import RunProfile
    from repro.workloads import WeightSpec, gnp_digraph

    W = gnp_digraph(n, 0.3, seed=seed, weights=WeightSpec(1, 9),
                    inf_value=INF16)
    if arch == "ppa":
        machine = PPAMachine(PPAConfig(n=n))
        run = lambda: minimum_cost_path(machine, W, d)  # noqa: E731
    else:
        machine = {"gcn": GCNMachine, "hypercube": HypercubeMachine,
                   "mesh": MeshMachine}[arch](n)
        run = lambda: machine.mcp(W, d)  # noqa: E731
    with machine.telemetry.capture():
        run()
    return RunProfile.from_tracer(machine.telemetry)


def _regen_t1_mcp():
    return _mcp_profile(16, 3, 1, "ppa")


def _regen_t5(arch: str):
    return lambda: _mcp_profile(16, 1, 4, arch)


def _check_profile(path: Path, regen) -> list[str]:
    """Per-phase + total counter comparison (compare_profiles semantics)."""
    from repro.telemetry import compare_profiles, load_profile

    return compare_profiles(load_profile(path), regen())


def _check_p2(path: Path, regen_unused=None) -> list[str]:
    """Exact counter comparison for the P2 batching artefact.

    Only the batched pass is re-run (fast); its lane-summed
    serial-equivalent counters stand in for the serial sweep by
    construction — the equivalence itself is asserted by
    ``bench_p2_batching.py``.
    """
    from repro.core import all_pairs_minimum_cost
    from repro.ppa import PPAConfig, PPAMachine
    from repro.workloads import WeightSpec, gnp_digraph

    committed = json.loads(path.read_text())
    wl = committed["workload"]
    W = gnp_digraph(wl["n"], wl["density"], seed=wl["seed"],
                    weights=WeightSpec(1, 9),
                    inf_value=(1 << wl["word_bits"]) - 1)
    machine = PPAMachine(PPAConfig(n=wl["n"], word_bits=wl["word_bits"]))
    res = all_pairs_minimum_cost(machine, W)

    diffs: list[str] = []
    if committed["iterations"] != [int(i) for i in res.iterations]:
        diffs.append("iterations: per-destination counts drifted")
    for field, fresh in (
        ("counters_serial_equivalent", res.counters),
        ("machine_counters_batched", res.machine_counters),
    ):
        old = committed[field]
        for k in sorted(set(old) | set(fresh)):
            va, vb = old.get(k, 0), int(fresh.get(k, 0))
            if va != vb:
                diffs.append(f"{field}.{k}: {va} -> {vb}")
    return diffs


def _check_p17(path: Path) -> list[str]:
    """Exact counter comparison for the P17 engine artefact.

    Both sections regenerate through the *compiled* engine (fast);
    compiled == cycle bit-for-bit is asserted by ``bench_p17_engines.py``
    and the ``tests/engine/`` differential suite, so any drift caught here
    is a genuine cost-model change.
    """
    from repro.core import all_pairs_minimum_cost, minimum_cost_path
    from repro.ppa import PPAConfig, PPAMachine
    from repro.workloads import WeightSpec, gnp_digraph

    committed = json.loads(path.read_text())
    diffs: list[str] = []

    def _graph(wl):
        return gnp_digraph(wl["n"], wl["density"], seed=wl["seed"],
                           weights=WeightSpec(1, 9),
                           inf_value=(1 << wl["word_bits"]) - 1)

    def _compare(section, field, old, fresh):
        for k in sorted(set(old) | set(fresh)):
            va, vb = old.get(k, 0), int(fresh.get(k, 0))
            if va != vb:
                diffs.append(f"{section}.{field}.{k}: {va} -> {vb}")

    apsp = committed["apsp"]
    wl = apsp["workload"]
    res = all_pairs_minimum_cost(
        PPAMachine(PPAConfig(n=wl["n"], word_bits=wl["word_bits"])),
        _graph(wl), engine="compiled",
    )
    if apsp["iterations"] != [int(i) for i in res.iterations]:
        diffs.append("apsp.iterations: per-destination counts drifted")
    _compare("apsp", "counters_serial_equivalent",
             apsp["counters_serial_equivalent"], res.counters)
    _compare("apsp", "machine_counters_batched",
             apsp["machine_counters_batched"], res.machine_counters)

    mcp = committed["mcp_n512"]
    wl = mcp["workload"]
    res = minimum_cost_path(
        PPAMachine(PPAConfig(n=wl["n"], word_bits=wl["word_bits"])),
        _graph(wl), wl["destination"], engine="compiled",
    )
    if mcp["iterations"] != int(res.iterations):
        diffs.append(f"mcp_n512.iterations: {mcp['iterations']} -> "
                     f"{int(res.iterations)}")
    _compare("mcp_n512", "counters", mcp["counters"], res.counters)
    return diffs


def _check_t16(path: Path) -> list[str]:
    """Exact re-run of the T16 resilience campaign.

    Everything in the artefact is deterministic — the stochastic fault
    sweeps draw from per-run seeded RNGs — so every status tally,
    recovery action, counter total and overhead bucket must regenerate
    bit-for-bit. (A resilience-disabled corollary is guarded by the
    profile checks above: none of their counters may move either.)
    """
    from repro.analysis.experiments import run_t16_campaign

    committed = json.loads(path.read_text())
    fresh = run_t16_campaign()

    diffs: list[str] = []
    if committed["workload"] != fresh["workload"]:
        diffs.append("workload: parameters drifted")
    old_sc = {sc["label"]: sc for sc in committed["scenarios"]}
    new_sc = {sc["label"]: sc for sc in fresh["scenarios"]}
    for label in sorted(set(old_sc) | set(new_sc)):
        if label not in old_sc or label not in new_sc:
            diffs.append(f"scenario set changed: {label}")
            continue
        a, b = old_sc[label], new_sc[label]
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                diffs.append(f"{label}.{key}: {a.get(key)} -> {b.get(key)}")
    return diffs


def _check_p18(path: Path) -> list[str]:
    """Exact counter comparison for the P18 compiled/roofline artefact.

    Regenerates through the *compiled* engine (compiled == cycle
    bit-for-bit is asserted by ``bench_p18_compiled.py`` and the
    ``tests/engine/`` differential suites). Full-sweep roofline
    entries up to the artefact's ``drift_guard_max_n`` are re-run — the
    larger entries' counters are pinned inside the benchmark itself,
    where the in-run equality assertions make a CI-sized re-run
    redundant. Wall-time and kernel-backend fields are host-dependent and
    never guarded.
    """
    from repro.core import all_pairs_minimum_cost
    from repro.ppa import PPAConfig, PPAMachine
    from repro.workloads import WeightSpec, gnp_digraph

    committed = json.loads(path.read_text())
    wl = committed["workload"]
    guard_max = int(committed["drift_guard_max_n"])
    diffs: list[str] = []

    def _graph(n):
        lo, hi = wl["weights"]
        return gnp_digraph(n, wl["degree"] / n, seed=wl["seed"],
                           weights=WeightSpec(lo, hi),
                           inf_value=(1 << wl["word_bits"]) - 1)

    def _sweep(n, lanes):
        return all_pairs_minimum_cost(
            PPAMachine(PPAConfig(n=n, word_bits=wl["word_bits"])),
            _graph(n), engine="compiled", lanes=lanes,
        )

    def _compare(section, field, old, fresh):
        for k in sorted(set(old) | set(fresh)):
            va, vb = old.get(k, 0), int(fresh.get(k, 0))
            if va != vb:
                diffs.append(f"{section}.{field}.{k}: {va} -> {vb}")

    for entry in committed["roofline"]:
        n = int(entry["n"])
        if n > guard_max or entry["destinations"] != n:
            continue  # pinned by the benchmark's own equality assertions
        res = _sweep(n, int(entry["lanes"]))
        section = f"roofline[n={n}]"
        if entry["iterations_total"] != int(res.iterations.sum()):
            diffs.append(f"{section}.iterations_total: "
                         f"{entry['iterations_total']} -> "
                         f"{int(res.iterations.sum())}")
        _compare(section, "counters_serial_equivalent",
                 entry["counters_serial_equivalent"], res.counters)

    eq = committed["equivalence"]
    res = _sweep(int(eq["n"]), int(eq["lanes"]))
    if eq["iterations"] != [int(i) for i in res.iterations]:
        diffs.append("equivalence.iterations: per-destination counts "
                     "drifted")
    _compare("equivalence", "counters_serial_equivalent",
             eq["counters_serial_equivalent"], res.counters)
    _compare("equivalence", "machine_counters_batched",
             eq["machine_counters_batched"], res.machine_counters)
    return diffs


def _check_p19(path: Path) -> list[str]:
    """Invariant + digest guard for the P19 serving artefact.

    The committed robustness invariants (``wrong == 0``,
    ``silent_wrong == 0``, ``leaked_shm == []``) are validated statically,
    and the determinism campaign — the chaos slice whose ok-answer set is
    independent of host timing — is re-run in-process: its oracle digest
    and validation count must regenerate bit-for-bit. Latency, throughput
    and wall-clock fields are host-dependent and never guarded.
    """
    from repro.serve.chaos import run_chaos_campaign

    committed = json.loads(path.read_text())
    diffs: list[str] = []
    for section in ("healthy", "chaos"):
        wrong = committed[section]["wrong"]
        if wrong != 0:
            diffs.append(f"{section}.wrong: {wrong} independently "
                         "validated answers disagreed")
    if committed["campaign"]["silent_wrong"] != 0:
        diffs.append("campaign.silent_wrong: "
                     f"{committed['campaign']['silent_wrong']}")
    if committed["campaign"]["leaked_shm"]:
        diffs.append("campaign.leaked_shm: "
                     f"{committed['campaign']['leaked_shm']}")

    det = committed["determinism"]
    fresh = run_chaos_campaign(
        runs=int(det["runs"]), seed=int(det["seed"]), n=int(det["n"]),
        requests_per_run=int(det["requests_per_run"]),
        kinds=tuple(det["kinds"]),
    )
    for key in ("digest", "silent_wrong", "validated"):
        if det[key] != fresh[key]:
            diffs.append(f"determinism.{key}: {det[key]} -> {fresh[key]}")
    return diffs


def _check_p20(path: Path) -> list[str]:
    """Invariant + digest guard for the P20 coalescing artefact.

    The committed robustness invariants (``wrong == 0`` on every storm
    arm, ``silent_wrong == 0``, ``leaked_shm == []``) are validated
    statically, and the invariance campaign — the timing-independent
    chaos slice including ``update-storm`` — is re-run twice, with
    coalescing on and off: both fresh digests must match the committed
    one bit-for-bit (coalescing is a throughput optimisation, never an
    answer change). Throughput, speedup and latency fields are
    host-dependent and never guarded.
    """
    from repro.serve.chaos import run_chaos_campaign

    committed = json.loads(path.read_text())
    diffs: list[str] = []
    for section in ("coalesced", "uncoalesced", "update_storm"):
        wrong = committed[section]["wrong"]
        if wrong != 0:
            diffs.append(f"{section}.wrong: {wrong} independently "
                         "validated answers disagreed")
    if committed["campaign"]["silent_wrong"] != 0:
        diffs.append("campaign.silent_wrong: "
                     f"{committed['campaign']['silent_wrong']}")
    if committed["campaign"]["leaked_shm"]:
        diffs.append("campaign.leaked_shm: "
                     f"{committed['campaign']['leaked_shm']}")

    inv = committed["invariance"]
    for arm in (True, False):
        fresh = run_chaos_campaign(
            runs=int(inv["runs"]), seed=int(inv["seed"]),
            n=int(inv["n"]),
            requests_per_run=int(inv["requests_per_run"]),
            kinds=tuple(inv["kinds"]), coalesce=arm,
        )
        label = "on" if arm else "off"
        for key in ("digest", "silent_wrong", "validated"):
            if inv[key] != fresh[key]:
                diffs.append(f"invariance.{key} (coalesce {label}): "
                             f"{inv[key]} -> {fresh[key]}")
    return diffs


# Committed artefact -> regenerating callable returning drift lines.
CHECKS = {
    "BENCH_t1_mcp.json": lambda p: _check_profile(p, _regen_t1_mcp),
    "BENCH_t5_ppa.json": lambda p: _check_profile(p, _regen_t5("ppa")),
    "BENCH_t5_gcn.json": lambda p: _check_profile(p, _regen_t5("gcn")),
    "BENCH_t5_hypercube.json": lambda p: _check_profile(
        p, _regen_t5("hypercube")),
    "BENCH_t5_mesh.json": lambda p: _check_profile(p, _regen_t5("mesh")),
    "BENCH_p2_batching.json": _check_p2,
    "BENCH_p17_engines.json": _check_p17,
    "BENCH_p18_compiled.json": _check_p18,
    "BENCH_p19_serving.json": _check_p19,
    "BENCH_p20_coalescing.json": _check_p20,
    "BENCH_t16_resilience.json": _check_t16,
}

# The serialisation each artefact must declare before its check runs.
# Span-profile exports carry ``format``; bench artefacts carry ``schema``.
EXPECTED_SCHEMAS = {
    "BENCH_t1_mcp.json": ("format", "repro-profile-v1"),
    "BENCH_t5_ppa.json": ("format", "repro-profile-v1"),
    "BENCH_t5_gcn.json": ("format", "repro-profile-v1"),
    "BENCH_t5_hypercube.json": ("format", "repro-profile-v1"),
    "BENCH_t5_mesh.json": ("format", "repro-profile-v1"),
    "BENCH_p2_batching.json": ("schema", "repro-bench-p2-v1"),
    "BENCH_p17_engines.json": ("schema", "repro-bench-p17-v2"),
    "BENCH_p18_compiled.json": ("schema", "repro-bench-p18-v2"),
    "BENCH_p19_serving.json": ("schema", "repro-bench-p19-v1"),
    "BENCH_p20_coalescing.json": ("schema", "repro-bench-p20-v1"),
    "BENCH_t16_resilience.json": ("schema", "repro-bench-t16-v1"),
}


def _validate_artifact(path: Path) -> list[str]:
    """Pre-flight: the artefact must exist, parse, and declare the schema
    this checker understands. Returns failure lines (empty = proceed)."""
    if not path.exists():
        return [
            "registered artefact is missing — every name in CHECKS must "
            "be committed; regenerate it with `pytest benchmarks/` or "
            "remove the registration"
        ]
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"unreadable JSON: {exc}"]
    if not isinstance(payload, dict):
        return [f"expected a JSON object, found {type(payload).__name__}"]
    key, want = EXPECTED_SCHEMAS[path.name]
    got = payload.get(key)
    if got != want:
        return [
            f"unknown {key}: {got!r} (this checker understands {want!r}) "
            "— regenerate the artefact or update check_drift.py in the "
            "same change that bumped the schema"
        ]
    return []


def main() -> int:
    failed = False
    missing_checks = sorted(
        f.name for f in PROFILE_DIR.glob("BENCH_*.json")
        if f.name not in CHECKS
    )
    if missing_checks:
        print(f"error: committed artefacts without a drift check: "
              f"{missing_checks}", file=sys.stderr)
        failed = True
    if set(CHECKS) != set(EXPECTED_SCHEMAS):
        print("error: CHECKS and EXPECTED_SCHEMAS disagree: "
              f"{sorted(set(CHECKS) ^ set(EXPECTED_SCHEMAS))}",
              file=sys.stderr)
        failed = True
    for name, check in CHECKS.items():
        path = PROFILE_DIR / name
        diffs = _validate_artifact(path)
        if not diffs:
            try:
                diffs = check(path)
            except KeyError as exc:
                diffs = [
                    f"artefact is missing key {exc} — its schema version "
                    "matches but the layout does not; regenerate it with "
                    "`pytest benchmarks/`"
                ]
        if diffs:
            failed = True
            print(f"  FAIL {name}:")
            for line in diffs:
                print(f"       {line}")
        else:
            print(f"  OK   {name}")
    if failed:
        print("\ncounter drift detected — if intentional, regenerate the "
              "artefacts with `pytest benchmarks/` and commit them "
              "(see docs/performance.md)", file=sys.stderr)
        return 1
    print("no counter drift")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
