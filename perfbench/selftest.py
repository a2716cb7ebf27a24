#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (seconds, once built). Run
from the root of a vsmooth source checkout:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the metrics run.py prints,
with the same units; that every workload, untraced and traced, prints
all of them and passes its gates; and that each gate can fail: a
corrupted golden (verify and the traced compare), a mutated cached
serve payload and a changed expected `vsmooth run` table must each be
counted as failed operations.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = dict(
    run.FULL,
    experiments=["fig02_margin_frequency", "fig04_impedance"],
    setup_reps=2,
    serve_per_kind=2,
    cli_runs=[("off", ["--sampling", "off", "--cycles", "300000"]),
              ("auto", ["--sampling", "auto", "--cycles", "3000000"])],
    trace={
        "scenario_cycles": 200_000,
        "scenario_reps": 1,
        "lane_cycles": 20_000,
        "sampler_cycles": 20_000_000,
        "oracle_cycles": 20_000,
        "oracle_benchmarks": 4,
        "speedup_benchmarks": 3,
        "policy_reps": 1,
        "micro_reps": 2,
    },
)
SECONDS = 0.2
SEED = run.DEFAULT_SEED

problems = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def printed(tally, values, units):
    """The result line exactly as run.py prints it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit({"selftest": 1}, tally, values, units)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_names(line, spec, what):
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{what}: prints every metric with its unit")
    expect(all(v["value"] == v["value"] for v in line["metrics"].values()),
           f"{what}: no NaN values")


def tiny_cli_tables():
    out = {}
    for mode, args in TINY["cli_runs"]:
        p = subprocess.run(run.cli_command(args, run.cli_seed(SEED)),
                           capture_output=True, env=run.child_env(),
                           check=True)
        out[mode] = p.stdout
    return out


def corrupt_golden(name):
    bad = os.path.join(run.WORK_DIR, "golden_bad")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree("bench/golden", bad)
    path = os.path.join(bad, name + ".json")
    with open(path) as f:
        golden = json.load(f)
    metric = next(iter(golden["metrics"]))
    value = golden["metrics"][metric]
    if isinstance(value, dict):
        value["value"] = value["value"] * 1.5 + 1.0
    else:
        golden["metrics"][metric] = value * 1.5 + 1.0
    with open(path, "w") as f:
        json.dump(golden, f)
    return bad


def main():
    run.ensure_built()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    registry = run.experiment_registry()
    want_layers = list(run.PER_LAYER) + [
        run.EXPERIMENT_METRIC.format(e) for e in registry]
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py")
    expect([m["name"] for m in spec["per_layer"]] == want_layers,
           "BENCHMARK.json per_layer matches run.py and the registry")
    expect([w["name"] for w in spec["workloads"]] == run.WORKLOADS,
           "BENCHMARK.json workloads match run.py")

    tiny_layers = [m for m in spec["per_layer"]
                   if not m["name"].startswith("experiment.")] + [
        {"name": run.EXPERIMENT_METRIC.format(e), "unit": "s"}
        for e in TINY["experiments"]]
    cli_tables = tiny_cli_tables()
    for workload in run.WORKLOADS:
        if workload == "cli_long":
            tally = run.run_cli(SECONDS, TINY, SEED, cli_tables)
            result = (tally, tally.metrics(), run.END_TO_END)
        else:
            result = run.run_workload(workload, SEED, SECONDS, 0, TINY)
        line = printed(*result)
        expect(line["correct"] and line["failed"] == 0,
               f"{workload}: tiny run passes its gates")
        check_names(line, spec["end_to_end"], workload)

        line = printed(*run.run_workload(workload, SEED, SECONDS, 1, TINY))
        expect(line["correct"] and line["failed"] == 0,
               f"{workload} traced: replay matches System::run")
        check_names(line, tiny_layers, f"{workload} traced")

    # Each gate must be able to fail.
    bad = corrupt_golden("fig04_impedance")
    tally = run.run_repro("repro_sweep", SECONDS, TINY, bad)
    expect(tally.failed >= 1, "corrupted golden counted by verify")
    tally, _ = run.run_trace("repro_sweep", SEED, dict(TINY, golden_dir=bad))
    expect(tally.failed >= 1, "corrupted golden counted by the traced "
           "compare")

    def mutate(results):
        latency, payload, status = results[0]
        flipped = bytes([payload[0] ^ 1]) + payload[1:]
        return [(latency, flipped, status)] + results[1:]

    tally, _ = run.run_trace("serve_cold", SEED, TINY, mutate=mutate)
    expect(tally.failed >= 1, "mutated cached payload counted")

    changed = dict(cli_tables)
    changed["auto"] = changed["auto"].replace(b"0", b"1", 1)
    tally = run.run_cli(SECONDS, TINY, SEED, changed)
    expect(tally.failed >= 1, "changed expected vsmooth run table counted")

    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as e:
        print(f"selftest: {e}", file=sys.stderr)
        sys.exit(1)
