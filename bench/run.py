"""The bilap benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --summary

Run from the root of a checkout.  A run repeats the workload's command
sequence, each repetition in a fresh interpreter (``worker.py``) so that the
package's ``lru_cache``s start cold as they do for a user, until ``--seconds``
would be exceeded.  Every command's report is checked against ``refs/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` count commands over all repetitions, and ``metrics`` holds
the end-to-end metrics (``--trace 0``: medians over repetitions) or the
per-layer metrics (``--trace 1``: from one traced repetition, the others
untraced to measure the tracing overhead).  A full record with the
environment and every sample is written under ``.bench_out/``.

``--summary`` runs each workload at the default seed, prints every
end-to-end metric with its unit, runs ``full_sweep`` once with one BLAS
thread as a labelled baseline, and writes ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5      # fresh imports per run, from repetitions or set-up-only workers
WORKER_TIMEOUT_S = 150


def _spawn(args: list[str], log, env: dict) -> tuple[float, dict | None]:
    """Start a worker; return (monotonic start, its JSON result or None)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=log, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return start, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return start, None
    return start, json.loads(lines[-1])


def _without_cache_hit(rows: list[list]) -> list[list]:
    return [[c, [q for q in p if q[0] != "cache_hit"], *rest] for c, p, *rest in rows]


def _check_rep(cmds, outs, result, refs) -> list[str]:
    """One failure message per failed command of a repetition."""
    failures = []
    rows_of: dict[int, list] = {}
    for i, (cmd, out) in enumerate(zip(cmds, outs)):
        label = f"[{i}] {' '.join(cmd.argv)[:60]}"
        status = result["commands"][i] if result else {"rc": None, "error": "worker died"}
        if status["error"] or status["rc"] != 0:
            failures.append(f"{label}: exit {status['rc']} {status['error'] or ''}".strip())
            continue
        try:
            rows = rows_of[i] = check.read_rows(out, cmd.fmt)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"{label}: unreadable report ({exc})")
            continue
        diff = check.compare(rows, check.expected_rows(cmd, refs))
        if diff is None and cmd.hit_of is not None:
            miss = rows_of.get(cmd.hit_of)
            if miss is None or _without_cache_hit(rows) != _without_cache_hit(miss):
                diff = "cache hit differs from its miss"
        if diff is not None:
            failures.append(f"{label}: {diff}")
    return failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env_extra: dict | None = None) -> dict:
    refs = check.load_refs(workload)
    work = OUT / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    reps, setups, failures = [], [], []
    env_record: dict = {}
    attempted = 0
    deadline = time.monotonic() + seconds
    with open(OUT / f"worker-{workload}-s{seed}.log", "w") as log:
        while True:
            rep_dir = work / f"rep{len(reps)}"
            rep_dir.mkdir()
            cmds = workloads.commands(workload, seed, str(rep_dir / "cache"))
            outs = [rep_dir / f"{i:02d}.{c.fmt}" for i, c in enumerate(cmds)]
            traced = trace and not reps
            plan = {"commands": [[*c.argv, "--out", str(o)] for c, o in zip(cmds, outs)],
                    "trace": traced, "src": str(SRC),
                    "spans": str(OUT / f"spans-{workload}-s{seed}.jsonl")}
            (rep_dir / "plan.json").write_text(json.dumps(plan))
            t0 = time.monotonic()
            start, result = _spawn([str(rep_dir / "plan.json")], log, env)
            took = time.monotonic() - t0
            attempted += len(cmds)
            rep_failures = _check_rep(cmds, outs, result, refs)
            failures.extend(rep_failures)
            if result is not None:
                env_record = result.pop("env")
                setups.append(result["imported"] - start)
                result["bytes_out"] = sum(o.stat().st_size for o in outs if o.exists())
                result["traced"] = traced
                result["failed"] = len(rep_failures)
                reps.append(result)
            else:
                reps.append({"traced": traced, "failed": len(cmds)})
            shutil.rmtree(rep_dir)
            untraced = [r for r in reps if not r["traced"]]
            if time.monotonic() + took > deadline and (untraced or not trace):
                break
        while len(setups) < SETUP_SAMPLES:
            start, result = _spawn([], log, env)
            if result is None:
                raise RuntimeError(f"set-up worker failed; see {log.name}")
            setups.append(result["imported"] - start)
    good = [r for r in reps if "wall_s" in r and not r["traced"]]
    failed = len(failures)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed, "failures": failures[:50],
        "setup_samples": setups, "reps": reps,
        "env": dict(env_record, **host_environment()),
    }
    if good:
        record["end_to_end"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in good),
            "cpu_s": statistics.median(r["cpu_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "ok_ops_frac": 1.0 - failed / attempted,
        }
    layers = next((r for r in reps if r["traced"] and "layers" in r), None)
    if layers is not None and good:
        m = dict(layers["layers"])
        m["cli.bytes_out"] = layers["bytes_out"]
        m["trace.overhead_s"] = layers["wall_s"] - record["end_to_end"]["wall_s"]
        record["per_layer"] = m
    shutil.rmtree(work)
    with open(OUT / f"result-{workload}-s{seed}{'-trace' if trace else ''}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def host_environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def _metrics(values: dict, catalogue) -> dict:
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, *_ in catalogue}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", action="store_true")
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "bilap" / "cli.py").is_file():
        print(f"bench: no bilap package under {SRC}", file=sys.stderr)
        return 1
    if args.summary:
        return summary()
    if args.workload is None:
        p.error("--workload is required")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    key, catalogue = (("per_layer", workloads.PER_LAYER) if args.trace
                      else ("end_to_end", workloads.END_TO_END))
    if key not in record:
        print(f"bench: no successful repetition; see {OUT}", file=sys.stderr)
        return 1
    print("# env " + json.dumps(record["env"]))
    for f in record["failures"][:10]:
        print("# failed " + f)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": _metrics(record[key], catalogue)}))
    return 0


def summary() -> int:
    spec = workloads.benchmark_json()
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    for name in workloads.WORKLOADS:
        r = run_workload(name, workloads.DEFAULT_SEED, workloads.RUN_SECONDS, False)
        print(f"{name}: attempted {r['attempted']} failed {r['failed']} "
              f"({len([x for x in r['reps'] if 'wall_s' in x])} repetitions)")
        for metric, unit, *_ in workloads.END_TO_END:
            print(f"  {metric:<14} {r['end_to_end'][metric]:12.4f} {unit}")
    r = run_workload("full_sweep", workloads.DEFAULT_SEED, 0, False, {"OPENBLAS_NUM_THREADS": "1"})
    print("baseline, not gated: full_sweep with OPENBLAS_NUM_THREADS=1: "
          f"wall_s {r['end_to_end']['wall_s']:.3f} s, cpu_s {r['end_to_end']['cpu_s']:.3f} s")
    print("env " + json.dumps(r["env"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
