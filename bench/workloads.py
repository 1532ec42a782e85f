"""Workload definitions and the metric catalogue of the bilap benchmark.

This module is the single source of ``BENCHMARK.json``: ``run.py --summary``
writes that file from the constants below, and ``run.py`` reports exactly the
metrics listed here.  It imports nothing from ``bilap`` and no numerical
library, so the orchestrating process stays light.

A workload is a list of ``bilap`` CLI invocations run one after another by a
single client (a closed loop) in a fresh interpreter.  Inputs come from the
workload seed; sizes never depend on it.  Inputs that the seed perturbs are
drawn from fixed pools whose reference rows are all recorded, so every row of
every seed is checked against the reference in ``refs/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 0

WORKLOADS = {
    "full_sweep": (
        "bilap all --format csv exactly as a user runs it: the headline verification "
        "run and the only one that solves the 32/64/128 FD ladder, so eig2d dominates"),
    "interval_sweep": (
        "1D subcommands at volume (roots, riesz1d, lemma-onedim, kroeger-laptev, "
        "spectrum1d, constants): roots1d/spectra1d/riesz and report writing, eig2d idle"),
    "rect_sweep": (
        "rectangle users: AVP FFT profiles, an eig2d ladder around DENSE_LIMIT with k "
        "near dim, run twice through a fresh spectrum cache (misses then hits), compare"),
}

# The workloads in BENCHMARK.json, which the regression gate runs.
# interval_sweep is left out: its time is pure-Python interpretation, which
# on the 2-vCPU reference VM runs 25-35% slower in host phases lasting
# minutes, so the quartile spread of its medians over ten 40 s runs reached
# 0.25, the largest bound allowed (full_sweep and rect_sweep: 0.10-0.12).
# It stays runnable (--workload interval_sweep, and in --summary) for the
# 1D and report-writing layers.
GATED = ("full_sweep", "rect_sweep")

# ---------------------------------------------------------------------------
# Metric catalogue
# ---------------------------------------------------------------------------

# (name, unit, better, bound).  Bounds are shares of the parent's median.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_ops_frac", "ratio", "higher", 0.001),
)

# FD solves made by some workload, as (grid, k); each gets its own span total.
FD_SOLVES = ((32, 50), (64, 50), (128, 50), (64, 200),            # full_sweep
             (16, 200), (24, 400), (48, 100), (72, 100), (96, 60),  # rect_sweep ladder
             (24, 10), (48, 10), (96, 10))                          # rect_sweep compare

PER_LAYER = (
    ("roots1d.solve_s", "s", "lower"),
    ("roots1d.solves", "count", "lower"),
    ("roots1d.cache_hit_ratio", "ratio", "higher"),
    ("spectra1d.build_s", "s", "lower"),
    ("spectra1d.builds", "count", "lower"),
    ("spectra1d.values_built", "count", "lower"),
    ("riesz.mean_s", "s", "lower"),
    ("riesz.mean_calls", "count", "lower"),
    ("riesz.extend_ratio", "ratio", "lower"),
    ("riesz.lattice_s", "s", "lower"),
    ("riesz.lattice_calls", "count", "lower"),
    ("semiclassical.coeff_s", "s", "lower"),
    ("semiclassical.coeff_calls", "count", "lower"),
    ("avp.profile_s", "s", "lower"),
    ("avp.profiles", "count", "lower"),
    ("avp.profile_cells", "computed-cells", "lower"),
    ("avp.bound_s", "s", "lower"),
    ("eig2d.assemble_s", "s", "lower"),
    ("eig2d.solve_s", "s", "lower"),
    *((f"eig2d.solve_s.{n}x{n}.k{k}", "s", "lower") for n, k in FD_SOLVES),
    ("eig2d.solves", "count", "lower"),
    ("eig2d.unique_solve_ratio", "ratio", "higher"),
    ("eig2d.dense_solves", "count", "lower"),
    ("eig2d.sparse_solves", "count", "lower"),
    ("eig2d.dense_bytes", "computed-B", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.rows", "count", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("cli.cache_lookups", "count", "lower"),
    ("cli.cache_hits", "count", "higher"),
    ("cli.cache_hit_ratio", "ratio", "higher"),
    ("cli.cache_read_s", "s", "lower"),
    ("cli.cache_write_s", "s", "lower"),
    ("cli.other_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

RUN_SECONDS = 55


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n]} for n in GATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One CLI call.  ``argv`` lacks ``--out``, which the runner appends.

    ``ref`` names the reference rows; ``select`` = (param, values) keeps only
    the reference rows whose ``param`` is in ``values`` (pooled inputs).
    ``hit_of`` is the index of the cache-miss command this one must repeat.
    """

    argv: tuple[str, ...]
    ref: str
    select: Optional[tuple[str, frozenset]] = None
    hit_of: Optional[int] = None

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "csv"


# interval_sweep sizes.  Each seeded grid picks one of two neighbouring pool
# points per cell, so the reference holds 2x the points a run uses.
Z_CELLS = 1000
R_CELLS = 1000
KL_K = 2000
SPEC1D_COUNT = 1000
ROOTS_N = 222  # up to the exact-root hand-over at n = 223
PAIRS = ("0,1", "0,2", "0,3", "1,2", "1,3", "2,3")

# rect_sweep: aspect ratios the seed picks from, and the eig2d ladder
# straddling DENSE_LIMIT = 4096 unknowns (coarse grids with k close to dim).
ASPECTS = ("1.3", "1.35", "1.4", "1.45", "1.5", "1.55", "1.6", "1.65")
LADDER = ((16, 200), (24, 400), (48, 100), (72, 100), (96, 60))
COMPARE_GRIDS = "24,48,96"
AVP_RUNS = (("square:1", "0.1"), ("square:1", "0.05"), ("rect:1x2", "0.1"), ("rect:1x2", "0.05"))


def z_pool() -> list[str]:
    m = 2 * Z_CELLS
    return [repr(float(format(10.0 ** (8.0 * i / (m - 1)), ".10g"))) for i in range(m)]


def r_pool() -> list[str]:
    m = 2 * R_CELLS
    return [repr(float(format(200.0 * i / (m - 1), ".10g"))) for i in range(m)]


def _jitter(pool: list[str], rng: random.Random) -> list[str]:
    """One of the two pool points of each cell: the grid phase varies per cell."""
    return [pool[2 * i + rng.getrandbits(1)] for i in range(len(pool) // 2)]


def _rect(aspect: str, cache_dir: str) -> list[Command]:
    dom = f"rect:1x{aspect}"
    out = [Command(("avp", "--domain", d, "--h", h, "--k", "1..200", "--format", "json"),
                   f"avp:{d}:{h}") for d, h in AVP_RUNS]
    misses = []
    for n, k in LADDER:
        misses.append(len(out))
        out.append(Command(("eig2d", "--domain", dom, "--grids", str(n), "--k", str(k),
                            "--cache", cache_dir, "--format", "json"),
                           f"eig2d:{dom}:{n}:{k}"))
    out.extend(Command(out[i].argv, out[i].ref, hit_of=i) for i in misses)
    out.append(Command(("compare", "--domain", dom, "--grids", COMPARE_GRIDS, "--k", "10",
                        "--format", "json"), f"compare:{dom}"))
    return out


def commands(workload: str, seed: int, cache_dir: str = "") -> list[Command]:
    """The command sequence of ``workload`` for ``seed`` (``cache_dir`` for rect_sweep)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "full_sweep":
        return [Command(("all", "--format", "csv"), "all")]
    if workload == "interval_sweep":
        out = [Command(("roots", "--n", str(ROOTS_N), "--format", "json"), "roots")]
        for pair in PAIRS:
            zs = _jitter(z_pool(), rng)
            out.append(Command(("riesz1d", "--pair", pair, "--z", ",".join(zs), "--format", "json"),
                               f"riesz1d:{pair}", select=("z", frozenset(zs))))
        rs = _jitter(r_pool(), rng)
        out.append(Command(("lemma-onedim", "--r-grid", ",".join(rs), "--format", "json"),
                           "lemma-onedim", select=("R", frozenset(rs))))
        out.append(Command(("kroeger-laptev", "--k", str(KL_K), "--format", "json"), "kroeger-laptev"))
        out.append(Command(("spectrum1d", "--pair", "2,3", "--count", str(SPEC1D_COUNT),
                            "--format", "json"), "spectrum1d"))
        out.append(Command(("constants", "--dims", "1..6"), "constants"))
        return out
    if workload == "rect_sweep":
        return _rect(ASPECTS[rng.randrange(len(ASPECTS))], cache_dir)
    raise KeyError(workload)


def reference_commands(workload: str, cache_dir: str) -> list[Command]:
    """Commands whose outputs form the reference: every pool point, every aspect.

    Cache-hit repeats are left out; their reference is that of their miss.
    """
    if workload == "full_sweep":
        return commands(workload, DEFAULT_SEED)
    if workload == "interval_sweep":
        out = []
        for c in commands(workload, DEFAULT_SEED):
            if c.select is not None:
                flag, pool = ("--z", z_pool()) if c.select[0] == "z" else ("--r-grid", r_pool())
                argv = list(c.argv)
                argv[argv.index(flag) + 1] = ",".join(pool)
                c = Command(tuple(argv), c.ref)
            out.append(c)
        return out
    if workload == "rect_sweep":
        out = {}
        for aspect in ASPECTS:
            for c in _rect(aspect, cache_dir):
                if c.hit_of is None:
                    out.setdefault(c.ref, c)
        return list(out.values())
    raise KeyError(workload)
