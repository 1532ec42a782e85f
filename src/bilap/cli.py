"""Command-line front end: every check as a CSV/JSON report.

Reports are schema-stable rows
    check,param1,param2,lhs,rhs,margin,holds,paper_ref
with one file per subcommand, or as JSON objects beside a ``meta`` record of
the run (``write_report``); bilap needs numpy alone.  ``bilap all`` runs the
criteria registry of ``bilap.checks``, the same definitions the acceptance
suite asserts; the other subcommands expose single layers with their own
grids.  ``compare`` and ``all`` share ``eig2d.richardson_ladder``, which
extrapolates from two FD grids, n and 2n; only ``eig2d`` has ``--cache``,
keyed on the exact domain, grid and mode count.  Exit codes:
0 all asserted checks hold, 1 at least one asserted check fails,
2 configuration error: an ``InputError`` (a flag value outside the domain
of the layer function it reaches), a ``ConfigError`` (a rule of the command
line alone: flag syntax, the ``MAX_RANGE_VALUES`` cap on range flags, config
keys and values, the ``roots --n`` cap, ``compare``'s grid pair, ``--a``
with Dirichlet) or an ``OSError``, found before any report is written,
3 internal error: any other exception.
Each argument rule is stated once, by the function that receives the
value; the subcommands pass flags on unchecked.
Reported-only rows never affect the exit code.  Two runs with the same
configuration produce byte-identical output apart from the timestamp
header line.  Importing this module first runs BLAS on one thread
(``OPENBLAS_NUM_THREADS=1``) unless the caller set a thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

# The variables OpenBLAS reads its thread count from, once, when it loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Every BLAS call behind the reports is small: 97 x 97 matrix products for
# the collar profiles and the FD block solves on blocks of at most 4,096
# unknowns: the block Lanczos, whose products are of its basis with two
# vectors at a time and of sine bases of at most 64 x 64, and the eigh of
# the Rayleigh-Ritz step, which spans the whole block only when more than a
# third of its spectrum is asked for (at most 144 unknowns in the
# benchmark's commands).  On a 2-core machine a
# second OpenBLAS thread buys no wall time there but spins: one thread cut
# the benchmark's rect_sweep CPU time from 3.14 s to 1.60 s (medians of ten
# pairs) at the same wall time, 1.59 s against 1.61 s.  The spinning thread
# also makes small calls slow in some fresh processes: a first 256^2 eigh
# took 0.92 s in 1 of 16, and four 194 x 97 GEMM chains (the profile's
# former shape) 0.06-0.10 s in 6 of 16, against at most 0.019 s and 0.002 s
# in all 16 on one thread.
# numpy's bundled OpenBLAS reads the variable when it loads, so
# this works only before numpy is imported; a caller's own setting is kept.
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import avp, checks, eig2d, riesz, semiclassical, spectra1d  # noqa: E402
from .core import (  # noqa: E402
    BCKind,
    BoundaryCondition,
    BoundReport,
    DomainSpec,
    InputError,
    Spectrum,
    dimensional_constants,
)
from .roots1d import LAST_NORMAL_DEFECT_N, gamma_root, proposition_bound_report  # noqa: E402

log = logging.getLogger("bilap")

CSV_COLUMNS = ("check", "param1", "param2", "lhs", "rhs", "margin", "holds", "paper_ref")
# The most values a range flag expands to.  10^5 values already take
# 3-4 s and 170-180 MB in `predict --k` and `riesz1d --z` (2-CPU machine);
# the benchmark's longest list has 2,000.
MAX_RANGE_VALUES = 10 ** 5


class ConfigError(InputError):
    """A flag or config value that breaks a rule of the command line (exit 2)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _range_size(count: int) -> int:
    """``count`` unless a range of that many values is too long to build."""
    if count > MAX_RANGE_VALUES:
        raise ValueError(f"{count} values, more than {MAX_RANGE_VALUES}")
    return count


# ----------------------------------------------------------------------------
# Argument parsing helpers
# ----------------------------------------------------------------------------

def parse_domain(text: str) -> DomainSpec:
    try:
        shape, _, dims = text.partition(":")
        if shape == "interval":
            return DomainSpec.interval(float(dims))
        if shape == "square":
            return DomainSpec.square(float(dims))
        if shape == "rect":
            lx, _, ly = dims.partition("x")
            return DomainSpec.rectangle(float(lx), float(ly))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad domain spec {text!r}: {exc}") from exc
    raise ConfigError(f"bad domain spec {text!r} (interval:L | square:L | rect:LxW)")


def parse_range(text: str) -> list[float]:
    """Grid syntax: 'a:b:Nlog', 'a:b:Nlin', or a comma list; never empty and
    at most MAX_RANGE_VALUES long."""
    try:
        if ":" in text:
            a, b, spec = text.split(":")
            if spec.endswith("log"):
                n = _range_size(int(spec[:-3]))
                values = list(np.logspace(math.log10(float(a)), math.log10(float(b)), n))
            elif spec.endswith("lin"):
                n = _range_size(int(spec[:-3]))
                values = list(np.linspace(float(a), float(b), n))
            else:
                raise ValueError("range spec must end in 'log' or 'lin'")
        else:
            _range_size(text.count(",") + 1)
            values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc
    _require(bool(values), f"range {text!r} is empty")
    return values


def parse_int_range(text: str) -> list[int]:
    """Integer syntax: 'a..b' (both ends included) or a comma list; never
    empty and at most MAX_RANGE_VALUES long."""
    try:
        if ".." in text:
            a, b = (int(v) for v in text.split(".."))
            values = list(range(a, a + _range_size(b - a + 1)))
        else:
            _range_size(text.count(",") + 1)
            values = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad integer range {text!r}: {exc}") from exc
    _require(bool(values), f"integer range {text!r} is empty")
    return values


def parse_pair(text: str) -> tuple[int, ...]:
    """Derivative pair 'i,j'; ``spectra1d`` checks that it is one of
    ``ONE_D_PAIRS``."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad pair {text!r}: {exc}") from exc


def load_config(path: Path) -> dict[str, str]:
    """Flag defaults from a file holding one JSON object.  Each value is
    passed on as the text of its flag, so argparse converts it with the
    flag's type as it would on the command line, and ``build_parser``
    checks it against the flag's choices; a null leaves the flag at its
    default."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config {path} is no JSON text: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must hold a JSON object, "
                          f"not {type(payload).__name__}")
    if "command" in payload:
        raise ConfigError("a config file cannot choose the subcommand")
    return {key: str(value) for key, value in payload.items() if value is not None}


def parse_bc(name: str, a: float) -> BoundaryCondition:
    """The condition ``name`` with Poisson ratio ``a``; Dirichlet has no
    Poisson ratio, so it takes only a = 0."""
    try:
        kind = {"dirichlet": BCKind.DIRICHLET, "navier": BCKind.NAVIER,
                "ks": BCKind.KUTTLER_SIGILLITO, "neumann": BCKind.NEUMANN}[name]
    except KeyError as exc:
        raise ConfigError(f"unknown boundary condition {name!r}") from exc
    _require(kind is not BCKind.DIRICHLET or a == 0.0,
             f"--a {a} given for dirichlet, which has no Poisson ratio")
    return BoundaryCondition(kind, poisson_ratio=a)


# ----------------------------------------------------------------------------
# Report output
# ----------------------------------------------------------------------------

def _param_columns(report: BoundReport) -> tuple[str, str]:
    items = [f"{k}={v}" for k, v in report.params]
    first = items[0] if items else ""
    rest = ";".join(items[1:]) if len(items) > 1 else ""
    return first, rest


def _run_meta(command: str) -> dict:
    """What a JSON report records about the run: the subcommand, the Python
    and numpy versions, the BLAS library numpy was built with (name and
    version) and whichever BLAS thread variables are set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "command": command,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
    }


_BOOL_TEXT = {True: "true", False: "false"}


def write_report(reports: Sequence[BoundReport], path: Optional[Path],
                 fmt: str, meta: dict | None = None) -> None:
    """Write the rows as CSV, or as one JSON object {"meta", "reports",
    "timestamp"} with sorted keys and a line break after every comma
    between members and elements, written by json's C encoder."""
    stamp = datetime.now(timezone.utc).isoformat()
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# generated {stamp}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows((r.check, *_param_columns(r), float(r.lhs), float(r.rhs),
                          float(r.margin), _BOOL_TEXT[r.holds], r.paper_ref)
                         for r in reports)
        text = buf.getvalue()
    elif fmt == "json":
        payload = {"meta": meta or {}, "timestamp": stamp,
                   "reports": [dict(zip(r._fields, r), params=dict(r.params)) for r in reports]}
        text = json.dumps(payload, sort_keys=True, separators=(",\n", ": ")) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")

    if path is None:
        sys.stdout.write(text)
    else:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def exit_code(reports: Sequence[BoundReport]) -> int:
    return 1 if any(r.asserted and not r.holds for r in reports) else 0


# ----------------------------------------------------------------------------
# Spectrum cache
# ----------------------------------------------------------------------------

def spectrum_cache_key(dom: DomainSpec, n: int, k: int) -> str:
    """File stem of the cached clamped spectrum of the first k modes on the
    n x n grid.  Each length enters by its exact repr, so domains that
    differ in any bit get different keys."""
    return ",".join((dom.shape, *map(repr, dom.lengths), str(n), str(k)))


def cache_spectrum(key: str, spec: Spectrum, directory: Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"key": key, "values": [format(v, ".17g") for v in spec.values]}
    path = directory / (key + ".json")
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_spectrum(key: str, directory: Path) -> Optional[Spectrum]:
    """Round-trip-exact reload.  Corrupt entries, and entries that store a
    different key, log a warning and return None."""
    path = Path(directory) / (key + ".json")
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload["key"] != key:
            log.warning("spectrum cache %s holds %s; recomputing", path, payload["key"])
            return None
        return Spectrum(tuple(float(v) for v in payload["values"]))
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        log.warning("corrupt spectrum cache %s (%s); recomputing", path, exc)
        return None


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_roots(args) -> list[BoundReport]:
    _require(1 <= args.n <= LAST_NORMAL_DEFECT_N, f"--n must lie in 1..{LAST_NORMAL_DEFECT_N}")
    reports = []
    for n in range(1, args.n + 1):
        root = gamma_root(n)
        reports.append(BoundReport.value_row(
            "gamma", root.gamma, "1-d-ev-equation", params={"n": n, "method": root.method}))
        reports.append(checks.gamma_residual_row(n))
    reports.extend(proposition_bound_report(args.n))
    return reports


def cmd_spectrum1d(args) -> list[BoundReport]:
    pair = parse_pair(args.pair)
    spec = spectra1d.spectrum_1d(pair, args.count, args.length)
    reports = [BoundReport.value_row(
        "eigenvalue", v, "riesz-1-d", params={"pair": pair, "n": n})
        for n, v in enumerate(spec.values, start=1)]
    reports.extend(spectra1d.identity_check(min(args.count, checks.ROOT_COUNT)))
    return reports


def cmd_riesz1d(args) -> list[BoundReport]:
    return checks.riesz_rows(parse_pair(args.pair), parse_range(args.z))


def cmd_lemma_onedim(args) -> list[BoundReport]:
    return checks.lattice_rows(parse_range(args.r_grid))


def cmd_constants(args) -> list[BoundReport]:
    reports = []
    for d in parse_int_range(args.dims):
        dc = dimensional_constants(d)
        for name, val, ref in (
            ("ball-volume", dc.ball_volume, "weyllaw"),
            ("classical-constant", dc.classical, "weyllaweig"),
            ("grad-sup-constant", dc.grad_sup, "adconst"),
            ("lap-sup-constant", dc.lap_sup, "adconst"),
            ("a_d", dc.a_d, "cd"), ("b_d", dc.b_d, "cd"), ("c_d", dc.c_d, "cd"),
            ("M_d", dc.m_d, "Md"),
        ):
            reports.append(BoundReport.value_row(name, val, ref, params={"d": d}))
        if d >= 2:
            for bc_name in ("dirichlet", "navier", "ks", "neumann"):
                bc = parse_bc(bc_name, 0.0 if bc_name == "dirichlet" else args.a)
                co = semiclassical.expansion_coefficients(bc, d)
                reports.append(BoundReport.value_row(
                    "c0-per-volume", co.c0, "semiclassicalcounting", params={"d": d}))
                reports.append(BoundReport.value_row(
                    "c1-per-boundary", co.c1, "c1dir",
                    params={"d": d, "bc": bc.label(),
                            "limit_case": bc.is_limit_case}))
    reports.append(BoundReport.value_row("series-constant-c", riesz.constant_c(), "c"))
    reports.append(BoundReport.value_row("f-neumann", semiclassical.f_neumann(args.a),
                                         "fsigma", params={"a": args.a}))
    return reports


def cmd_predict(args) -> list[BoundReport]:
    dom = parse_domain(args.domain)
    bc = parse_bc(args.bc, args.a)
    reports = []
    for k in parse_int_range(args.k):
        val = semiclassical.predict_eigenvalue(bc, dom, k)
        reports.append(BoundReport.value_row(
            "two-term-prediction", val, "weyl_dirichlet_biharmonic_single",
            params={"k": k, "bc": bc.label(), "note": "asymptotic, smooth-domain hypothesis"}))
        if bc.kind is BCKind.DIRICHLET:
            reports.append(BoundReport.value_row(
                "two-term-average", semiclassical.predict_average(dom, k),
                "weyl_dirichlet_biharmonic", params={"k": k}))
    return reports


def cmd_avp(args) -> list[BoundReport]:
    dom = parse_domain(args.domain)
    ks, zs, ts = parse_int_range(args.k), parse_range(args.z), parse_range(args.t)
    profiles = [avp.inscribed_ball_profile(dom)]
    if dom.shape == "rectangle":
        profiles.append(avp.mollified_indicator_profile(dom, args.h, args.grid_res))
    reports = []
    for k in ks:
        averages = [avp.avg_upper_bound(prof, k) for prof in profiles]
        reports.extend(BoundReport.value_row(
            "avg-upper-bound", avg, "evsums-DirichletbiLaplacian1",
            params={"k": k, "profile": prof.kind}) for prof, avg in zip(profiles, averages))
        # the paper's rough estimate is the inscribed-ball bound, written out
        # in the constants a_d, b_d and c_d
        reports.append(BoundReport.value_row(
            "rough-bound", averages[0], "rough_estimate_bilaplacian", params={"k": k}))
        if k >= avp.explicit_sum_threshold(dom):
            main, second, rem = avp.explicit_sum_bound(dom, k)
            reports.append(BoundReport.value_row(
                "explicit-sum-bound", main + second + rem, "explicit_sum",
                params={"k": k, "main": main, "second": second, "remainder": rem}))
    for z in zs:
        for prof in profiles:
            reports.append(BoundReport.value_row(
                "riesz-lower-bound", avp.riesz_lower_bound(prof, z),
                "Riesz-mean-ineq-DirichletbiLaplacian", params={"z": z, "profile": prof.kind}))
    for t in ts:
        for prof in profiles:
            weighted, unweighted = avp.partition_lower_bound(prof, t)
            reports.append(BoundReport.value_row(
                "partition-lower-bound", unweighted, "part-fct-estimate-small-times_bi",
                params={"t": t, "profile": prof.kind, "weighted": weighted}))
    return reports


def cmd_kroeger_laptev(args) -> list[BoundReport]:
    return checks.kroeger_laptev_rows(args.k)


def cmd_eig2d(args) -> list[BoundReport]:
    """``--k`` clamped eigenvalues on each grid of ``--grids`` in the order
    given; the cache serves only a spectrum of the same grid and k, and only
    for a grid and k that ``eig2d.clamped_spectrum_fd`` would solve."""
    dom = parse_domain(args.domain)
    reports = []
    for n in parse_int_range(args.grids):
        eig2d.fd_grid(dom, n, args.k)
        key = spectrum_cache_key(dom, n, args.k)
        t0 = time.perf_counter()
        spec = load_spectrum(key, args.cache) if args.cache else None
        if spec is not None and len(spec) != args.k:
            log.warning("spectrum cache entry %s holds %d values, not %d; recomputing",
                        key, len(spec), args.k)
            spec = None
        cache_hit = spec is not None
        if not cache_hit:
            spec = eig2d.clamped_spectrum_fd(dom, n, args.k)
            if args.cache:
                cache_spectrum(key, spec, args.cache)
        log.info("eig2d solve %dx%d: %.3fs (cache_hit=%s)",
                 n, n, time.perf_counter() - t0, cache_hit)
        reports.extend(BoundReport.value_row(
            "fd-eigenvalue", v, "DBC", params={"j": j, "grid": n, "cache_hit": cache_hit})
            for j, v in enumerate(spec.values, start=1))
    return reports


def cmd_compare(args) -> list[BoundReport]:
    """Comparison chain with Richardson bands from the two finest grids,
    which must be n and 2n, the ratio ``eig2d.richardson_ladder`` assumes."""
    dom = parse_domain(args.domain)
    grids = sorted(set(parse_int_range(args.grids)))
    _require(len(grids) >= 2, f"compare needs at least two distinct grids, got {args.grids!r}")
    mid, fine = grids[-2:]
    _require(fine == 2 * mid, f"the two finest grids {mid} and {fine} are not n and 2n, "
                              f"the ratio the Richardson limit assumes")
    limits, bands = eig2d.richardson_ladder(
        *(eig2d.clamped_spectrum_fd(dom, n, args.k) for n in (mid, fine)), args.k)
    return eig2d.comparison_report(dom, limits, bands)


def cmd_all(args) -> list[BoundReport]:
    """Full verification sweep: every check of ``checks.REGISTRY`` in order,
    on one ``checks.Context`` that builds each shared FD spectrum and trial
    profile once."""
    return checks.run_all(checks.Context())


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilap",
        description="Fourth-order spectra: exact 1D solutions, finite-difference "
                    "2D solves, and machine-checkable semiclassical bound reports.")
    parser.add_argument("--config", type=Path, help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=Path, default=None, help="report path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if config_defaults:
            # argparse checks choices only on flags given on the command line
            for action in p._actions:
                value = config_defaults.get(action.dest)
                _require(action.choices is None or value is None or value in action.choices,
                         f"config value {value!r} of {'/'.join(action.option_strings)} "
                         f"is not one of {list(action.choices or ())}")
            p.set_defaults(**config_defaults)

    p = sub.add_parser("roots", help="frequency-equation roots and defect brackets")
    p.add_argument("--n", type=int, default=20)
    common(p)

    p = sub.add_parser("spectrum1d", help="exact interval spectra")
    p.add_argument("--pair", default="0,1")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--length", type=float, default=1.0)
    common(p)

    p = sub.add_parser("riesz1d", help="Riesz means against the explicit envelopes")
    p.add_argument("--pair", default="0,1")
    p.add_argument("--z", default="1:1e8:64log")
    common(p)

    p = sub.add_parser("lemma-onedim", help="lattice-sum envelope checks")
    p.add_argument("--r-grid", default="0:200:101lin")
    common(p)

    p = sub.add_parser("constants", help="dimensional and boundary coefficients")
    p.add_argument("--dims", default="1..6")
    p.add_argument("--a", type=float, default=0.0)
    common(p)

    p = sub.add_parser("predict", help="two-term eigenvalue predictions")
    p.add_argument("--domain", default="square:1")
    p.add_argument("--bc", default="dirichlet")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--k", default="1..20")
    common(p)

    p = sub.add_parser("avp", help="averaged-variational-principle bounds")
    p.add_argument("--domain", default="square:1")
    p.add_argument("--k", default="1..30")
    p.add_argument("--z", default="1e3:1e6:8log")
    p.add_argument("--t", default="1e-4,1e-3")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--grid-res", type=int, default=96)
    common(p)

    p = sub.add_parser("kroeger-laptev", help="refined two-sided interval bounds")
    p.add_argument("--k", type=int, default=120)
    common(p)

    p = sub.add_parser("eig2d", help="finite-difference clamped spectrum")
    p.add_argument("--domain", default="square:1")
    p.add_argument("--grids", default="32")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--cache", type=Path, help="spectrum cache directory (same grid and k)")
    common(p)

    p = sub.add_parser("compare", help="eigenvalue comparison chain")
    p.add_argument("--domain", default="square:1")
    p.add_argument("--grids", default="64,128",
                   help="at least two distinct grids, the finest two n and 2n; "
                        "only those two are solved")
    p.add_argument("--k", type=int, default=10)
    common(p)

    p = sub.add_parser("all", help="full verification sweep")
    common(p)
    if config_defaults:
        # a key of another subcommand is harmless; one of no subcommand is a typo
        flags = {action.dest for sp in sub.choices.values() for action in sp._actions}
        unknown = sorted(set(config_defaults) - flags)
        _require(not unknown, f"config key(s) {', '.join(map(repr, unknown))} "
                              f"name no flag of any subcommand")
    return parser


_COMMANDS = {
    "roots": cmd_roots,
    "spectrum1d": cmd_spectrum1d,
    "riesz1d": cmd_riesz1d,
    "lemma-onedim": cmd_lemma_onedim,
    "constants": cmd_constants,
    "predict": cmd_predict,
    "avp": cmd_avp,
    "kroeger-laptev": cmd_kroeger_laptev,
    "eig2d": cmd_eig2d,
    "compare": cmd_compare,
    "all": cmd_all,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        # config values become subparser defaults, so explicit flags still win
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", type=Path)
        known, _ = pre.parse_known_args(argv)
        parser = build_parser(load_config(known.config) if known.config else None)
        args = parser.parse_args(argv)
        reports = _COMMANDS[args.command](args)
        write_report(reports, args.out, args.format, _run_meta(args.command))
    except (InputError, OSError) as exc:
        print(f"bilap: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"bilap: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    failed = sum(1 for r in reports if r.asserted and not r.holds)
    if failed:
        print(f"bilap: {failed} asserted check(s) failed", file=sys.stderr)
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
