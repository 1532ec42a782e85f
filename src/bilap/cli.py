"""Command-line front end: every check as a CSV/JSON report.

Reports are schema-stable rows
    check,param1,param2,lhs,rhs,margin,holds,paper_ref
with one file per subcommand.  ``bilap all`` runs the criteria registry of
``bilap.checks``, the same definitions the acceptance suite asserts; the
other subcommands expose single layers with their own grids.  ``compare``
and ``all`` share ``eig2d.richardson_ladder``; only ``eig2d`` has ``--cache``,
keyed on the exact domain, grid and mode count.  Exit codes:
0 all asserted checks hold, 1 at least one asserted check fails,
2 configuration error (``ConfigError`` from parsing or validating flags and
config keys and values, or an ``OSError``), 3 internal error: any other
``ValueError`` raised by a computation (a violated precondition such as
``avg_upper_bound``'s rho < 1, or a failed factorisation,
``numpy.linalg.LinAlgError``), an ``ArithmeticError`` such as an overflow,
or a failed self-check, such as the profile range check or the eigensolve
certificate.
Reported-only rows never affect the exit code.  Two runs with the same
configuration produce byte-identical output apart from the timestamp
header line.  Importing this module first runs BLAS on one thread
(``OPENBLAS_NUM_THREADS=1``) unless the caller set a thread count.
"""

from __future__ import annotations

import argparse
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

# Every BLAS call behind the reports is small: 194 x 97 GEMM chains for the
# collar profiles, dense eigh on parity blocks of at most 600 unknowns,
# SuperLU and ARPACK on blocks of at most 4,096.  On a 2-core machine a
# second OpenBLAS thread buys no wall time there but spins: one thread cut
# the benchmark's rect_sweep CPU time from 3.14 s to 1.60 s (medians of ten
# pairs) at the same wall time, 1.59 s against 1.61 s.  The spinning thread
# also makes small calls slow in some fresh processes: a first 256^2 eigh
# took 0.92 s in 1 of 16, and four profile-shaped GEMM chains 0.06-0.10 s in
# 6 of 16, against at most 0.019 s and 0.002 s in all 16 on one thread.
# numpy's and scipy's bundled OpenBLAS read the variable when they load, so
# this works only before numpy is imported; a caller's own setting is kept.
if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from . import avp, checks, eig2d, riesz, semiclassical, spectra1d  # noqa: E402
from .core import (  # noqa: E402
    BCKind,
    BoundaryCondition,
    BoundReport,
    DomainSpec,
    Spectrum,
    dimensional_constants,
)
from .roots1d import gamma_root, proposition_bound_report  # noqa: E402

log = logging.getLogger("bilap")

CSV_COLUMNS = ("check", "param1", "param2", "lhs", "rhs", "margin", "holds", "paper_ref")


class ConfigError(ValueError):
    """A flag or config value the command cannot run with (exit 2)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


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
    """Grid syntax: 'a:b:Nlog', 'a:b:Nlin', or a comma list."""
    try:
        if ":" in text:
            a, b, spec = text.split(":")
            if spec.endswith("log"):
                n = int(spec[:-3])
                return list(np.logspace(math.log10(float(a)), math.log10(float(b)), n))
            if spec.endswith("lin"):
                n = int(spec[:-3])
                return list(np.linspace(float(a), float(b), n))
            raise ValueError("range spec must end in 'log' or 'lin'")
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc


def parse_int_range(text: str) -> list[int]:
    try:
        if ".." in text:
            a, b = text.split("..")
            return list(range(int(a), int(b) + 1))
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad integer range {text!r}: {exc}") from exc


def parse_pair(text: str) -> tuple[int, int]:
    """Derivative pair 'i,j', one of ``spectra1d.ONE_D_PAIRS``."""
    try:
        pair = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad pair {text!r}: {exc}") from exc
    _require(pair in spectra1d.ONE_D_PAIRS,
             f"invalid pair {text!r}; expected one of {spectra1d.ONE_D_PAIRS}")
    return pair


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
    try:
        return BoundaryCondition(kind, poisson_ratio=a)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_admissible(bc: BoundaryCondition, d: int) -> None:
    """``bc.check_admissible(d)``, its ``ValueError`` raised as a ``ConfigError``."""
    try:
        bc.check_admissible(d)
    except ValueError as exc:
        raise ConfigError(f"--a: {exc}") from exc


def _fd_grids(dom: DomainSpec, grids: Sequence[int], k: int) -> Sequence[int]:
    """``grids`` unchanged if each n x n grid of ``dom`` can carry k clamped
    modes: a rectangle, n >= 2 and 1 <= k <= n^2."""
    _require(dom.shape == "rectangle", "finite-difference grids need square:L or rect:LxW")
    for n in grids:
        _require(n >= 2 and 1 <= k <= n * n,
                 f"grid {n} cannot carry k={k} modes (need n >= 2 and 1 <= k <= n^2)")
    return grids


# ----------------------------------------------------------------------------
# Report output
# ----------------------------------------------------------------------------

def _param_columns(report: BoundReport) -> tuple[str, str]:
    items = [f"{k}={v}" for k, v in report.params]
    first = items[0] if items else ""
    rest = ";".join(items[1:]) if len(items) > 1 else ""
    return first, rest


def _float_repr(x: float) -> str:
    return repr(float(x))


def _run_meta(command: str) -> dict:
    """What a JSON report records about the run: the subcommand, the Python,
    numpy and scipy versions, and whichever BLAS thread variables are set."""
    return {
        "command": command,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
    }


def write_report(reports: Sequence[BoundReport], path: Optional[Path],
                 fmt: str, meta: dict | None = None) -> None:
    stamp = datetime.now(timezone.utc).isoformat()
    if fmt == "csv":
        lines = [f"# generated {stamp}", ",".join(CSV_COLUMNS)]
        for r in reports:
            p1, p2 = _param_columns(r)
            row = (r.check, p1, p2, _float_repr(r.lhs), _float_repr(r.rhs),
                   _float_repr(r.margin), str(r.holds).lower(), r.paper_ref)
            lines.append(",".join(_csv_quote(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "timestamp": stamp,
            "meta": meta or {},
            "reports": [
                {
                    "check": r.check,
                    "params": {k: v for k, v in r.params},
                    "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin,
                    "holds": r.holds, "paper_ref": r.paper_ref,
                    "asserted": r.asserted,
                }
                for r in reports
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")

    if path is None:
        sys.stdout.write(text)
    else:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _csv_quote(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


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
    _require(args.n >= 1, "--n must be >= 1")
    reports = []
    for n in range(1, args.n + 1):
        root = gamma_root(n)
        reports.append(BoundReport.value_row(
            "gamma", root.gamma, "1-d-ev-equation", params={"n": n, "method": root.method}))
        reports.append(BoundReport.less_equal(
            "gamma-residual", root.residual, 1e-9, "1-d-ev-equation", params={"n": n}))
    reports.extend(proposition_bound_report(args.n))
    return reports


def cmd_spectrum1d(args) -> list[BoundReport]:
    pair = parse_pair(args.pair)
    _require(args.count >= 1, "--count must be >= 1")
    _require(0.0 < args.length < math.inf, "--length must be positive and finite")
    spec = spectra1d.spectrum_1d(pair, args.count, args.length)
    reports = [BoundReport.value_row(
        "eigenvalue", v, "riesz-1-d", params={"pair": pair, "n": n})
        for n, v in enumerate(spec.values, start=1)]
    reports.extend(spectra1d.identity_check(min(args.count, 50)))
    return reports


def cmd_riesz1d(args) -> list[BoundReport]:
    pair = parse_pair(args.pair)
    zs = parse_range(args.z)
    _require(all(math.isfinite(z) and z >= 0.0 for z in zs), "--z values must be finite and >= 0")
    return checks.riesz_rows(pair, zs)


def cmd_lemma_onedim(args) -> list[BoundReport]:
    radii = parse_range(args.r_grid)
    _require(all(0.0 <= r < math.inf for r in radii), "--r-grid values must be finite and >= 0")
    return checks.lattice_rows(radii)


def cmd_constants(args) -> list[BoundReport]:
    dims = parse_int_range(args.dims)
    _require(all(d >= 1 for d in dims), "--dims must be >= 1")
    _require(-1.0 < args.a <= 1.0, "--a must lie in (-1, 1]")
    if max(dims) >= 2:  # (-1/(d-1), 1] narrows as d grows
        _check_admissible(parse_bc("navier", args.a), max(dims))
    reports = []
    for d in dims:
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
    ks = parse_int_range(args.k)
    _require(dom.dimension >= 2, "predict needs square:L or rect:LxW")
    _require(all(k >= 1 for k in ks), "--k must be >= 1")
    _check_admissible(bc, dom.dimension)
    reports = []
    for k in ks:
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
    _require(all(k >= 1 for k in ks), "--k must be >= 1")
    _require(all(0.0 < v < math.inf for v in (*zs, *ts)),
             "--z and --t values must be positive and finite")
    ball = avp.inscribed_ball_profile(dom)
    profiles = [ball]
    if dom.shape == "rectangle":
        _require(0.0 < args.h <= dom.inradius, f"--h must lie in (0, {dom.inradius}]")
        _require(args.grid_res >= 64, "--grid-res must be >= 64")
        profiles.append(avp.mollified_indicator_profile(dom, args.h, args.grid_res))
    reports = []
    for k in ks:
        for prof in profiles:
            reports.append(BoundReport.value_row(
                "avg-upper-bound", avp.avg_upper_bound(prof, k),
                "evsums-DirichletbiLaplacian1", params={"k": k, "profile": prof.kind}))
        reports.append(BoundReport.value_row(
            "rough-bound", avp.rough_bound(dom, k),
            "rough_estimate_bilaplacian", params={"k": k}))
        try:
            main, second, rem = avp.explicit_sum_bound(dom, k)
            reports.append(BoundReport.value_row(
                "explicit-sum-bound", main + second + rem, "explicit_sum",
                params={"k": k, "main": main, "second": second, "remainder": rem}))
        except avp.ThresholdError:
            pass
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
    _require(args.k >= 1, "--k must be >= 1")
    spec = spectra1d.spectrum_1d((2, 3), args.k + 1)
    return avp.kroeger_laptev_report(spec, DomainSpec.interval(1.0), args.k)


def cmd_eig2d(args) -> list[BoundReport]:
    """``--k`` clamped eigenvalues on each grid of ``--grids`` in the order
    given; the cache serves only a spectrum of the same grid and k."""
    dom = parse_domain(args.domain)
    reports = []
    for n in _fd_grids(dom, parse_int_range(args.grids), args.k):
        key = spectrum_cache_key(dom, n, args.k)
        t0 = time.perf_counter()
        spec = load_spectrum(key, args.cache) if args.cache else None
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
    """Comparison chain with Richardson bands from the three finest grids."""
    dom = parse_domain(args.domain)
    grids = sorted(set(parse_int_range(args.grids)))
    _require(len(grids) >= 3, f"compare needs at least three distinct grids, got {args.grids!r}")
    limits, bands = eig2d.richardson_ladder(
        [eig2d.clamped_spectrum_fd(dom, n, args.k) for n in _fd_grids(dom, grids[-3:], args.k)],
        args.k)
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
    p.add_argument("--grids", default="32,64,128",
                   help="at least three distinct grids; the finest three are solved")
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
        write_report(reports, args.out, args.format, meta=_run_meta(args.command))
    except (ConfigError, OSError) as exc:  # load_config raises JSON errors as ConfigError
        print(f"bilap: configuration error: {exc}", file=sys.stderr)
        return 2
    # any other ValueError, numpy's LinAlgError included, or ArithmeticError
    # (an overflow) comes from a computation; ResolutionError and _certify
    # failures are RuntimeErrors
    except (ArithmeticError, AssertionError, RuntimeError, ValueError) as exc:
        print(f"bilap: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    failed = sum(1 for r in reports if r.asserted and not r.holds)
    if failed:
        print(f"bilap: {failed} asserted check(s) failed", file=sys.stderr)
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
