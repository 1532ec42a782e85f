"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install()`` replaces every public function of each layer module with
a timing wrapper, at every name the function is looked up through: a function
imported by name elsewhere (``cli.gamma_root``, ``spectra1d.gamma_value``) is
replaced there too.  No file of the package changes.  Spans keep a parent
link, so a span's self time is its duration minus that of its children, and
the self times of all spans plus the time outside any span make up the wall
time of the traced commands.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("roots1d", "spectra1d", "riesz", "semiclassical", "avp", "eig2d")
# cli is timed only where it writes reports and touches the spectrum cache;
# the cmd_* loops around the layer calls are the remainder, cli.other_s.
CLI_SPANS = {"write_report": "write", "load_spectrum": "cache_read", "cache_spectrum": "cache_write"}
DEFAULT_BUCKET = {"roots1d": "solve", "spectra1d": "build", "riesz": "mean",
                  "semiclassical": "coeff", "avp": "bound", "eig2d": "solve"}
BUCKET = {
    "riesz.lemma_onedim_bounds": "lattice",
    "avp.inscribed_ball_profile": "profile",
    "avp.mollified_indicator_profile": "profile",
    "eig2d.assemble_clamped_bilaplacian": "assemble",
    "eig2d.assemble_dirichlet_laplacian": "assemble",
}


def bucket(name: str) -> str:
    layer, func = name.split(".", 1)
    if layer == "cli":
        return f"cli.{CLI_SPANS[func]}_s"
    return f"{layer}.{BUCKET.get(name, DEFAULT_BUCKET[layer])}_s"


class Span:
    __slots__ = ("command", "name", "parent", "start", "end", "child", "info")

    def __init__(self, command: int, name: str, parent: "Span | None") -> None:
        self.command = command
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _arguments(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _solve_info(fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    op = a["op"]
    return {"grid": f"{op.grid.nx}x{op.grid.ny}", "k": a["k"], "dim": op.dim,
            "dense": op.dim <= a["dense_limit"], "domain": list(op.grid.dom.lengths)}


def _profile_cells(fn, args, kwargs, result):
    # Size of the sampled grid that mollified_indicator_profile convolves,
    # computed from its arguments with the same formula.
    a = _arguments(fn, args, kwargs)
    lx, ly = a["dom"].lengths
    target = a["h"] / a["grid_res"]
    mx = 2 * max(2, math.ceil(lx / (2.0 * target)))
    my = 2 * max(2, math.ceil(ly / (2.0 * target)))
    return {"cells": (mx + 1) * (my + 1)}


INFO = {
    "spectra1d.spectrum_1d": lambda fn, a, kw, r: {"count": _arguments(fn, a, kw)["count"]},
    "eig2d.smallest_eigs": _solve_info,
    "avp.mollified_indicator_profile": _profile_cells,
    "cli.load_spectrum": lambda fn, a, kw, r: {"hit": r is not None},
    "cli.write_report": lambda fn, a, kw, r: {"rows": len(_arguments(fn, a, kw)["reports"])},
}


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    """Spans of one worker, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = 0
        self._stack: list[Span] = []
        self.originals: dict[str, object] = {}

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bilap.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and _is_function(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        cli = importlib.import_module("bilap.cli")
        for name in CLI_SPANS:
            obj = getattr(cli, name)
            targets[id(obj)] = (obj, f"cli.{name}")
        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bilap" or mod_name.startswith("bilap."):
                for name, value in list(vars(mod).items()):
                    if id(value) in wrappers and targets[id(value)][0] is value:
                        setattr(mod, name, wrappers[id(value)])
        self.originals = {name: obj for obj, name in targets.values()}

    def _wrap(self, fn, name: str):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self.command, name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
            if info is not None:
                span.info = info(fn, args, kwargs, result)
            return result

        return traced

    def metrics(self, wall_s: float) -> dict:
        """Per-layer figures of the traced commands, whose wall time is ``wall_s``."""
        m: dict = defaultdict(float)
        covered = 0.0
        solves = set()
        for s in self.spans:
            m[bucket(s.name)] += s.duration - s.child
            if s.parent is None:
                covered += s.duration
            layer = s.name.split(".", 1)[0]
            if layer == "semiclassical" and (s.parent is None or not s.parent.name.startswith(layer)):
                m["semiclassical.coeff_calls"] += 1
            if s.name == "roots1d.solve_gamma":
                m["roots1d.solves"] += 1
            elif s.name == "spectra1d.spectrum_1d":
                m["spectra1d.builds"] += 1
                m["spectra1d.values_built"] += s.info["count"]
                p = s.parent
                while p is not None and p.name != "riesz.riesz_mean":
                    p = p.parent
                m["riesz.extend_builds"] += p is not None
            elif s.name == "riesz.riesz_mean":
                m["riesz.mean_calls"] += 1
            elif s.name == "riesz.lemma_onedim_bounds":
                m["riesz.lattice_calls"] += 1
            elif s.name in ("avp.inscribed_ball_profile", "avp.mollified_indicator_profile"):
                m["avp.profiles"] += 1
                m["avp.profile_cells"] += s.info["cells"] if s.info else 0
            elif s.name == "eig2d.smallest_eigs":
                i = s.info
                m["eig2d.solves"] += 1
                m[f"eig2d.solve_s.{i['grid']}.k{i['k']}"] += s.duration
                solves.add((tuple(i["domain"]), i["grid"]))
                if i["dense"]:
                    m["eig2d.dense_solves"] += 1
                    m["eig2d.dense_bytes"] += i["dim"] ** 2 * 8
                else:
                    m["eig2d.sparse_solves"] += 1
            elif s.name == "cli.load_spectrum":
                m["cli.cache_lookups"] += 1
                m["cli.cache_hits"] += s.info["hit"]
            elif s.name == "cli.write_report":
                m["cli.rows"] += s.info["rows"]
        m["cli.other_s"] = wall_s - covered
        m["trace.wall_s"] = wall_s
        m["riesz.extend_ratio"] = _ratio(m.pop("riesz.extend_builds", 0), m["riesz.mean_calls"])
        m["eig2d.unique_solve_ratio"] = _ratio(len(solves), m["eig2d.solves"])
        m["cli.cache_hit_ratio"] = _ratio(m["cli.cache_hits"], m["cli.cache_lookups"])
        info = self.originals["roots1d.gamma_root"].cache_info()
        m["roots1d.cache_hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
        parts = sum(v for k, v in m.items() if k.endswith("_s") and k.count(".") == 1
                    and not k.startswith("trace."))
        if abs(parts - wall_s) > 1e-6 * max(wall_s, 1.0):
            raise RuntimeError(f"layer self times {parts} do not add up to wall {wall_s}")
        return dict(m)

    def write(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "command": s.command, "name": s.name,
                    "parent": index[id(s.parent)] if s.parent is not None else None,
                    "start": s.start, "end": s.end, "self_s": s.duration - s.child,
                    "info": s.info}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
