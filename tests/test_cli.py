"""CLI: parsing, report schema, reproducibility, caching, exit codes."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilap import avp, checks, cli, eig2d, spectra1d
from bilap.cli import (
    CSV_COLUMNS,
    ConfigError,
    build_parser,
    cache_spectrum,
    exit_code,
    load_config,
    load_spectrum,
    main,
    parse_domain,
    parse_int_range,
    parse_range,
    spectrum_cache_key,
    write_report,
)
from bilap.core import MAX_LENGTH, MIN_LENGTH, BoundReport, DomainSpec, InputError, Spectrum
from bilap.spectra1d import spectrum_1d

# The benchmark's reference reports and row comparison, read-only.
_spec = importlib.util.spec_from_file_location(
    "bench_check", Path(__file__).resolve().parents[1] / "bench" / "check.py")
bench_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_check)


def _rows(path: Path) -> list[str]:
    """A CSV report without its timestamp line."""
    return path.read_text().splitlines()[1:]


class TestParsing:
    def test_domains(self):
        assert parse_domain("interval:2").lengths == (2.0,)
        assert parse_domain("square:1").lengths == (1.0, 1.0)
        assert parse_domain("rect:2x0.5").lengths == (2.0, 0.5)
        with pytest.raises(ConfigError):
            parse_domain("disk:1")
        with pytest.raises(ConfigError):
            parse_domain("rect:2")

    def test_ranges(self):
        log = parse_range("1:100:3log")
        assert log == pytest.approx([1.0, 10.0, 100.0])
        lin = parse_range("0:1:5lin")
        assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert parse_range("1.5,2.5") == [1.5, 2.5]
        with pytest.raises(ConfigError):
            parse_range("1:10:zlog")


# admissible lengths (core.check_length), written by their exact repr, and
# positive finite lengths inside and around that range: any of them, the
# admissible ones, its ends and the floats next to its ends
lengths = st.floats(MIN_LENGTH, MAX_LENGTH)
any_lengths = (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | lengths
               | st.sampled_from([math.nextafter(s, t) for s in (MIN_LENGTH, MAX_LENGTH)
                                  for t in (0.0, s, math.inf)]))
float_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1).map(
    lambda v: (v, ",".join(map(repr, v))))
grid_specs = st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.integers(2, 50),
                       st.sampled_from(["log", "lin"]))
int_lists = st.lists(st.integers(), min_size=1).map(lambda v: (v, ",".join(map(str, v))))
int_spans = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))
# appended to a valid spec, junk without digits or "," ":" "." makes it invalid
junk = st.text(alphabet="xyz#@!?;/", min_size=1, max_size=4)


class TestParserProperties:
    @given(a=any_lengths, b=lengths)
    def test_domain_round_trip(self, a, b):
        if MIN_LENGTH <= a <= MAX_LENGTH:
            assert parse_domain(f"interval:{a!r}").lengths == (a,)
            assert parse_domain(f"square:{a!r}").lengths == (a, a)
            assert parse_domain(f"rect:{a!r}x{b!r}").lengths == (a, b)
        else:
            for spec in (f"interval:{a!r}", f"square:{a!r}", f"rect:{b!r}x{a!r}"):
                with pytest.raises(InputError, match="outside"):
                    parse_domain(spec)

    @given(side=lengths, shape=st.sampled_from(["interval:", "square:", "rect:1.0x"]),
           tail=junk)
    def test_domain_with_junk_is_a_config_error(self, side, shape, tail):
        with pytest.raises(ConfigError):
            parse_domain(f"{shape}{side!r}{tail}")

    @given(shape=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=10), side=lengths)
    def test_unknown_shape_is_a_config_error(self, shape, side):
        if shape not in ("interval", "square", "rect"):
            with pytest.raises(ConfigError):
                parse_domain(f"{shape}:{side!r}")

    @given(floats=float_lists, grid=grid_specs, ints=int_lists, span=int_spans)
    def test_range_round_trip(self, floats, grid, ints, span):
        assert parse_range(floats[1]) == floats[0]
        a, b, n, kind = grid
        values = parse_range(f"{a!r}:{b!r}:{n}{kind}")
        assert len(values) == n
        assert values[0] == pytest.approx(a, rel=1e-12)
        assert values[-1] == pytest.approx(b, rel=1e-12)
        assert parse_int_range(ints[1]) == ints[0]
        lo, hi = span
        if lo <= hi:
            assert parse_int_range(f"{lo}..{hi}") == list(range(lo, hi + 1))
        else:  # an empty range would check nothing
            with pytest.raises(ConfigError, match="is empty"):
                parse_int_range(f"{lo}..{hi}")

    @given(floats=float_lists, grid=grid_specs, ints=int_lists, span=int_spans, tail=junk)
    def test_range_with_junk_is_a_config_error(self, floats, grid, ints, span, tail):
        a, b, n, kind = grid
        for spec in (floats[1], f"{a!r}:{b!r}:{n}{kind}"):
            with pytest.raises(ConfigError):
                parse_range(spec + tail)
        for spec in (ints[1], f"{span[0]}..{span[1]}"):
            with pytest.raises(ConfigError):
                parse_int_range(spec + tail)


# Report text: quotes, backslashes, control and line characters, non-ASCII.
_report_text = st.text(st.sampled_from('",\\\n\r\t\x00\x1f =;a\u00e9\u2028\U0001f600')
                       | st.characters(), max_size=6)
_report_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | st.floats()
_report_lists = st.lists(st.builds(
    BoundReport, _report_text, st.lists(st.tuples(_report_text, _report_text), max_size=3)
    .map(tuple), _report_floats, _report_floats, _report_floats, st.booleans(),
    _report_text, st.booleans()), max_size=4)
_metas = st.none() | st.dictionaries(
    _report_text, _report_text | st.dictionaries(_report_text, _report_text, max_size=2),
    max_size=3)


def _written(reports, fmt: str, meta: dict | None = None) -> str:
    """What ``write_report`` writes to standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write_report(reports, None, fmt, meta)
    return buf.getvalue()


class TestReports:
    def test_csv_schema(self, tmp_path):
        rows = [BoundReport.less_equal("a-check", 1.0, 2.0, "ref", params={"n": 1})]
        out = tmp_path / "r.csv"
        write_report(rows, out, "csv")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert lines[2] == "a-check,n=1,,1.0,2.0,1.0,true,ref"

    def test_reproducible_apart_from_timestamp(self, tmp_path):
        rows = [BoundReport.less_equal("c", 0.5, 1.5, "ref", params={"z": 0.125})]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(rows, a, "csv")
        write_report(rows, b, "csv")
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

    def test_json_payload(self, tmp_path):
        rows = [BoundReport.less_equal("c", 1.0, 2.0, "ref")]
        out = tmp_path / "r.json"
        write_report(rows, out, "json", meta={"command": "x"})
        payload = json.loads(out.read_text())
        assert payload["meta"]["command"] == "x"
        assert payload["reports"][0]["holds"] is True

    @settings(deadline=None)
    @given(reports=_report_lists, meta=_metas)
    @example(reports=[], meta=None)
    @example(reports=[BoundReport("c", (), math.nan, math.inf, -0.0, False, "", False),
                      BoundReport('q"\\\n\x00\u00e9', (("b", "1"), ("a", "\t"), ("b", "2")),
                                  -math.inf, 0.0, 1e300, True, "\u2028")],
             meta={"m": {"x": "\u00fc"}, "": ""})
    def test_json_round_trips_every_row(self, reports, meta):
        text = _written(reports, "json", meta)
        payload = json.loads(text)
        assert payload["meta"] == (meta or {})
        assert len(payload["reports"]) == len(reports)
        for row, r in zip(payload["reports"], reports):
            assert list(row) == sorted(BoundReport._fields)
            assert row["params"] == dict(r.params)
            assert repr([row[f] for f in BoundReport._fields if f != "params"]) == repr(
                [v for f, v in zip(BoundReport._fields, r) if f != "params"])

        # a line break after each comma between members or elements, and
        # nowhere else, so that no line holds two members of one object
        def breaks(value) -> int:
            items = list(value.values() if isinstance(value, dict) else value)
            return max(len(items) - 1, 0) + sum(breaks(v) for v in items
                                                if isinstance(v, (dict, list)))

        assert text.endswith("}\n") and text.count("\n") == 1 + breaks(payload)
        assert text.count("\n") == text.count(",\n") + 1

    @settings(deadline=None)
    @given(reports=_report_lists)
    def test_csv_rows_equal_the_quoted_join(self, reports):
        def quote(value: str) -> str:
            if any(ch in value for ch in ",\"\n"):
                return '"' + value.replace('"', '""') + '"'
            return value

        lines = [",".join(CSV_COLUMNS)]
        for r in reports:
            row = (r.check, *cli._param_columns(r), repr(r.lhs), repr(r.rhs),
                   repr(r.margin), str(r.holds).lower(), r.paper_ref)
            lines.append(",".join(quote(v) for v in row))
        text = _written(reports, "csv")
        assert text.startswith("# generated ")
        assert text.split("\n", 1)[1] == "\n".join(lines) + "\n"

    def test_main_json_meta_records_versions_and_blas_threads(self, tmp_path, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        out = tmp_path / "c.json"
        assert main(["constants", "--dims", "2", "--format", "json", "--out", str(out)]) == 0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert json.loads(out.read_text())["meta"] == {
            "command": "constants",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": {"OMP_NUM_THREADS": "3"},
        }

    def test_exit_code_ignores_reported_only_rows(self):
        ok = BoundReport.less_equal("a", 1.0, 2.0, "r")
        soft_fail = BoundReport.less_equal("b", 2.0, 1.0, "r", asserted=False)
        hard_fail = BoundReport.less_equal("c", 2.0, 1.0, "r")
        assert exit_code([ok, soft_fail]) == 0
        assert exit_code([ok, hard_fail]) == 1


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Run in a fresh interpreter: {prelude}, then `import bilap.cli`; print the
# thread variables then set and the thread count of every mapped OpenBLAS.
_IMPORT_PROBE = """
import ctypes, json, os, sys
{prelude}
import bilap.cli
threads = {{}}
if sys.platform.startswith("linux"):
    with open("/proc/self/maps") as fh:
        libs = sorted({{line.split()[-1] for line in fh if "openblas" in line.lower()}})
    for path in libs:
        lib = ctypes.CDLL(path)
        threads[path] = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[path] = fn()
                break
print(json.dumps({{"env": {{v: os.environ[v] for v in {names!r} if v in os.environ}},
                  "threads": threads}}))
"""


def _after_cli_import(env: dict, prelude: str = "") -> dict:
    """Import ``bilap.cli`` in a fresh interpreter whose environment holds
    none of the BLAS thread variables apart from ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    code = _IMPORT_PROBE.format(prelude=prelude, names=BLAS_THREAD_VARS)
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def default_import():
    return _after_cli_import({})


class TestBlasThreads:
    """The CLI runs BLAS on one thread unless the caller chose a count."""

    def test_default_is_one_thread(self, default_import):
        assert default_import["env"] == {"OPENBLAS_NUM_THREADS": "1"}
        # no OpenBLAS mapped (another BLAS, or not Linux): nothing more to check
        assert all(n == 1 for n in default_import["threads"].values()), default_import

    def test_user_setting_is_kept(self, default_import):
        assert default_import["env"] == {"OPENBLAS_NUM_THREADS": "1"}
        assert _after_cli_import({"OPENBLAS_NUM_THREADS": "2"})["env"] == {
            "OPENBLAS_NUM_THREADS": "2"}
        assert _after_cli_import({"OMP_NUM_THREADS": "2"})["env"] == {"OMP_NUM_THREADS": "2"}

    def test_import_after_numpy_leaves_environment(self, default_import):
        assert default_import["env"] == {"OPENBLAS_NUM_THREADS": "1"}
        assert _after_cli_import({}, "import numpy")["env"] == {}


SQUARE = DomainSpec.square(1.0)


class TestSpectrumCache:
    def test_round_trip_value_exact(self, tmp_path):
        key = spectrum_cache_key(SQUARE, 8, 12)
        spec = spectrum_1d((0, 1), 12)
        cache_spectrum(key, spec, tmp_path)
        assert load_spectrum(key, tmp_path) == spec

    def test_distinct_keys_for_distinct_params(self):
        problems = [(SQUARE, 8, 4), (SQUARE, 8, 5), (SQUARE, 9, 4),
                    (DomainSpec.square(2.0), 8, 4), (DomainSpec.rectangle(1.0, 2.0), 8, 4),
                    (DomainSpec.rectangle(2.0, 1.0), 8, 4)]
        assert len({spectrum_cache_key(*p) for p in problems}) == len(problems)

    def test_corrupt_cache_returns_none(self, tmp_path, caplog):
        key = spectrum_cache_key(SQUARE, 8, 4)
        path = cache_spectrum(key, spectrum_1d((0, 1), 4), tmp_path)
        path.write_text("{not json")
        assert load_spectrum(key, tmp_path) is None

    def test_missing_key_returns_none(self, tmp_path):
        assert load_spectrum("nope", tmp_path) is None

    def test_entry_under_another_key_is_a_miss(self, tmp_path, caplog):
        key, other = spectrum_cache_key(SQUARE, 8, 4), spectrum_cache_key(SQUARE, 8, 5)
        path = cache_spectrum(key, spectrum_1d((0, 1), 4), tmp_path)
        path.rename(tmp_path / f"{other}.json")
        assert load_spectrum(other, tmp_path) is None
        assert "recomputing" in caplog.text

    @given(data=st.data(), lx=lengths, ly=lengths, n=st.integers(2, 200),
           values=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           min_size=1, max_size=8).map(sorted))
    def test_round_trip_under_arbitrary_lengths(self, data, lx, ly, n, values):
        def nearby(s):  # s itself, the next admissible float up, or any length
            up = math.nextafter(s, math.inf)
            return data.draw(st.sampled_from([s, up] if up <= MAX_LENGTH else [s]) | lengths)

        k = len(values)
        key = spectrum_cache_key(DomainSpec.rectangle(lx, ly), n, k)
        spec = Spectrum(tuple(values))
        with tempfile.TemporaryDirectory() as tmp:
            cache_spectrum(key, spec, Path(tmp))
            assert load_spectrum(key, Path(tmp)) == spec
        other = DomainSpec.rectangle(nearby(lx), nearby(ly))
        other_n, other_k = (data.draw(st.sampled_from([v, v + 1])) for v in (n, k))
        same = (tuple(map(repr, other.lengths)) == (repr(lx), repr(ly))
                and (other_n, other_k) == (n, k))
        assert (spectrum_cache_key(other, other_n, other_k) == key) == same


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)


class TestConfig:
    @pytest.mark.parametrize("text", ["[1, 2]", '"n"', "3", "null", "{not json",
                                      '{"command": "all"}'])
    def test_a_config_that_is_no_object_of_flags_exits_2(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "roots", "--n", "1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_config_choice_is_checked_before_the_command_runs(self, tmp_path, capsys,
                                                             monkeypatch):
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "constants", lambda args: ran.append(args) or [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        assert main(["--config", str(cfg), "constants"]) == 2
        assert "'xml' of --format" in capsys.readouterr().err
        assert ran == []
        cfg.write_text(json.dumps({"format": "json"}))
        assert main(["--config", str(cfg), "constants"]) == 0
        assert len(ran) == 1

    def test_config_key_of_no_subcommand_exits_2(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "roots", lambda args: ran.append(args) or [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"formt": "json"}))
        assert main(["--config", str(cfg), "roots"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'formt'" in err
        assert ran == []
        cfg.write_text(json.dumps({"grid_res": 80}))  # a flag of avp only
        assert main(["--config", str(cfg), "roots"]) == 0
        assert len(ran) == 1

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert main(["--config", str(cfg), "roots", "--n", "1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @given(value=json_values)
    def test_only_an_object_is_a_config(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(value))
            if isinstance(value, dict) and "command" not in value:
                assert load_config(cfg) == {k: str(v) for k, v in value.items()
                                            if v is not None}
            else:
                with pytest.raises(ConfigError):
                    load_config(cfg)

    @given(value=json_scalars.filter(lambda v: v is not None)
           | st.lists(st.integers(), max_size=3))
    def test_config_values_parse_like_flags(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"n": value}))
            parser = build_parser(load_config(cfg))
        try:
            expected = int(str(value))
        except ValueError:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["roots"])
            assert exc.value.code == 2
        else:
            assert parser.parse_args(["roots"]).n == expected
        assert parser.parse_args(["roots", "--n", "4"]).n == 4  # a flag wins


class TestMain:
    def test_roots_subcommand(self, tmp_path):
        out = tmp_path / "roots.csv"
        assert main(["roots", "--n", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [l for l in lines if l.startswith("gamma-residual")]
        assert len(rows) == 20
        assert all(float(r.split(",")[3]) < 1e-9 for r in rows)

    @pytest.mark.parametrize("argv, criterion, family", [
        (["roots", "--n", str(checks.ROOT_COUNT)], 1, "gamma-residual,"),
        (["kroeger-laptev", "--k", str(checks.KL_K)], 10, "kroeger-laptev-"),
    ])
    def test_subcommand_rows_are_the_criterion_rows(self, argv, criterion, family,
                                                    tmp_path, check_context):
        # the Young lattice row of criterion 10 is the registry's alone
        (check,) = [c for c in checks.REGISTRY if criterion in c.ids]
        out, ref = tmp_path / "command.csv", tmp_path / "criterion.csv"
        assert main([*argv, "--out", str(out)]) == 0
        write_report(check.run(check_context), ref, "csv")
        rows = [[line for line in _rows(path) if line.startswith(family)] for path in (out, ref)]
        assert rows[0] and rows[0] == rows[1]

    def test_roots_stop_at_the_last_normal_defect(self, tmp_path, capsys):
        # past n = 225 the defect 2 exp(-pi (n+1/2)) is a subnormal double
        out = tmp_path / "roots.csv"
        assert main(["roots", "--n", "225", "--out", str(out)]) == 0
        assert "defect-upper-bracket,n=225," in out.read_text()
        assert main(["roots", "--n", "226", "--out", str(out / "none")]) == 2
        assert "--n must lie in 1..225" in capsys.readouterr().err
        assert not (out / "none").exists()

    def test_riesz1d_subcommand(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["riesz1d", "--pair", "0,2", "--z", "1e2:1e8:64log",
                     "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l.startswith("riesz-")]
        assert len(lines) == 128
        assert all(l.split(",")[-2] == "true" for l in lines)

    def test_config_error_exit_2(self, tmp_path, capsys):
        assert main(["compare", "--domain", "triangle:1"]) == 2

    @pytest.mark.parametrize("command", ["spectrum1d", "riesz1d"])
    @pytest.mark.parametrize("pair", ["0,1,7", "1", "1,0", "0,x"])
    def test_invalid_pair_exits_2(self, command, pair, capsys):
        assert main([command, "--pair", pair]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_profile_range_fault_exits_3(self, tmp_path, capsys, monkeypatch):
        # a mollifier with a negative lobe drives phi outside [0, 1]
        samples = avp._kernel_samples

        def lobed(h2, dx, dy):
            eta, gx, gy, lap = samples(h2, dx, dy)
            eta = eta.copy()
            eta[: eta.shape[0] // 2] *= -1.0
            return eta, gx, gy, lap

        monkeypatch.setattr(avp, "_kernel_samples", lobed)
        assert main(["avp", "--domain", "square:1", "--k", "1..2",
                     "--out", str(tmp_path / "a.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("bilap: internal error: AssertionError: phi range")

    def test_eigensolve_certificate_fault_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(eig2d, "RESIDUAL_TOL", 0.0)  # no residual can pass
        assert main(["eig2d", "--domain", "square:1", "--grids", "8", "--k", "3",
                     "--out", str(tmp_path / "e.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("bilap: internal error: RuntimeError: eigenpair")
        assert err[-1].endswith("on the 8x8 grid, even-even block")

    def test_computation_value_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # a profile whose density rho reaches 1 breaks avg_upper_bound's precondition
        ball = avp.inscribed_ball_profile

        def dense_ball(dom):
            prof = ball(dom)
            return dataclasses.replace(prof, l2_sq=2.0 * dom.volume * prof.sup_sq)

        monkeypatch.setattr(avp, "inscribed_ball_profile", dense_ball)
        assert main(["avp", "--domain", "interval:1", "--k", "1",
                     "--out", str(tmp_path / "a.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("bilap: internal error: ValueError: profile density")

    @pytest.mark.parametrize("argv", [
        ["roots", "--n", "0"],
        ["spectrum1d", "--count", "0"],
        ["spectrum1d", "--length", "0"],
        ["spectrum1d", "--length", "inf"],
        ["riesz1d", "--z", "nan"],
        ["lemma-onedim", "--r-grid", "nan"],
        ["constants", "--dims", "0..2"],
        ["constants", "--a", "-1"],
        ["predict", "--bc", "navier", "--a", "2"],
        ["predict", "--domain", "interval:1"],
        ["avp", "--k", "0"],
        ["avp", "--t", "0"],
        ["avp", "--h", "0.6"],
        ["avp", "--grid-res", "10"],
        ["eig2d", "--grids", "3", "--k", "10"],
        ["eig2d", "--grids", "1", "--k", "1"],
        ["eig2d", "--k", "0"],
        ["eig2d", "--domain", "interval:1"],
        ["compare", "--grids", "2,3,4", "--k", "5"],
        ["compare", "--domain", "interval:1", "--grids", "8,12,16"],
        ["lemma-onedim", "--r-grid", "inf"],
        ["predict", "--bc", "navier", "--a", "-5"],
        ["avp", "--z", "inf"],
        ["avp", "--t", "inf"],
        ["kroeger-laptev", "--k", "0"],
        ["kroeger-laptev", "--k", "-5"],
        ["constants", "--dims", "2..3", "--a", "-0.6"],
        ["predict", "--bc", "dirichlet", "--a", "-5", "--k", "1"],
        ["riesz1d", "--z", "0"],
        # an empty range would check nothing
        ["riesz1d", "--z", "1:2:0log"],
        ["lemma-onedim", "--r-grid", "0:1:0lin"],
        ["eig2d", "--grids", "5..3"],
        ["predict", "--k", "5..1"],
        ["constants", "--dims", "3..1"],
        ["avp", "--k", "5..1"],
        # the second grid fails after the first is solved, before any report
        ["eig2d", "--grids", "8,3", "--k", "10"],
        # spectra longer than spectra1d.MAX_COUNT
        ["riesz1d", "--z", "1e40"],
        ["spectrum1d", "--count", "1000001"],
        ["kroeger-laptev", "--k", "1000000"],
        # past riesz.MAX_LATTICE_R float lattice rows misjudge the lemma
        ["lemma-onedim", "--r-grid", "1627"],
        ["lemma-onedim", "--r-grid", "800.5"],
        # past avp.MAX_GRID_RES and avp.MAX_AXIS_SAMPLES
        ["avp", "--grid-res", "1025"],
        ["avp", "--h", "9.6e-5"],
        ["avp", "--h", "5e-324"],  # h / grid_res rounds to 0
        # past avp.MAX_RIESZ_Z, where (z - lap ratio)^(d/4+1) overflowed
        ["avp", "--z", "1e206"],
        # lengths outside [core.MIN_LENGTH, core.MAX_LENGTH], whose powers
        # overflowed or underflowed to a division by zero
        ["avp", "--domain", "rect:1e-300x1"],
        ["avp", "--domain", "interval:1e-300"],
        ["avp", "--domain", "rect:1e300x1e300", "--k", "1"],
        ["predict", "--k", "1..3", "--domain", "rect:1e-300x1"],
        ["spectrum1d", "--length", "1e-100"],
        ["eig2d", "--domain", "rect:1e-300x1", "--grids", "4", "--k", "2"],
        ["compare", "--domain", "rect:1e-100x1", "--grids", "4,8", "--k", "2"],
        # ranges longer than cli.MAX_RANGE_VALUES, refused before they are built
        ["riesz1d", "--z", "1:2:100000000000lin"],
        ["avp", "--k", "1..100000000000"],
    ])
    def test_invalid_flag_values_exit_2(self, argv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [MemoryError("no room"), IndexError("off the end")])
    def test_any_unexpected_exception_exits_3(self, exc, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise exc

        monkeypatch.setattr(checks, "lattice_rows", broken)
        out = tmp_path / "lattice.csv"
        assert main(["lemma-onedim", "--r-grid", "1,2", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"bilap: internal error: {type(exc).__name__}: {exc}"]
        assert not out.exists()

    def test_overflow_exits_3(self, capsys, monkeypatch):
        # a root of 1e300 makes gamma ** 4 overflow a float
        monkeypatch.setattr(spectra1d, "gamma_value", lambda n: 1e300)
        assert main(["spectrum1d", "--pair", "0,1", "--count", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("bilap: internal error: OverflowError:")

    def test_factorisation_fault_exits_3(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError, yet no configuration error
        def singular(op, k):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(eig2d, "smallest_eigs", singular)
        assert main(["eig2d", "--domain", "square:1", "--grids", "8", "--k", "3",
                     "--out", str(tmp_path / "e.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "bilap: internal error: LinAlgError: Singular matrix"

    def test_constants_json_stdout(self, capsys):
        assert main(["constants", "--dims", "2..3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {r["check"] for r in payload["reports"]}
        assert {"ball-volume", "classical-constant", "c1-per-boundary"} <= names

    @pytest.mark.parametrize("argv, rows", [
        (["--dims", "2..3", "--a", "0.2"], 8),
        (["--dims", "2", "--a", "-0.6"], 4),
    ])
    def test_constants_writes_every_boundary_row(self, argv, rows, capsys):
        # Dirichlet takes no Poisson ratio, so its row ignores --a
        assert main(["constants", *argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(r["check"] == "c1-per-boundary" for r in payload["reports"]) == rows

    def test_spectrum1d_and_lemma(self, tmp_path):
        assert main(["spectrum1d", "--pair", "2,3", "--count", "6",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["lemma-onedim", "--r-grid", "0:40:11lin",
                     "--out", str(tmp_path / "l.csv")]) == 0

    def test_kroeger_laptev_subcommand(self, tmp_path):
        assert main(["kroeger-laptev", "--k", "30",
                     "--out", str(tmp_path / "kl.csv")]) == 0

    def test_eig2d_cache_hit(self, tmp_path):
        cache = tmp_path / "cache"
        out = tmp_path / "e.csv"
        assert main(["eig2d", "--domain", "square:1", "--grids", "16", "--k", "4",
                     "--cache", str(cache), "--out", str(out)]) == 0
        assert main(["eig2d", "--domain", "square:1", "--grids", "16", "--k", "4",
                     "--cache", str(cache), "--out", str(out)]) == 0
        text = out.read_text()
        assert "cache_hit=True" in text

    def test_eig2d_cache_tells_nearby_lengths_apart(self, tmp_path):
        cache = tmp_path / "cache"
        out = tmp_path / "e.csv"
        for side in ("1", "1.0000004"):
            assert main(["eig2d", "--domain", f"square:{side}", "--grids", "8", "--k", "3",
                         "--cache", str(cache), "--out", str(out)]) == 0
        assert "cache_hit=False" in out.read_text()
        assert "cache_hit=True" not in out.read_text()

    def test_eig2d_cache_serves_only_the_same_k(self, tmp_path):
        # the first 6 values of a 40-mode solve differ from a 6-mode solve
        cache = tmp_path / "cache"
        reports = {}
        for name, argv in (("fresh", ["--k", "6"]),
                           ("k40", ["--k", "40", "--cache", str(cache)]),
                           ("after_k40", ["--k", "6", "--cache", str(cache)]),
                           ("hit", ["--k", "6", "--cache", str(cache)])):
            out = tmp_path / f"{name}.csv"
            assert main(["eig2d", "--grids", "12", *argv, "--out", str(out)]) == 0
            reports[name] = _rows(out)
        assert reports["after_k40"] == reports["fresh"]
        assert "cache_hit=True" in reports["hit"][1]
        assert [r.replace("cache_hit=True", "cache_hit=False")
                for r in reports["hit"]] == reports["fresh"]

    @pytest.mark.parametrize("grids, k", [("3", 10), ("1", 1)])
    def test_eig2d_cache_serves_no_spectrum_a_solve_refuses(self, grids, k, tmp_path, capsys):
        dom = DomainSpec.rectangle(1.0, 1.5)
        cache = tmp_path / "cache"
        cache_spectrum(spectrum_cache_key(dom, int(grids), k), spectrum_1d((0, 1), k), cache)
        out = tmp_path / "e.csv"
        assert main(["eig2d", "--domain", "rect:1x1.5", "--grids", grids, "--k", str(k),
                     "--cache", str(cache), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_eig2d_cache_entry_of_another_length_is_recomputed(self, tmp_path, caplog):
        cache = tmp_path / "cache"
        cache_spectrum(spectrum_cache_key(SQUARE, 8, 10), spectrum_1d((0, 1), 5), cache)
        out = tmp_path / "e.csv"
        assert main(["eig2d", "--grids", "8", "--k", "10",
                     "--cache", str(cache), "--out", str(out)]) == 0
        rows = _rows(out)[1:]
        assert len(rows) == 10
        assert all("cache_hit=False" in r for r in rows)
        assert "holds 5 values, not 10" in caplog.text

    def test_eig2d_solves_every_listed_grid(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["eig2d", "--grids", "8,12", "--k", "2", "--out", str(out)]) == 0
        params = [r.split(",")[1:3] for r in _rows(out)[1:]]
        assert params == [["j=1", "grid=8;cache_hit=False"], ["j=2", "grid=8;cache_hit=False"],
                          ["j=1", "grid=12;cache_hit=False"], ["j=2", "grid=12;cache_hit=False"]]

    def test_cache_is_an_eig2d_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["all", "--cache", str(tmp_path)])
        assert exc.value.code == 2

    def test_compare_small_grids(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--domain", "square:1", "--grids", "12,24",
                     "--k", "4", "--out", str(out)]) == 0

    def test_compare_refuses_a_finest_pair_not_n_and_2n(self, capsys):
        # the Richardson limit assumes grid ratio 2; 16 -> 24 would put the
        # first limit 12 below the converged value
        assert main(["compare", "--grids", "12,16,24", "--k", "4"]) == 2
        assert "16 and 24 are not n and 2n" in capsys.readouterr().err

    @pytest.mark.parametrize("grids", ["32", "12,12"])
    def test_compare_needs_two_distinct_grids(self, grids, capsys):
        assert main(["compare", "--grids", grids, "--k", "3"]) == 2
        assert "two distinct grids" in capsys.readouterr().err

    def test_compare_solves_the_two_finest_grids(self, tmp_path, monkeypatch):
        solved = []
        solve = eig2d.clamped_spectrum_fd

        def counted(dom, n, k):
            solved.append(n)
            return solve(dom, n, k)

        monkeypatch.setattr(eig2d, "clamped_spectrum_fd", counted)
        reports = []
        for grids in ("6,12,24", "12,24"):
            out = tmp_path / f"{grids}.csv"
            assert main(["compare", "--grids", grids, "--k", "4", "--out", str(out)]) == 0
            reports.append(_rows(out))
        assert solved == [12, 24, 12, 24]
        assert reports[0] == reports[1]

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        out = tmp_path / "roots.csv"
        assert main(["--config", str(cfg), "roots", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if l.startswith("gamma,")]
        assert len(rows) == 3

    def test_full_sweep_subcommand(self, tmp_path, monkeypatch, check_context):
        # the session context already holds every FD spectrum and profile
        monkeypatch.setattr(checks, "Context", lambda: check_context)
        expected = bench_check.load_refs("full_sweep")["all"]
        for fmt in ("json", "csv"):
            out = tmp_path / f"all.{fmt}"
            assert main(["all", "--format", fmt, "--out", str(out)]) == 0
            diff = bench_check.compare(bench_check.read_rows(out, fmt), expected)
            assert diff is None, diff
        payload = json.loads((tmp_path / "all.json").read_text())
        asserted = [r for r in payload["reports"] if r["asserted"]]
        assert len(asserted) > 2000
        assert all(r["holds"] for r in asserted)
        # the odd-index lower bracket rows are present but reported-only
        soft = [r for r in payload["reports"]
                if r["check"] == "defect-lower-bracket" and not r["asserted"]]
        assert soft and not all(r["holds"] for r in soft)
