"""Command-line front end: parsing, precedence, formats, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbstates import cli
from nbstates._text import csv_text, json_text
from nbstates.cli import CliError, main, parse_config, read_grid_csv, run
from nbstates.squeeze import default_eta_grid, squeezing_scan
from nbstates.stats import stats_report


def parse(*argv):
    return parse_config(list(argv))


class TestParsing:
    def test_grid_defaults(self):
        cfg = parse("wigner", "--eta", "0.5", "--m", "1")
        assert (cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max) == (-6, 6, -6, 6)
        assert (cfg.nx, cfg.ny) == (201, 201)
        assert cfg.tail_eps == 1e-12
        assert cfg.format == "csv"

    def test_stats_defaults_to_json(self):
        assert parse("stats", "--eta", "0.5", "--m", "1").format == "json"
        assert parse("stats", "--eta", "0.5", "--m", "1", "--format", "csv").format == "csv"

    def test_window_and_policy_are_built_once(self):
        cfg = parse("wigner", "--eta", "0.5", "--m", "1", "--range", "2", "--tail-eps", "1e-9")
        assert cfg.spec is cfg.spec and cfg.policy is cfg.policy
        assert (cfg.spec.x_min, cfg.spec.y_max, cfg.spec.nx) == (-2.0, 2.0, 201)
        assert cfg.policy.tail_eps == 1e-9

    def test_evolve_defaults_m_to_vacuum(self):
        assert parse("evolve", "--chi-t", "1").m == 0
        assert parse("evolve", "--chi-t", "1", "--scheme", "parametric").m == 0
        assert parse("evolve", "--chi-t", "1", "--m", "3").m == 3

    def test_range_shortcut(self):
        cfg = parse("qfunc", "--eta", "0.5", "--m", "1", "--range", "2.5")
        assert (cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max) == (-2.5, 2.5, -2.5, 2.5)

    def test_range_overrides_explicit_bounds(self):
        cfg = parse(
            "qfunc", "--eta", "0.5", "--m", "1",
            "--x-min", "-1", "--range", "3",
        )
        assert cfg.x_min == -3.0

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("stats", "--eta", "0.5"), "--m"),
            (("stats", "--m", "2"), "--eta"),
            (("sdist", "--eta", "0.5", "--m", "1"), "--s"),
            (("evolve",), "--chi-t"),
            (("stats", "--eta", "1.5", "--m", "1"), "eta"),
            (("stats", "--eta", "0", "--m", "1"), "eta"),
            (("stats", "--eta", "0.5", "--m", "-1"), "m"),
            (("sdist", "--eta", "0.5", "--m", "1", "--s", "0.2"), "s"),
            (("evolve", "--chi-t", "-1"), "chi-t"),
            (("evolve", "--chi-t", "1", "--steps", "1"), "steps"),
            (("evolve", "--chi-t", "1", "--scheme", "parametric", "--m", "2"), "--m"),
            (("wigner", "--eta", "0.5", "--m", "1", "--nx", "1"), "nx"),
            (("wigner", "--eta", "0.5", "--m", "1", "--range", "-2"), "range"),
            (("wigner", "--eta", "0.5", "--m", "1", "--x-min", "2", "--x-max", "-2"), "bounds"),
            (("stats", "--eta", "0.5", "--m", "1", "--tail-eps", "0.1"), "tail-eps"),
            (("wigner", "--eta", "0.5", "--m", "1", "--x-min", "nan"),
             "x-min must be finite, got nan"),
            (("wigner", "--eta", "0.5", "--m", "1", "--x-max", "inf"),
             "x-max must be finite, got inf"),
        ],
    )
    def test_invalid_arguments_name_the_token(self, argv, needle):
        with pytest.raises(CliError, match=needle):
            parse(*argv)

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["stats", "--eta", "0.5", "--m", "1", "--bogus", "3"]) == 1
        assert "--bogus" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "verify" in capsys.readouterr().out

    def test_argparse_refusal_is_one_line(self, capsys):
        assert main(["stats", "--eta", "0.5", "--m", "2.5"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "nbs stats: error: argument --m: invalid int value: '2.5'\n"

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        calls = [
            ["wigner", "--eta", "0.5", "--m", "1", "--nx", "5", "--ny", "3"],
            ["sdist", "--eta", "0.3", "--m", "2", "--s", "-0.5", "--range", "2",
             "--ny", "4", "--format", "json"],
            ["wigner", "--eta", "0.5", "--m", "1", "--ny", "3"],
        ]
        reused = [(parse(*argv), main(argv), capsys.readouterr()) for argv in calls]
        for argv, got in zip(calls, reused):
            cli._build_parser.cache_clear()
            assert (parse(*argv), main(argv), capsys.readouterr()) == got
        # no default leaks from one call into the next
        assert [cfg.nx for cfg, _, _ in reused] == [5, 201, 201]


class TestConfigSources:
    def test_file_fills_and_flag_wins(self, tmp_path):
        f = tmp_path / "run.conf"
        f.write_text("eta = 0.5\nm = 3   # trailing comment\nformat = json\n")
        cfg = parse("stats", "--config", str(f), "--m", "4")
        assert cfg.eta == 0.5
        assert cfg.m == 4
        assert cfg.format == "json"

    def test_env_overrides_default_but_not_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NBS_TAIL_EPS", "1e-9")
        cfg = parse("stats", "--eta", "0.5", "--m", "1")
        assert cfg.tail_eps == 1e-9
        f = tmp_path / "run.conf"
        f.write_text("tail_eps = 1e-10\n")
        cfg = parse("stats", "--eta", "0.5", "--m", "1", "--config", str(f))
        assert cfg.tail_eps == 1e-10
        cfg = parse(
            "stats", "--eta", "0.5", "--m", "1",
            "--config", str(f), "--tail-eps", "1e-11",
        )
        assert cfg.tail_eps == 1e-11

    def test_bad_env_value_is_an_argument_error(self, monkeypatch):
        monkeypatch.setenv("NBS_TAIL_EPS", "soon")
        with pytest.raises(CliError, match="NBS_TAIL_EPS"):
            parse("stats", "--eta", "0.5", "--m", "1")

    @pytest.mark.parametrize(
        "content,needle",
        [
            ("volume = 11\n", "volume"),
            ("m = 2.5\n", "m"),
            ("just a line\n", "key=value"),
            ("format = xml\n", "format must be 'csv' or 'json', got xml"),
            ("x_min = nan\n", "x-min must be finite, got nan"),
        ],
    )
    def test_config_file_errors_name_the_line(self, tmp_path, content, needle):
        # wigner reads every key named here (stats reads no window)
        f = tmp_path / "bad.conf"
        f.write_text(content)
        with pytest.raises(CliError, match=needle):
            parse("wigner", "--eta", "0.5", "--m", "1", "--config", str(f))

    @pytest.mark.parametrize("content", ["nx = 1\n", "x_min = 7\n"])
    def test_options_a_command_does_not_read_are_not_checked(self, tmp_path, content,
                                                             capsys):
        # a shared config file: stats reads no window, wigner still refuses it
        f = tmp_path / "shared.conf"
        f.write_text(content)
        assert main(["stats", "--eta", "0.5", "--m", "1", "--config", str(f)]) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["eta"] == 0.5 and out.err == ""
        assert main(["wigner", "--eta", "0.5", "--m", "1", "--config", str(f)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1

    def test_verify_does_not_check_the_tolerance_variable(self, monkeypatch):
        monkeypatch.setenv("NBS_TAIL_EPS", "0.1")
        assert parse_config(["verify"]).command == "verify"
        with pytest.raises(CliError, match="tail-eps must lie in"):
            parse("stats", "--eta", "0.5", "--m", "1")

    def test_unparsable_tolerance_variable_refuses_only_its_readers(self, monkeypatch):
        monkeypatch.setenv("NBS_TAIL_EPS", "abc")
        assert parse_config(["verify"]).command == "verify"
        with pytest.raises(CliError) as err:
            parse("stats", "--eta", "0.5", "--m", "1")
        assert str(err.value) == ("environment NBS_TAIL_EPS: cannot parse 'tail_eps' "
                                  "value 'abc' as float")

    @pytest.mark.parametrize("argv", [["squeeze-scan", "--m", "1"],
                                      ["evolve", "--chi-t", "1"], ["verify"]])
    def test_a_malformed_value_is_not_converted_where_it_is_not_read(self, tmp_path, argv):
        f = tmp_path / "shared.conf"
        f.write_text("eta = x\n")
        cfg = parse(*argv, "--config", str(f))
        assert cfg.command == argv[0] and cfg.eta is None

    def test_a_malformed_value_is_refused_where_a_flag_overrides_it(self, tmp_path):
        f = tmp_path / "shared.conf"
        f.write_text("eta = x\n")
        with pytest.raises(CliError) as err:
            parse("stats", "--eta", "0.5", "--m", "1", "--config", str(f))
        assert str(err.value) == f"{f}:1: cannot parse 'eta' value 'x' as float"

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_unknown_key_is_refused_by_every_command(self, tmp_path, command, capsys):
        f = tmp_path / "typo.conf"
        f.write_text("m = 1\netta = 0.5\n")
        assert main([command, "--config", str(f)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {f}:2: unknown config key 'etta'\n"

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
            parse("stats", "--eta", "0.5", "--m", "1",
                  "--config", str(tmp_path / "nope.conf"))

    def test_undecodable_config_file(self, tmp_path, capsys):
        f = tmp_path / "bad.cfg"
        f.write_bytes(b"eta = 0.5\nm = 1\xff\n")
        assert main(["stats", "--config", str(f)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: cannot read config file {str(f)!r}: 'utf-8' codec")
        assert out.err.count("\n") == 1


class TestVerifyCommand:
    @pytest.mark.parametrize("flags", [["--format", "json"], ["--tail-eps", "1e-7"]])
    def test_reads_no_numeric_options(self, flags, capsys):
        assert main(["verify"] + flags) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"nbs: error: unrecognized arguments: {' '.join(flags)}\n"

    def test_output_file_holds_the_printed_bytes(self, tmp_path, capsys):
        path = tmp_path / "verify.txt"
        assert main(["verify", "-o", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["verify"]) == 0
        assert path.read_bytes() == capsys.readouterr().out.encode()


class TestStatsCommand:
    def test_json_report_values(self, capsys):
        assert main(["stats", "--eta", "0.8", "--m", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert round(payload["mandel_q"], 6) == -0.6875
        assert payload["mean"] == pytest.approx(4.0, abs=1e-12)
        assert payload["sub_poissonian_threshold"] == pytest.approx(
            4.0 - math.sqrt(12.0), abs=1e-12
        )

    def test_csv_report_row(self, capsys):
        assert main(["stats", "--eta", "0.8", "--m", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# eta,m,mean")
        row = lines[1].split(",")
        assert float(row[0]) == 0.8
        assert int(row[1]) == 3
        assert round(float(row[4]), 6) == -0.6875


class TestGridCommands:
    def test_wigner_point_window(self, capsys):
        assert main([
            "wigner", "--eta", "1.0", "--m", "1",
            "--nx", "3", "--ny", "3", "--range", "0.0",
        ]) == 0
        _, values = read_grid_csv(capsys.readouterr().out)
        assert values.shape == (3, 3)
        assert np.allclose(values, -2.0 / math.pi, atol=1e-10)
        assert round(float(values[1, 1]), 5) == -0.63662

    def test_csv_round_trip_exact(self, tmp_path):
        out = tmp_path / "grid.csv"
        argv = [
            "qfunc", "--eta", "0.5", "--m", "2",
            "--nx", "7", "--ny", "5", "--range", "3", "-o", str(out),
        ]
        assert main(argv) == 0
        spec, values = read_grid_csv(out.read_text())
        assert (spec.nx, spec.ny) == (7, 5)
        assert spec.x_min == -3.0
        # byte-identical determinism on a repeated run
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        # and the parsed values reproduce a direct evaluation exactly
        from nbstates import NBSParams, grid_evaluate, nbs

        direct = grid_evaluate(nbs(NBSParams(0.5, 2)), spec, "Q")
        assert np.array_equal(values, direct.values)

    def test_sdist_json_matches_interpolation_bounds(self, capsys):
        assert main([
            "sdist", "--eta", "0.5", "--m", "1", "--s", "-1",
            "--nx", "3", "--ny", "3", "--range", "1", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nx"] == 3 and payload["ny"] == 3
        assert min(min(row) for row in payload["values"]) >= -1e-14

    @pytest.mark.parametrize(
        "argv",
        [
            ["wigner", "--range", "1e6"],
            ["sdist", "--s", "-0.5", "--range", "1e3"],
            ["qfunc", "--range", "1e6"],
        ],
    )
    def test_wide_window_is_finite_and_exact_at_the_centre(self, argv, capsys, reference):
        from nbstates import NBSParams, nbs

        assert main(argv + ["--eta", "0.5", "--m", "1", "--nx", "3", "--ny", "3"]) == 0
        _, values = read_grid_csv(capsys.readouterr().out)
        assert np.all(np.isfinite(values))
        c = nbs(NBSParams(0.5, 1)).amplitudes.real
        s = {"wigner": 0.0, "sdist": -0.5, "qfunc": -1.0}[argv[0]]
        assert abs(values[1, 1] - reference.distribution(c, 0.0, 0.0, s)) < 1e-9

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("1,2\n3,4\n", "header"),
            ("# 0,1,0,1,2,2\n1,2\n", "shape"),
            ("# 0,1,0,1\n1,2\n", "six fields"),
        ],
    )
    def test_read_grid_csv_rejects(self, text, needle):
        with pytest.raises(ValueError, match=needle):
            read_grid_csv(text)


def _percent_17g(table):
    return "\n".join(",".join("%.17g" % (float(v) + 0.0) for v in row) for row in table) + "\n"


def _json_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _random_doubles(seed, size, wide):
    """Random 64-bit patterns; unless ``wide``, with the binary exponents of
    1e-270 .. 1e17, the vectorised range."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
    if not wide:
        exponent = rng.integers(126, 1080, bits.size).astype(np.uint64)
        bits = bits & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
    return bits.view(np.float64)


class TestBulkWriters:
    """The bulk writers give the bytes of the plain per-value ones."""

    def test_grid_text_matches_the_per_value_writers(self):
        from nbstates.cli import _grid_text
        from nbstates.phasespace import GridSpec, PhaseSpaceGrid

        vals = np.array([[-0.0, 0.0, 5e-324, -1e300],
                         [math.inf, -math.inf, math.nan, 0.1],
                         [1 / 3, -2 / 3, 1e-17, 123456789.0]])
        grid = PhaseSpaceGrid(GridSpec(-0.0, 1.0, -0.0, 2.0, 4, 3), vals, -0.0)
        payload = {"x_min": -0.0, "x_max": 1.0, "y_min": -0.0, "y_max": 2.0,
                   "nx": 4, "ny": 3, "riemann_sum": -0.0, "values": vals.tolist()}
        # JSON keeps negative zero; CSV folds it into plain zero
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert _grid_text(grid, "json") == want
        assert _grid_text(grid, "csv") == "# 0,1,0,2,4,3\n" + _percent_17g(vals)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 400),
           cols=st.integers(1, 9), wide=st.booleans())
    def test_csv_text_is_percent_17g(self, seed, rows, cols, wide):
        # up to 3,600 values, so slab boundaries fall inside rows
        table = _random_doubles(seed, rows * cols, wide).reshape(rows, cols)
        assert csv_text(table) == _percent_17g(table)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 400),
           cols=st.integers(1, 9), wide=st.booleans(), flat=st.booleans())
    def test_json_text_is_json_dumps(self, seed, rows, cols, wide, flat):
        # up to 3,600 values, so slab boundaries fall inside rows
        table = _random_doubles(seed, rows * cols, wide).reshape(rows, cols)
        values = table.ravel() if flat else table
        want = _json_dumps({"m": 3, "values": values.tolist(), "x_min": -0.5})
        assert json_text({"x_min": -0.5, "m": 3}, {"values": values}) == want

    def test_json_text_edges(self):
        up = lambda v: np.nextafter(v, math.inf)  # noqa: E731
        down = lambda v: np.nextafter(v, -math.inf)  # noqa: E731
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        values = np.concatenate([[
            # 16-digit ties, which repr rounds half-even, and a 15-digit one
            734637933487379.25, 734637933487379.75, 100000000000000.5,
            # 1, 16 and 17 digits; fixed notation for 1e-4 <= |x| < 1e16
            1 / 3, 0.1, 0.3, 0.1 + 0.2, down(1.0), 9999999999999998.0, down(1e16),
            1e16, up(1e16), down(1e17), 1e17, 1e23,
            down(1e-4), 1e-4, up(1e-4), down(1e-5), 1e-5,
            # integral values take ".0"
            1.0, 123.0, 2.0**52 + 1, 2.0**53 + 2,
            # the doubles nearest these lie below them, and their digits carry to 10^17
            1e-14, 1e-79, 1e-243,
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf,
            down(1e-270), 1e-270, up(1e-270), 1e-300,
            # 2^-808: below a power of two the nearest 16-digit decimal misses
            # and the next one up is repr's
            2.0**-808, -(2.0**-808),
        ], powers, down(powers), up(powers)])
        values = np.concatenate([values, -values])
        assert json_text({}, {"v": values}) == _json_dumps({"v": values.tolist()})
        table = values[: values.size // 7 * 7].reshape(-1, 7)
        assert json_text({}, {"v": table}) == _json_dumps({"v": table.tolist()})

    def test_csv_text_edges(self):
        up = lambda v: np.nextafter(v, math.inf)  # noqa: E731
        down = lambda v: np.nextafter(v, -math.inf)  # noqa: E731
        table = np.array([
            [0.0, -0.0, math.nan, math.inf, -math.inf],
            [5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300],
            [2.0**-25, -3 * 2.0**-25, 0.5, 1.0, 2.0**53 + 2],
            # the doubles nearest 1e-14, 1e-79 and 1e-243 lie below them, and their
            # 17-digit significands round up to 10^17
            [1e-14, 1e-79, 1e-243, up(1e-14), down(1e-14)],
            [down(1e-5), 1e-5, up(1e-5), down(1e-4), 1e-4],
            [up(1e-4), down(1e16), 1e16, up(1e16), down(1e17)],
            [1e17, up(1e17), down(1e23), 1e23, -down(1e23)],
            [down(1e-270), 1e-270, up(1e-270), -1e-270, 1e-200],
        ])
        assert csv_text(table, "# head\n") == "# head\n" + _percent_17g(table)

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--eta", "0.3", "--m", "7"],
            ["squeeze-scan", "--m", "3", "--eta-step", "0.05"],
            ["evolve", "--chi-t", "1.5", "--m", "2", "--steps", "5"],
            ["evolve", "--chi-t", "1.5", "--scheme", "parametric", "--steps", "4"],
        ],
        ids=["stats", "squeeze-scan", "evolve-intensity", "evolve-parametric"],
    )
    def test_tables_parse_back_to_equal_floats(self, argv, capsys):
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [ln for ln in lines if ln.startswith("# ")][-1][2:].split(",")
        rows = [[float(v) for v in ln.split(",")] for ln in lines if ln[0] != "#"]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for k, name in enumerate(names):
            column = payload[name] if isinstance(payload[name], list) else [payload[name]]
            assert [row[k] for row in rows] == column
        if argv[0] == "stats":
            report = stats_report(0.3, 7)
            assert payload["mandel_q"] == report.mandel_q_closed
            assert payload["mandel_q_numeric"] == report.mandel_q_numeric
            assert payload["second_factorial_moment"] == report.f2
        if argv[0] == "squeeze-scan":
            scan = squeezing_scan([3], default_eta_grid(step=0.05))
            for name in ("mean_a", "mean_a2", "var_x", "var_y"):
                assert payload[name] == getattr(scan, name)[0].tolist()

    def test_squeeze_scan_json_layout(self, capsys):
        assert main([
            "squeeze-scan", "--m", "2", "--eta-step", "0.1", "--format", "json",
        ]) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


class TestSqueezeScanCommand:
    def test_table_shape_and_values(self, capsys):
        assert main(["squeeze-scan", "--m", "7", "--eta-step", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# m=7"
        assert lines[1] == "# eta,mean_a,mean_a2,var_x,var_y"
        rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 10
        assert all(r[3] * r[4] >= 1.0 / 16.0 - 1e-12 for r in rows)

    def test_json_keys(self, capsys):
        assert main([
            "squeeze-scan", "--m", "2", "--eta-step", "0.1", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 2
        assert len(payload["eta"]) == len(payload["var_x"]) == 10


class TestEvolveCommand:
    def test_intensity_series(self, capsys):
        assert main(["evolve", "--chi-t", "1.0", "--m", "2", "--steps", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# scheme=intensity m=2"
        rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 5
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
        assert all(abs(r[1] - 1.0) < 1e-9 for r in rows)
        assert all(abs(r[2] - 1.0) < 1e-9 for r in rows)

    def test_parametric_series_json(self, capsys):
        assert main([
            "evolve", "--chi-t", "1.5", "--scheme", "parametric",
            "--steps", "4", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "parametric"
        assert "m" not in payload
        assert all(abs(f - 1.0) < 1e-9 for f in payload["fidelity"])


class TestExitCodes:
    def test_numerical_failure_exits_2(self, capsys):
        # mean photon number ~ 1e6 cannot fit under the basis hard cap
        code = main(["qfunc", "--eta", "0.000001", "--m", "0",
                     "--nx", "3", "--ny", "3", "--range", "1"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_moments_are_a_numerical_failure(self, capsys):
        assert main(["stats", "--eta", "1e-170", "--m", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("window", [["--range", "1e300"], ["--x-min=-1e308", "--x-max=1e308"]])
    def test_overflowing_window_is_an_argument_error(self, window, capsys):
        argv = ["wigner", "--eta", "0.5", "--m", "1", "--nx", "3", "--ny", "3", "--format", "json"]
        assert main(argv + window) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: grid spans and cell area must be finite")
        assert out.err.count("\n") == 1

    def test_scan_past_the_basis_cap_names_it(self, capsys):
        # m = 160 at eta = 0.01 needs more than the scan's 16384 cap; the
        # limit is reported, not raised
        assert main(["squeeze-scan", "--m", "160"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1 and "n_hard_cap=16384" in out.err

    def test_m_past_the_float_range_is_a_numerical_failure(self, capsys):
        assert main(["stats", "--eta", "0.5", "--m", "1" + "0" * 160]) == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: a closed form at m ~ 10^160.00 passes the float range\n"

    # 2^55 columns need 2^58 bytes, past any address space, and 2^62 points
    # fail numpy's size check: both are refused before anything is allocated
    @pytest.mark.parametrize("nx", [str(2**55), str(2**62)])
    def test_grid_numpy_cannot_hold_is_one_line(self, nx, capsys):
        assert main(["wigner", "--eta", "0.5", "--m", "1", "--nx", nx, "--ny", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_run_reports_argument_errors_as_1(self, capsys):
        assert main(["stats", "--eta", "nope", "--m", "1"]) == 1

    @pytest.mark.parametrize("chi_t", ["50", "1000"])
    def test_long_evolution_is_a_numerical_failure(self, chi_t, capsys):
        # sech^2(50) ~ 1.5e-43 needs a basis past the cap; sech^2(1000) underflows
        assert main(["evolve", "--chi-t", chi_t, "--steps", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,config,path",
        [
            (["-o", "/no/such/dir/x.json"], None, "'/no/such/dir/x.json'"),
            ([], "output =\n", "''"),
        ],
    )
    def test_unwritable_output_is_one_line(self, tmp_path, capsys, argv, config, path):
        if config is not None:
            f = tmp_path / "out.conf"
            f.write_text(config)
            argv = argv + ["--config", str(f)]
        assert main(["stats", "--eta", "0.5", "--m", "1"] + argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: cannot write {path}: No such file or directory\n"


class TestSubprocessEntry:
    def test_module_invocation_stats(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nbstates", "stats", "--eta", "0.8", "--m", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert round(json.loads(proc.stdout)["mandel_q"], 6) == -0.6875

    def test_module_invocation_bad_args(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nbstates", "stats", "--eta", "2", "--m", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "eta" in proc.stderr


def _value(valid, *edges):
    """A value from ``valid`` nine times in ten, else one of ``edges``."""
    return st.integers(0, 9).flatmap(lambda k: valid if k < 9 else st.sampled_from(edges))


_NONFINITE = (math.nan, math.inf, -math.inf)
# typed values for every option, inside and outside each domain, and a few
# that argparse cannot convert; the valid eta steps stop at 1e-3, since a
# step of 1e-6 scans ~1e6 values
_VALUES = {
    "eta": _value(st.floats(0.05, 1.0), 0.0, -0.5, 1.5, 1e-6, 1e-170, "x", *_NONFINITE),
    "m": _value(st.integers(0, 40), -1, -2, "2.5"),
    "s": _value(st.floats(-1.0, 0.0), -1.5, 0.5, -1e-9, *_NONFINITE),
    "x_min": _value(st.floats(-8.0, 8.0), -1e6, 1e300, -1e308, *_NONFINITE),
    "x_max": _value(st.floats(-8.0, 8.0), 1e6, 1e308, *_NONFINITE),
    "y_min": _value(st.floats(-8.0, 8.0), -1e6, *_NONFINITE),
    "y_max": _value(st.floats(-8.0, 8.0), 1e300, *_NONFINITE),
    "nx": _value(st.integers(2, 6), 0, 1, "abc"),
    "ny": _value(st.integers(2, 6), 0, 1),
    "range": _value(st.floats(0.0, 10.0), -1.0, 1e6, 1e300, *_NONFINITE),
    "eta_step": _value(st.floats(1e-3, 0.1), 0.0, -1e-3, 0.2, 9.9e-7, 1e-9, 1e-170,
                       *_NONFINITE),
    "tail_eps": _value(st.floats(1e-14, 1e-6), 0.0, 0.1, 1e-300, *_NONFINITE),
    "format": st.sampled_from(["csv", "json"]),
    "chi_t": _value(st.floats(0.0, 3.0), -1.0, 50.0, 1000.0, *_NONFINITE),
    "scheme": st.sampled_from(["intensity", "parametric"]),
    "steps": _value(st.integers(2, 5), 0, 1),
}
_GRID_OPTIONS = ("eta", "m", "x_min", "x_max", "y_min", "y_max", "nx", "ny", "range",
                 "tail_eps", "format")
_COMMAND_OPTIONS = {
    "stats": ("eta", "m", "tail_eps", "format"),
    "squeeze-scan": ("m", "eta_step", "tail_eps", "format"),
    "qfunc": _GRID_OPTIONS,
    "wigner": _GRID_OPTIONS,
    "sdist": _GRID_OPTIONS + ("s",),
    "evolve": ("chi_t", "scheme", "m", "steps", "tail_eps", "format"),
}


def _flag(key, value):
    # --flag=value, so that argparse reads "-1e308" as a value
    return f"--{key.replace('_', '-')}={value!r}".replace("'", "")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    argv = [command]
    for key in _COMMAND_OPTIONS[command]:
        if draw(st.integers(0, 7)):  # each option present seven times in eight
            argv.append(_flag(key, draw(_VALUES[key])))
    return argv


def _finite_numbers(item):
    if isinstance(item, dict):
        return all(_finite_numbers(v) for v in item.values())
    if isinstance(item, list):
        return all(_finite_numbers(v) for v in item)
    return not isinstance(item, float) or math.isfinite(item)


def _assert_output_or_one_line(argv):
    """main(argv) prints finite numbers and exits 0, or exits 1 or 2 with one stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and out
        if parse_config(argv).format == "json":
            assert _finite_numbers(json.loads(out))
        else:
            rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
            assert all(math.isfinite(float(v)) for ln in rows for v in ln.split(","))
    else:
        assert code in (1, 2)
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")


# config-file lines that no value can make valid
_BAD_LINES = (b"just a line", b"volume = 11", b"m = 1\xff")


@st.composite
def _config_run(draw):
    """A command, its required flags and a config file of a few key = value lines."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    argv = [command] + [_flag(key, draw(_VALUES[key])) for key in cli._COMMANDS[command].required]
    keys = draw(st.lists(st.sampled_from(_COMMAND_OPTIONS[command]), max_size=4))
    lines = [f"{key} = {draw(_VALUES[key])!r}".replace("'", "").encode() for key in keys]
    if not draw(st.integers(0, 3)):  # a bad line one time in four
        lines.append(draw(st.sampled_from(_BAD_LINES)))
    return argv, b"\n".join(draw(st.permutations(lines))) + b"\n"


class TestArgvProperty:
    @settings(max_examples=80)
    @given(argv=_argv())
    def test_every_run_ends_in_output_or_one_line(self, argv):
        _assert_output_or_one_line(argv)

    @settings(max_examples=40)
    @given(case=_config_run())
    def test_every_config_file_run_ends_in_output_or_one_line(self, case):
        argv, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.conf")
            with open(path, "wb") as fh:
                fh.write(text)
            _assert_output_or_one_line(argv + ["--config", path])

    @pytest.mark.parametrize("step", ["1e-170", "1e-9", "9.9e-7"])
    def test_tiny_eta_step_is_an_argument_error(self, step, capsys):
        # 1e-170 ended in a numpy ValueError, 1e-9 asked for a 7.37 GiB grid
        assert main(["squeeze-scan", "--m", "1", "--eta-step", step]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: eta-step must lie in [1e-6, 0.1], got {float(step)}\n"
