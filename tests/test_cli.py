"""CLI harness tests: subcommand output, config merging, reproducibility."""

import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from qstrength import bca, cli, ensemble, spectral
from qstrength.qnormal import f_qn


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_csv(path: Path):
    """Split a CSV file into ('#' metadata lines, header row, data rows)."""
    meta, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                meta.append(line.rstrip("\n"))
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return meta, parsed[0], parsed[1:]


# ---------------------------------------------------------------------------
# the CSV writer


class TestWriter:
    def test_header_follows_the_mappings_key_order(self, tmp_path):
        cli._write_csv(tmp_path / "t.csv", ["# meta"], {"b": [1, 2], "a": [0.5, 0.25]})
        assert (tmp_path / "t.csv").read_text() == "# meta\nb,a\n1,0.5\n2,0.25\n"

    def test_ragged_table_raises_instead_of_truncating(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "t.csv", [], {"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0]})
        assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# tables / params / qnormal / npc


class TestTables:
    def test_both_tables_written(self, tmp_path):
        code, _, _ = run_cli(["tables", "--out", str(tmp_path)])
        assert code == 0
        meta1, head1, rows1 = read_csv(tmp_path / "table1.csv")
        assert any(line.startswith("# qstrength") for line in meta1)
        assert len(rows1) == 16
        by_key = {(int(r[0]), int(r[1]), int(r[3])): r for r in rows1}
        row = by_key[(20, 8, 2)]
        idx = head1.index("q_v_3dp")
        assert row[idx] == "0.417"
        _, head2, rows2 = read_csv(tmp_path / "table2.csv")
        assert len(rows2) == 9

    def test_single_table_to_stdout(self):
        code, out, _ = run_cli(["tables", "1"])
        assert code == 0
        assert "q_hv" in out
        assert out.count("\n") > 16

    def test_table2_only(self, tmp_path):
        code, _, _ = run_cli(["tables", "2", "--out", str(tmp_path)])
        assert code == 0
        assert not (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table2.csv").exists()


class TestParams:
    def test_xi_sq_target_resolves_coupling(self, tmp_path):
        code, _, _ = run_cli(
            ["params", "--N", "12", "--m", "6", "--t", "1", "--k", "2",
             "--xi-sq", "0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        _, _, rows = read_csv(tmp_path / "params.csv")
        kv = {r[0]: r[1] for r in rows}
        assert float(kv["lambda_finite_n"]) == pytest.approx(math.sqrt(0.1), rel=1e-6)
        assert float(kv["xi_sq_finite"]) == pytest.approx(0.5, rel=1e-6)
        assert float(kv["dim"]) == 924
        assert float(kv["q_hv_finite"]) == pytest.approx(
            bca.q_hv_finite(12, 6, 1, 2), rel=1e-5
        )

    def test_predictions_table_alongside(self, tmp_path):
        code, _, _ = run_cli(
            ["params", "--N", "12", "--m", "6", "--t", "1", "--k", "2",
             "--xi-sq", "0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        _, head, rows = read_csv(tmp_path / "predictions.csv")
        assert head[0] == "e_hat"
        e = [float(r[0]) for r in rows]
        g1 = [float(r[head.index("gamma1")]) for r in rows]
        assert e == sorted(e)
        # skewness flips sign against the launch energy
        for ei, gi in zip(e, g1):
            if ei != 0.0:
                assert gi * ei < 0

    def test_explicit_lambda_accepted(self):
        code, out, _ = run_cli(
            ["params", "--N", "12", "--m", "6", "--t", "1", "--k", "2", "--lambda", "0.2"]
        )
        assert code == 0
        assert "lambda,0.2" in out

    def test_missing_coupling_is_an_error(self):
        with pytest.raises(SystemExit):
            run_cli(["params", "--N", "12", "--m", "6", "--t", "1", "--k", "2"])

    def test_coupling_flag_replaces_the_files_coupling(self, tmp_path):
        system = "N = 12\nm = 6\nt = 1\nk = 2\n"
        flags = ["--N", "12", "--m", "6", "--t", "1", "--k", "2"]
        for key, flag in (("lam = 0.4", ["--xi-sq", "0.3"]), ("xi_sq = 0.3", ["--lambda", "0.2"])):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(system + key + "\n")
            assert run_cli(["params", "--config", str(cfg), *flag]) == run_cli(
                ["params", *flags, *flag])
        # without a coupling flag, a file that sets both is still an error
        cfg.write_text(system + "lam = 0.4\nxi_sq = 0.3\n")
        with pytest.raises(SystemExit, match="exactly one of the couplings lam and xi_sq"):
            run_cli(["params", "--config", str(cfg)])


# tables and params use only Python floats, math and exact binomials, so their
# bytes are the same on any IEEE-754 machine; a change to the parameter or
# prediction arithmetic that moves an emitted digit fails here.
PLATFORM_FREE_DIGESTS = (
    (["tables"], {
        "table1.csv": "aa3f0f2409c533e4e19b47190276dcf3b7b21b5668ffd6a6c1516cfc7cf00bc0",
        "table2.csv": "2e6ba32b5c2f6c0ebe1944024458504c8e228eaa6a10148f033bb9120b4bfd66",
    }),
    (["params", "--N", "12", "--m", "6", "--t", "1", "--k", "2", "--xi-sq", "0.5"], {
        "params.csv": "5b9e3b04b8c212d79f7120dc1a48b0e07a8e4355f28f5f06db19e9d246faaeae",
        "predictions.csv": "45e5543e25cbf35976a23ff43aacf0925cd0a74b8540cb63fb13edde87e7b817",
    }),
)


def test_platform_free_outputs_are_pinned(tmp_path):
    for i, (argv, digests) in enumerate(PLATFORM_FREE_DIGESTS):
        out = tmp_path / str(i)
        assert run_cli([*argv, "--out", str(out)])[0] == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests, argv[0]


class TestQnormal:
    def test_semicircle_peak_value(self, tmp_path):
        target = tmp_path / "qn.csv"
        code, _, _ = run_cli(
            ["qnormal", "--q", "0", "--grid=-2:2:5", "--out", str(target)]
        )
        assert code == 0
        _, head, rows = read_csv(target)
        assert head == ["x", "f_qn"]
        assert len(rows) == 5
        mid = rows[2]
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(1 / math.pi, rel=1e-6)

    def test_conditional_density_needs_both_flags(self):
        with pytest.raises(SystemExit):
            run_cli(["qnormal", "--q", "0.5", "--y", "1.0"])

    @pytest.mark.parametrize("argv", [
        ["--q", "1.5"], ["--q", "0.5", "--y", "5", "--xi", "0.7"],
        ["--q", "0.5", "--y", "0", "--xi", "1.2"],
    ], ids=["q>1", "y-outside-support", "xi>1"])
    def test_out_of_range_input_exits_without_traceback(self, argv):
        proc = cli_subprocess(["qnormal", *argv])
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("bad qnormal input:") and proc.stderr.count("\n") == 1

    def test_conditional_density_grid(self):
        code, out, _ = run_cli(
            ["qnormal", "--q=0.5", "--y=-1.0", "--xi=0.7071", "--grid=-3:3:7"]
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "x,f_cqn"
        assert len(lines) == 8


class TestNpcCurve:
    def test_curve_is_symmetric_and_bounded(self, tmp_path):
        target = tmp_path / "npc.csv"
        code, _, _ = run_cli(
            ["npc", "--N", "12", "--m", "6", "--t", "1", "--k", "2",
             "--xi-sq", "0.5", "--grid=-2:2:9", "--out", str(target)]
        )
        assert code == 0
        _, head, rows = read_csv(target)
        vals = {float(r[0]): float(r[head.index("npc")]) for r in rows}
        assert vals[0.0] == max(vals.values())
        assert vals[-1.0] == pytest.approx(vals[1.0], rel=1e-4)
        assert all(0 < v < 924 for v in vals.values())


# ---------------------------------------------------------------------------
# simulate

def sim_args(**overrides):
    """Small smoke config as an argv list; flags use the key=value form."""
    values = {
        "N": 8, "m": 4, "t": 1, "k": 2, "xi-sq": 0.5, "members": 4, "seed": 7,
        "windows": "-1,0,1", "window-width": 0.4, "grid": "-3.2:3.2:32",
    }
    values.update(overrides)
    return ["simulate"] + [f"--{key}={val}" for key, val in values.items()]


SIM_ARGS = sim_args()


def subprocess_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return os.environ | {"PYTHONPATH": path}


def cli_subprocess(argv, **env) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, with extra environment variables."""
    return subprocess.run([sys.executable, "-m", "qstrength.cli", *argv],
                          env=subprocess_env() | env, capture_output=True, text=True)


def sim_outputs(tmp_path: Path):
    return sorted(p.name for p in tmp_path.iterdir())


class TestSimulate:
    def test_report_files_written(self, tmp_path):
        code, _, _ = run_cli(SIM_ARGS + ["--out", str(tmp_path)])
        assert code == 0
        assert sim_outputs(tmp_path) == [
            "moments.csv", "npc.csv", "params.csv", "strength_functions.csv",
        ]
        meta, head, rows = read_csv(tmp_path / "strength_functions.csv")
        assert head[:2] == ["window_center", "e0_mean"]
        assert any("config" in line for line in meta)

    def test_moments_flag_adds_bivariate_report(self, tmp_path):
        code, _, _ = run_cli(SIM_ARGS + ["--moments", "--out", str(tmp_path)])
        assert code == 0
        assert "bivariate.csv" in sim_outputs(tmp_path)
        assert "moments.csv" in sim_outputs(tmp_path)

    @pytest.mark.parametrize("extra", [[], ["--moments"]], ids=["default", "moments"])
    def test_worker_count_does_not_change_bytes(self, tmp_path, extra):
        # 4 members: even blocks, uneven blocks (1, 1, 2) and fewer members than workers
        a = tmp_path / "1"
        assert run_cli(SIM_ARGS + extra + ["--workers", "1", "--out", str(a)])[0] == 0
        assert ("bivariate.csv" in sim_outputs(a)) == bool(extra)
        for workers in ("2", "3", "5"):
            b = tmp_path / workers
            assert run_cli(SIM_ARGS + extra + ["--workers", workers, "--out", str(b)])[0] == 0
            assert sim_outputs(b) == sim_outputs(a)
            for name in sim_outputs(a):
                assert (a / name).read_bytes() == (b / name).read_bytes(), (workers, name)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(SIM_ARGS + ["--out", str(a)])
        run_cli(SIM_ARGS + ["--out", str(b)])
        for name in sim_outputs(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_results(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(SIM_ARGS + ["--out", str(a)])
        run_cli(sim_args(seed=8) + ["--out", str(b)])
        assert (a / "strength_functions.csv").read_bytes() != (
            b / "strength_functions.csv"
        ).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# small smoke configuration\n"
            "N = 8\nm = 4\nt = 1\nk = 2\nxi_sq = 0.5\n"
            "members = 4\nseed = 7\nwindows = -1,0,1\nwindow_width = 0.4\n"
            "grid = -3.2:3.2:32\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        code, _, _ = run_cli(["simulate", "--config", str(cfg), "--out", str(a)])
        assert code == 0
        run_cli(SIM_ARGS + ["--out", str(b)])
        assert (a / "strength_functions.csv").read_bytes() == (
            b / "strength_functions.csv"
        ).read_bytes()
        # a flag overrides the same key from the file
        c = tmp_path / "c"
        run_cli(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(c)])
        assert (a / "strength_functions.csv").read_bytes() != (
            c / "strength_functions.csv"
        ).read_bytes()

    def test_config_file_values_parse_like_flags(self, tmp_path):
        system = "N = 8\nm = 4\nt = 1\nk = 2\nxi_sq = 0.5\n"
        run = "members = 2\nseed = 7\nwindows = -1,0,1\ngrid = -3.2:3.2:32\n"
        cases = {
            "plain": system + run,
            # keys a command does not take, including argparse's own, are ignored
            "unknown": system + run + "colour = red\nfunc = x\ncommand = npc\n",
            "no-moments": system + run + "moments = false\n",
            "moments-on": system + run + "moments = Yes\n",
        }
        for name, text in cases.items():
            (tmp_path / f"{name}.cfg").write_text(text)
            code, _, _ = run_cli(["simulate", "--config", str(tmp_path / f"{name}.cfg"),
                                  "--out", str(tmp_path / name)])
            assert code == 0
        plain = tmp_path / "plain"
        assert "bivariate.csv" in sim_outputs(tmp_path / "moments-on")
        for name in ("unknown", "no-moments"):
            assert sim_outputs(tmp_path / name) == sim_outputs(plain)
            for out in sim_outputs(plain):
                assert (tmp_path / name / out).read_bytes() == (plain / out).read_bytes()
        # params and npc read the same file as the same flags, each ignoring the
        # key of the option it does not take
        flags = ["--N", "8", "--m", "4", "--t", "1", "--k", "2", "--xi-sq", "0.5"]
        cfg = ["--config", str(tmp_path / "plain.cfg")]
        for command, flag in (("params", "--windows=-1,0,1"), ("npc", "--grid=-3.2:3.2:32")):
            assert run_cli([command, *cfg]) == run_cli([command, *flags, flag])
        # a bad value is reported by the flag's own type, without a traceback
        (tmp_path / "bad.cfg").write_text(system.replace("N = 8", "N = abc"))
        proc = cli_subprocess(["simulate", "--config", str(tmp_path / "bad.cfg"),
                               "--out", str(tmp_path / "bad")])
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "argument --N: invalid int value: 'abc'" in proc.stderr
        assert not (tmp_path / "bad").exists()
        # moments reads 1, true, yes, 0, false or no in any case, and nothing else
        for word, on in (("1", True), ("TRUE", True), ("yes", True),
                         ("0", False), ("False", False), ("NO", False)):
            (tmp_path / "switch.cfg").write_text(f"moments = {word}\n")
            assert cli._load_config_file(tmp_path / "switch.cfg", ["moments"]) == {"moments": on}
        (tmp_path / "maybe.cfg").write_text(system + run + "moments = maybe\n")
        proc = cli_subprocess(["simulate", "--config", str(tmp_path / "maybe.cfg"),
                               "--out", str(tmp_path / "maybe")])
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("bad config value moments='maybe'")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "maybe").exists()

    def test_check_mode_uncoupled_run_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--N", "8", "--m", "4", "--t", "1", "--k", "2",
             "--lambda", "0", "--members", "2", "--seed", "3",
             "--out", str(tmp_path), "--check"]
        )
        assert code == 0
        assert "members-completed: 2/2" in out
        assert "uncoupled-npc-unity" in out
        assert "FAIL" not in out

    def test_check_mode_fails_on_noisy_tiny_run(self, tmp_path):
        # two members cannot satisfy the statistical gates: exit code reports it
        code, out, _ = run_cli(
            ["simulate", "--N", "8", "--m", "4", "--t", "1", "--k", "2",
             "--xi-sq", "0.5", "--members", "2", "--seed", "3",
             "--out", str(tmp_path), "--check"]
        )
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("flag", [
        "--window-width=0", "--window-width=nan",
        "--N=30 --m=15", "--N=70 --m=2", "--seed=-1", "--N=4 --m=4",
    ])
    def test_bad_run_config_exits_without_traceback(self, tmp_path, flag):
        proc = cli_subprocess(SIM_ARGS + flag.split() + ["--check", "--out", str(tmp_path)])
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("bad simulate config:") and proc.stderr.count("\n") == 1

    def test_params_csv_matches_resolved_coupling(self, tmp_path):
        run_cli(SIM_ARGS + ["--out", str(tmp_path)])
        _, _, rows = read_csv(tmp_path / "params.csv")
        kv = {r[0]: r[1] for r in rows}
        lam = bca.lam_for_xi_sq(8, 4, 1, 2, 0.5)
        assert float(kv["lambda_finite_n"]) == pytest.approx(lam, rel=1e-5)

    def test_emitted_density_parses_to_finite_floats(self, tmp_path):
        run_cli(SIM_ARGS + ["--out", str(tmp_path)])
        _, head, rows = read_csv(tmp_path / "strength_functions.csv")
        fi = head.index("f_empirical")
        vals = [float(r[fi]) for r in rows]
        assert all(math.isfinite(v) for v in vals)
        assert any(v > 0 for v in vals)

    def test_default_config_hash_is_pinned(self, tmp_path):
        # every default a simulate run does not override enters the hash; this
        # value was emitted before the CLI took its defaults from RunConfig
        code, _, _ = run_cli(["simulate", "--N", "8", "--m", "4", "--t", "1", "--k", "2",
                              "--xi-sq", "0.5", "--out", str(tmp_path)])
        assert code == 0
        meta, _, _ = read_csv(tmp_path / "params.csv")
        assert meta[1] == (
            "# config_hash sha256="
            "cad2b22deef6081e3d5508cfad9c1886dffca68cc4ba79494ceda67eb0d9d4a7"
        )


# two settings of every option that enters some command's config_hash, as argv
# tokens; each pair keeps HASH_BASE's system (8,4,1,3) valid and changes what
# the command writes
TWO_SETTINGS = {
    "--N": (["--N=8"], ["--N=9"]), "--m": (["--m=4"], ["--m=5"]),
    "--t": (["--t=1"], ["--t=2"]), "--k": (["--k=3"], ["--k=4"]),
    "--lambda": (["--lambda=0.2"], ["--lambda=0.3"]),
    "--xi-sq": (["--xi-sq=0.5"], ["--xi-sq=0.4"]),
    "--windows": (["--windows=0"], ["--windows=0,1"]),
    "--grid": (["--grid=-1:1:3"], ["--grid=-2:2:5"]),
    "--members": (["--members=1"], ["--members=2"]), "--seed": (["--seed=1"], ["--seed=2"]),
    "--window-width": (["--window-width=0.2"], ["--window-width=0.8"]),
    "--moments": ([], ["--moments"]),
    "--q": (["--q=0.5"], ["--q=0.6"]), "--y": (["--y=0"], ["--y=0.5"]),
    "--xi": (["--xi=0.5"], ["--xi=0.6"]),
}
HASH_BASE = {
    "params": ["--N=8", "--m=4", "--t=1", "--k=3"],
    "npc": ["--N=8", "--m=4", "--t=1", "--k=3", "--grid=-1:1:3"],
    "simulate": ["--N=8", "--m=4", "--t=1", "--k=3", "--grid=-1:1:3", "--members=1",
                 "--workers=1"],
    "qnormal": ["--q=0.5", "--y=0", "--xi=0.5", "--grid=-1:1:3"],
}


def hash_and_rows(out: Path, command: str, argv: list[str]) -> tuple[str, list[str]]:
    """The config_hash line of what the command writes into out, and its other lines."""
    assert run_cli([command, *argv, "--out", str(out)])[0] == 0
    lines = [line for path in (sorted(out.iterdir()) if out.is_dir() else [out])
             for line in path.read_text().splitlines()]
    hashes = {line for line in lines if line.startswith("# config_hash")}
    assert len(hashes) == 1
    return hashes.pop(), [line for line in lines if not line.startswith("#")]


@pytest.mark.parametrize("command", ["params", "npc", "qnormal", "simulate"])
def test_config_hash_moves_with_every_option_the_command_reads(tmp_path, command):
    usage = cli_subprocess([command, "--help"]).stdout
    options = set(re.findall(r"^  (--[\w-]+)", usage, flags=re.MULTILINE))
    assert "--out" in options
    coupling = [] if command == "qnormal" else ["--xi-sq=0.5"]
    outs = iter(tmp_path / str(i) for i in range(1000))
    for option in sorted(options - {"--config", "--check", "--workers", "--out"}):
        base = [*HASH_BASE[command], *(coupling if option != "--lambda" else [])]
        (hash_a, rows_a), (hash_b, rows_b) = (hash_and_rows(next(outs), command, [*base, *setting])
                                              for setting in TWO_SETTINGS[option])
        # an option that moves the hash changes the rows: the command reads it
        assert hash_a != hash_b and rows_a != rows_b, option
    # where and how a run goes moves neither
    base = [*HASH_BASE[command], *coupling]
    workers = ["--workers=2"] if command == "simulate" else []
    assert hash_and_rows(next(outs), command, base) == hash_and_rows(
        next(outs), command, [*base, *workers])


def written(out: Path) -> dict[str, bytes]:
    """{file name: bytes} of the file out, or of every file in the directory out."""
    return {path.name: path.read_bytes()
            for path in (sorted(out.iterdir()) if out.is_dir() else [out])}


@pytest.mark.parametrize("command", ["npc", "qnormal", "simulate"])
def test_spellings_of_one_grid_write_identical_files(tmp_path, command):
    # the hash reads the parsed grid, so its config_hash line is the same too
    base = [*(a for a in HASH_BASE[command] if not a.startswith("--grid")),
            *([] if command == "qnormal" else ["--xi-sq=0.5"])]
    outs = []
    for i, grid in enumerate(["--grid=-1:1:3", "--grid=-1.0:1.00:003"]):
        (tmp_path / str(i)).mkdir()
        outs.append(tmp_path / str(i) / "out")
        assert run_cli([command, *base, grid, "--out", str(outs[-1])])[0] == 0
    assert written(outs[0]) == written(outs[1])


@pytest.mark.parametrize("option, values", [("--xi-sq", ("0.5", "0.5000001")),
                                            ("--windows", ("0.1", "0.1000001"))])
def test_values_that_differ_past_six_digits_hash_apart(tmp_path, option, values):
    coupling = [] if option == "--xi-sq" else ["--xi-sq=0.5"]
    (hash_a, rows_a), (hash_b, rows_b) = (
        hash_and_rows(tmp_path / value, "params",
                      [*HASH_BASE["params"], *coupling, f"{option}={value}"])
        for value in values)
    assert hash_a != hash_b and rows_a != rows_b


def test_run_config_fields_are_simulates_options_with_its_defaults():
    parser, commands = cli._parser()
    options = {a.dest for a in commands["simulate"]._actions if a.option_strings}
    not_run_settings = {"help", "config", "check", "out"}
    assert {f.name for f in fields(ensemble.RunConfig)} == options - not_run_settings
    parsed = vars(parser.parse_args(["simulate"]))
    defaults = {f.name: f.default for f in fields(ensemble.RunConfig) if f.default is not MISSING}
    assert defaults == {name: parsed[name] for name in defaults}


@pytest.mark.parametrize("command", ["params", "npc"])
def test_out_may_come_from_the_config_file(tmp_path, command):
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {tmp_path / 'from-file'}\n")
    assert run_cli([command, *SMALL_SYSTEM, "--config", str(config)])[0] == 0
    assert run_cli([command, *SMALL_SYSTEM, "--out", str(tmp_path / "from-flag")])[0] == 0
    for name in ("params.csv", "predictions.csv") if command == "params" else ("",):
        assert (tmp_path / "from-file" / name).read_bytes() == (
            tmp_path / "from-flag" / name).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "params", "npc"])
@pytest.mark.parametrize("system, coupling, reason", [
    # m > N: the system is rejected before a coupling is solved for
    ((8, 9, 1, 2), ["--xi-sq", "0.5"], "bad system: need t < k <= m <= N"),
    ((8, 9, 1, 2), ["--lambda", "0.5"], "bad system: need t < k <= m <= N"),
    ((8, 4, 2, 2), ["--xi-sq", "0.5"], "bad system: t = k is degenerate"),
    ((8, 4, 1, 2), ["--xi-sq", "0"], "bad system: xi_sq target must lie strictly between 0 and 1"),
    ((None, 4, 1, 2), ["--xi-sq", "0.5"], "missing required option --N"),
    ((8, 4, 1, 2), [], "bad system: set exactly one of the couplings lam and xi_sq"),
    ((8, 4, 1, 2), ["--lambda", "0.5", "--xi-sq", "0.5"],
     "bad system: set exactly one of the couplings lam and xi_sq"),
    ((8, 4, 1, 2), ["--lambda", "inf"], "bad system: coupling lam must be finite"),
    ((8, 4, 1, 2), ["--lambda", "1e300"], "bad system: coupling lam must be finite"),
], ids=["m>N-xi_sq", "m>N-lam", "t=k", "xi_sq=0", "no-N", "no-coupling", "both-couplings",
        "lam=inf", "lam^2=inf"])
def test_invalid_system_exits_without_traceback(tmp_path, command, system, coupling, reason):
    # one line for a bad system, whichever command is given it
    flags = [f"--{name}={value}" for name, value in zip("Nmtk", system) if value is not None]
    assert_exits_with_one_line(tmp_path, [command, *flags, *coupling], reason)


SMALL_SYSTEM = ["--N", "8", "--m", "4", "--t", "1", "--k", "2", "--xi-sq", "0.5"]


def assert_exits_with_one_line(tmp_path: Path, argv: list[str], reason: str) -> None:
    """argv with an --out under tmp_path exits nonzero on one stderr line, creating no --out."""
    proc = cli_subprocess([*argv, "--out", str(tmp_path / "out")])
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(reason) and proc.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, reason", [
    (["npc", *SMALL_SYSTEM, "--grid=-inf:1:3"], "bad grid spec '-inf:1:3'"),
    (["qnormal", "--q", "0.5", "--grid=-1:inf:3"], "bad grid spec '-1:inf:3'"),
    (["qnormal", "--q", "0.5", "--y", "0", "--xi", "0.5", "--grid=nan:1:3"],
     "bad grid spec 'nan:1:3'"),
    (["params", *SMALL_SYSTEM, "--windows=inf,nan"], "bad window list 'inf,nan'"),
    (["simulate", *SMALL_SYSTEM, "--windows=nan"], "bad window list 'nan'"),
    (["simulate", *SMALL_SYSTEM, "--grid=-inf:3:8"], "bad grid spec '-inf:3:8'"),
], ids=["npc-grid", "qnormal-grid", "qnormal-conditional-grid", "params-windows",
        "simulate-windows", "simulate-grid"])
def test_non_finite_grid_or_windows_exits_without_traceback(tmp_path, argv, reason):
    assert_exits_with_one_line(tmp_path, argv, reason)


@pytest.mark.parametrize("line, reason, command", [
    ("windows = 0,nan", "bad window list '0,nan'", "simulate"),
    ("windows = 0,nan", "bad window list '0,nan'", "params"),
    ("grid = -inf:1:3", "bad grid spec '-inf:1:3'", "simulate"),
    ("grid = -inf:1:3", "bad grid spec '-inf:1:3'", "npc"),
], ids=["windows-simulate", "windows-params", "grid-simulate", "grid-npc"])
def test_non_finite_config_grid_or_windows_exits_without_traceback(tmp_path, line, reason,
                                                                    command):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert_exits_with_one_line(tmp_path, [command, *SMALL_SYSTEM, "--config", str(config)],
                               reason)


@pytest.mark.parametrize("command", ["simulate", "params"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_window_list_exits_without_traceback(tmp_path, command, source):
    # cli owns the window rule in every command; RunConfig's check is for library callers
    config = tmp_path / "run.cfg"
    config.write_text("windows = ,\n")
    flags = ["--windows=,"] if source == "flag" else ["--config", str(config)]
    assert_exits_with_one_line(tmp_path, [command, *SMALL_SYSTEM, *flags], "bad window list ','")


@pytest.mark.parametrize("command", ["simulate", "params"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("text", ["1,,2", ",1", "1, ,"])
def test_window_list_with_an_empty_item_exits_without_traceback(tmp_path, command, source, text):
    config = tmp_path / "run.cfg"
    config.write_text(f"windows = {text}\n")
    flags = [f"--windows={text}"] if source == "flag" else ["--config", str(config)]
    # a --config value is stripped of the spaces around it, as every value is
    quoted = repr(text if source == "flag" else text.strip())
    assert_exits_with_one_line(tmp_path, [command, *SMALL_SYSTEM, *flags],
                               f"bad window list {quoted}; expected comma-separated numbers")


@pytest.mark.parametrize("command, flag", [("params", "--grid=-1:1:3"), ("npc", "--windows=0")])
def test_an_option_the_command_does_not_read_is_not_accepted(command, flag):
    proc = cli_subprocess([command, *SMALL_SYSTEM, flag])
    assert proc.returncode == 2
    assert f"error: unrecognized arguments: {flag}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["simulate", "npc", "qnormal"])
@pytest.mark.parametrize("grid", ["3:1:8", "-1:1:0"], ids=["lo>=hi", "count<1"])
def test_empty_grid_exits_without_traceback(tmp_path, command, grid):
    args = ["--q", "0.5"] if command == "qnormal" else SMALL_SYSTEM
    assert_exits_with_one_line(tmp_path, [command, *args, f"--grid={grid}"],
                               f"bad grid spec {grid!r}")


# each case's command and its --out, relative to a directory holding the file "file"
UNWRITABLE_OUT = {
    "qnormal-missing-parent": (["qnormal", "--q", "0.5"], "missing/dir/f.csv"),
    "npc-into-directory": (["npc", *SMALL_SYSTEM], "."),
    "params-under-a-file": (["params", *SMALL_SYSTEM], "file/sub"),
    "tables-at-a-file": (["tables"], "file"),
    "simulate-at-a-file": (["simulate", "--N", "12", "--m", "6", "--t", "1", "--k", "2",
                            "--xi-sq", "0.5", "--members", "4"], "file"),
}


def _unwritable_out(tmp_path: Path, case: str) -> list[str]:
    (tmp_path / "file").touch()
    argv, out = UNWRITABLE_OUT[case]
    return [*argv, "--out", str(tmp_path / out)]


@pytest.mark.parametrize("case", UNWRITABLE_OUT)
def test_unwritable_out_exits_without_traceback(tmp_path, case):
    proc = cli_subprocess(_unwritable_out(tmp_path, case))
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot write output:") and proc.stderr.count("\n") == 1


def test_simulate_checks_its_out_before_running_members(tmp_path, monkeypatch):
    def no_run(cfg):
        raise AssertionError("run_ensemble called with an unwritable --out")

    monkeypatch.setattr(cli.ensemble, "run_ensemble", no_run)
    with pytest.raises(SystemExit, match="^cannot write output:"):
        cli.main(_unwritable_out(tmp_path, "simulate-at-a-file"))


@pytest.mark.parametrize("windows", ["0", "0.1,-0.1", "-2,-1.75,2", "-3,3"])
def test_check_reports_a_gate_without_windows_as_fail(tmp_path, windows):
    # each set leaves at least one gate's |e0| band without a filled window
    proc = cli_subprocess(["simulate", *SMALL_SYSTEM, "--members", "4", "--seed", "7",
                           f"--windows={windows}", "--check", "--out", str(tmp_path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    verdicts = [line.split(":")[0].split() for line in proc.stdout.splitlines()]
    assert [gate for _, gate in verdicts] == [
        "members-completed", "centroid-slope", "variance-flat", "gamma1-windows",
        "gamma2-windows", "strength-l1"]
    assert {verdict for verdict, _ in verdicts} <= {"PASS", "FAIL"}
    assert "FAIL  gamma1-windows: no window with |e0| in [0.25, 1.5]" in proc.stdout


def test_check_judges_the_moment_table_it_writes(tmp_path, monkeypatch):
    # four members miss gamma2 by far; a table that says otherwise passes the gate
    moment_table = cli._moment_table

    def gamma2_as_predicted(*args):
        table = moment_table(*args)
        return table | {"gamma2": table["gamma2_pred"]}

    monkeypatch.setattr(cli, "_moment_table", gamma2_as_predicted)
    code, out, _ = run_cli(["simulate", *SMALL_SYSTEM, "--members", "4", "--seed", "7",
                            "--check", "--out", str(tmp_path)])
    assert code == 1
    assert "PASS  gamma2-windows: max abs dev 0.000" in out
    _, head, rows = read_csv(tmp_path / "moments.csv")
    assert all(row[head.index("gamma2")] == row[head.index("gamma2_pred")] for row in rows)


def test_check_derives_predictions_and_l1_once(tmp_path, monkeypatch):
    calls = {"window_predictions": 0, "strength_l1": 0, "predicted_f_values": 0,
             "window_moments": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("window_predictions", "strength_l1", "predicted_f_values"):
        counted(spectral, name)
    counted(spectral.StrengthReport, "window_moments")
    run_cli(["simulate", *SMALL_SYSTEM, "--members", "2", "--check", "--out", str(tmp_path)])
    assert calls == {"window_predictions": 1, "strength_l1": 1, "predicted_f_values": 1,
                     "window_moments": 1}


def test_check_fits_the_centroid_column_it_writes(tmp_path, monkeypatch):
    # a moments.csv whose centroids lie on xi * e0_mean gives the slope xi exactly
    xi = bca.resolve_system(8, 4, 1, 2, None, 0.5).qs_finite.xi
    moment_table = cli._moment_table

    def centroid_on_the_line(*args):
        table = moment_table(*args)
        return table | {"centroid": xi * table["e0_mean"]}

    monkeypatch.setattr(cli, "_moment_table", centroid_on_the_line)
    _, out, _ = run_cli(["simulate", *SMALL_SYSTEM, "--members", "4", "--seed", "7",
                         "--check", "--out", str(tmp_path)])
    assert f"PASS  centroid-slope: slope={xi:.4f} xi={xi:.4f}" in out


def test_centre_window_alone_is_not_an_off_center_window(tmp_path):
    # its e0_mean is rounding (~3e-17), which once gave slope=7003589068472987
    code, out, _ = run_cli(["simulate", *SMALL_SYSTEM, "--members", "4", "--check",
                            "--windows=0", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL  centroid-slope: no off-center windows available for a slope fit" in out


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_failed_members_leave_no_empty_out_behind(tmp_path, monkeypatch, existing):
    def fail(cfg, member, arena):
        raise spectral.DiagonalizationError("forced failure")

    monkeypatch.setattr(cli.ensemble, "member_spectra", fail)
    out = tmp_path / "runs" / "a"
    if existing:
        out.mkdir(parents=True)
    with pytest.raises(SystemExit, match="^4 of 4 members failed"):
        cli.main(["simulate", *SMALL_SYSTEM, "--members", "4", "--out", str(out)])
    assert out.is_dir() == existing
    assert (tmp_path / "runs").exists() == existing
    if existing:
        assert not any(out.iterdir())


def test_one_failed_member_in_200_is_reported_once_and_the_run_written(tmp_path, monkeypatch):
    spectra = cli.ensemble.member_spectra

    def fail_member_3(cfg, member, arena):
        if member == 3:
            raise spectral.DiagonalizationError("forced failure")
        return spectra(cfg, member, arena)

    monkeypatch.setattr(cli.ensemble, "member_spectra", fail_member_3)
    code, _, err = run_cli(["simulate", *SMALL_SYSTEM, "--members", "200", "--out",
                            str(tmp_path)])
    assert code == 0
    assert sim_outputs(tmp_path) == ["moments.csv", "npc.csv", "params.csv",
                                     "strength_functions.csv"]
    lines = [line for line in err.splitlines() if not line.startswith("no OpenBLAS thread")]
    assert lines == ["failed member 3 (seed 2024): forced failure"]
    _, _, rows = read_csv(tmp_path / "params.csv")
    assert ["members_failed", "1"] in rows


def test_failed_members_keep_an_out_written_into_during_the_run(tmp_path, monkeypatch):
    out = tmp_path / "runs" / "a"

    def fail(cfg, member, arena):
        (out / "other.txt").write_text("written by another process\n")
        raise spectral.DiagonalizationError("forced failure")

    monkeypatch.setattr(cli.ensemble, "member_spectra", fail)
    with pytest.raises(SystemExit, match="^4 of 4 members failed"):
        cli.main(["simulate", *SMALL_SYSTEM, "--members", "4", "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == ["other.txt"]


@pytest.mark.parametrize("which", ["missing", "directory"])
def test_unreadable_config_file_exits_without_traceback(tmp_path, which):
    path = tmp_path / "absent.cfg" if which == "missing" else tmp_path
    proc = cli_subprocess(["params", "--config", str(path)])
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("bad config file:") and proc.stderr.count("\n") == 1


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 2, reason="a threaded BLAS needs at least 2 CPUs")
@pytest.mark.parametrize("system", [(12, 6, 1, 2), (10, 5, 2, 3)], ids=["t1-d924", "t2-d252"])
def test_blas_thread_count_does_not_change_bytes(tmp_path, system):
    # t = 1 diagonalizes only H (d = 924 is large enough for threaded kernels);
    # t = 2 also runs the d x d H0 eigensolve.  One worker and the default
    # (the usable cores) both run members on one BLAS thread.
    flags = [f"--{name}={value}" for name, value in zip("Nmtk", system)]
    argv = ["simulate", *flags, "--xi-sq", "0.5", "--members", "3", "--seed", "9", "--moments"]
    runs = [(threads, workers) for workers in ("1", None) for threads in ("1", "2")]
    for threads, workers in runs:
        extra = ["--workers", workers] if workers else []
        proc = cli_subprocess(argv + extra + ["--out", str(tmp_path / f"{threads}-{workers}")],
                              OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
    first = tmp_path / "1-1"
    names = sim_outputs(first)
    assert "bivariate.csv" in names
    for threads, workers in runs[1:]:
        other = tmp_path / f"{threads}-{workers}"
        assert sim_outputs(other) == names
        for name in names:
            assert (first / name).read_bytes() == (other / name).read_bytes(), (other.name, name)


def test_simulate_workers_default_is_the_usable_cores(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args.workers) or 0)
    assert cli.main(["simulate", "--N", "8", "--m", "4", "--t", "1", "--k", "2"]) == 0
    assert seen == [cli.ensemble.RunConfig.workers] == [_usable_cpus()]
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"default: the usable cores, {_usable_cpus()} here" in help_text


def test_npc_and_simulate_do_not_import_scipy(tmp_path):
    # scipy is a test-only dependency: no module and no command may load it
    script = (
        "import importlib, pkgutil, sys\n"
        "import qstrength\n"
        "for mod in pkgutil.iter_modules(qstrength.__path__):\n"
        "    importlib.import_module('qstrength.' + mod.name)\n"
        "from qstrength import cli\n"
        "flags = ['--N', '8', '--m', '4', '--t', '1', '--k', '2', '--xi-sq', '0.5']\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['tables', '--out', out + '/tables']) == 0\n"
        "assert cli.main(['params', *flags, '--out', out + '/params']) == 0\n"
        "assert cli.main(['qnormal', '--q', '0.5', '--y', '1', '--xi', '0.7',"
        " '--out', out + '/qnormal.csv']) == 0\n"
        "assert cli.main(['npc', *flags, '--out', out + '/npc.csv']) == 0\n"
        "assert cli.main(['simulate', *flags, '--members', '2', '--moments',"
        " '--out', out + '/sim']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
