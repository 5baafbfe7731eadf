"""End-to-end command line runs: outputs, exit codes, determinism."""

import contextlib
import io
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from canonfactor import (HalfLineFunction, build_toeplitz, cli,
                         inverse_spectral, read_halfline, read_hamiltonian,
                         read_matrix, sinc_bump_weight, step_weight,
                         write_halfline, write_hamiltonian)
from canonfactor.hamiltonian import Hamiltonian


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "canonfactor.cli", *args],
                          capture_output=True, text=True, timeout=300)
    return proc


def test_szego_constant_table_is_zero(tmp_path):
    proc = run_cli("szego", "--weight", "constant:c=2", "--y", "0.5,1,2")
    assert proc.returncode == 0
    vals = [float(line.split()[-1]) for line in
            proc.stdout.strip().splitlines() if not line.startswith("#")]
    assert vals == [0.0, 0.0, 0.0]


def test_szego_step_matches_library(tmp_path):
    proc = run_cli("szego", "--weight", "step:inner=2,half_width=1")
    assert proc.returncode == 0
    val = float(proc.stdout.strip().splitlines()[-1].split()[-1])
    assert abs(val - (np.log(1.5) - 0.5 * np.log(2.0))) < 1e-10


def test_invert_then_forward_round_trip(tmp_path):
    hfile = tmp_path / "h.txt"
    proc = run_cli("invert", "--weight", "sinc-bump:amplitude=0.5,scale=1",
                   "--span", "16", "--cells", "128",
                   "--out-hamiltonian", str(hfile))
    assert proc.returncode == 0, proc.stderr
    ham = read_hamiltonian(hfile)
    assert ham.grid.n_cells == 128
    out = tmp_path / "dens.txt"
    proc = run_cli("forward", "--hamiltonian", str(hfile),
                   "--density-grid=-3:3:13", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    xs = np.array([float(r[0]) for r in rows])
    ws = np.array([float(r[1]) for r in rows])
    truth = 1.0 + 0.5 * np.sinc(xs / np.pi) ** 2
    assert np.max(np.abs(ws - truth) / truth) < 1e-2


def test_invert_prints_the_report(tmp_path):
    # the health figures follow the earlier keys, and repr floats
    # round-trip to the report's values exactly
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["invert", "--weight",
                         "sinc-bump:amplitude=0.5,scale=1", "--span", "10",
                         "--cells", "64",
                         "--out-hamiltonian", str(tmp_path / "h.txt")])
    assert code == 0
    keys, values = zip(*(line.split("=") for line in
                         out.getvalue().splitlines()))
    assert keys == ("cells", "eta", "cond", "max_det_dev", "ill_conditioned",
                    "min_eig", "max_eig", "pe_floor", "max_reflection")
    _, rep = inverse_spectral(sinc_bump_weight(0.5, 1.0), 10.0, 64,
                              report=True)
    printed = dict(zip(keys, values))
    for key in keys[5:]:
        assert float(printed[key]) == getattr(rep, key), key


def test_weyl_values(tmp_path):
    hfile = tmp_path / "h.txt"
    write_hamiltonian(Hamiltonian.identity(40.0, 4), hfile)
    proc = run_cli("weyl", "--hamiltonian", str(hfile), "--z", "1j,2j")
    assert proc.returncode == 0, proc.stderr
    rows = [l.split() for l in proc.stdout.splitlines()
            if l and not l.startswith("#")]
    # columns: Re z, Im z, Re m, Im m, diam; m = i for the free system
    for r in rows:
        assert abs(float(r[2])) < 1e-9
        assert abs(float(r[3]) - 1.0) < 1e-9


def test_a2_and_decompose_commands(tmp_path):
    f = HalfLineFunction([0.0, 1.0, 2.0], [1.0, 2.0], tail=1.0)
    ffile = tmp_path / "f.txt"
    write_halfline(f, ffile)
    proc = run_cli("a2", "--function", str(ffile), "--tail", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert "1.125" in proc.stdout          # [f]_2 = 9/8

    g = HalfLineFunction([0.0, 1.0, 2.0], [3.0, -0.25])
    gfile = tmp_path / "g.txt"
    write_halfline(g, gfile)
    f1p, f2p = tmp_path / "f1.txt", tmp_path / "f2.txt"
    proc = run_cli("decompose", "--function", str(gfile),
                   "--out-f1", str(f1p), "--out-f2", str(f2p))
    assert proc.returncode == 0, proc.stderr
    f1, f2 = read_halfline(f1p), read_halfline(f2p)
    assert np.array_equal(f1.values + f2.values, g.values)


def test_factorize_writes_factor(tmp_path):
    afile = tmp_path / "A.txt"
    proc = run_cli("factorize", "--weight", "step:inner=2,half_width=1",
                   "--window", "6.4", "--cells", "64",
                   "--out-factor", str(afile))
    assert proc.returncode == 0, proc.stderr
    assert "residual=" in proc.stdout
    A = read_matrix(afile)
    assert A.shape == (64, 64)
    assert np.allclose(A, np.triu(A))


def test_factorize_writes_cholesky_oracle(tmp_path):
    lfile = tmp_path / "L.txt"
    proc = run_cli("factorize", "--weight", "step:inner=2,half_width=1",
                   "--window", "6.4", "--cells", "32",
                   "--out-cholesky", str(lfile))
    assert proc.returncode == 0, proc.stderr
    L = read_matrix(lfile)
    W = build_toeplitz(step_weight(2.0, 1.0), 32, 6.4 / 32).matrix
    assert np.array_equal(L, np.tril(L))
    assert np.max(np.abs(L @ L.T - W)) <= 1e-13


def test_transform_isometry_cli(tmp_path):
    hfile = tmp_path / "h.txt"
    write_hamiltonian(Hamiltonian.identity(2.0, 2), hfile)
    f = HalfLineFunction([0.0, 1.0, 2.0], [1.0, -2.0], tail=0.0)
    ffile = tmp_path / "f.txt"
    write_halfline(f, ffile)
    proc = run_cli("transform", "--hamiltonian", str(hfile),
                   "--function", str(ffile), "--z", "0.5,1.5",
                   "--weight", "constant:c=1")
    assert proc.returncode == 0, proc.stderr
    assert "isometry_residual" in proc.stdout


def test_verify_subset(tmp_path):
    proc = run_cli("verify", "--only", "1,9")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]  1" in proc.stdout
    assert "[PASS]  9" in proc.stdout


def test_python_m_canonfactor_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "canonfactor", "verify",
                           "--only", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "passed 1/1" in proc.stdout


def test_deterministic_output(tmp_path):
    a = run_cli("szego", "--weight", "cosine-bump:amplitude=1,half_width=1",
                "--y", "0.5,1,2,4")
    b = run_cli("szego", "--weight", "cosine-bump:amplitude=1,half_width=1",
                "--y", "0.5,1,2,4")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_exit_code_2_config_error(tmp_path):
    # unreadable weight spec
    proc = run_cli("szego", "--weight", "step:inner=two")
    assert proc.returncode == 2
    assert "error" in proc.stderr
    # malformed config file
    cfg = tmp_path / "c.ini"
    cfg.write_text("not an ini\n")
    proc = run_cli("--config", str(cfg), "szego", "--weight", "constant:c=1")
    assert proc.returncode == 2


def test_exit_code_2_unknown_weight_family():
    # an unknown family is a configuration problem, as an unknown
    # parameter is, and the message lists the known families
    proc = run_cli("szego", "--weight", "nope:c=1")
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "kind=config" in lines[0]
    assert "'nope'" in lines[0] and "'sinc-bump'" in lines[0]


def test_exit_code_2_missing_file():
    proc = run_cli("weyl", "--hamiltonian", "/nonexistent/h.txt", "--z", "1j")
    assert proc.returncode == 2


def _single_config_error(proc):
    lines = proc.stderr.strip().splitlines()
    return (proc.returncode == 2 and len(lines) == 1
            and lines[0].startswith("canonfactor: error kind=config"))


def test_exit_code_2_directory_as_input(tmp_path):
    proc = run_cli("forward", "--hamiltonian", str(tmp_path))
    assert _single_config_error(proc)


def test_exit_code_2_directory_as_output(tmp_path):
    proc = run_cli("invert", "--weight", "sinc-bump:amplitude=0.5,scale=1",
                   "--span", "2", "--cells", "8",
                   "--out-hamiltonian", str(tmp_path))
    assert _single_config_error(proc)


def test_exit_code_2_unwritable_out(tmp_path):
    # the report is written after the work, by the same error handling
    proc = run_cli("szego", "--weight", "constant:c=2",
                   "--out", str(tmp_path / "missing" / "x.txt"))
    assert _single_config_error(proc)


def test_exit_code_3_non_utf8_table(tmp_path):
    hfile = tmp_path / "h.txt"
    hfile.write_bytes(b"#canon-hamiltonian v1\n" + bytes(range(128, 256)))
    proc = run_cli("forward", "--hamiltonian", str(hfile))
    assert proc.returncode == 3
    assert proc.stderr.startswith("canonfactor: error kind=domain")


def test_exit_code_3_domain_error():
    # szego needs Im z > 0 <=> y > 0
    proc = run_cli("szego", "--weight", "constant:c=1", "--y", "-1")
    assert proc.returncode == 3
    assert "kind=domain" in proc.stderr


def test_exit_code_3_header_only_hamiltonian(tmp_path):
    hfile = tmp_path / "h.txt"
    hfile.write_text("#canon-hamiltonian v1\n")
    proc = run_cli("forward", "--hamiltonian", str(hfile))
    assert proc.returncode == 3
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("canonfactor: error kind=domain")


def test_exit_code_4_convergence_error(tmp_path):
    hfile = tmp_path / "h.txt"
    write_hamiltonian(Hamiltonian.identity(3.0, 3), hfile)
    proc = run_cli("weyl", "--hamiltonian", str(hfile), "--z", "0.05j",
                   "--tol-weyl", "1e-14")
    assert proc.returncode == 4
    assert "kind=convergence" in proc.stderr


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[szego]\nweight = constant:c=3\ny = 1,2\n")
    proc = run_cli("--config", str(cfg), "szego")
    assert proc.returncode == 0, proc.stderr
    vals = [float(l.split()[-1]) for l in proc.stdout.strip().splitlines()
            if not l.startswith("#")]
    assert vals == [0.0, 0.0]


@pytest.mark.parametrize("ini, where", [
    ("[szego]\nweight = constant:c=3\nys = 0.5,3\n", "'ys' in [szego]"),
    ("[common]\nbogus = 1\n[szego]\nweight = constant:c=3\n",
     "'bogus' in [common]")], ids=["command", "common"])
def test_config_key_no_option_takes_is_an_error(tmp_path, ini, where):
    # such a key used to be dropped, and szego ran with its default y = 1
    cfg = tmp_path / "c.ini"
    cfg.write_text(ini)
    proc = run_cli("--config", str(cfg), "szego")
    assert _single_config_error(proc), proc.stderr
    assert where in proc.stderr
    assert proc.stdout == ""


def test_config_common_key_of_another_command_is_harmless(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[common]\ncells = 8\nweight = constant:c=3\n"
                   "[szego]\ny = 2\n")
    proc = run_cli("--config", str(cfg), "szego")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["2.0", "0.0"]


@pytest.mark.parametrize("only", ["99", "1,99", "0"])
def test_verify_checks_every_index_before_any_criterion(capsys, only):
    # an unknown index is a bad flag value: exit 2, and criterion 1 of
    # "1,99" does not run first
    assert cli.main(["verify", "--only", only]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("canonfactor: error kind=config")
    assert "no acceptance criterion" in err


def test_verify_runs_each_index_once(capsys):
    assert cli.main(["verify", "--only", "3,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[-1] == "passed 1/1"


def test_tol_weyl_is_nonnegative():
    # a negative tolerance is a bad flag (exit 2 before numpy), not a
    # convergence failure against "tol -1.0e+00"; 0 stays valid
    code = ("import contextlib, io, sys\n"
            "from canonfactor.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    code = main(['weyl', '--hamiltonian', 'h.txt', '--z', '1j',\n"
            "                 '--tol-weyl', '-1'])\n"
            "print(code, 'numpy' in sys.modules, '--tol-weyl' in "
            "err.getvalue())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2 False True"
    args = cli._build_parser().parse_args(
        ["weyl", "--hamiltonian", "h.txt", "--z", "1j", "--tol-weyl", "0"])
    assert args.tol_weyl == 0.0


def test_config_entries_parse_as_flags(tmp_path, capsys):
    # an INI entry is a flag ahead of the user's: argparse converts and
    # checks it, and an explicit flag wins
    cfg = tmp_path / "c.ini"
    cfg.write_text("[common]\nseed = 3\n[szego]\nweight = constant:c=3\n"
                   "y = 1,2\n")
    assert cli.main(["--config", str(cfg), "szego", "--y", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["4.0 0.0"]
    args = cli._merge_config(cli._build_parser(),
                             ["--config", str(cfg), "szego"])
    assert (args.seed, args.y, args.weight) == (3, "1,2", "constant:c=3")
    assert cli._merge_config(cli._build_parser(),
                             ["--seed", "5", "--config", str(cfg),
                              "szego"]).seed == 5
    cfg.write_text("[weyl]\nhamiltonian = h.txt\nz = 1j\ntol-weyl = -1\n")
    assert cli.main(["--config", str(cfg), "weyl"]) == 2
    assert "argument --tol-weyl: negative" in capsys.readouterr().err


def test_early_errors_leave_numpy_unimported():
    # --help, an argparse error, a malformed weight spec and every
    # malformed flag value answer before the numeric imports (the
    # start-up promise of the cli docstring); the files named need not
    # exist, since nothing is read
    bad = [["invert", "--cells"],
           ["szego", "--weight", "step:inner=x"],
           ["szego", "--weight", "step", "--y", "x"],
           ["verify", "--only", "x"],
           ["weyl", "--hamiltonian", "h.txt", "--z", "bad"],
           ["forward", "--hamiltonian", "h.txt", "--times", "x"],
           ["forward", "--hamiltonian", "h.txt", "--density-grid=1:2"],
           ["transform", "--hamiltonian", "h.txt", "--function", "f.txt",
            "--z", "bad"]]
    code = ("import contextlib, io, sys\n"
            "from canonfactor.cli import main\n"
            "codes = []\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            f"    for argv in {[['--help']] + bad!r}:\n"
            "        try:\n"
            "            codes.append(main(argv))\n"
            "        except SystemExit as exc:\n"
            "            codes.append(exc.code)\n"
            "print(codes, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] + [2] * len(bad)} False"


@pytest.mark.parametrize("grid", ["0:1:-5", "0:1:0", "0:1:2.5", "nan:1:3",
                                  "0:inf:3", "0:1", "0:1:3:4"])
def test_exit_code_2_bad_density_grid(tmp_path, grid):
    hfile = tmp_path / "h.txt"
    write_hamiltonian(Hamiltonian.identity(4.0, 4), hfile)
    proc = run_cli("forward", "--hamiltonian", str(hfile),
                   f"--density-grid={grid}")
    assert _single_config_error(proc), proc.stderr


def test_exit_code_3_internal_error(monkeypatch, capsys):
    # an untyped exception is one kind=internal line and exit 3, never
    # the exit 1 of a failed verification
    def broken(args, out):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "szego", broken)
    assert cli.main(["szego", "--weight", "constant:c=1"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["canonfactor: error kind=internal "
                     "detail=RuntimeError: boom second line"]


# malformed or degenerate values for any option; blank values are left
# out for verify, where an empty --only means the whole suite
_MALFORMED = ["", " ", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "-0",
              "1e-320", ",", "1:2", "1j", "1+infj", "--", "\u00e9", "-2.5"]
_BAD_WEIGHTS = ["", "step", "step:inner=x", "step:inner=nan",
                "step:inner=inf,half_width=1", "step:inner=-1",
                "step:half_width=0", "constant:c=0", "constant:c=inf",
                "nope:c=1", "step:bogus=1", "step:=2", "step:inner",
                "sinc-bump:scale=1e-320", "sinc-bump:amplitude=nan",
                "cosine-bump:half_width=1e-320", "@/nonexistent/w.txt",
                "file:"]


@pytest.fixture(scope="module")
def fuzz_commands(tmp_path_factory):
    """One small valid argv per subcommand (verify's names no criterion);
    every output path lies in a temporary directory."""
    d = tmp_path_factory.mktemp("fuzz")
    ham, fun = str(d / "h.txt"), str(d / "f.txt")
    write_hamiltonian(Hamiltonian.identity(40.0, 4), ham)
    write_halfline(HalfLineFunction.from_uniform([1.0, -0.5, 0.25, 2.0],
                                                 span=2.0), fun)
    step = "step:inner=2,half_width=1"
    return {
        "forward": ["--hamiltonian", ham, "--times", "1", "--z", "1+0.5j",
                    "--density-grid", "-1:1:3"],
        "weyl": ["--hamiltonian", ham, "--z", "1j", "--tol-weyl", "1e-10"],
        "szego": ["--weight", step, "--y", "1"],
        "a2": ["--function", fun, "--tail", "0", "--window", "2"],
        "decompose": ["--function", fun, "--out-f1", str(d / "f1.txt"),
                      "--out-f2", str(d / "f2.txt")],
        "invert": ["--weight", "sinc-bump:amplitude=0.5,scale=1",
                   "--span", "4", "--cells", "8", "--truncate", "30",
                   "--out-hamiltonian", str(d / "h_out.txt")],
        "transform": ["--hamiltonian", ham, "--function", fun,
                      "--z", "1+0.5j", "--weight", "constant:c=1",
                      "--x-truncation", "10"],
        "factorize": ["--weight", step, "--window", "3.2", "--cells", "8",
                      "--out-factor", str(d / "a.txt"),
                      "--out-cholesky", str(d / "l.txt")],
        "verify": ["--only", "0"],
    }


@settings(max_examples=300)
@given(data=st.data())
def test_fuzz_every_failure_is_one_error_line(fuzz_commands, data):
    cmd = data.draw(st.sampled_from(sorted(fuzz_commands)), label="command")
    argv = list(fuzz_commands[cmd])
    flags = [i for i, a in enumerate(argv)
             if a.startswith("--") and not a.startswith("--out")]
    how = data.draw(st.sampled_from(["value", "value", "value", "no value",
                                     "unknown flag", "global flag"]))
    if how == "value":
        for i in data.draw(st.lists(st.sampled_from(flags), min_size=1,
                                    max_size=2, unique=True)):
            bad = _BAD_WEIGHTS if argv[i] == "--weight" else _MALFORMED
            if cmd == "verify":
                bad = [b for b in bad if b.strip()]
            argv[i + 1] = data.draw(st.sampled_from(bad))
        argv = [cmd] + argv
    elif how == "no value":
        del argv[data.draw(st.sampled_from(flags)) + 1]
        argv = [cmd] + argv
    elif how == "unknown flag":
        argv = [cmd] + argv + ["--bogus", "1"]
    else:
        flag = data.draw(st.sampled_from(["--seed", "--config"]))
        argv = [flag, data.draw(st.sampled_from(_MALFORMED)), cmd] + argv
    note(argv)
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
        assert "nan" not in out.getvalue().lower()
    else:
        assert code in (2, 3, 4)
        assert len(lines) == 1
        assert lines[0].startswith("canonfactor: error kind=")
