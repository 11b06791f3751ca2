import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hrsp
from hrsp.cli import main
from hrsp.noise import TraceDeficitWarning


#: every table row of each receiver
RECEIVER_ROWS = {"bob": [("I", r) for r in range(1, 9)],
                 "charlie": [("oracle", r) for r in range(1, 33)],
                 "david": [(t, r) for t in ("II", "III") for r in range(1, 17)]}

#: SHA-256 of the concatenated CSVs of every row of a receiver at the
#: default target (correlated channel, default grid)
ROW_CSV_DIGESTS = {
    ("ad", "bob"): "c5f5dde23b7a5385de2784f85f2e637f1896b022c0c03bb24de0db8de768571d",
    ("ad", "charlie"): "3a6c5631a6b20dbec0c69991213fb6190aa8b2d41f0d0df3d5987b86f71f0d58",
    ("ad", "david"): "bc8f61cec73237bf11142cbd9b51680c670d9f04010466a22ed1b040af190620",
    ("pd", "bob"): "61f955f1ee43698d5b9c881e7a6147d9fe834358fa354e143de9868a3021fa27",
    ("pd", "charlie"): "bd3e07a181dfc2613dd444e62cd9a1ebe69066d9ecfb1a48f96cb18f691335be",
    ("pd", "david"): "aa2779b9e6d41b76a05ff589476961b5493afe7f4c2d271385bf424adcb63bb6",
}

#: SHA-256 of the CSV of each default --uncorrelated-noise sweep
UNCORRELATED_CSV_DIGESTS = {
    ("ad", "bob"): "d30adf0f146462b1c7a47f44e2cdad1e6a7f0bacebb7da9ade95013797b132c5",
    ("ad", "charlie"): "a65372c6afdb592c1b464ea34c45180df22771f8fd977cc308e11ace4c3cf846",
    ("ad", "david"): "0a5fcdce0919cf16683017a906dd6bbe84c9e965ce868e130ef096de0cd49793",
    ("pd", "bob"): "e00e2f63db00134ee8f6b4fe7ff3a40bd90e37bdd1cf7704f73f533ba0b50a10",
    ("pd", "charlie"): "8def524faad69ad2573f795e00d0833625187c644c0b7c1ce13d18ecbc628b31",
    ("pd", "david"): "daef9320d869c17800f66150bb16f65e53f91ebebde9709744e699034b5ce555",
}

#: SHA-256 of the CSV of each default correlated sweep at --step 0.0005: 2001
#: points, on the exact path; the library path's two grid chunks print the same
FINE_CSV_DIGESTS = {
    ("ad", "bob"): "89b1041932697a1cd07b0da5a21a67c0889740ffaf2f8c84548b90f0682e2b0f",
    ("ad", "charlie"): "8e6e30c4e67644c622f1017804e8b85b198a6bb7d42ef257f70e85a3540781a0",
    ("ad", "david"): "68075f62e8c7d6b05a73a14c9693ae6c6baefd35a12adb9f54a51d39175663fd",
    ("pd", "bob"): "7619144b148d69dc1afe48496e6814db6db3609a832e6bc6a14966aa1f56853e",
    ("pd", "charlie"): "d9f9d19bb2a968b65b5301b3f69c9583db5223e7020aee47d903566e292decc6",
    ("pd", "david"): "e8f670bb4064e3255211b967a01dbb1b4a6244d4ca56304dd61845cc4779c2c6",
}

#: SHA-256 of the standard output of each verify command
VERIFY_STDOUT_DIGESTS = {
    ("verify-tables",):
        "1d34027650148fd1faf56aee64f881d7ebc8a510af6b167e15783e45b28b0804",
    ("verify-factorization", "--variant", "bob"):
        "f53a8536113020d620aecfa6449cbf093acbb8c62e17e274608f2b4f4779c5f0",
    ("verify-factorization", "--variant", "david"):
        "7e0e8046a098d02efa1dae37efdc7e3157618aad53f3aba45a50a22acad7a4f3",
    ("verify-factorization", "--variant", "bob", "--alpha", "0.6",
     "--beta", "0.8"):
        "b7e3389c07fa5a3fa57ee521252ecafb8184aa4733504ed7d8468946cff40412",
    ("verify-factorization", "--variant", "david", "--alpha", "0.6",
     "--beta", "0.8"):
        "128cf0738410093723a217ac438f0f9c895b61a57a319b03b030df1cb663cd26",
}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyFactorization:
    def test_bob_variant_passes(self, capsys):
        code, out, _ = run_cli(["verify-factorization", "--variant", "bob"],
                               capsys)
        assert code == 0
        assert "residual" in out
        assert "matches the protocol state" in out

    def test_david_variant_reports_offending_terms(self, capsys):
        code, out, _ = run_cli(["verify-factorization", "--variant", "david"],
                               capsys)
        assert code == 1
        assert "offending published terms" in out
        assert out.count("max term deviation") == 3
        assert "zeta2 line 6" in out

    def test_unnormalized_parameters_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify-factorization", "--alpha", "2", "--beta", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["verify-factorization", "sweep"])
    @pytest.mark.parametrize("alpha,beta", [("nan", "nan"), ("nan", "1"),
                                            ("inf", "0")])
    def test_non_finite_parameters_exit_two(self, command, alpha, beta,
                                            tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        argv = [command, "--alpha", alpha, "--beta", beta]
        if command == "sweep":
            argv += ["--out", str(out_path)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha = ")
        assert captured.err.count("\n") == 1 and "not finite" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alpha", "1e200", "--beta", "1e200"],
        ["verify-factorization", "--alpha", "1e200", "--beta", "1"]])
    def test_overflowing_parameters_exit_two(self, argv, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(out_path)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: |alpha|^2 + |beta|^2 = inf, expected 1\n"
        assert not out_path.exists()

    def test_custom_point_passes(self, capsys):
        code, out, _ = run_cli(["verify-factorization", "--variant", "bob",
                                "--alpha", "0.6", "--beta", "0.8"], capsys)
        assert code == 0


class TestVerifyTables:
    def test_exit_zero_and_full_report(self, capsys):
        code, out, _ = run_cli(["verify-tables"], capsys)
        assert code == 0
        assert "table I fully confirmed" in out
        assert out.count("mismatch") == 4
        assert "derived correction table for receiver charlie" in out


class TestSweep:
    def test_default_sweep_reproduces_reference_endpoint(self, tmp_path, capsys):
        out_path = tmp_path / "ad_bob.csv"
        code, out, _ = run_cli(["sweep", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "noise,receiver,table,row,eta,fidelity"
        assert len(lines) == 12
        assert lines[1] == "ad,bob,I,1,0,1.000000"
        assert lines[10] == "ad,bob,I,1,0.9,0.887401"
        assert lines[11] == "ad,bob,I,1,1,0.707107"
        assert ("F(1) = 0.707107  [branch probability vanishes at eta=1; "
                "value is the exact limit as eta -> 1]") in out

    def test_pd_bob_boundary_extension(self, tmp_path, capsys):
        out_path = tmp_path / "pd_bob.csv"
        code, out, _ = run_cli(["sweep", "--noise", "pd", "--out",
                                str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text().splitlines()[11] == "pd,bob,I,1,1,0.707107"
        assert "value is the exact limit as eta -> 1]" in out

    def test_pd_david_last_value(self, tmp_path, capsys):
        out_path = tmp_path / "pd_david.csv"
        code, out, _ = run_cli(["sweep", "--noise", "pd", "--receiver",
                                "david", "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text().splitlines()[-1] == \
            "pd,david,II,1,1,0.500000"
        assert "F(1) = 0.500000" in out

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["sweep", "--step", "0.5", "--out", str(a)], capsys)
        run_cli(["sweep", "--step", "0.5", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_coarse_grid(self, tmp_path, capsys):
        out_path = tmp_path / "coarse.csv"
        code, _, _ = run_cli(["sweep", "--step", "0.5", "--out",
                              str(out_path)], capsys)
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert [r.split(",")[4] for r in rows] == ["0", "0.5", "1"]

    def test_bad_step_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["sweep", "--step", "0.3", "--out",
                                str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "does not divide" in err

    # 1e-320 is subnormal: its inverse is infinite
    @pytest.mark.parametrize("step", ["0", "nan", "1e-320"])
    def test_zero_or_nan_step_exits_two(self, step, tmp_path, capsys):
        code, _, err = run_cli(["sweep", "--step", step, "--out",
                                str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "does not divide" in err

    def test_oversized_grid_exits_two(self, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(["sweep", "--step", "1e-6", "--out",
                                str(out_path)], capsys)
        assert code == 2
        assert "1000001 grid points, more than MAX_GRID_POINTS = 100001" in err
        assert not out_path.exists()

    def test_huge_grid_count_is_not_printed_in_full(self, tmp_path, capsys):
        # the count of a step of 1e-300 has 301 digits
        code, _, err = run_cli(["sweep", "--step", "1e-300", "--out",
                                str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "gives about 1e+300 grid points, more than MAX_GRID_POINTS" in err
        assert len(err) < 200

    @pytest.mark.parametrize("row", ["0", "33"])
    def test_oracle_row_out_of_range_exits_two(self, row, tmp_path, capsys):
        code, _, err = run_cli(["sweep", "--receiver", "charlie", "--table",
                                "oracle", "--row", row, "--out",
                                str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert f"table oracle has rows 1..32, got {row}" in err

    def test_receiver_table_mismatch_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["sweep", "--receiver", "bob", "--table",
                                "oracle", "--out", str(tmp_path / "x.csv")],
                               capsys)
        assert code == 2
        assert "table oracle row 1 corrects charlie or david, not bob" in err

    def test_unwritable_path_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(["sweep", "--step", "0.5", "--out",
                                str(tmp_path)], capsys)
        assert code == 1
        assert "cannot write" in err

    def test_charlie_uses_derived_table(self, tmp_path, capsys):
        out_path = tmp_path / "charlie.csv"
        code, _, _ = run_cli(["sweep", "--receiver", "charlie", "--step",
                              "0.5", "--out", str(out_path)], capsys)
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert all(r.startswith("ad,charlie,oracle,1,") for r in rows)

    @pytest.mark.parametrize("noise", ["ad", "pd"])
    def test_david_reads_charlies_derived_rows(self, noise, tmp_path, capsys):
        # the derived table serves both Hadamard receivers: every row prints
        # the same CSV for David as for Charlie, but for the receiver column
        def csv(receiver, row):
            out_path = tmp_path / f"{receiver}.csv"
            code, _, _ = run_cli(["sweep", "--noise", noise, "--receiver",
                                  receiver, "--table", "oracle", "--row",
                                  str(row), "--out", str(out_path)], capsys)
            assert code == 0
            return [line.split(",") for line in out_path.read_text().splitlines()]

        for row in range(1, 33):
            charlie, david = csv("charlie", row), csv("david", row)
            assert [line[1] for line in david[1:]] == ["david"] * 11
            assert ([line[:1] + line[2:] for line in david]
                    == [line[:1] + line[2:] for line in charlie])

    def test_uncorrelated_flag_is_labeled(self, tmp_path, capsys):
        code, out, _ = run_cli(["sweep", "--step", "0.5",
                                "--uncorrelated-noise", "--out",
                                str(tmp_path / "u.csv")], capsys)
        assert code == 0
        assert "uncorrelated baseline" in out

    def test_correlated_sweep_warns_trace_deficit(self, tmp_path):
        with pytest.warns(TraceDeficitWarning):
            main(["sweep", "--step", "0.5", "--out", str(tmp_path / "c.csv")])

    def test_uncorrelated_sweep_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceDeficitWarning)
            assert main(["sweep", "--step", "0.5", "--uncorrelated-noise",
                         "--out", str(tmp_path / "u.csv")]) == 0


class TestGoldenCsv:
    """The sweep CSV is pinned byte for byte; a change of output on purpose
    updates these digests."""

    @pytest.mark.parametrize("noise,receiver", list(ROW_CSV_DIGESTS))
    def test_every_row(self, noise, receiver, tmp_path):
        out_path = tmp_path / "rows.csv"
        digest = hashlib.sha256()
        for table, row in RECEIVER_ROWS[receiver]:
            assert main(["sweep", "--noise", noise, "--receiver", receiver,
                         "--table", table, "--row", str(row),
                         "--out", str(out_path)]) == 0
            digest.update(out_path.read_bytes())
        assert digest.hexdigest() == ROW_CSV_DIGESTS[(noise, receiver)]

    @pytest.mark.parametrize("noise,receiver", list(UNCORRELATED_CSV_DIGESTS))
    def test_uncorrelated_default(self, noise, receiver, tmp_path):
        out_path = tmp_path / "u.csv"
        assert main(["sweep", "--noise", noise, "--receiver", receiver,
                     "--uncorrelated-noise", "--out", str(out_path)]) == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == UNCORRELATED_CSV_DIGESTS[(noise, receiver)]

    @pytest.mark.parametrize("noise,receiver", list(FINE_CSV_DIGESTS))
    def test_two_chunk_default(self, noise, receiver, tmp_path):
        out_path = tmp_path / "fine.csv"
        assert main(["sweep", "--noise", noise, "--receiver", receiver,
                     "--step", "0.0005", "--out", str(out_path)]) == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == FINE_CSV_DIGESTS[(noise, receiver)]

    @pytest.mark.parametrize("argv", list(VERIFY_STDOUT_DIGESTS))
    def test_verify_stdout(self, argv, capsys):
        _, out, _ = run_cli(list(argv), capsys)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == VERIFY_STDOUT_DIGESTS[argv]


#: runs `python -m hrsp.cli ARGS` in this process, then checks its modules
#: and prints its exit status and whether numpy was imported
IMPORT_CHECK = """
import runpy, sys
sys.argv = ["hrsp", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("hrsp.cli", run_name="__main__")
except SystemExit as exit:
    code = exit.code
for name in ("numpy.ma", "dataclasses", "inspect"):
    assert name not in sys.modules, f"{name} was imported"
print(code, "numpy" in sys.modules)
"""


def run_python(argv, cwd):
    """Run python ARGV on the checkout's src; returns its standard output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestImports:
    # np.unique, np.union1d and np.isin import numpy.ma on their first call,
    # 12-89 ms, more than a whole sweep; no command needs it. No command
    # imports numpy at all, nor dataclasses or inspect (about 10 ms of a
    # 55 ms process): a sweep (every receiver, noise kind and channel
    # mode at the default grid, and a 20,001-point grid), the verify
    # commands and --version. The David factorization reports its
    # misprinted lines with exit status 1
    @pytest.mark.parametrize("argv", [
        ["sweep", "--receiver", "bob"], ["sweep", "--receiver", "charlie"],
        ["sweep", "--receiver", "david"], ["verify-tables"],
        ["verify-factorization"],
        *(["sweep", "--receiver", receiver, "--noise", noise, *mode]
          for receiver in ("bob", "charlie", "david") for noise in ("ad", "pd")
          for mode in ([], ["--uncorrelated-noise"]) if noise == "pd" or mode),
        ["--version"], ["sweep", "--receiver", "charlie", "--step", "0.00005"],
        ["verify-factorization", "--variant", "david", "--alpha", "0.6",
         "--beta", "-0.8"]])
    def test_command_leaves_numpy_ma_unimported(self, argv, tmp_path):
        code = int(argv[0] == "verify-factorization" and "david" in argv)
        if argv[0] == "sweep":
            argv = argv + ["--out", str(tmp_path / "sweep.csv")]
        out = run_python(["-c", IMPORT_CHECK, *argv], tmp_path)
        assert out.splitlines()[-1] == f"{code} False"

    def test_pipeline_loads_only_the_exact_module(self, tmp_path):
        # the library's sweeps read their configs, target, floor, warning,
        # Grams and corrections from hrsp.exact: no module of the oracle,
        # the states or the channel model, for a published or a derived row
        out = run_python(["-c", (
            "import sys, hrsp.pipeline as p; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'hrsp')); "
            "[p.sweep(p.default_config(receiver=r)) for r in ('bob', 'charlie')]; "
            "p.receiver_state(p.default_config(receiver='david'), 0.5); "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'hrsp'))")],
            tmp_path)
        assert out == "hrsp hrsp.exact hrsp.pipeline\n" * 2

    def test_protocol_imports_no_numpy(self, tmp_path):
        # the oracle, the verdicts, the report and the factorization check
        # are integer and float code, and the module holds no numpy matrix:
        # a rule's matrix is its integer real_product
        out = run_python(["-c", (
            "import sys; from hrsp import protocol as p; "
            "p.format_table_report({t: p.verify_table(t) for t in p.CORRECTION_TABLES}); "
            "p.verify_factorization('david', p.ORACLE_POINTS[1]); "
            "print('numpy' in sys.modules, hasattr(p, 'TOKENS'), "
            "hasattr(p, 'correction_unitary'), hasattr(p.CorrectionRule, 'unitary'))")],
            tmp_path)
        assert out == "False False False False\n"

    def test_bare_import_leaves_numpy_unimported(self, tmp_path):
        out = run_python(["-c", "import hrsp, sys; print('numpy' in sys.modules)"],
                         tmp_path)
        assert out == "False\n"

    def test_every_submodule_resolves_from_a_bare_import(self, tmp_path):
        # hrsp.exact and hrsp.cli included, each listed by dir(hrsp), and
        # neither imports numpy
        out = run_python(["-c", (
            "import sys, hrsp; "
            "print(hrsp.exact.__name__, hrsp.cli.__name__, 'numpy' in sys.modules); "
            "print(all(m in dir(hrsp) and getattr(hrsp, m).__name__ == 'hrsp.' + m "
            "for m in hrsp._SUBMODULES), sorted(hrsp._SUBMODULES))")], tmp_path)
        assert out == ("hrsp.exact hrsp.cli False\n"
                       "True ['cli', 'exact', 'linalg', 'noise', 'pipeline', "
                       "'protocol', 'states']\n")

    def test_every_export_resolves(self):
        namespace = {}
        exec("from hrsp import *", namespace)
        assert set(hrsp.__all__) <= set(namespace)
        assert set(hrsp.__all__) <= set(dir(hrsp))
        for name in hrsp.__all__:
            assert getattr(hrsp, name) is namespace[name]
        assert hrsp.sweep is hrsp.pipeline.sweep
        with pytest.raises(AttributeError, match="has no attribute 'exact_sweep'"):
            hrsp.exact_sweep
