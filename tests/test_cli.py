"""Command-line surface: formats, file arguments, env vars, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trainyard import cli, parse_rodset, train_counts
from trainyard.expansion import DEFAULT_HORIZON

from conftest import PROPERTY

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def run(capsys, monkeypatch):
    def runner(argv, env=None):
        monkeypatch.delenv("TRAINYARD_HORIZON", raising=False)
        monkeypatch.delenv("TRAINYARD_FORMAT", raising=False)
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return runner


@pytest.mark.parametrize(
    "argv, env, golden",
    [
        (["counts", "[1,2]", "-n", "10"], None, "counts_fib.txt"),
        (["counts", "[1,-2]", "-n", "5"], {"TRAINYARD_FORMAT": "json"}, "counts_anti_json.txt"),
        (["period", "[-1,3,4,5,-7,-8]"], None, "period_long.txt"),
        (["period", "[1,-2]"], {"TRAINYARD_FORMAT": "json"}, "period_json.txt"),
        (["scan2", "[2,3]", "-b", "16"], None, "scan2_padovan.txt"),
        (["scan2", "[2,3]", "-b", "16"], {"TRAINYARD_FORMAT": "json"}, "scan2_padovan_json.txt"),
        (["solveq", "[1,2]", "[2,3]", "-n", "8"], None, "solveq_infinite.txt"),
        (["enumerate", "[2,3]", "5", "--list"], None, "enumerate_list.txt"),
        (["borwein", "-b", "12"], {"TRAINYARD_FORMAT": "json"}, "borwein12_json.txt"),
        (["dual", "[2]", "-n", "8"], {"TRAINYARD_FORMAT": "json"}, "dual_json.txt"),
        (["cyclo", "105"], None, "cyclo105.txt"),
        (["expand", "[1,2]", "[2]"], {"TRAINYARD_FORMAT": "json"}, "expand_json.txt"),
        (["discrep", "[1,2]", "[2,3]", "-n", "8"], {"TRAINYARD_FORMAT": "json"}, "discrep_json.txt"),
        (["solveq", "[2,3]", "[4^3,13]"], {"TRAINYARD_FORMAT": "json"}, "solveq_json.txt"),
        (["solver", "[2]", "[1,3,4]"], {"TRAINYARD_FORMAT": "json"}, "solver_json.txt"),
        (["compose", "[2]", "[3]"], {"TRAINYARD_FORMAT": "json"}, "compose_json.txt"),
        (["fromseq", "1,1,2,5,14,42,132"], {"TRAINYARD_FORMAT": "json"}, "fromseq_json.txt"),
        (["expandmin", "[1^3,2^2]"], {"TRAINYARD_FORMAT": "json"}, "expandmin_json.txt"),
        (["scan1", "[1,-2]", "-b", "7"], {"TRAINYARD_FORMAT": "json"}, "scan1_json.txt"),
        (["lucas", "3", "2", "+"], {"TRAINYARD_FORMAT": "json"}, "lucas_json.txt"),
        (
            ["lucas-shapes", "3", "2", "+", "--kind", "skip", "--a", "4"],
            {"TRAINYARD_FORMAT": "json"},
            "lucas_shapes_json.txt",
        ),
        (["binom", "[3,5]", "70"], {"TRAINYARD_FORMAT": "json"}, "binom_json.txt"),
        (["poly", "mul", "1,1", "1,-1"], {"TRAINYARD_FORMAT": "json"}, "poly_mul_json.txt"),
        (["poly", "div", "1,0,-1", "-1,1"], {"TRAINYARD_FORMAT": "json"}, "poly_div_json.txt"),
        (["cyclo", "6"], {"TRAINYARD_FORMAT": "json"}, "cyclo_json.txt"),
        (["enumerate", "[2,3]", "5", "--list"], {"TRAINYARD_FORMAT": "json"}, "enumerate_json.txt"),
    ],
)
def test_golden_outputs(run, argv, env, golden):
    code, out, err = run(argv, env)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text(), f"output drifted from golden {golden}"


def test_scan2_at_a_large_bound_prints_the_padovan_golden(run):
    code, out, err = run(["scan2", "[2,3]", "-b", "6000"])
    assert code == 0 and err == ""
    assert out == (GOLDEN / "scan2_padovan.txt").read_text(), (
        "bound 6000 must add no hit to the bound-16 Padovan table"
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["discrep", "[1,2]", "[2,3]", "-n", "8"], "1,1,1,2,3,5,8,13\n"),
        (["expand", "[1,2]", "[2]"], "S=[1,3,4]\n"),
        (["solveq", "[1,-2]", "[6]"], "Q=[1,-3,-4]\nfinite=true\n"),
        (["solver", "[2]", "[1,3,4]"], "R=[1,2]\nfinite=true\n"),
        (["compose", "[2]", "[3]"], "[2,3,5]\n"),
        (["fromseq", "1,1,2,5,14,42,132"], "[1,2,3^2,4^5,5^14,6^42]\n"),
        (["expandmin", "[1^3,2^2]"], "Q=[1^3]\nS=[2^11,3^6]\n"),
        (["lucas", "3", "2", "+"], "pass\n"),
        (["binom", "[3,5]", "70"], "63862\n"),
        (["poly", "mul", "1,1", "1,-1"], "1 - x^2\n"),
        (["poly", "div", "1,0,-1", "-1,1"], "-1 - x\n"),
        (["poly", "div", "1,0,1", "1,1"], "not divisible\n"),
        (["counts", "--arith", "1,2,+", "-n", "8"], "1,1,1,2,3,5,8,13,21\n"),
        (["counts", "--trains", "[2]", "-n", "6"], "1,0,1,0,2,0,4\n"),
        (["counts", "--trains=-[2]", "-n", "6"], "1,0,-1,0,0,0,0\n"),
        (["dual", "[2]", "-n", "8"], "counts:0,-1,0,1,0,-1,0,1\n"),
        (["scan1", "[1,-2]", "-b", "7"], "a=3 mult=-1\na=6 mult=1\n"),
        (["scan1", "[1,2]", "-b", "6"], "none\n"),
        (["scan2", "[2,3]", "-b", "4"], "none\n"),
        (["period", "[1,1,-2]"], "not periodic\n"),
        (["enumerate", "[2,3,5]", "10"], "net=14 total=14\n"),
        (
            ["lucas-shapes", "3", "2", "+", "--kind", "multiple", "--d", "4", "--k-max", "2"],
            "a=4 b=8 alpha=161 S=[4^161,-8^16] Q=[1^3,2^11,3^39,-4^22,5^12,-6^8]\n"
            "a=8 b=12 alpha=25905 S=[8^25905,-12^2576] "
            "Q=[1^3,2^11,3^39,4^139,5^495,6^1763,7^6279,-8^3542,9^1932,-10^1288]\n",
        ),
        (
            ["scan2", "[1,2]", "-b", "4"],
            "a=1 b=3 alpha=2 S=[1^2,-3] Q=[-1]\n"
            "a=2 b=3 alpha=2 S=[2^2,3] Q=[1]\n"
            "a=2 b=4 alpha=3 S=[2^3,-4] Q=[1,-2]\n"
            "a=3 b=4 alpha=3 S=[3^3,4^2] Q=[1,2^2]\n",
        ),
        (
            ["solver", "[2]", "[1]", "-n", "12"],
            "R=counts:1,1,-1,-1,1,1,-1,-1,1,1,-1,-1\nfinite=false\n",
        ),
        (
            ["borwein", "-b", "12"],
            "(1,5) mod 6: 4 hits\n(1,-2) mod 6: 4 hits\n(-2,-4) mod 6: 4 hits\n"
            "(-4,5) mod 6: 4 hits\n(-1,-2) mod 3: 16 hits\n",
        ),
        (
            ["lucas-shapes", "3", "2", "+", "--kind", "adjacent"],
            "a=2 b=3 alpha=11 S=[2^11,3^6] Q=[1^3]\n"
            "a=3 b=4 alpha=39 S=[3^39,4^22] Q=[1^3,2^11]\n"
            "a=4 b=5 alpha=139 S=[4^139,5^78] Q=[1^3,2^11,3^39]\n",
        ),
        (
            ["lucas-shapes", "2", "1", "-", "--kind", "adjacent"],
            "a=2 b=3 alpha=5 S=[2^5,-3^2] Q=[-1^2]\n"
            "a=3 b=4 alpha=-12 S=[-3^12,4^5] Q=[-1^2,2^5]\n"
            "a=4 b=5 alpha=29 S=[4^29,-5^12] Q=[-1^2,2^5,-3^12]\n",
        ),
        (["enumerate", "[1^2]", "2", "--list"], "net=4 total=4\n1#1+1#1\n1#1+1#2\n1#2+1#1\n1#2+1#2\n"),
        (["counts", "[1]"], ",".join(["1"] * (DEFAULT_HORIZON + 1)) + "\n"),  # neither -n nor the variable
    ],
)
def test_text_outputs(run, argv, expected):
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert out == expected


def test_env_horizon(run):
    code, out, _ = run(["counts", "[1,2]"], {"TRAINYARD_HORIZON": "5"})
    assert code == 0 and out == "1,1,2,3,5,8\n"


def test_flag_overrides_env_horizon(run):
    code, out, _ = run(["counts", "[1,2]", "-n", "3"], {"TRAINYARD_HORIZON": "9"})
    assert code == 0 and out == "1,1,2,3\n"


def test_bad_env_values(run):
    code, out, err = run(["counts", "[1,2]"], {"TRAINYARD_HORIZON": "soon"})
    assert code == 1 and out == ""
    assert "TRAINYARD_HORIZON must be an integer" in err
    code, _, err = run(["counts", "[1,2]"], {"TRAINYARD_FORMAT": "yaml"})
    assert code == 1 and "TRAINYARD_FORMAT must be 'text' or 'json'" in err


def test_rodset_file_arguments(run, tmp_path):
    listing = tmp_path / "sets.txt"
    listing.write_text("# favorites\n\n[1,2]\n  [2,3]\n")
    code, out, _ = run(["counts", f"@{listing}", "-n", "4"])
    assert code == 0 and out == "1,1,2,3,5\n"
    code, out, _ = run(["counts", f"@{listing}:2", "-n", "6"])
    assert code == 0 and out == "1,0,1,1,1,2,2\n"


def test_rodset_file_errors(run, tmp_path):
    code, _, err = run(["counts", f"@{tmp_path}/absent.txt"])
    assert code == 1 and "cannot read rod-set file" in err

    listing = tmp_path / "one.txt"
    listing.write_text("[1]\n")
    code, _, err = run(["counts", f"@{listing}:5"])
    assert code == 1 and "has 1 rod-set lines; wanted line 5" in err
    code, _, err = run(["counts", f"@{listing}:zero"])
    assert code == 1 and "bad line selector" in err


def test_domain_errors_exit_one(run):
    cases = [
        (["period", "[]"], "periodicity is about nonempty rod sets"),
        (["counts", "[2^0]"], "multiplicity count must be positive at position 3"),
        (["fromseq", "2,1"], "must start with F(0) = 1"),
        (["lucas", "2", "2", "+"], "coprime"),
        (["counts", "--arith", "0,2,+"], "first >= 1"),
        (["enumerate", "[1^2]", "25", "--cap", "100"], "exceed the enumeration cap"),
        (["counts", "[1,2]", "-n", "0"], "horizon must be at least 1"),
        (["lucas-shapes", "2", "1", "-", "--kind", "adjacent", "--a-max", "1"], "range is empty"),
        (["counts", "--arith", "1,2"], "--arith takes FIRST,STEP,SIGN"),
        (["cyclo", "0"], "cyclotomic order must be at least 1"),
    ]
    for argv, fragment in cases:
        code, out, err = run(argv)
        assert code == 1 and out == "", f"{argv} should fail cleanly"
        assert err.startswith("error: ") and fragment in err, f"wrong message for {argv}"


HUGE = "100000000000000000000"  # 10^20, past the index range of a list


@pytest.mark.parametrize(
    "argv",
    [
        ["counts", "[1,2]", "-n", HUGE],
        ["cyclo", "1208925819614629174706176"],  # 2^80
        ["scan1", "[1,2]", "-b", HUGE],
        ["scan2", "[1,2]", "-b", HUGE],
        ["lucas", "1", "1", "+", "-n", HUGE],
        ["dual", "[1]", "-n", HUGE],
        ["enumerate", "[1]", HUGE],
        ["discrep", "[1]", "[2]", "-n", HUGE],
        ["solveq", "[1,2]", "[3]", "-n", HUGE],
        ["borwein", "-b", HUGE],
        # The next prime after 10^24, and nextprime(10^14) * nextprime(2 * 10^14):
        # refused by their size before they are factored.
        pytest.param(["cyclo", "1000000000000000000000007"], id="cyclo-prime"),
        pytest.param(["cyclo", "20000000000008900000000000837"], id="cyclo-semiprime"),
    ],
    ids=lambda argv: argv[0],
)
def test_sizes_past_the_index_range_fail_at_once(argv):
    # A subprocess with a deadline, so that a case that hangs fails instead of stalling the run.
    env = {k: v for k, v in _src_env().items() if k not in ("TRAINYARD_HORIZON", "TRAINYARD_FORMAT")}
    proc = subprocess.run(
        [sys.executable, "-m", "trainyard", *argv], capture_output=True, text=True, env=env, timeout=5
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: input too large to compute (OverflowError)\n"


def test_binom_refuses_a_long_power_before_computing_it():
    # 3^(3 * 10^7) would take seconds to compute before its length is refused.
    env = {k: v for k, v in _src_env().items() if k not in ("TRAINYARD_HORIZON", "TRAINYARD_FORMAT")}
    proc = subprocess.run(
        [sys.executable, "-m", "trainyard", "binom", "[1^3]", "30000000"],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "OUTPUT_INT_BITS_LIMIT" in proc.stderr


def test_solveq_past_the_quotient_limit_fails_at_once(run):
    # Deciding this Q would need a dense quotient of degree 10^9 - 2.
    code, out, err = run(["solveq", "[1,2]", "[1000000000]"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "QUOTIENT_DEGREE_LIMIT" in err


def test_period_past_the_length_limit_fails_at_once(run):
    # A dense characteristic polynomial of degree 10^9 would be built otherwise.
    code, out, err = run(["period", "[1,1000000000]"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "PERIOD_WORK_LIMIT" in err
    assert "non-periodic" not in err, "the charge comes before any verdict"


def test_period_refusal_names_the_charge_not_a_verdict(run):
    # 1 - x^1400 is periodic; the 4 * (max R)^2 charge is refused before the peel decides that.
    code, out, err = run(["period", "[1400]"])
    assert code == 1 and out == ""
    assert err.startswith("error: deciding periodicity needs ") and "PERIOD_WORK_LIMIT" in err
    assert "non-periodic" not in err


def test_period_accepts_a_long_chain(run):
    # max R 256 was past the old length limit; its non-periodic bound is 4 * 256^2 x 3 terms.
    assert run(["period", "[1,-256]"]) == (0, "not periodic\n", "")


@pytest.mark.parametrize("literal", ["[1,-1118]", "[-1,-1118]"])
def test_period_of_the_longest_chain_in_range_answers_at_once(literal):
    # The longest [+-1, k^-1] chain under PERIOD_WORK_LIMIT.  Its char fails the
    # reciprocity test, and Mann's theorem leaves a few dozen orders to peel.
    env = {k: v for k, v in _src_env().items() if k not in ("TRAINYARD_HORIZON", "TRAINYARD_FORMAT")}
    proc = subprocess.run(
        [sys.executable, "-m", "trainyard", "period", literal],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "not periodic\n", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_counts_past_the_decimal_digit_cap_of_cpython(run, fmt):
    # F(n) of [1^(10^100)] is 10^(100n): F(44) has 4401 digits, past CPython's 4,300-digit cap.
    literal = f"[1^{10 ** 100}]"
    code, out, err = run(["counts", literal, "-n", "44"], {"TRAINYARD_FORMAT": fmt})
    assert (code, err) == (0, "")
    assert train_counts(parse_rodset(literal), 44) == [10 ** (100 * n) for n in range(45)]
    # The expected digits are written out, since str() of F(44) is what the cap refuses.
    digits = ["1" + "0" * (100 * n) for n in range(45)]
    if fmt == "text":
        assert out == ",".join(digits) + "\n"
    else:
        assert out == '{"start": 0, "values": [' + ", ".join(digits) + "]}\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no cap to lift")
def test_main_gives_the_caller_back_its_digit_cap(run):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(["counts", "[1,2]", "-n", "3"]) == (0, "1,1,2,3\n", "")
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_output_past_the_int_bits_limit_is_a_domain_error(run, monkeypatch):
    # F(263) of [1^(2^1000)] is 2^263000, over the 2^18-bit bound.
    code, out, err = run(["counts", f"[1^{2 ** 1000}]", "-n", "263"])
    assert code == 1 and out == ""
    assert err == (
        "error: an output integer has 263001 bits, over the limit "
        "OUTPUT_INT_BITS_LIMIT = 262144 bits\n"
    )
    # A literal past the bound's 78,914 digits is refused before it is parsed.
    code, out, err = run(["counts", f"[1^{'7' * 80_000}]", "-n", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "78914 digits" in err
    # The bound covers every kind of result: here the multiplicities of scan hits.
    monkeypatch.setattr(cli, "OUTPUT_INT_BITS_LIMIT", 2)
    code, out, err = run(["scan2", "[2,3]", "-b", "16"])
    assert code == 1 and out == "" and "OUTPUT_INT_BITS_LIMIT = 2 bits" in err


def test_closed_stdout_keeps_the_contract():
    # The reader takes ten bytes of a 2.6 MB answer and closes the pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "trainyard", "counts", "[1,2]", "-n", "5000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    )
    assert proc.stdout.read(10) == b"1,1,2,3,5,"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_long_walks_and_resource_exhaustion_keep_the_contract(run, monkeypatch):
    assert run(["enumerate", "[1]", "1500"]) == (0, "net=1 total=1\n", "")
    for exc in (RecursionError, MemoryError):

        def exhausted(*args, **kwargs):
            raise exc()

        monkeypatch.setattr(cli, "enumerate_trains", exhausted)
        code, out, err = run(["enumerate", "[1,2]", "5"])
        assert code == 1 and out == ""
        assert err == f"error: input too large to compute ({exc.__name__})\n"


def test_usage_errors_exit_two(run, capsys):
    for argv in [[], ["frobnicate"], ["scan1", "[1,2]"], ["lucas", "3", "2", "x"]]:
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, f"{argv} should be a usage error"
        capsys.readouterr()


def test_json_outputs_are_single_parseable_lines(run):
    for argv in [
        ["counts", "[1,2]", "-n", "6"],
        ["solveq", "[2,3]", "[4^3,13]"],
        ["period", "[1,1,-2]"],
        ["scan1", "[1,-2]", "-b", "7"],
        ["lucas", "3", "2", "+"],
        ["fromseq", "1,1,1,1"],
        ["enumerate", "[2,3]", "5", "--list"],
        ["binom", "[3,5]", "70"],
        ["poly", "mul", "1,1", "1,1"],
        ["cyclo", "6"],
        ["expandmin", "[1,2]"],
        ["discrep", "[1,2]", "[2,3]", "-n", "5"],
        ["compose", "[2]", "[3]"],
        ["solver", "[2]", "[1,3,4]"],
        ["borwein", "-b", "8"],
        ["lucas-shapes", "3", "2", "+", "--kind", "skip", "--a", "4"],
        ["dual", "[2]", "-n", "6"],
        ["expand", "[1,2]", "[2]"],
        ["scan2", "[1,3]", "-b", "8"],
        ["enumerate", "[1,2]", "4"],
    ]:
        code, out, err = run(argv, {"TRAINYARD_FORMAT": "json"})
        assert code == 0 and err == "", f"{argv} failed under json format"
        assert out.endswith("\n") and "\n" not in out[:-1], f"{argv} not a single line"
        json.loads(out)


def test_period_json_when_not_periodic(run):
    code, out, err = run(["period", "[1,1,-2]"], {"TRAINYARD_FORMAT": "json"})
    assert code == 0 and err == ""
    assert out == '{"periodic": false, "period": null, "factors": [1], "Q": null}\n'


def test_solveq_json_undecided(run):
    code, out, _ = run(
        ["solveq", "[1,2]", "[2,3]", "-n", "6"], {"TRAINYARD_FORMAT": "json"}
    )
    assert code == 0
    data = json.loads(out)
    assert data["q_finite"] is False
    assert data["Q"] == {"kind": "counts", "values": [1, 1, 1, 2, 3, 5]}
    assert data["R"] == {"kind": "finite", "rods": "[1,2]"}


def test_deterministic_output(run):
    first = run(["scan2", "[1,3]", "-b", "33"])
    second = run(["scan2", "[1,3]", "-b", "33"])
    assert first == second, "repeated runs must match byte for byte"


def _src_env() -> dict:
    """The caller's environment, with PYTHONPATH set to this checkout's ``src``."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trainyard", "counts", "[1,2]", "-n", "5"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,1,2,3,5,8\n"


def test_cyclo_of_a_hard_semiprime_fails_at_once():
    # 1000000007 * 1000000009: the order is split by Pollard's rho, not trial
    # division, and Phi_d's phi(d) + 1 coefficients are then refused.
    proc = subprocess.run(
        [sys.executable, "-m", "trainyard", "cyclo", "1000000016000000063"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=5,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_import_leaves_the_cyclotomic_module_unloaded():
    # _cyclotomic is imported on first use, so that it stays off every process's startup.
    probe = "import sys, trainyard, trainyard.cli; print('trainyard._cyclotomic' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_loads_no_record_machinery():
    # Records are plain slotted classes, so startup pays for neither module.
    probe = "import sys; print(' '.join(sorted(sys.modules)))"
    loaded = []
    for setup in ("", "import trainyard.cli; "):
        proc = subprocess.run(
            [sys.executable, "-c", setup + probe], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(proc.stdout.split()))
    added = loaded[1] - loaded[0]
    assert "trainyard.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


@pytest.mark.parametrize(
    "setup, loaded, unloaded",
    [
        # bench/tracer.py reads trainyard.expansion from sys.modules right after importing the package.
        ("import trainyard", {"trainyard.expansion"}, {"trainyard.structure", "json"}),
        ("import trainyard.cli", {"trainyard.cli"}, {"trainyard.structure", "json"}),
        ("from trainyard import cli; cli.main(['counts', '[1,2]', '-n', '5'])",
         {"trainyard.counts"}, {"trainyard.structure", "json"}),
        ("from trainyard import cli; cli.main(['period', '[1,-2]'])",
         {"trainyard.structure"}, {"json"}),
        ("from trainyard import cli; cli.main(['period', '[1,'])", set(), {"trainyard.structure", "json"}),
    ],
)
def test_startup_loads_only_what_the_call_uses(setup, loaded, unloaded):
    probe = "; import sys; print(' '.join(sorted(sys.modules)))"
    env = {k: v for k, v in _src_env().items() if not k.startswith("TRAINYARD_")}
    proc = subprocess.run(
        [sys.executable, "-c", setup + probe], capture_output=True, text=True, env=env
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert loaded <= modules, sorted(loaded - modules)
    assert not unloaded & modules, sorted(unloaded & modules)


def _subparsers(parser) -> dict:
    """The subcommand parsers a parser holds, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# One argv per subcommand, each parsed alike by the whole tree and by its subparser alone.
SAMPLE_ARGV = {
    "counts": ["counts", "--trains=-[2]", "-n", "7"],
    "discrep": ["discrep", "[1,2]", "[2,3]", "-n", "8"],
    "expand": ["expand", "[1,2]", "[2]"],
    "solveq": ["solveq", "[1,2]", "[2,3]", "-n", "8"],
    "solver": ["solver", "[2]", "[1,3,4]"],
    "dual": ["dual", "[2]", "-n", "8"],
    "compose": ["compose", "[2]", "[3]"],
    "fromseq": ["fromseq", "1,1,2,5"],
    "expandmin": ["expandmin", "[1^3,2^2]"],
    "period": ["period", "[1,-2]"],
    "scan1": ["scan1", "[1,-2]", "-b", "7"],
    "scan2": ["scan2", "[2,3]", "--bound", "16", "--include-trivial"],
    "lucas": ["lucas", "3", "2", "-", "-n", "20"],
    "lucas-shapes": ["lucas-shapes", "3", "2", "+", "--kind", "skip", "--a", "4"],
    "borwein": ["borwein", "-b", "12"],
    "enumerate": ["enumerate", "[2,3]", "5", "--list"],
    "binom": ["binom", "[3,5]", "70"],
    "poly": ["poly", "div", "-1,0,1", "-1,1"],
    "cyclo": ["cyclo", "105"],
}


def test_a_lone_subparser_matches_the_whole_tree():
    full = cli._build_parser([])
    assert list(SAMPLE_ARGV) == list(_subparsers(full))
    for name, argv in SAMPLE_ARGV.items():
        lone = cli._build_parser(argv)
        assert list(_subparsers(lone)) == [name]
        for fmt in ("format_help", "format_usage"):
            assert getattr(_subparsers(lone)[name], fmt)() == getattr(_subparsers(full)[name], fmt)(), name
        # The top-level usage is what an unrecognized argument prints.
        assert lone.format_usage() == full.format_usage()
        assert lone.parse_args(argv) == full.parse_args(argv), name


def test_whole_tree_when_no_subcommand_is_named(capsys):
    for argv in ([], ["-h"], ["--help"], ["frobnicate"], ["-h", "counts"]):
        assert list(_subparsers(cli._build_parser(argv))) == list(SAMPLE_ARGV), argv
    with pytest.raises(SystemExit) as info:
        cli.main(["-h"])
    assert info.value.code == 0
    listed = capsys.readouterr().out
    assert all(f"\n    {name} " in listed for name in SAMPLE_ARGV), listed


@pytest.mark.parametrize(
    "argv",
    [[], ["frobnicate", "[1,2]"], ["scan1", "[1,2]"], ["counts", "[1,2]", "--bogus"],
     ["period", "[1,-2]", "extra"], ["poly", "mod", "1", "1"]],
)
def test_usage_errors_print_what_the_whole_tree_prints(argv, capsys):
    stderr = []
    for build in (cli._build_parser, lambda argv: cli._build_parser([])):
        with pytest.raises(SystemExit) as info:
            build(argv).parse_args(argv)
        assert info.value.code == 2
        stderr.append(capsys.readouterr().err)
    assert stderr[0] == stderr[1] and stderr[0].startswith("usage: trainyard"), stderr


ROD = st.sampled_from(("[]", "[1,2]", "[2,3]", "[1,-2]", "[-1,-2]", "[1^2,3]", "[2^3,-5]",
                       "[1,", "[0]", "[2^0]", "[2^-1]", "1,2", "[a]", "", "-"))
INT = st.integers(-3, 12).map(str)
CSV = st.sampled_from(("1,1", "1,-1", "0,0", "0", "1,2,1", "2,1,0", "1,1,2,5", "x"))


def _opt(flag, values=None):
    """A flag, or a flag and one value drawn from ``values``."""
    return st.tuples(st.just(flag)) if values is None else st.tuples(st.just(flag), values)


N, B = _opt("-n", INT), _opt("-b", INT)
# Each subcommand's positionals and options, drawn from small and malformed values.
SHAPES = {
    "counts": ((ROD,), (N, _opt("--arith", st.sampled_from(("1,1,+", "2,3,-", "0,2,+", "1,x"))),
                        _opt("--trains", st.sampled_from(("[1,2]", "-[2,3]", "[0]"))))),
    "discrep": ((ROD, ROD), (N,)),
    "expand": ((ROD, ROD), (N,)),
    "solveq": ((ROD, ROD), (N,)),
    "solver": ((ROD, ROD), (N,)),
    "dual": ((ROD,), (N,)),
    "compose": ((ROD, ROD), ()),
    "fromseq": ((CSV,), ()),
    "expandmin": ((ROD,), ()),
    "period": ((ROD,), ()),
    "scan1": ((ROD,), (B,)),
    "scan2": ((ROD,), (B, _opt("--include-trivial"))),
    "lucas": ((INT, INT, st.sampled_from(("+", "-", "1", "x"))), (N,)),
    "lucas-shapes": ((INT, INT, st.sampled_from(("+", "-"))), (
        _opt("--kind", st.sampled_from(("adjacent", "skip", "multiple", "other"))),
        *(_opt(flag, INT) for flag in ("--a", "--d", "--k-max", "--a-min", "--a-max")),
    )),
    "borwein": ((), (B,)),
    "enumerate": ((ROD, INT), (_opt("--list"), _opt("--cap", INT))),
    "binom": ((ROD, INT), ()),
    "poly": ((st.sampled_from(("mul", "div", "mod")), CSV, CSV), ()),
    "cyclo": ((INT,), ()),
}
STRAY = st.one_of(ROD, INT, st.sampled_from(("-n", "-b", "--list", "--kind", "-h2")))


def _argv(command: str):
    positionals, options = SHAPES[command]
    return st.tuples(
        st.tuples(*positionals),
        st.lists(st.one_of(*options), max_size=3) if options else st.just([]),
        st.one_of(st.just(()), st.just(()), st.just(()), st.tuples(STRAY)),
    ).map(lambda parts: [command, *parts[0], *(t for opt in parts[1] for t in opt), *parts[2]])


argvs = st.sampled_from(sorted(SHAPES)).flatmap(_argv)


@settings(PROPERTY, max_examples=200)
@given(argvs)
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRAINYARD_")}
    with mock.patch.dict(os.environ, env, clear=True):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, f"{argv} exited {code}"
            else:
                assert code in (0, 1), f"{argv} returned {code}"
    assert "Traceback" not in err.getvalue(), f"{argv} printed a traceback"
    assert code == 0 or out.getvalue() == "", f"{argv} failed but wrote to stdout"
