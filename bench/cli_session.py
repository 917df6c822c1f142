"""The cli-session workload: the 26 CLI goldens plus error-contract calls.

Each op is one ``python -m trainyard`` process (or, for the traced run,
one in-process ``cli.main`` call).  Goldens are compared byte for byte
with ``tests/golden``; every call must keep the exit-code contract:
0 on success, 1 with ``error:`` on stderr, 2 for usage, never a traceback.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import string
import subprocess
import sys
import traceback
from pathlib import Path

from workloads import Op, expect

JSON = {"TRAINYARD_FORMAT": "json"}
ENV_KEYS = ("TRAINYARD_FORMAT", "TRAINYARD_HORIZON")

# (argv, env, golden file), as the CLI tests replay them.
GOLDENS = [
    (["counts", "[1,2]", "-n", "10"], None, "counts_fib.txt"),
    (["counts", "[1,-2]", "-n", "5"], JSON, "counts_anti_json.txt"),
    (["period", "[-1,3,4,5,-7,-8]"], None, "period_long.txt"),
    (["period", "[1,-2]"], JSON, "period_json.txt"),
    (["scan2", "[2,3]", "-b", "16"], None, "scan2_padovan.txt"),
    (["scan2", "[2,3]", "-b", "16"], JSON, "scan2_padovan_json.txt"),
    (["solveq", "[1,2]", "[2,3]", "-n", "8"], None, "solveq_infinite.txt"),
    (["enumerate", "[2,3]", "5", "--list"], None, "enumerate_list.txt"),
    (["borwein", "-b", "12"], JSON, "borwein12_json.txt"),
    (["dual", "[2]", "-n", "8"], JSON, "dual_json.txt"),
    (["cyclo", "105"], None, "cyclo105.txt"),
    (["expand", "[1,2]", "[2]"], JSON, "expand_json.txt"),
    (["discrep", "[1,2]", "[2,3]", "-n", "8"], JSON, "discrep_json.txt"),
    (["solveq", "[2,3]", "[4^3,13]"], JSON, "solveq_json.txt"),
    (["solver", "[2]", "[1,3,4]"], JSON, "solver_json.txt"),
    (["compose", "[2]", "[3]"], JSON, "compose_json.txt"),
    (["fromseq", "1,1,2,5,14,42,132"], JSON, "fromseq_json.txt"),
    (["expandmin", "[1^3,2^2]"], JSON, "expandmin_json.txt"),
    (["scan1", "[1,-2]", "-b", "7"], JSON, "scan1_json.txt"),
    (["lucas", "3", "2", "+"], JSON, "lucas_json.txt"),
    (["lucas-shapes", "3", "2", "+", "--kind", "skip", "--a", "4"], JSON, "lucas_shapes_json.txt"),
    (["binom", "[3,5]", "70"], JSON, "binom_json.txt"),
    (["poly", "mul", "1,1", "1,-1"], JSON, "poly_mul_json.txt"),
    (["poly", "div", "1,0,-1", "-1,1"], JSON, "poly_div_json.txt"),
    (["cyclo", "6"], JSON, "cyclo_json.txt"),
    (["enumerate", "[2,3]", "5", "--list"], JSON, "enumerate_json.txt"),
]

SUBCOMMANDS = {"counts", "discrep", "expand", "solveq", "solver", "dual", "compose", "fromseq",
               "expandmin", "period", "scan1", "scan2", "lucas", "lucas-shapes", "borwein",
               "enumerate", "binom", "poly", "cyclo"}


def contract_violation(code, out: str, err: str) -> str | None:
    """Exit-code contract shared by every call."""
    if "Traceback" in err:
        return "traceback reached the user"
    if code == 1 and not err.startswith("error: "):
        return "exit 1 without an error: line"
    if code not in (0, 1, 2):
        return f"exit code {code}"
    return None


def check_golden(golden: bytes):
    def check(result):
        code, out, err = result
        return contract_violation(code, out, err) or expect(
            code == 0 and err == "" and out.encode() == golden, "output drifted from the golden")
    return check


def check_domain_error(result):
    code, out, err = result
    return contract_violation(code, out, err) or expect(code == 1 and out == "", "bad literal not rejected")


def check_usage_error(result):
    code, out, err = result
    return contract_violation(code, out, err) or expect(code == 2 and "usage:" in err,
                                               "unknown subcommand not a usage error")


def check_single_rod_enumeration(result):
    code, out, err = result
    return contract_violation(code, out, err) or expect(
        code == 1 or out == "net=1 total=1\n", "[1] has exactly one train of each length")


class Runner:
    """Runs one CLI call, as a subprocess or in-process."""

    def __init__(self, root: Path, in_process_cli=None):
        self.root = root
        self.cli = in_process_cli
        env = {k: v for k, v in os.environ.items() if k not in ENV_KEYS}
        env["PYTHONPATH"] = str(root / "src")
        self.base_env = env

    def __call__(self, argv, env):
        if self.cli is not None:
            return self._in_process(argv, env or {})
        proc = subprocess.run([sys.executable, "-m", "trainyard", *argv], cwd=self.root,
                              env={**self.base_env, **(env or {})}, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, argv, env):
        saved = {k: os.environ.pop(k, None) for k in ENV_KEYS}
        os.environ.update(env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a traceback would reach the user
                    code = 1
                    err.write(traceback.format_exc(limit=2))
        finally:
            for k in ENV_KEYS:
                os.environ.pop(k, None)
                if saved[k] is not None:
                    os.environ[k] = saved[k]
        return code, out.getvalue(), err.getvalue()


def build(seed: int, root: Path, runner: Runner) -> list:
    rng = random.Random(f"cli-session:{seed}")
    golden_dir = root / "tests" / "golden"
    ops = []
    for argv, env, name in GOLDENS:
        golden = (golden_dir / name).read_bytes()
        ops.append(Op(argv[0], ("cli", tuple(argv), tuple(sorted((env or {}).items())), golden),
                      lambda a=argv, e=env: runner(a, e), check_golden(golden)))

    a, b, c = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
    literal = rng.choice([f"[{a},{b}^-{c}]", f"[{a},,{b}]", f"[{a},{b}", f"[0,{a}]", f"[{a}^0]"])
    sub = rng.choice(["counts", "period", "dual"])
    word = ""
    while not word or word in SUBCOMMANDS:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 10)))
    for argv, check, defect in (
        ([sub, literal], check_domain_error, None),
        ([word, "[1,2]"], check_usage_error, None),
        (["enumerate", "[1]", "1500"], check_single_rod_enumeration, "traceback"),
    ):
        ops.append(Op("contract", ("cli", tuple(argv)), lambda a=argv: runner(a, None), check,
                      known_defect=defect))
    rng.shuffle(ops)
    return ops
