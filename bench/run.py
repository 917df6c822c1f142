"""trainyard benchmark: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload counts-long --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports trainyard from ``src/``
there, so each commit measures its own code.  The loop is closed with one
client: the next operation starts when the previous one returns.  One lap
runs every generated operation once; a run times whole laps until
``--seconds`` of operation time, 100 operations and 5 laps are done.
Before timing, an untimed lap checks every answer against ``oracle``
(code that shares nothing with trainyard) and records it; each timed
answer must equal it.  sympy cross-checks a few answers after the loop,
once peak memory has been read.  See README.md for the metrics and what
they should show.

Timings are in reference milliseconds.  A shared virtual machine runs
the same code up to twice as slow for seconds to minutes at a time, so
a fixed pure-Python kernel (``reference_kernel``) is timed between
operations once ``KERNEL_EVERY_S`` has passed since its last run, and
each operation's wall time is scaled by ``REFERENCE_MS`` over the
kernel's time around it: the time the operation takes whenever the
kernel takes ``REFERENCE_MS``.  An op's time is the median of its
scaled times over the laps; import times for ``setup_s`` are scaled the
same way.  The unscaled wall times are printed too.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
Earlier lines repeat every metric by name and unit, the op-kind time
shares, the gate verdict and the provenance of the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("counts-long", "solver-mix", "structure-scan", "cli-session")
MIN_OPS = 100  # p90 then has at least ten samples beyond it
MIN_LAPS = 5  # per-op medians need a few laps spread over the run
MAX_TRACE_PAIRS = 3
WALL_LIMIT_S = 140.0
FLOOR_REPS = 7
SETUP_REPS = 11
# Wall time of reference_kernel on a 2-vCPU Xeon virtual machine with
# Python 3.11.7, when the host runs it at its fast speed.
REFERENCE_MS = 0.14
KERNEL_EVERY_S = 0.005  # the host changes speed over tenths of a second and longer


def _canon(obj, out: bytearray) -> None:
    """Append an unambiguous byte encoding of generated input data to ``out``."""
    if obj is None:
        out += b"N"
    elif isinstance(obj, bool):
        out += b"T" if obj else b"F"
    elif isinstance(obj, int):
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "big", signed=True)
        out += b"I" + len(raw).to_bytes(4, "big") + raw
    elif isinstance(obj, (str, bytes)):
        raw = obj.encode() if isinstance(obj, str) else obj
        out += (b"S" if isinstance(obj, str) else b"B") + len(raw).to_bytes(4, "big") + raw
    elif isinstance(obj, (list, tuple)):
        out += b"L" + len(obj).to_bytes(4, "big")
        for item in obj:
            _canon(item, out)
    elif isinstance(obj, dict):
        out += b"D" + len(obj).to_bytes(4, "big")
        for key in sorted(obj):
            _canon(key, out)
            _canon(obj[key], out)
    elif dataclasses.is_dataclass(obj):
        _canon(type(obj).__name__, out)
        for field in dataclasses.fields(obj):
            _canon(getattr(obj, field.name), out)
    else:
        raise TypeError(f"cannot encode {type(obj).__name__}")


def input_digest(ops) -> str:
    """SHA-256 of every op's input spec, so "same workload" can be checked across runs."""
    out = bytearray()
    _canon([op.spec for op in ops], out)
    return hashlib.sha256(out).hexdigest()


@dataclasses.dataclass(frozen=True)
class Digest:
    """Stands in for a long list answer: later laps compare hash(tuple(answer))."""

    value: int


def _reference(result):
    """What later laps compare with: the answer itself, or a digest of a long list."""
    if isinstance(result, list) and len(result) > 64:
        return Digest(hash(tuple(result)))
    return result


# ---------------------------------------------------------------------------
# Host speed


_BIG = 3 ** 2000


def reference_kernel() -> list:
    """Fixed series work in the style of the library, sharing no code with it.

    Two sizes of coefficient, since the host slows bigint arithmetic more
    than the interpreter loop: a recurrence and a product on coefficients
    of a few machine words, as solver-mix and structure-scan compute, then
    a recurrence on coefficients of thousands of bits, as counts-long does.
    """
    f = [1] + [0] * 150
    for n in range(1, 151):
        f[n] = f[n - 1] + (f[n - 3] if n >= 3 else 0)
    g = [0] * 40
    for i in range(40):
        for j in range(40 - i):
            g[i + j] += f[i + 100] * f[j + 100]
    h = [_BIG + i for i in range(8)]
    for _ in range(60):
        h.append(h[-1] + 2 * h[-4] - 3 * h[-8])
    return g + h


def reference_s() -> float:
    """Wall time of the reference kernel now.  It runs twice and only the
    second run is timed, so the caches the last op left behind do not count."""
    reference_kernel()
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """A wall time as it would read whenever the reference kernel takes REFERENCE_MS."""
    return seconds * REFERENCE_MS / 1000 / ref_s


def pin_to_current_cpu() -> None:
    """Keep this process, and the children it starts, on the CPU it runs on now.

    Each virtual CPU changes speed on its own, so an op and the kernel timed
    beside it must run on the same one.  Staying on the current CPU leaves
    any other CPU to whatever else the machine runs.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu} if cpu in allowed else {min(allowed)})


# ---------------------------------------------------------------------------
# Fresh-interpreter measurements


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRAINYARD_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def fresh_python(root: Path, code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=_child_env(root),
                          check=True, capture_output=True, text=True)
    return proc.stdout


def wall_ms(root: Path, code: str, reps: int) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter, after one warm-up."""
    times = []
    for i in range(reps + 1):
        t0 = perf_counter()
        fresh_python(root, code)
        if i:
            times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def import_sample(root: Path, code: str) -> tuple[float, float]:
    """(scaled, wall) seconds of one fresh-interpreter import, timed inside the child,
    which runs on this process's CPU between two runs of the reference kernel."""
    before = reference_s()
    wall = float(fresh_python(root, code))
    return scaled(wall, (before + reference_s()) / 2), wall


# ---------------------------------------------------------------------------
# Running and gating operations


def run_op(op):
    t0 = perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # counted as a failed op, never silently dropped
        result, error = None, type(exc).__name__
    return perf_counter() - t0, result, error


class Gate:
    """Per-op reference outcomes from the untimed checking lap, and the verdict so far."""

    def __init__(self, ops):
        self.ops = ops
        self.ref: list = [None] * len(ops)
        self.state: list = ["ok"] * len(ops)  # ok | known (a named seed defect) | wrong
        self.reason: list = [None] * len(ops)
        self.kept: dict = {}  # results that sympy re-checks after the timed loop

    def _fail(self, i, why):
        op = self.ops[i]
        self.state[i] = "known" if op.known_defect and op.known_defect in why else "wrong"
        self.reason[i] = why

    def reference_lap(self):
        for i, op in enumerate(self.ops):
            _, result, error = run_op(op)
            if error is not None:
                self.ref[i] = error
                self._fail(i, f"raised {error}")
                continue
            self.ref[i] = _reference(result)
            why = op.check(result)
            if why:
                self._fail(i, why)
            elif op.sympy_check is not None:
                self.kept[i] = result

    def outcome(self, i, result, error) -> str:
        ref = self.ref[i]
        if error is not None:
            same = error == ref
        elif isinstance(ref, Digest):
            same = isinstance(result, list) and hash(tuple(result)) == ref.value
        else:
            same = result == ref
        if not same:
            self.state[i] = "wrong"
            self.reason[i] = "answer changed between laps"
        return self.state[i]

    def sympy_pass(self) -> str:
        if not self.kept:
            return "none"
        try:
            import sympy  # noqa: F401  (imported after peak memory is read)
        except ImportError:
            return "sympy missing"
        for i, result in self.kept.items():
            why = self.ops[i].sympy_check(result)
            if why:
                self.state[i], self.reason[i] = "wrong", "sympy: " + why
        return f"{len(self.kept)} checked"

    def wrong(self) -> list:
        return [(self.ops[i].kind, self.reason[i]) for i, s in enumerate(self.state) if s == "wrong"]


class Times:
    """Per-op scaled times of every timed execution, per-op best wall times,
    and the reference kernel's times.  Scaled times are kept in flat arrays
    so that the bookkeeping adds little to the peak memory the run reports."""

    def __init__(self, n: int):
        self.scaled = [array("d") for _ in range(n)]
        self.best_wall = [float("inf")] * n
        self.kernel = array("d")

    def add(self, i: int, seconds: float, ref_s: float) -> None:
        self.scaled[i].append(scaled(seconds, ref_s))
        if seconds < self.best_wall[i]:
            self.best_wall[i] = seconds

    def per_op(self) -> list:
        """Each op's time: the median of its scaled times over the laps."""
        return [statistics.median(runs) for runs in self.scaled]

    def tail_sample(self) -> list:
        """Sorted sample for p90: the per-op times, or, where a lap holds fewer ops
        than p90 needs, every scaled execution but each op's slowest, so that one
        stall cannot set the tail."""
        if len(self.scaled) >= MIN_OPS:
            return sorted(self.per_op())
        return sorted(t for runs in self.scaled for t in sorted(runs)[:-1])


def lap(ops, gate, times: Times | None = None) -> tuple[float, int, int]:
    """One timed pass over every op: (op seconds, attempted, failed).

    The reference kernel runs between ops once KERNEL_EVERY_S has passed
    since it last ran; each op is scaled by the mean of the kernel's times
    just before and just after the stretch it ran in.
    """
    total, failed = 0.0, 0
    stretch: list = []  # (op index, seconds) since the kernel last ran
    ref_before, last = reference_s(), perf_counter()
    for i, op in enumerate(ops):
        dt, result, error = run_op(op)
        total += dt
        stretch.append((i, dt))
        if perf_counter() - last >= KERNEL_EVERY_S or i == len(ops) - 1:
            ref_after = reference_s()
            if times is not None:
                times.kernel.append(ref_after)
                for j, seconds in stretch:
                    times.add(j, seconds, (ref_before + ref_after) / 2)
            stretch.clear()
            ref_before, last = ref_after, perf_counter()
        if gate.outcome(i, result, error) != "ok":
            failed += 1
        del result
    return total, len(ops), failed


def percentile(sorted_values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------


def load(root: Path, workload: str):
    src = root / "src"
    if not (src / "trainyard" / "__init__.py").is_file():
        sys.exit(f"error: no trainyard sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import trainyard

    if Path(trainyard.__file__).resolve().parent != (src / "trainyard").resolve():
        sys.exit(f"error: imported trainyard from {trainyard.__file__}, not from {src}")
    cli = None
    if workload == "cli-session":
        import trainyard.cli as cli
    return trainyard, cli


def build_ops(args, root: Path, ty, cli):
    if args.workload == "cli-session":
        import cli_session

        # The traced run calls cli.main in-process, so the tracer sees every layer.
        runner = cli_session.Runner(root, cli if args.trace else None)
        return cli_session.build(args.seed, root, runner)
    import workloads

    return workloads.LIBRARY_WORKLOADS[args.workload](ty, args.seed)


def provenance(root: Path, args, digest: str, interpreter_ms: float) -> dict:
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "trainyard").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "git_sha": sha, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "input_digest": digest, "cli.interpreter_ms": interpreter_ms,
    }


def end_to_end(args, root, ops, gate, module) -> tuple[dict, int, int]:
    setup_code = ("import time; t = time.perf_counter(); import " + module +
                  "; print(repr(time.perf_counter() - t))")
    fresh_python(root, setup_code)  # the first import compiles the sources
    setup = [import_sample(root, setup_code)]
    gate.reference_lap()
    times = Times(len(ops))
    timed = attempted = failed = laps = 0
    started = perf_counter()
    gc.collect()
    while ((timed < args.seconds or attempted < MIN_OPS or laps < MIN_LAPS)
           and perf_counter() - started < WALL_LIMIT_S):
        t, a, f = lap(ops, gate, times)
        timed, attempted, failed, laps = timed + t, attempted + a, failed + f, laps + 1
        # Import-time samples are spread over the run, so they see the host as the loop does.
        if len(setup) < SETUP_REPS * min(1.0, timed / args.seconds):
            setup.append(import_sample(root, setup_code))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-session"
                               else resource.RUSAGE_SELF)
    while len(setup) < SETUP_REPS:
        setup.append(import_sample(root, setup_code))
    per_op = times.per_op()
    ordered = sorted(per_op)
    tail = times.tail_sample()
    passing = sum(1 for state in gate.state if state == "ok")
    values = {
        "setup_s": statistics.median(t for t, _ in setup),
        "throughput_ops_s": passing / sum(per_op),
        "latency_p50_ms": percentile(ordered, 50) * 1000,
        "latency_p90_ms": percentile(tail, 90) * 1000,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    print(f"timed {laps} laps of {len(ops)} ops: {attempted} ops in {timed:.3f} s "
          f"(error_rate {failed / attempted:.6f} = {failed}/{attempted}); "
          f"p90 over {len(tail)} samples")
    best = sorted(times.best_wall)
    kernel = times.kernel
    print(f"unscaled wall time: throughput {passing / sum(best):.6g} 1/s from per-op best, "
          f"p50 {percentile(best, 50) * 1000:.6g} ms, setup "
          f"{statistics.median(w for _, w in setup):.6g} s; reference kernel "
          f"median {statistics.median(kernel) * 1000:.4g} ms, best {min(kernel) * 1000:.4g} ms "
          f"(REFERENCE_MS {REFERENCE_MS})")
    by_kind: dict = defaultdict(float)
    for op, t in zip(ops, per_op):
        by_kind[op.kind] += t
    for kind, spent in sorted(by_kind.items(), key=lambda kv: -kv[1]):
        print(f"  share {kind:24s} {spent / sum(per_op):6.1%}")
    return metrics, attempted, failed


def traced(args, root, ops, gate, ty, cli, floor_ms) -> tuple[dict, int, int]:
    """Untraced and traced laps in turn; per-layer metrics come from the traced ones."""
    from tracer import Tracer, summarize

    tracer = Tracer(ty)
    gate.reference_lap()
    import_ms = wall_ms(root, "import trainyard.cli", FLOOR_REPS) - floor_ms
    violations = 0
    if cli is not None:
        import cli_session

        for op in cli_session.build(args.seed, root, cli_session.Runner(root)):
            violations += cli_session.contract_violation(*op.call()) is not None
    plain, with_spans = Times(len(ops)), Times(len(ops))
    lap_spans: list = []  # every span of every traced lap, kept until the run ends
    attempted = failed = 0
    started = perf_counter()
    while not lap_spans or (perf_counter() - started < args.seconds
                            and len(lap_spans) < MAX_TRACE_PAIRS):
        _, a1, f1 = lap(ops, gate, plain)
        tracer.install()
        try:
            _, a2, f2 = lap(ops, gate, with_spans)
        finally:
            tracer.remove()
        lap_spans.append(tracer.take())
        attempted, failed = attempted + a1 + a2, failed + f1 + f2
    summaries = [summarize(spans, tracer.layer_of) for spans in lap_spans]
    first = summaries[0]
    unstable = [k for k in first if not _is_time(k) and any(s.get(k) != first[k] for s in summaries)]
    if unstable:
        print(f"warning: counts differ between traced laps: {unstable}")
    if not first.get("expansion.witness_busy_s"):
        sys.exit("error: the witness check was never timed; the tracer missed _identity_holds")
    special = {
        "trace.overhead_ratio": sum(with_spans.per_op()) / sum(plain.per_op()),
        "cli.interpreter_ms": floor_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": statistics.median(plain.best_wall) * 1000 if cli is not None else 0.0,
        "cli.contract_violations": violations,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif _is_time(name):
            value = statistics.median(s.get(name, 0.0) for s in summaries)
        else:
            value = first.get(name, 0)
        metrics[name] = (value, unit)
    print(f"traced {len(lap_spans)} laps of {len(ops)} ops; spans per lap {first['trace.spans']}")
    return metrics, attempted, failed


def _is_time(name: str) -> bool:
    return name.endswith(("_s", "_ms", "witness_share", "overhead_ratio"))


def _metric_lists():
    """(name, unit) of the end-to-end and per-layer metrics that BENCHMARK.json declares."""
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: {path} not found")
    spec = json.loads(path.read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


END_TO_END, PER_LAYER = _metric_lists()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    pin_to_current_cpu()
    ty, cli = load(root, args.workload)
    ops = build_ops(args, root, ty, cli)
    digest = input_digest(ops)
    interpreter_ms = wall_ms(root, "pass", FLOOR_REPS)
    gate = Gate(ops)
    if args.trace:
        metrics, attempted, failed = traced(args, root, ops, gate, ty, cli, interpreter_ms)
    else:
        module = "trainyard.cli" if args.workload == "cli-session" else "trainyard"
        metrics, attempted, failed = end_to_end(args, root, ops, gate, module)
    sympy_note = gate.sympy_pass()
    wrong = gate.wrong()
    known = sorted({f"{op.kind}: {gate.reason[i]}" for i, op in enumerate(ops)
                    if gate.state[i] == "known"})
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"gate: correct={not wrong} wrong={len(wrong)} sympy={sympy_note} "
          f"known_defects={known}")
    for kind, reason in wrong[:10]:
        print(f"  WRONG {kind}: {reason}")
    print("provenance " + json.dumps(provenance(root, args, digest, interpreter_ms)))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
