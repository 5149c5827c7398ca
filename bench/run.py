"""Benchmark of galpha: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload heat-march --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. Workloads:

- heat-march: the manufactured sin-decay heat problem on 1023 dofs, marched
  to T = 1 for k = 1, 2, 3 over tau = 1/8 .. 1/128;
- certify: spectral sweeps, stability maps, residual slopes, charpoly
  cross-checks and scalar convergence for k = 1..6;
- cli-examples: the five README commands, each a fresh CLI process.

Every child process gets one BLAS/OpenMP thread. Set-up is timed in fresh
interpreters, the workload runs whole rounds of its operations in another
fresh process for ``--seconds``, and every output is checked here, in the
parent, after the timed work. Times are scaled by the reference tasks of
reference.py, run in between, to take out the machine's drift. With
``--trace 1`` the galpha calls are traced and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of standard output is the JSON result. Exit code 2 means the
program could not be run (for instance there is no ``src/galpha``).
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = str(HERE / "child.py")
# fresh set-ups per run, the run child's own included; the median is reported
SETUP_SAMPLES = 7
CHILD_TIMEOUT = 60.0


class RunError(Exception):
    """The program could not be run to the end; no result is printed."""


def child_env():
    """The caller's environment without its PYTHON* settings, which change start-up.

    Bytecode is written (to ``__pycache__`` in the checkout) and reused, as
    for an installed package.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()
LIVE = set()


def start(args, cwd=ROOT, stdout=subprocess.PIPE, stdin=None):
    proc = subprocess.Popen(args, cwd=cwd, env=ENV, stdout=stdout, stdin=stdin, text=True)
    LIVE.add(proc)
    return proc


def reap(proc, timeout=CHILD_TIMEOUT):
    """Wait for proc (killing it after timeout); return (exit code, peak RSS in KiB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(proc)
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()
    return proc.returncode, usage.ru_maxrss


def kill_all():
    for proc in list(LIVE):
        proc.kill()


def stop_all():
    for proc in list(LIVE):
        proc.kill()
        reap(proc)


def read_ready(proc):
    line = proc.stdout.readline()
    if line != "ready\n":
        reap(proc)
        raise RunError("child did not finish its set-up (exit code %s)" % proc.returncode)


class SetupSampler:
    """Set-up samples and ``import`` reference samples, spread over the run.

    A set-up sample is the time from starting a fresh interpreter to the end
    of the workload's set-up. Each is followed by one run of the ``import``
    reference task; cli-examples adds one after every round. The samples are
    taken between rounds, so that they see the same machine as the rounds
    do; the first pair only fills the bytecode and file caches, as any
    earlier run would have.
    """

    def __init__(self, workload, samples, spans):
        self.workload, self.samples, self.spans = workload, samples, spans
        self.times = []
        self.imports = []
        self._take(keep=False)

    def _take(self, keep=True):
        args = [sys.executable, CHILD, "setup", self.workload]
        path = OUT / "setup.spans"
        if self.spans is not None:
            args += ["--spans", str(path)]
        t0 = perf_counter()
        proc = start(args)
        read_ready(proc)
        elapsed = perf_counter() - t0
        code, _ = reap(proc)
        if code != 0:
            raise RunError("set-up process exited with %d" % code)
        if keep:
            self.times.append(elapsed)
        self.import_reference(keep)
        if self.spans is not None and path.exists():
            if keep:
                self.spans.add_file(path, "setup")
            path.unlink()

    def import_reference(self, keep=True):
        t0 = perf_counter()
        code, _ = reap(start([sys.executable, "-c", reference.IMPORT_CODE]))
        if code != 0:
            raise RunError("import reference exited with %d" % code)
        if keep:
            self.imports.append(perf_counter() - t0)

    def between_rounds(self, busy, seconds):
        """Take the next sample once the rounds have used its share of the run."""
        if len(self.times) < self.samples and busy >= seconds * len(self.times) / self.samples:
            self._take()

    def finish(self):
        while len(self.times) < self.samples:
            self._take()


class Tally:
    """Operations attempted and failed, with the reasons for each failed id."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.unexpected = set()

    def add(self, op, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.setdefault(op["id"], failures[0])
            if op["fault"] is None:
                self.unexpected.add(op["id"])


# ---------------------------------------------------------------------------
# library workloads: one child runs the rounds, the parent checks the stream

def library_checker(workload):
    if workload == "heat-march":
        oracle = checks.HeatOracle(W.HEAT_ELEMENTS, W.HEAT_KAPPA, W.HEAT_T)
        return lambda op, out: checks.check_heat_march(oracle, op["k"], op["tau"], out["u"], out["l2"])
    re = np.linspace(*W.MAP_RE, W.MAP_RESOLUTION)
    im = np.linspace(*W.MAP_IM, W.MAP_RESOLUTION)

    def check(op, out):
        kind = op["kind"]
        if kind == "sweep":
            if not np.array_equal(out["theta"], W.SWEEP_GRID):
                return ["sweep returned another theta grid"]
            return checks.check_sweep(out["theta"], out["rho"], out["mags"], max(op["rho"]))
        if kind == "map":
            if not (np.array_equal(out["re"], re) and np.array_equal(out["im"], im)):
                return ["map returned another grid"]
            return checks.check_map(re, im, out["rho"], out["poles"], out["max_right"], out["a_stable"])
        if kind == "residual":
            clean, pert = out["value"]
            return checks.check_residual(op["k"], W.RESIDUAL_TAUS, clean, pert)
        if kind == "charpoly":
            dense, coeffs = out["value"]
            if np.asarray(dense).shape != (2 * op["k"], 2 * op["k"]):
                return ["amplification matrix is not 2k x 2k"]
            return checks.check_charpoly(dense, coeffs)
        if kind == "scalar":
            return checks.check_scalar_convergence(op["k"], W.SCALAR_TAUS, out["value"],
                                                   W.SCALAR_LAMBDA, W.SCALAR_T)
        raise ValueError(kind)

    return check


class Reference:
    """A process that runs one in-process reference task per request."""

    def __init__(self, kind):
        self.proc = start([sys.executable, CHILD, "reference", kind], stdin=subprocess.PIPE)
        read_ready(self.proc)

    def measure(self):
        self.proc.stdin.write("ref\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        if reap(self.proc)[0] != 0:
            raise RunError("reference process failed")


def run_library(workload, seed, seconds, spans):
    """Rounds in one child, each started by a line on its stdin; set-up samples in between."""
    ops = W.operations(workload, seed)
    check = library_checker(workload)
    sampler = SetupSampler(workload, SETUP_SAMPLES - 1, spans)
    ref = Reference(reference.ROUND_REFERENCE[workload])
    stream = OUT / ("%s-%d.stream" % (workload, seed))
    span_path = OUT / ("%s-%d.run.spans" % (workload, seed))
    args = [sys.executable, CHILD, "run", workload, "--seed", str(seed), "--stream", str(stream)]
    if spans is not None:
        args += ["--spans", str(span_path)]
    t0 = perf_counter()
    proc = start(args, stdin=subprocess.PIPE)
    read_ready(proc)
    sampler.times.append(perf_counter() - t0)
    round_s, round_ref = [], []
    busy = 0.0
    while not round_s or busy < seconds:
        round_ref.append(ref.measure())
        t0 = perf_counter()
        proc.stdin.write("round\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        busy += perf_counter() - t0
        if not reply:
            break
        round_s.append(float(reply))
        sampler.between_rounds(busy, seconds)
    proc.stdin.write("stop\n")
    proc.stdin.close()
    tail = proc.stdout.read()
    code, peak_kib = reap(proc)
    ref.close()
    sampler.finish()
    if code != 0 or not tail:
        raise RunError("%s run exited with %d" % (workload, code))
    summary = json.loads(tail.strip().splitlines()[-1])
    if not Path(summary["galpha"]).resolve().is_relative_to(ROOT / "src"):
        raise RunError("galpha was imported from %s, not this checkout" % summary["galpha"])
    tally = Tally()
    with open(stream, "rb") as fh:
        for _ in round_s:
            for i, out in pickle.load(fh).items():
                tally.add(ops[i], check(ops[i], out))
    stream.unlink()
    if spans is not None:
        spans.add_file(span_path, "run")
        span_path.unlink()
    return {"setup": sampler.times, "setup_ref": sampler.imports, "round_s": round_s,
            "round_ref": round_ref, "peak_kib": peak_kib, "tally": tally}


# ---------------------------------------------------------------------------
# cli-examples: every command is a fresh process started from here

CLI_CHECKS = {
    "spectrum": lambda text, svg, oracle, c: checks.check_cli_spectrum(text, svg, c["k"], c["rho"]),
    "stability-map": lambda text, svg, oracle, c: checks.check_cli_stability_map(text, c["resolution"]),
    "converge": lambda text, svg, oracle, c: checks.check_cli_converge(
        text, oracle, c["k"], c["tau_max"], c["halvings"]),
    "order-check": lambda text, svg, oracle, c: checks.check_cli_order_check(text, c["k_list"], c["eps"]),
    "solve": lambda text, svg, oracle, c: checks.check_cli_solve(text, c["tau"], c["steps"]),
}


def run_cli_command(op, work, spans, index):
    """Start one README command, time it to its exit, return (seconds, KiB, failures)."""
    out_name = op["argv"][op["argv"].index("--out") + 1]
    csv_path, svg_path = work / out_name, work / (out_name[:-4] + ".svg")
    for stale in (csv_path, svg_path):
        if stale.exists():
            stale.unlink()
    span_path = OUT / ("cli-%d.spans" % index)
    if spans is None:
        args = [sys.executable, "-m", "galpha.cli"] + op["argv"]
    else:
        args = [sys.executable, CHILD, "cli", "--spans", str(span_path), "--"] + op["argv"]
    t0 = perf_counter()
    proc = start(args, cwd=work, stdout=subprocess.DEVNULL)
    code, kib = reap(proc)
    elapsed = perf_counter() - t0
    if spans is not None and span_path.exists():
        spans.add_file(span_path, "cli " + op["id"])
        span_path.unlink()
    if code != 0:
        return elapsed, kib, ["exit code %d" % code]
    text = csv_path.read_text() if csv_path.exists() else ""
    svg = svg_path.read_text() if svg_path.exists() else None
    return elapsed, kib, (text, svg)


def cli_failures(op, result, oracles):
    if isinstance(result, list):
        return result
    text, svg = result
    try:
        return CLI_CHECKS[op["id"]](text, svg, oracles.get(op["id"]), op["check"])
    except ValueError as exc:
        return ["unreadable CSV: %s" % exc]


def run_cli(seed, seconds, spans):
    ops = W.cli_ops()
    conv = next(op["check"] for op in ops if op["id"] == "converge")
    oracles = {"converge": checks.HeatOracle(conv["elements"], 1.0, 1.0)}
    sampler = SetupSampler("cli-examples", SETUP_SAMPLES, spans)
    work = OUT / "cli-work"
    work.mkdir(exist_ok=True)
    tally = Tally()
    round_s = []
    peak_kib = 0
    index = 0
    while not round_s or sum(round_s) < seconds:
        elapsed = 0.0
        for i in W.round_order(seed, len(round_s), len(ops)):
            dt, kib, result = run_cli_command(ops[i], work, spans, index)
            index += 1
            elapsed += dt
            peak_kib = max(peak_kib, kib)
            tally.add(ops[i], cli_failures(ops[i], result, oracles))
        round_s.append(elapsed)
        sampler.import_reference()
        sampler.between_rounds(sum(round_s), seconds)
    sampler.finish()
    return {"setup": sampler.times, "setup_ref": sampler.imports, "round_s": round_s,
            "round_ref": sampler.imports, "peak_kib": peak_kib, "tally": tally}


# ---------------------------------------------------------------------------
# per-layer probe: layers a workload does not call are timed on a fixed set

def run_probe(missing):
    probe = tracing.SpanSet()
    work = OUT / "cli-work"
    work.mkdir(exist_ok=True)
    if missing & {"spectral.amplification", "cayley.charpoly"}:
        path = OUT / "probe.spans"
        code, _ = reap(start([sys.executable, CHILD, "probe", "--spans", str(path)]))
        if code != 0:
            raise RunError("probe exited with %d" % code)
        probe.add_file(path, "probe")
        path.unlink()
    if missing - {"spectral.amplification", "cayley.charpoly"}:
        for index, op in enumerate(W.cli_ops()):
            run_cli_command(op, work, probe, 10_000 + index)
    return probe


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "galpha" / "__init__.py").is_file():
        print("no program to measure: %s/src/galpha is missing" % ROOT, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spans = tracing.SpanSet() if args.trace else None
    # a child that hangs is killed, so that the run ends with an error instead
    watchdog = threading.Timer(args.seconds + 100.0, kill_all)
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.workload == "cli-examples":
            res = run_cli(args.seed, args.seconds, spans)
        else:
            res = run_library(args.workload, args.seed, args.seconds, spans)
        probe = run_probe(tracing.missing_spans(spans)) if spans is not None else None
    except Exception as exc:  # no result is printed for a run that did not finish
        traceback.print_exc()
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        watchdog.cancel()
        stop_all()

    tally = res["tally"]
    kind = reference.ROUND_REFERENCE[args.workload]
    raw_setup, raw_wall = statistics.median(res["setup"]), statistics.median(res["round_s"])
    setup_scale = reference.NOMINAL["import"] / statistics.median(res["setup_ref"])
    wall_scale = reference.NOMINAL[kind] / statistics.median(res["round_ref"])
    print("%s seed %d: %d rounds, %d operations attempted, %d failed"
          % (args.workload, args.seed, len(res["round_s"]), tally.attempted, tally.failed))
    print("  measured: set-up %.4f s, round %.4f s; reference tasks took %.3f (import) and %.3f (%s)"
          " of their nominal time" % (raw_setup, raw_wall, 1 / setup_scale, 1 / wall_scale, kind))
    for oid, reason in sorted(tally.reasons.items()):
        tag = "UNEXPECTED" if oid in tally.unexpected else "known fault"
        print("  failed %-22s %s: %s" % (oid, tag, reason))
    if spans is None:
        metrics = {
            "setup_s": {"value": raw_setup * setup_scale, "unit": "s"},
            "wall_s": {"value": raw_wall * wall_scale, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_kib"] / 1024.0, "unit": "MiB"},
        }
    else:
        metrics = tracing.layer_metrics(spans, len(res["round_s"]), probe)
        metrics["trace.wall_s"] = {"value": raw_wall * wall_scale, "unit": "s"}
        with open(OUT / ("spans-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": len(res["round_s"]),
                       "layers": metrics, "processes": spans.processes,
                       "probe": probe.processes}, fh)
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
