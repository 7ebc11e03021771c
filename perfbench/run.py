"""heisenmod benchmark: seeded workloads, checked outputs, optional per-layer trace.

Run from the root of a checkout (heisenmod is imported from ./src):

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

Workloads (rung tables in jobs.py):
  verify-ladder  verify_suite in-process on a ladder of lattices, |G| 12 to 96
  frame-ladder   frame_bounds, dual_window and a reconstruction check in-process,
                 |G| 240 to 480
  cli-jobs       one fresh ``python -m heisenmod.cli`` process per job, all eight
                 subcommands, |G| up to 240

BENCHMARK.json lists verify-ladder and cli-jobs. frame-ladder runs the same
way by hand; it is left out there so that the two listed workloads get longer,
steadier runs in the same total time. Its groups and gabor functions still
run at |G| = 240 in cli-jobs.

One client runs ops in a closed loop. A run is a whole number of rounds, at
least two, and goes on until --seconds have passed; every round holds each
rung once, so every run measures the same mix of work. heisenmod's caches are
cleared after each in-process op, so an op's time and the run's peak memory
do not depend on how many ops came before it.

Op times, the op rate and the set-up time are reported at a reference machine
speed, from a fixed benchmark-owned probe timed alongside them (see
speed_probe); the raw figures are printed beside them.

An op fails when the program raises, exits with an unexpected code or reports
a failed verdict (verify pass=False, janssen pass=False, not a frame), and
also when the benchmark's own check contradicts a result: then the output is
wrong and ``correct`` is false.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With --trace 0 the metrics are the end-to-end
ones. With --trace 1 the run executes every job of round 0 twice, untraced
and traced back to back, and reports calls and self time per traced
function, cache hit ratios, computed frame-operator flops, CLI import and
main time, all summed over the traced round, and the tracing overhead as the
untraced over the traced op rate on the same jobs. Per-op records with size
descriptors, the environment and, when traced, the raw spans are written to
perfbench/.work/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

T_START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")

# One BLAS thread: the box is small and shared, and one thread gives the
# steadiest timings. Set before numpy loads; HEISENMOD_THREADS is the CLI's own cap.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "HEISENMOD_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import jobs  # noqa: E402
from spans import CACHED, CLI_MAIN, TRACED, Tracer  # noqa: E402

OK, FAILED, WRONG = "ok", "failed", "wrong"
JOB_FIELDS = ("group", "generators", "weight", "windows", "seed")  # the CLI job-file schema
SETUP_REPEATS = 15
MIN_ROUNDS = 2
HARD_STOP_S = 140.0  # start no op this long after start-up, so a run ends inside 180 s
CLI_TIMEOUT_S = 120.0
RESIDUAL_BOUND = 1e-9  # reconstruction residual allowed per unit of ||xi||
FIGA_BOUND = 1e-9  # relative FIGA gap allowed in cli-jobs output


def tail_percentile(workload: str) -> int:
    """Highest whole percentile with at least ten ops beyond it in the shortest run."""
    shortest = MIN_ROUNDS * jobs.round_size(workload)
    return math.floor(100 * (1 - 10 / shortest))


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------


def build_lattice(hm, job: dict):
    group = hm.FiniteAbelianGroup(tuple(job["group"]))
    gens = [(tuple(x), tuple(w)) for x, w in job["generators"]]
    return group, hm.subgroup_from_generators(group, gens, Fraction(job["weight"]))


def verify_op(hm, job: dict) -> tuple[str, str]:
    _, lattice = build_lattice(hm, job)
    report = hm.verify_suite(lattice, seed=job["seed"])
    size = job["size"]
    entries = report["identities"]
    if (
        len(lattice) != size["delta"]
        or len(hm.adjoint_subgroup(lattice)) != size["adjoint"]
        or report["lattice_points"] != size["delta"]
        or not entries
        or report["pass"] != all(e["pass"] for e in entries)
    ):
        return WRONG, "report does not match the lattice"
    if not report["pass"]:
        return FAILED, "failed identities: " + ",".join(e["name"] for e in entries if not e["pass"])
    return OK, ""


def frame_op(hm, job: dict) -> tuple[str, str]:
    group, lattice = build_lattice(hm, job)
    windows = tuple(hm.parse_window(group, spec) for spec in job["windows"])
    system = hm.GaborSystem(lattice, windows)
    bounds = hm.frame_bounds(system)
    duals = hm.dual_window(system)
    xi = hm.randn_window(group, job["seed"])
    residual = hm.reconstruction_residual(system, duals, xi)
    if len(lattice) != job["size"]["delta"]:
        return WRONG, f"lattice has {len(lattice)} points"
    if not 0.0 <= bounds.lower <= bounds.upper or len(duals) != len(windows):
        return WRONG, f"bounds {bounds}, {len(duals)} duals"
    if not residual <= RESIDUAL_BOUND * xi.norm():
        return WRONG, f"reconstruction residual {residual:.3g} for ||xi|| = {xi.norm():.3g}"
    return OK, ""


def check_cli(job: dict, code: int, out: str, err: str) -> tuple[str, str]:
    if code != job["exit"]:
        return FAILED, f"exit {code}, expected {job['exit']}: {err.strip()[-300:]}"
    if code != 0:
        return (WRONG, "stdout on an error exit") if out.strip() else (OK, "")
    try:
        payload = json.loads(out)
    except ValueError:
        return WRONG, "stdout is not JSON"
    size = job["size"]
    s = str(Fraction(size["G"], size["delta"]))
    cmd = job["cmd"]
    if cmd in ("frame-bounds", "dual-window", "gen-check") and not 0.0 <= payload["A"] <= payload["B"]:
        return WRONG, f"bounds A={payload['A']} B={payload['B']}"
    if cmd == "adjoint":
        if payload["count"] != size["adjoint"] or len(payload["elements"]) != size["adjoint"] or payload["s"] != s:
            return WRONG, f"adjoint count {payload['count']}, s {payload['s']}"
    elif cmd == "frame-bounds":
        if payload["s"] != s:
            return WRONG, f"s {payload['s']}"
        if not payload["frame"]:
            return FAILED, "not a frame"
    elif cmd == "dual-window":
        if len(payload["windows"]) != size["k"] or any(len(w) != size["G"] for w in payload["windows"]):
            return WRONG, "dual window shapes"
    elif cmd == "figa":
        if not payload["rel_gap"] <= FIGA_BOUND:
            return WRONG, f"FIGA relative gap {payload['rel_gap']:.3g}"
    elif cmd == "gen-check":
        if not payload["agree"]:
            return WRONG, "generator and frame verdicts disagree"
        if not payload["generating"]:
            return FAILED, "not generating"
    elif cmd == "janssen":
        if payload["s"] != s:
            return WRONG, f"s {payload['s']}"
        if not payload["pass"]:
            return FAILED, f"janssen gap {payload['max_abs_gap']:.3g}"
    elif cmd == "spectrum":
        eigs = payload["spectrum"]
        if len(eigs) != size["G"] or any(a < b for a, b in zip(eigs, eigs[1:])):
            return WRONG, "spectrum length or order"
    elif cmd == "verify":
        if payload["lattice_points"] != size["delta"]:
            return WRONG, f"{payload['lattice_points']} lattice points"
        if not payload["pass"]:
            return FAILED, "verify pass=false"
    return OK, ""


class Runner:
    """Runs single ops of one workload, optionally traced."""

    def __init__(self, workload: str, hm) -> None:
        self.workload = workload
        self.hm = hm
        self.tracer: Tracer | None = None
        self.import_s: list[float] = []
        # Collected before any wrapper is installed, so the originals are cleared.
        self.caches = _package_caches()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")

    def run(self, job: dict, op_id: int) -> tuple[str, str, float]:
        if self.workload == "cli-jobs":
            return self._cli(job, op_id)
        op = verify_op if self.workload == "verify-ladder" else frame_op
        if self.tracer is not None:
            self.tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            status, detail = op(self.hm, job)
        except Exception as exc:  # any exception is a failed op, counted and reported
            status, detail = FAILED, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.harvest_caches()
        for fn in self.caches:
            fn.cache_clear()
        return status, detail, seconds

    def _cli(self, job: dict, op_id: int) -> tuple[str, str, float]:
        spec = os.path.join(WORK, f"job-{os.getpid()}.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({key: job[key] for key in JOB_FIELDS}, fh)
        argv = [job["cmd"], "--spec", spec]
        trace_out = os.path.join(WORK, f"cli-trace-{os.getpid()}.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "heisenmod.cli"] + argv
        else:
            cmd = [sys.executable, os.path.join(BENCH, "clitrace.py"), trace_out] + argv
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.remove(spec)
            return FAILED, f"timed out after {CLI_TIMEOUT_S} s", time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        os.remove(spec)
        if self.tracer is not None and os.path.exists(trace_out):
            with open(trace_out, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(trace_out)
            self.import_s.append(dump["import_s"])
            self.tracer.absorb(dump, op_id)
        status, detail = check_cli(job, proc.returncode, proc.stdout, proc.stderr)
        return status, detail, seconds


def _package_caches() -> list:
    seen: dict[int, object] = {}
    for name, mod in list(sys.modules.items()):
        if name == "heisenmod" or name.startswith("heisenmod."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    seen[id(value)] = value
    return list(seen.values())


def run_rounds(runner: Runner, seed: int, seconds: float):
    """Closed loop over whole rounds, with the speed probe timed before every op.

    Returns the op records and the wall time spent in ops, probes excluded.
    """
    records: list[dict] = []
    t_start = time.perf_counter()
    probe_total = 0.0
    index = 0
    while True:
        for job in jobs.round_jobs(runner.workload, seed, index):
            if time.perf_counter() - T_START > HARD_STOP_S:
                break
            probe_s = speed_probe()
            probe_total += probe_s
            records.append(_record(index, job, *runner.run(job, len(records))))
            records[-1]["probe_s"] = probe_s
        index += 1
        if time.perf_counter() - T_START > HARD_STOP_S:
            break
        if index >= MIN_ROUNDS and time.perf_counter() - t_start - probe_total >= seconds:
            break
    return records, time.perf_counter() - t_start - probe_total


def run_paired(runner: Runner, seed: int) -> tuple[Tracer, list[dict], list[dict]]:
    """Round 0 with every job run untraced and traced back to back, alternating which goes first.

    Pairing the two runs of each job keeps the machine's drift out of the
    tracing overhead.
    """
    tracer = Tracer()
    plain: list[dict] = []
    traced: list[dict] = []
    for i, job in enumerate(jobs.round_jobs(runner.workload, seed, 0)):
        if time.perf_counter() - T_START > HARD_STOP_S:
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                runner.tracer = tracer
            record = _record(0, job, *runner.run(job, i))
            if with_trace:
                tracer.uninstall()
                runner.tracer = None
            (traced if with_trace else plain).append(record)
    return tracer, plain, traced


def _record(index: int, job: dict, status: str, detail: str, seconds: float) -> dict:
    return {"round": index, "cmd": job.get("cmd"), "status": status, "seconds": seconds,
            "detail": detail, "size": job["size"]}


# ---------------------------------------------------------------------------
# Machine-speed reference
# ---------------------------------------------------------------------------

# On a small shared host a core's speed drifts by 10-30% over minutes, as
# other tenants come and go, and it moves every op of a run alike; left in,
# it swamps a 25% regression bound. So the run times a fixed piece of
# benchmark-owned work before every op and every set-up repeat (no heisenmod
# code runs in it) and reports op times, the op rate and the set-up time at
# reference speed: scaled by (REFERENCE_PROBE_S / median probe time) **
# PROBE_EXPONENT, as if on a machine on which the probe takes
# REFERENCE_PROBE_S (about its time on a 2-vCPU Xeon at 2.1 GHz). The
# exponent is measured: in four sets of 4-10 runs taken while the host
# drifted, heisenmod's op times moved by about half the share the probe's
# did (its small, hot working set gains and loses more from a busy
# neighbour), and the square root cut the run-to-run spread of p50, tail and
# op rate from 0.13-0.25 of the median to 0.03-0.11, where the full ratio
# over-corrected in one set. A change to heisenmod does not touch the probe,
# so it moves these figures by the same share as the raw ones; the raw
# figures are printed beside them and kept in the run's record.
REFERENCE_PROBE_S = 0.003
PROBE_EXPONENT = 0.5


def reference_speed(probe_times) -> float:
    """Factor that brings timings taken alongside these probe times to reference speed."""
    return (REFERENCE_PROBE_S / statistics.median(probe_times)) ** PROBE_EXPONENT


def speed_probe() -> float:
    """Seconds taken by the reference work: the closure of a subgroup of Z_61 x Z_71
    over int tuples, the kind of interpreter work heisenmod's lattice code does."""
    gc.disable()  # no collection of heisenmod's heap lands inside the probe
    try:
        t0 = time.perf_counter()
        orders, gens = (61, 71), ((1, 7), (3, 2))
        closure, frontier = {(0, 0)}, [(0, 0)]
        while frontier:
            z = frontier.pop()
            for g in gens:
                w = ((z[0] + g[0]) % orders[0], (z[1] + g[1]) % orders[1])
                if w not in closure:
                    closure.add(w)
                    frontier.append(w)
        return time.perf_counter() - t0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Set-up, environment and reporting
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time importing heisenmod and generating the minimum run's jobs."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import heisenmod  # noqa: F401

    for index in range(MIN_ROUNDS):
        jobs.round_jobs(workload, seed, index)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, raw and at reference speed."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(speed_probe())
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    raw = statistics.median(times)
    return raw, raw * reference_speed(probes)


def environment(hm) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "blas_thread_cap": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "heisenmod": getattr(hm, "__version__", "unknown"),
        "git_sha": sha,
        "machine": platform.machine(),
    }


def _blas_threads(np) -> int | str:
    """Thread count reported by the bundled OpenBLAS, when it can be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def end_to_end(workload: str, records: list[dict], wall: float, setup_s: float,
               speed: float) -> dict:
    """End-to-end metrics, op times multiplied and the op rate divided by ``speed``."""
    times = [r["seconds"] * speed for r in records]
    pct = tail_percentile(workload)
    who = resource.RUSAGE_CHILDREN if workload == "cli-jobs" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (statistics.quantiles(times, n=100, method="inclusive")[pct - 1] if len(times) > 1
                      else times[0], "s"),
        "ops_per_s": (len(records) / (wall * speed), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, import_s: list[float], plain: list[dict], traced: list[dict]) -> dict:
    totals = tracer.totals()
    metrics = {}
    for qual in TRACED:
        calls, self_s = totals.get(qual, (0, 0.0))
        metrics[f"{qual}.calls"] = (calls, "count")
        metrics[f"{qual}.self_s"] = (self_s, "s")
    for qual in CACHED:
        hits, misses = tracer.cache[qual]
        metrics[f"{qual}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["gabor.frame_operator.computed_flops"] = (tracer.flops, "flop")
    metrics["cli.import_s"] = (sum(import_s), "s")
    metrics["cli.main.self_s"] = (totals.get(CLI_MAIN, (0, 0.0))[1], "s")
    plain_rate = len(plain) / sum(r["seconds"] for r in plain)
    traced_rate = len(traced) / sum(r["seconds"] for r in traced)
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "heisenmod", "__init__.py")):
        print(f"error: no heisenmod sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    os.makedirs(WORK, exist_ok=True)
    setup_raw, setup_s = (None, None) if args.trace else measure_setup(args.workload, args.seed)
    sys.path.insert(0, SRC)
    import heisenmod as hm

    if not os.path.abspath(hm.__file__).startswith(SRC + os.sep):
        print(f"error: heisenmod was imported from {hm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(hm)
    print("environment: " + json.dumps(env, sort_keys=True))

    runner = Runner(args.workload, hm)
    raw, probe_s = {}, None
    if args.trace:
        tracer, plain, traced = run_paired(runner, args.seed)
        metrics = per_layer(tracer, runner.import_s, plain, traced)
        tracer.save(os.path.join(WORK, f"{args.workload}-seed{args.seed}-spans.npz"))
        records = plain + traced
        wall = time.perf_counter() - T_START
    else:
        records, wall = run_rounds(runner, args.seed, args.seconds)
        probe_s = statistics.median(r["probe_s"] for r in records)
        raw = end_to_end(args.workload, records, wall, setup_raw, 1.0)
        metrics = end_to_end(args.workload, records, wall, setup_s,
                             reference_speed([r["probe_s"] for r in records]))

    failed = sum(r["status"] != OK for r in records)
    wrong = sum(r["status"] == WRONG for r in records)
    for r in records:
        if r["status"] != OK:
            print(f"{r['status']}: {r['cmd'] or args.workload} {json.dumps(r['size'], sort_keys=True)} {r['detail']}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(records),
        "rounds": len({r["round"] for r in records}),
        "error_ratio": failed / len(records),
        "tail_percentile": tail_percentile(args.workload),
        "wall_s": wall,
        "speed_probe_s": probe_s,
        "raw": {name: value for name, (value, _) in raw.items()},
    }
    print("summary: " + json.dumps(summary, sort_keys=True))
    for name, (value, unit) in metrics.items():
        at_raw = f"  (raw {raw[name][0]:.6g})" if name in raw and raw[name][0] != value else ""
        print(f"  {name:45s} {value:.6g} {unit}{at_raw}")
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "summary": summary, "ops": records, "metrics": reported}, fh, indent=1)
    print(json.dumps({"correct": wrong == 0, "attempted": len(records), "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
