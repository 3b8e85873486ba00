#!/usr/bin/env python3
"""Run one benchmark workload against the effectkit sources of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every listed workload in turn

A run sets the workload up several times (importing effectkit afresh each
time) and keeps the last set-up, then repeats passes over the workload's
inputs for about --seconds; an untraced run samples set-up again after
every pass.  A reference loop timed every 50 ms all through an untraced
run gives the host's speed, and every end-to-end time is scaled to a host
of nominal speed (bench/hostspeed.py).  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates untraced
passes with passes under span tracing, and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full record (environment, per-pass figures, spans) is written
to .bench_out/ in the checkout.  See bench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up imports effectkit from cached bytecode, as every run of a package
# after its first does, whatever PYTHONDONTWRITEBYTECODE says.  With the
# cache off, every import would also compile the sources, and setup_s would
# depend on the environment the benchmark runs in.
sys.dont_write_bytecode = False
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, accounting_errors, aggregate  # noqa: E402

MODULES = ("core", "corpus", "lemmas", "structure", "enumeration", "cli")
# Set-up is sampled before the first pass at least SETUP_MIN_REPS times and
# until SETUP_MIN_S have passed.  A cheap set-up takes about 10 ms, so one
# sample is noise.  The host's speed also drifts within seconds, so an
# untraced run samples set-up again after every pass, for at least
# SETUP_SLOT_S, and its samples average that drift over the whole run as
# the passes do.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 2, 1.0, 100
SETUP_SLOT_S = 0.25
# No pass starts if it would end later than this after the first began, so a
# run ends well inside the 180 s a run may take.
HARD_CAP_S = 130
NOISY_RULE = "noisy when the 1-minute load average at start or end exceeds the usable CPU count"


class Effectkit:
    """The package and its modules, imported from this checkout's src/."""

    def __init__(self):
        self.package = importlib.import_module("effectkit")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"effectkit.{name}"))
        self.modules = [getattr(self, name) for name in MODULES]


def import_effectkit():
    for name in [m for m in sys.modules if m == "effectkit" or m.startswith("effectkit.")]:
        del sys.modules[name]
    ek = Effectkit()
    src = (ROOT / "src").resolve()
    if src not in Path(ek.package.__file__).resolve().parents:
        raise ImportError(f"effectkit imported from {ek.package.__file__}, not {src}")
    return ek


def setup(workload, seed, workdir, min_reps=SETUP_MIN_REPS, min_s=SETUP_MIN_S):
    """Import effectkit and generate the inputs repeatedly; returns the
    per-repetition times and the last repetition's modules, which the
    workload keeps."""
    times = []
    while len(times) < min_reps or (
        sum(times) < min_s and len(times) < SETUP_MAX_REPS
    ):
        gc.collect()  # garbage of the previous set-up is not this one's cost
        t0 = time.perf_counter()
        ek = import_effectkit()
        workload.setup(ek, seed, workdir)
        times.append(time.perf_counter() - t0)
    return times, ek


def child_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Phase:
    """Passes made in one mode (traced or not) with their figures."""

    def __init__(self):
        self.latencies = []    # per pass: its latency samples, one per op
        self.oks = []          # correctness verdict of every op
        self.walls = []        # per pass: sum of its latency samples
        self.intervals = []    # per pass: (start, end) on time.perf_counter()
        self.child_cpu = []    # per pass: CPU time of reaped child processes
        self.pass_walls = []   # per pass: elapsed time including checks


def run_passes(workload, seconds, min_passes, cap, patch=None, speed=None,
               after_pass=None):
    """Repeat passes for about `seconds`, calling `after_pass` after each,
    and telling `speed` (a hostspeed.HostSpeed) when a pass runs.
    Without `patch` every pass is untraced and lands in the first phase
    returned.  With it, passes alternate, untraced first: even passes are
    untraced, odd passes run with the patch applied and land in the second
    phase, so that a traced pass and the untraced one before it see the same
    host speed."""
    plain, traced = Phase(), Phase()
    pass_walls = []
    start = time.perf_counter()
    while stats.start_another_pass(
        pass_walls, time.perf_counter() - start, seconds, min_passes, cap,
    ):
        index = len(pass_walls)
        phase = traced if patch is not None and index % 2 else plain
        if phase is traced:
            patch.apply()
        if speed is not None:
            speed.in_pass = True
        try:
            t0, cpu0 = time.perf_counter(), child_cpu_s()
            latencies, oks = workload.run_pass(index)
            t1 = time.perf_counter()
            phase.child_cpu.append(child_cpu_s() - cpu0)
        finally:
            if speed is not None:
                speed.in_pass = False
            if phase is traced:
                patch.revert()
        phase.pass_walls.append(t1 - t0)
        phase.intervals.append((t0, t1))
        phase.walls.append(sum(latencies))
        phase.latencies.append(latencies)
        phase.oks.extend(oks)
        if after_pass is not None:
            after_pass()
        pass_walls.append(time.perf_counter() - t0)  # what the next pass costs the budget
    return plain, traced


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024


def speed_scales(intervals, speed):
    """Per (start, end) interval, the factor that scales times measured in
    it to nominal host speed: nominal over the reference loop's mean time in
    the interval, or in the whole run if the interval holds no sample."""
    whole = speed.durations()
    return [stats.speed_scale(hostspeed.NOMINAL_S, speed.durations(t0, t1) or whole)
            for t0, t1 in intervals]


def end_to_end(phase, scales, setup_times):
    """The end-to-end metrics, each pass's times multiplied by its scale;
    `setup_times` come scaled.  An op's latency is its median over the
    passes, and the percentiles are taken over the ops."""
    if len({len(p) for p in phase.latencies}) != 1:
        raise ValueError("every pass must run the same operations")
    passes = [[x * k for x in p] for p, k in zip(phase.latencies, scales)]
    op_latencies = [statistics.median(op) for op in zip(*passes)]
    return {
        "wall_s": statistics.median(w * k for w, k in zip(phase.walls, scales)),
        "op_p50_ms": statistics.median(op_latencies) * 1000,
        "op_p90_ms": stats.percentile(op_latencies, 0.9) * 1000,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


# Groups of public functions reported as one self time: the statement
# oracles, and the CLI subcommand handlers.
SPAN_GROUPS = {"lemmas.oracles": "lemmas.check_", "cli.commands": "cli.cmd_"}


def per_layer(names, plain, traced, totals, workers):
    """Per-layer metrics, each per traced pass unless it is a ratio.

    `<module>.<function>.calls|self_s|calls_per_op` come from the spans;
    `<group>.self_s` sums the spans of a SPAN_GROUPS prefix; the pool
    figures come from getrusage(RUSAGE_CHILDREN) around each pass.
    `trace.overhead_frac` pairs each traced pass with the untraced pass
    before it."""
    passes, ops = len(traced.walls), len(traced.oks)
    out = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name == "trace.overhead_frac":
            pairs = min(len(plain.walls), passes)
            value = sum(traced.walls[:pairs]) / sum(plain.walls[:pairs]) - 1
        elif name == "enumeration.pool.child_cpu_s":
            value = sum(traced.child_cpu) / passes
        elif name == "enumeration.pool.worker_util":
            value = sum(traced.child_cpu) / (workers * sum(traced.walls))
        elif layer in SPAN_GROUPS and kind == "self_s":
            value = sum(s for k, (_, s) in totals.items()
                        if k.startswith(SPAN_GROUPS[layer])) / 1e9 / passes
        elif kind in ("calls", "self_s", "calls_per_op"):
            calls, self_ns = totals.get(layer, (0, 0))
            value = {"calls": calls / passes, "self_s": self_ns / 1e9 / passes,
                     "calls_per_op": calls / ops}[kind]
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
        out[name] = value
    return out


def git_commit():
    """The checked-out commit, read from .git without running git (the
    benchmark also runs from exported trees, which have no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_one(args, spec):
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    cpus = usable_cpus()
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": cpus,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        workload = workloads.make(args.workload, ROOT, cpus)
    except (OSError, ValueError) as exc:
        print(f"bench: cannot prepare {args.workload}: {exc}", file=sys.stderr)
        return 2
    env["workers"] = workload.parallel
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans, accounting = None, []
    # Only untraced runs report times, so only they sample the host's speed.
    speed = None if args.trace else hostspeed.HostSpeed(all_cpus=workload.parallel > 1)
    setup_rounds = []  # ((start, end), times) of each call of setup()

    def timed_setup(*limits):
        t0 = time.perf_counter()
        times, ek = setup(workload, args.seed, workdir, *limits)
        setup_rounds.append(((t0, time.perf_counter()), times))
        return ek

    try:
        if speed is not None:
            speed.start()
        try:
            ek = timed_setup()
        except (ImportError, OSError) as exc:
            print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 2
        if not args.trace:
            plain, _ = run_passes(workload, args.seconds, 3, HARD_CAP_S, speed=speed,
                                  after_pass=lambda: timed_setup(1, SETUP_SLOT_S))
            speed.stop()
            phases = [plain]
            scales = speed_scales(plain.intervals, speed)
            setup_scales = speed_scales([when for when, _ in setup_rounds], speed)
            setup_times = [t * k for (_, times), k in zip(setup_rounds, setup_scales)
                           for t in times]
            env["host_speed"] = {"nominal_ref_s": hostspeed.NOMINAL_S,
                                 "ref_samples": len(speed.samples),
                                 "mean_ref_s": statistics.fmean(speed.durations()),
                                 "pass_scales": scales, "setup_scales": setup_scales}
            values = end_to_end(plain, scales, setup_times)
        else:
            tracer = Tracer()
            patch = tracer.prepare(ek.modules, [ek.package, *ek.modules])
            plain, traced = run_passes(workload, args.seconds, 2, HARD_CAP_S, patch)
            phases = [plain, traced]
            accounting = accounting_errors(tracer.spans, tracer.names)
            totals = aggregate(tracer.spans, tracer.names)
            values = per_layer([m["name"] for m in metric_specs], plain, traced,
                               totals, workload.parallel)
            spans = {"names": tracer.names, "spans": tracer.spans}
    finally:
        if speed is not None:
            speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    outcomes = [ok for phase in phases for ok in phase.oks]
    attempted, failed = len(outcomes), outcomes.count(False)
    env["loadavg_end"] = os.getloadavg()
    env["noisy"] = max(env["loadavg_start"][0], env["loadavg_end"][0]) > cpus
    env["noisy_rule"] = NOISY_RULE
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    result = {"correct": failed == 0 and not accounting, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, env=env,
                  failed_frac=stats.failed_frac(outcomes),
                  setup_times_s=[t for _, times in setup_rounds for t in times],
                  accounting_errors=accounting[:20],
                  host_ref_samples_s=speed and speed.durations(),
                  passes=[{"op_walls_s": p.walls, "pass_walls_s": p.pass_walls,
                           "child_cpu_s": p.child_cpu} for p in phases])
    if spans is not None:
        record["spans"] = spans
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out_file.write_text(json.dumps(record, separators=(",", ":")) + "\n")

    n = len(phases[0].latencies[0])  # distinct ops: every pass runs them all
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {sum(len(p.walls) for p in phases)}  checked ops {attempted}  "
          f"timed ops per pass {n}")
    print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        note = ""
        if name == "op_p90_ms":
            tail = stats.tail_percentile(n)
            note = (f"  ({stats.samples_beyond(n, 0.9)} of {n} ops beyond; "
                    + (f"highest percentile with {stats.TAIL_SAMPLES} beyond: p{tail})"
                       if tail else f"no percentile has {stats.TAIL_SAMPLES} beyond)"))
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    for err in accounting[:5]:
        print(f"  accounting error: {err}")
    print(f"env {json.dumps(env)}")
    print(f"record {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args, spec):
    """Each workload in its own process, one after another."""
    rc = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        rc = max(rc, proc.returncode)
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
