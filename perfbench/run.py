#!/usr/bin/env python3
"""The repository's benchmark: whole-process `xisa_exp` timings per
workload, and a layer-timed traced pass.

    python3 perfbench/run.py --workload overhead|fleet|serving \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds `xisa_exp` and
`xisa_tracepass` from source into .bench_build/ (Release; see
perfbench/CMakeLists.txt). The workload's conf is generated from
perfbench/workloads/ and the seed.

--trace 0 times the real `xisa_exp CONF` process again and again for S
seconds and reports the end-to-end metrics as medians over those
processes: wall time, peak RSS, simulated work per wall second, and the
set-up time (conf parse plus calibration or compilation, timed by
`xisa_tracepass setup` in separate processes that alternate with the
timed ones). It also makes one
XISA_BENCH_THREADS=1 run; every process's stdout and --json rows must
equal it.

--trace 1 runs the traced pass (perfbench/tracepass.cc) for S seconds
and reports the per-layer metrics as medians over passes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. perfbench/README.md describes the workloads and metrics.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "perfbench"
XISA_EXP = BUILD / "repo" / "src" / "exp" / "xisa_exp"
TRACEPASS = BUILD / "xisa_tracepass"

# One sweep-thread count for every workload and process.
THREADS = 2
# Every run ends this long after its build, well inside 180 s.
RUN_BUDGET_S = 160.0
MIN_PROCESSES = 3
# Set-up time sampled after each timed process, as a share of its wall.
SETUP_SHARE = 0.2

# --seed 0 reproduces the repository confs; 7919 is the held-out seed.
DEFAULT_SEED = 0

WORKLOADS = {
    # name: (conf template, name of its rate in the report, unit, scale)
    "overhead": ("overhead.conf", "guest_mips", "M instr/s", 1e-6),
    "fleet": ("fleet.conf.in", "sched_events_per_s", "events/s", 1.0),
    "serving": ("serving.conf.in", "requests_per_s", "requests/s", 1.0),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_work_per_s": "1/s",
}

PER_LAYER = {
    "exp.parse_s": "s",
    "workload.build_s": "s",
    "compiler.compile_s": "s",
    "compiler.modules": "count",
    "compiler.text_bytes": "bytes",
    "sched.calibrate_s": "s",
    "traffic.calibrate_s": "s",
    "machine.hot_mips": "MIPS",
    "machine.cold_mips": "MIPS",
    "machine.guest_instrs": "count",
    "sweep.busy_frac": "ratio",
    "sweep.cell_max_s": "s",
    "sched.run_s": "s",
    "sched.events": "count",
    "sched.events_per_s": "1/s",
    "traffic.generate_s": "s",
    "traffic.serve_s": "s",
    "traffic.requests": "count",
    "traffic.serve_requests_per_s": "1/s",
    "migration.count": "count",
    "migration.dsm_pages": "count",
    "migration.net_messages": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

# Fields of xisa_exp --json that hold host measurements, not results.
HOST_FIELDS = {"wall_seconds", "mips", "events_per_sec", "sweep_threads"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --- building ----------------------------------------------------------


def bench_env(threads):
    """The environment of every child: no XISA_* switch but the pinned
    sweep-thread count, temporaries inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XISA_")}
    env["XISA_BENCH_THREADS"] = str(threads)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    for need in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / need).is_file():
            raise BenchError(f"no repository sources: {ROOT / need} missing")
    WORK.mkdir(parents=True, exist_ok=True)
    env = bench_env(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "xisa_exp", "xisa_tracepass"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(WORK / "build.log", "wb") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {WORK / 'build.log'})")
    cache = (BUILD / "CMakeCache.txt").read_text()
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    build_type = m.group(1) if m else ""
    if build_type != "Release":
        raise BenchError(f"refusing a {build_type or 'untyped'} build; "
                         f"the benchmark times Release only")
    # CMake records the compiler it detected next to the cache.
    compiler = "unknown"
    for f in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        found = dict(re.findall(
            r'^set\(CMAKE_CXX_COMPILER_(ID|VERSION) "(.*)"\)$',
            f.read_text(), re.M))
        compiler = f"{found.get('ID', '?')} {found.get('VERSION', '?')}"
    return compiler


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --- inputs ------------------------------------------------------------


def make_conf(workload, seed, where):
    """The workload's conf with the seed written in. `overhead` is
    seed-free; `fleet` and `serving` map --seed 0 to the seeds of the
    repository confs they come from."""
    template = (HERE / "workloads" / WORKLOADS[workload][0]).read_text()
    s = seed % (1 << 31)
    text = (template.replace("@SEED_BASE@", str(77000 + 8 * s))
            .replace("@TRAFFIC_SEED@", str(42 + s))
            .replace("@FAILURE_SEED@", str(13638161 + s)))
    path = where / f"{workload}.conf"
    path.write_text(text)
    return path, text


def conf_list(text, key):
    m = re.search(rf"^{key}\s*=\s*(.*?)\s*(#.*)?$", text, re.M)
    return [v.strip() for v in m.group(1).split(",")] if m else []


# --- one child process ---------------------------------------------------


class Proc:
    """Runs one child to completion under the `xisa_tracepass measure`
    launcher: wall time, peak RSS, exit code, stdout."""

    def __init__(self, argv, env, cwd, tag, timeout):
        stats = cwd / f"{tag}.measure.json"
        stats.unlink(missing_ok=True)
        with open(cwd / f"{tag}.out", "wb") as out:
            p = subprocess.Popen([TRACEPASS, "measure", stats] + argv,
                                 stdout=out, stderr=subprocess.DEVNULL,
                                 env=env, cwd=cwd, start_new_session=True)
            try:
                p.wait(timeout=max(timeout, 0.1))
            except subprocess.TimeoutExpired:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait()
        self.stdout = (cwd / f"{tag}.out").read_text(errors="replace")
        try:
            m = json.loads(stats.read_text())
        except (OSError, ValueError):
            m = {"wall_s": 0.0, "rss_kib": 0, "code": p.returncode or -1}
        self.wall_s = m["wall_s"]
        self.rss_mb = m["rss_kib"] / 1024.0
        self.code = m["code"]


class Run:
    """Budget and failure accounting of one benchmark invocation."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def left(self):
        return self.deadline - time.monotonic()

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def child(self, argv, threads, tag):
        """Run one child; None once the run's time budget is spent."""
        if self.left() <= 0:
            self.fail(f"time budget of {RUN_BUDGET_S:g} s spent")
            return None
        self.attempted += 1
        return Proc([str(a) for a in argv], bench_env(threads), self.dir,
                    tag, self.left())


# --- end-to-end pass -------------------------------------------------------


def canonical_rows(json_path):
    """--json without its host measurements, so runs compare exactly;
    None when the file is missing or malformed."""
    try:
        data = json.loads(Path(json_path).read_text())
    except (OSError, ValueError):
        return None
    return {k: v for k, v in data.items() if k not in HOST_FIELDS}


def last_json(stdout):
    """The JSON object on a child's last stdout line, or None."""
    try:
        return json.loads(stdout.splitlines()[-1])
    except (ValueError, IndexError):
        return None


def report_problems(workload, conf_text, stdout, rows):
    """Rows the report should have but lacks, and impossible values."""
    bad = []
    got = rows.get("rows", [])
    if workload == "overhead":
        wls, isas = conf_list(conf_text, "workloads"), conf_list(conf_text, "isas")
        want = (len(wls) * len(isas) * len(conf_list(conf_text, "classes"))
                * len(conf_list(conf_text, "threads")))
        if len(got) != want:
            bad.append(f"{len(got)} of {want} sweep rows")
        if any(r["base_seconds"] <= 0 or r["instrumented_seconds"] <= 0
               or r["instrs"] <= 0 for r in got):
            bad.append("a sweep row with no simulated work")
        if sum(r["instrs"] for r in got) != rows.get("simulated_instrs"):
            bad.append("simulated_instrs is not the sum of the rows")
        for wl in wls:
            if stdout.count(f"\n-- {wl} on ") != len(isas):
                bad.append(f"report lacks a '{wl}' table")
    elif workload == "fleet":
        labels = re.findall(r'^label\s*=\s*"(.*)"', conf_text, re.M)
        if [r["pool"] for r in got] != labels:
            bad.append(f"pool rows {[r['pool'] for r in got]} != {labels}")
        if any(r["energy_kj"] <= 0 or r["makespan_seconds"] <= 0 for r in got):
            bad.append("a pool row with no energy or makespan")
        for label in labels:
            if not re.search(rf"^{re.escape(label)}\s", stdout, re.M):
                bad.append(f"report lacks the '{label}' row")
        if not rows.get("sched_events"):
            bad.append("no scheduler events")
    else:
        if [r["scenario"] for r in got] != ["static"]:
            bad.append(f"scenario rows {[r['scenario'] for r in got]}")
        m = re.search(r"^(\d+) requests over", stdout, re.M)
        for r in got:
            if not 0 < r["p50_us"] <= r["p99_us"] <= r["p999_us"] <= r["max_us"]:
                bad.append(f"{r['scenario']}: percentiles out of order")
            if not m or r["requests"] != int(m.group(1)):
                bad.append(f"{r['scenario']}: served != generated requests")
    return bad


def work_count(workload, rows):
    """Exact simulated work of one process."""
    if workload == "overhead":
        return rows["simulated_instrs"]
    if workload == "fleet":
        return rows["sched_events"]
    return sum(r["requests"] for r in rows["rows"])


def end_to_end(run, conf, conf_text):
    """End-to-end metrics: medians over whole xisa_exp processes."""
    w = run.workload
    ref = run.child([XISA_EXP, conf, "--json", "ref.json"], 1, "ref")
    ref_rows = ref and ref.code == 0 and canonical_rows(run.dir / "ref.json")
    if not ref_rows:
        run.fail("XISA_BENCH_THREADS=1 reference run: "
                 f"exit status {ref and ref.code}, no --json rows")
        return None
    bad = report_problems(w, conf_text, ref.stdout, ref_rows)
    if bad:
        run.fail("XISA_BENCH_THREADS=1 reference run: " + "; ".join(bad))

    # Timed processes alternate with set-up processes for the whole
    # run, so both sample the same states of the host. After each timed
    # process, set-up processes run until they have taken a fifth of its
    # wall time; there is always at least one.
    walls, rss, rates, setups = [], [], [], []
    t0 = time.monotonic()
    for rep in range(1, 1 << 20):
        if rep > MIN_PROCESSES and time.monotonic() - t0 >= run.seconds:
            break
        p = run.child([XISA_EXP, conf, "--json", "rep.json"], THREADS, "rep")
        if not p:
            break
        rows = p.code == 0 and canonical_rows(run.dir / "rep.json")
        bad = []
        if not rows:
            bad.append(f"exit status {p.code}, no --json rows")
        else:
            bad += report_problems(w, conf_text, p.stdout, rows)
            if p.stdout != ref.stdout:
                bad.append("stdout differs from the XISA_BENCH_THREADS=1 run")
            if rows != ref_rows:
                bad.append("--json rows differ from the XISA_BENCH_THREADS=1 run")
        if bad:
            run.fail(f"process {rep}: " + "; ".join(bad))
        else:
            walls.append(p.wall_s)
            rss.append(p.rss_mb)
            rates.append(work_count(w, rows) / p.wall_s)

        spent = 0.0
        while spent == 0.0 or spent < SETUP_SHARE * p.wall_s:
            s = run.child([TRACEPASS, "setup", conf], THREADS, "setup")
            if not s:
                break
            spent += max(s.wall_s, 1e-3)
            result = last_json(s.stdout) if s.code == 0 else None
            if result is None:
                run.fail(f"set-up process after process {rep}: "
                         f"exit status {s.code}")
            else:
                setups.append(result["setup_s"])

    log(f"results  stdout sha256 {hashlib.sha256(ref.stdout.encode()).hexdigest()}")
    log("results  rows sha256 "
        + hashlib.sha256(json.dumps(ref_rows, sort_keys=True).encode()).hexdigest())
    log(f"results  {work_count(w, ref_rows)} units of simulated work per process")
    log(f"samples  {len(walls)} processes at XISA_BENCH_THREADS={THREADS}, "
        f"{len(setups)} set-ups")
    if not walls or not setups:
        return None
    med = statistics.median
    metrics = {
        "wall_s": med(walls),
        "setup_s": med(setups),
        "peak_rss_mb": med(rss),
        "sim_work_per_s": med(rates),
    }
    for name, values in (("wall_s", walls), ("setup_s", setups)):
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        log(f"spread   {name} min {min(values):.4f} q1 {q[0]:.4f} "
            f"q3 {q[2]:.4f} max {max(values):.4f}")
    _, name, unit, scale = WORKLOADS[w]
    log(f"metric   {name} = {metrics['sim_work_per_s'] * scale:.6g} {unit} "
        f"(reported as sim_work_per_s)")
    return metrics


# --- traced pass -------------------------------------------------------------


def traced(run, conf, _conf_text):
    """Per-layer metrics: medians over traced passes."""
    passes = []
    t0 = time.monotonic()
    spans = WORK / f"spans-{run.workload}.json"
    for rep in range(1 << 20):
        if rep and time.monotonic() - t0 >= run.seconds:
            break
        order = "on-off" if rep % 2 else "off-on"
        p = run.child([TRACEPASS, "pass", conf, HERE / "workloads", spans,
                       order], THREADS, "pass")
        if not p:
            break
        result = last_json(p.stdout) if p.code == 0 else None
        if result is None:
            run.fail(f"traced pass {rep + 1}: exit status {p.code}")
            continue
        checks = result["checks"]
        run.attempted += checks["attempted"]
        run.failed += checks["failed"]
        run.problems += checks["messages"]
        passes.append(result)
    if not passes:
        return None

    last = passes[-1]
    total = sum(last["layers"].values())
    log(f"trace    {len(passes)} passes; spans of the last in {spans}")
    log(f"trace    runner path {last['wall_on_s']:.4f} s traced, "
        f"{last['wall_off_s']:.4f} s untraced; layer spans cover "
        f"{last['coverage'] * 100:.2f}% of it")
    for layer, secs in sorted(last["layers"].items(), key=lambda kv: -kv[1]):
        log(f"layer    {layer:16s} self {secs:10.6f} s  "
            f"{100 * secs / total:6.2f}%")
    for name, secs in sorted(last["calls"].items(), key=lambda kv: -kv[1]):
        log(f"call     {name:28s} {secs:10.6f} s  "
            f"{100 * secs / last['wall_on_s']:6.2f}% of the runner path")
    return {k: statistics.median(p["metrics"][k] for p in passes)
            for k in PER_LAYER}


# --- main --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        compiler = build()
        run = Run(args.workload, args.seconds)
        log(f"host     nproc {os.cpu_count()}, cpu {cpu_model()}, "
            f"compiler {compiler}, build Release")
        conf, text = make_conf(args.workload, args.seed, run.dir)
        log(f"workload {args.workload}, seed {args.seed}, "
            f"XISA_BENCH_THREADS={THREADS}, {args.seconds:g} s")
        if args.trace:
            metrics, units = traced(run, conf, text), PER_LAYER
        else:
            metrics, units = end_to_end(run, conf, text), END_TO_END
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for problem in run.problems:
        log(f"FAILED   {problem}")
    log(f"metric   failed_frac = {run.failed / max(run.attempted, 1):.6g} "
        f"ratio ({run.failed} of {run.attempted} runs)")
    metrics = metrics or {}
    for name, value in metrics.items():
        log(f"metric   {name} = {value:.6g} {units[name]}")
    shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
