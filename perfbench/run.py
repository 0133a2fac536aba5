"""Benchmark of the hadwiger2 command line: sweep, screen and certify.

    python3 perfbench/run.py --workload {sweep,screen,certify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it needs no install.  Set-up
builds every input with the public constructors and writes it as graph6,
five times.  Then it runs passes over the workload's jobs for about S
seconds.  Each pass is a fresh interpreter (perfbench/worker.py) that
drives ``hadwiger2.cli.main`` in process with one worker.  A pass starts
only if one more pass of the last one's length still fits, so a pass
longer than S runs alone.

Times are reported in reference seconds (perfbench/calibrate.py): CPU
time scaled by the host's speed, measured with a fixed kernel sampled
while the timed code runs, so that a shared host's drift in CPU speed
cancels out.  Raw wall times are printed and recorded as well.

With --trace 0 it reports the end-to-end metrics: ``ref_cpu_s``, the
median pass time; ``setup_s``, the median set-up time; and the median
peak RSS of a pass.  With --trace 1 it spends half the time on untraced
passes and half on traced ones.  It then reports the per-layer metrics
of the traced passes, plus ``trace.overhead_s``: the traced minus the
untraced median wall time.

Every verdict of every pass is checked against references that do not
come from hadwiger2 (perfbench/reference.py).  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}, where
``failed`` counts wrong verdicts and crashed jobs.  The exit code is 1
if any verdict is wrong, and 2 if the benchmark cannot run at all.  The
lines before it give the run record and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FIXTURE = ROOT / "tests" / "fixtures" / "triangle_free_counts.json"

sys.path.insert(0, str(BENCH))
import reference as ref  # noqa: E402
from calibrate import Sampler  # noqa: E402

SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
SWEEP_MAX_N = 9
# The CDM search on a triangle-free-process complement either finds a
# matching within a few thousand nodes or runs for seconds; this budget
# keeps the seeded part of `certify` small next to its fixed part.
TFP_CDM_BUDGET = 20_000
TFP_ORDER = 101
SCREEN_HOSTS = ("clebsch", "andrasfai6", "kneser7_3", "hoffman_singleton", "gewirtz", "mesner")
COVER4_HOSTS = ("hoffman_singleton", "gewirtz", "mesner")
KNESER_PARAMS = ((7, 3, 1), (9, 4, 2), (10, 4, 1))

E2E_UNITS = {
    "ref_cpu_s": "s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdicts": "count",
    "undecided_frac": "ratio",
    "wrong_verdicts": "count",
}


class Job(NamedTuple):
    label: str
    argv: list[str]
    check: str  # sweep | screen | cover4 | theta_f | model
    host: str | None = None
    key: object = None  # THETA_F key, or the conjecture name


class BenchError(Exception):
    """The benchmark cannot run: missing source, a bad reference, a hung pass."""


def build_hosts(seed: int, hostdir: Path) -> None:
    """Every input of every workload, built with the public constructors."""
    import hadwiger2 as h

    s = h.steiner_3_6_22()
    graphs = {
        "clebsch": h.complement(h.clebsch()),
        "andrasfai6": h.complement(h.andrasfai(6)),
        "kneser7_3": h.complement(h.kneser(7, 3)),
        "hoffman_singleton": h.complement(h.hoffman_singleton()),
        "gewirtz": h.complement(h.gewirtz(s)),
        "mesner": h.complement(h.mesner(s)),
        "tfp": h.complement(h.triangle_free_process(TFP_ORDER, seed)),
    }
    for name, g in graphs.items():
        (hostdir / f"{name}.g6").write_text(h.write_graph6(g) + "\n", encoding="ascii")


def workload_jobs(workload: str, hostdir: Path) -> list[Job]:
    def g6(name: str) -> str:
        return str(hostdir / f"{name}.g6")

    if workload == "sweep":
        argv = ["enumerate", "--max-n", str(SWEEP_MAX_N), "--check", "cdm", "--workers", "1"]
        return [Job("enumerate", argv, "sweep")]
    if workload == "screen":
        return [Job(f"screen:{h}", ["screen", "--in", g6(h)], "screen", h) for h in SCREEN_HOSTS]
    jobs = [
        Job(f"cover4:{h}", ["certify", "--kind", "cover4", "--in", g6(h)], "cover4", h)
        for h in COVER4_HOSTS
    ]
    for kind in ("clebsch", "mesner"):
        jobs.append(Job(f"certify:{kind}", ["certify", "--kind", kind, "--in", g6(kind)], "theta_f", kind, kind))
    for n, k, t in KNESER_PARAMS:
        argv = ["certify", "--kind", "kneser", "--n", str(n), "--k", str(k), "--t", str(t)]
        jobs.append(Job(f"certify:kneser{n},{k},{t}", argv, "theta_f", None, (n, k, t)))
    jobs += [
        Job("check:4cm:clebsch", ["check", "--conjecture", "4cm", "--in", g6("clebsch")], "model", "clebsch", "4cm"),
        Job("check:shc-half:tfp", ["check", "--conjecture", "shc-half", "--in", g6("tfp")], "model", "tfp", "shc-half"),
        Job(
            "check:cdm:tfp",
            ["check", "--conjecture", "cdm", "--budget", str(TFP_CDM_BUDGET), "--in", g6("tfp")],
            "model",
            "tfp",
            "cdm",
        ),
    ]
    return jobs


class References:
    """Reference data for one run, built lazily from the host files."""

    def __init__(self, hostdir: Path):
        self.hostdir = hostdir
        self._hosts: dict[str, ref.Host] = {}
        self._screen: dict[str, dict[str, str]] = {}
        self._sweep: dict[int, int] | None = None

    def host(self, name: str) -> ref.Host:
        if name not in self._hosts:
            host = ref.Host(name, self.hostdir / f"{name}.g6")
            if name in ref.HOST_SHAPES:
                try:
                    ref.check_host_shape(host)
                except ValueError as exc:
                    raise BenchError(f"set-up built a wrong input: {exc}") from exc
            self._hosts[name] = host
        return self._hosts[name]

    def screen(self, name: str) -> dict[str, str]:
        if name not in self._screen:
            self._screen[name] = ref.screen_reference(self.host(name))
        return self._screen[name]

    def sweep_counts(self) -> dict[int, int]:
        if self._sweep is None:
            counts = ref.connected_alpha2_counts(FIXTURE, SWEEP_MAX_N)
            atlas = ref.atlas_counts(7)
            if any(counts[n] != atlas.get(n) for n in range(1, 8)):
                raise BenchError(f"published counts {counts} disagree with the atlas {atlas}")
            self._sweep = counts
        return self._sweep


def classify(job: Job, result: dict, refs: References) -> Counter:
    """Verdict classes of one job's output."""
    if result["error"] is not None or result["rc"] is None:
        return Counter({ref.WRONG: 1})
    out = result["stdout"]
    if job.check == "sweep":
        return ref.classify_sweep(out, result["rc"], refs.sweep_counts())
    if job.check == "screen":
        return ref.classify_screen(out, refs.screen(job.host))
    if job.check == "cover4":
        return ref.classify_cover4(out, refs.host(job.host))
    if job.check == "theta_f":
        host = refs.host(job.host) if job.host else ref.KneserHost(*job.key)
        return ref.classify_theta_f(out, host, ref.THETA_F[job.key])
    return ref.classify_model(out, refs.host(job.host), job.key)


def run_pass(jobs_file: Path, traced: bool, tmp: Path, spans: Path, deadline: float) -> dict:
    out = tmp / "pass.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(SRC), str(jobs_file), str(out), str(int(traced)), str(spans)]
    t0 = perf_counter()
    try:
        subprocess.run(cmd, check=True, timeout=max(deadline - t0, 1.0), stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within the run limit ({exc.timeout:.0f} s)") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"worker exited with code {exc.returncode}") from exc
    result = json.loads(out.read_text())
    result["elapsed_s"] = perf_counter() - t0
    return result


def run_passes(budget_s: float, traced: bool, tmp: Path, jobs_file: Path, spans: Path, deadline: float) -> list[dict]:
    """At least one pass; another only while one more pass of the last
    one's length fits into ``budget_s``."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(jobs_file, traced, tmp, spans, deadline))
        if perf_counter() - start + passes[-1]["elapsed_s"] > budget_s:
            return passes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hadwiger2").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def finish(record: dict, metrics: dict[str, float], units: dict[str, str], verdicts: Counter) -> int:
    """Print the record, each metric with its unit, and the result line.
    Returns the exit code: 1 when any verdict is wrong."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    OUT.mkdir(exist_ok=True)
    name = f"record-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print("record " + json.dumps(record))
    for key, value in record["e2e"].items():
        print(f"e2e {key}={value} {E2E_UNITS[key]}")
    for key in units:
        print(f"metric {key}={metrics[key]} {units[key]}")
    wrong = verdicts[ref.WRONG]
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": sum(verdicts.values()),
                "failed": wrong,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 1 if wrong else 0


def run(args) -> int:
    if not (SRC / "hadwiger2" / "cli.py").is_file():
        raise BenchError(f"no hadwiger2 source under {SRC}")
    specs = load_metric_specs()
    run_start = perf_counter()
    deadline = run_start + RUN_LIMIT_S
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
    }
    sys.path.insert(0, str(SRC))
    import hadwiger2  # noqa: F401  (import time is not set-up time)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup, setup_cpu = [], []
        with Sampler() as sampler:
            for _ in range(SETUP_REPEATS):
                t0, c0, k0, kc0 = perf_counter(), process_time(), sampler.wall_s, sampler.cpu_s
                build_hosts(args.seed, tmp)
                setup.append(perf_counter() - t0 - (sampler.wall_s - k0))
                setup_cpu.append(process_time() - c0 - (sampler.cpu_s - kc0))
        setup_speed = sampler.speed()
        jobs = workload_jobs(args.workload, tmp)
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps([["--seed", str(args.seed)] + j.argv for j in jobs]))
        spans = OUT / f"spans-{args.workload}.jsonl"
        if args.trace:
            plain = run_passes(args.seconds / 2, False, tmp, jobs_file, spans, deadline)
            traced = run_passes(args.seconds / 2, True, tmp, jobs_file, spans, deadline)
        else:
            plain = run_passes(args.seconds, False, tmp, jobs_file, spans, deadline)
            traced = []
        refs = References(tmp)
        verdicts = Counter()
        per_job = []
        for p in plain + traced:
            for job, result in zip(jobs, p["jobs"], strict=True):
                got = classify(job, result, refs)
                verdicts += got
                per_job.append({"job": job.label, "rc": result["rc"], "seconds": result["seconds"], **got})
                if got[ref.WRONG]:
                    detail = result["error"] or result["stderr"]
                    print(f"wrong verdict in {job.label}: {result['stdout'][:300]!r} {detail}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wall = statistics.median(p["wall_s"] for p in plain)
    total = sum(verdicts.values())
    undecided_frac = verdicts[ref.UNDECIDED] / total if total else 0.0
    record["e2e"] = {
        "ref_cpu_s": statistics.median(p["ref_cpu_s"] for p in plain),
        "wall_s": wall,
        "setup_s": statistics.median(setup_cpu) * setup_speed,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "verdicts": total,
        "undecided_frac": undecided_frac,
        "wrong_verdicts": verdicts[ref.WRONG],
    }
    record["verdict_classes"] = {c: verdicts[c] for c in ref.CLASSES}
    record["raw"] = {
        "setup_wall_s": setup,
        "setup_cpu_s": setup_cpu,
        "setup_speed": setup_speed,
        "passes": [
            {
                "traced": i >= len(plain),
                **{k: p[k] for k in ("wall_s", "cpu_s", "elapsed_s", "peak_rss_mb", "speed", "ref_cpu_s", "kernel_samples") if k in p},
            }
            for i, p in enumerate(plain + traced)
        ],
        "jobs": per_job,
    }
    if args.trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
        layers["verdicts.undecided_frac"] = undecided_frac
        record["layers"] = layers
        metrics, units = layers, specs["per_layer"]
    else:
        metrics, units = record["e2e"], specs["end_to_end"]
    record["loadavg_end"] = os.getloadavg()
    record["run_s"] = perf_counter() - run_start
    return finish(record, metrics, units, verdicts)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["sweep", "screen", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
