"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py SRC JOBS_JSON OUT_JSON TRACE SPANS_JSONL

Imports hadwiger2 from SRC, runs every job of JOBS_JSON (a list of CLI
argument lists) in-process through ``hadwiger2.cli.main``, and writes the
captured output, exit code and seconds of each job, the pass's wall and
CPU time and its peak resident set size to OUT_JSON.  With TRACE = 0 a
``calibrate.Sampler`` runs alongside the jobs: its time is taken out of
every figure, and the pass also reports the host's mean speed and
``ref_cpu_s``, its CPU time in reference seconds.  With TRACE = 1 it
instead wraps the layer functions below, and also writes per-layer
metrics to OUT_JSON and every span to SPANS_JSONL.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import itertools
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

from calibrate import Sampler

# Public functions wrapped in a traced pass, as "module.function".  The hot
# helpers bits, Graph.row and Graph.from_rows are left alone: wrapping them
# would cost more than the work they do.
LAYERS = (
    "generation.triangle_free_graphs",
    "generation.independent_set_masks",
    "iso.canonical_invariant",
    "iso.wl_colors",
    "iso.is_isomorphic",
    "graph6.write_graph6",
    "graph6.read_graph6",
    "graphs.complement",
    "graphs.induced_subgraph",
    "graphs.is_connected",
    "graphs.independence_number_is_2",
    "graphs.alpha_at_most_2",
    "graphs.vertex_connectivity",
    "graphs.diameter",
    "matching.maximum_matching",
    "matching.chromatic_number_alpha2",
    "matching.all_vertices_inessential",
    "matching.is_factor_critical",
    "matching.is_vertex_critical_alpha2",
    "cliques.max_clique",
    "cliques.maximal_cliques",
    "certificates.four_cover_check",
    "certificates.verify_certificate",
    "certificates.clebsch_certificate",
    "certificates.mesner_certificate",
    "certificates.kneser_certificate",
    "conjectures.connected_dominating_matching",
    "conjectures.dominating_edge",
    "conjectures.connected_matching_max",
    "conjectures.half_order_model_search",
    "conjectures.connected_perfect_matching_search",
    "conjectures.verify_k_model",
    "screening.table1_screen",
    "screening.colourable_with",
    "screening.is_hamiltonian",
    "cli.main",
)

# Counts read off a wrapped function's result: the counter's name and
# what one result adds to it.
RESULT_COUNTS = {
    "generation.independent_set_masks": ("children", len),
    "generation.triangle_free_graphs": (
        "kept",
        lambda levels: sum(len(v) for k, v in levels.items() if k > 1),
    ),
    "iso.is_isomorphic": ("hits", bool),
}


class Tracer:
    """Spans (id, name, start, end, parent id) kept in memory, and per-layer
    calls, self time and counts.  Self time is a span's duration minus
    the time its child spans cover."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = {name: Counter() for name in LAYERS}
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()

    def install(self) -> None:
        """Rebind each layer function in every hadwiger2 module holding it."""
        modules = [m for n, m in sys.modules.items() if n == "hadwiger2" or n.startswith("hadwiger2.")]
        for name in LAYERS:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"hadwiger2.{module}"), func, None)
            if original is None:
                continue  # the function is gone; the layer reports zero calls
            wrapped = self._wrap_generator(name, original) if inspect.isgeneratorfunction(
                original
            ) else self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def _open(self) -> tuple[int, int | None, list]:
        parent = self._stack[-1][0] if self._stack else None
        frame = [next(self._ids), 0.0]
        return frame[0], parent, frame

    def _record(self, name, span, parent, start, end, busy, child) -> None:
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += busy - child
        st["total_s"] += busy
        self.spans.append((span, name, start, end, parent))

    def _wrap(self, name, fn):
        count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            span, parent, frame = self._open()
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.stats[name]["raised." + type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self._record(name, span, parent, start, end, end - start, frame[1])
            if count is not None:
                self.stats[name][count[0]] += count[1](result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """A generator's span covers only the time spent inside it; each
        resumption is charged to whichever span is consuming it."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span, parent, frame = self._open()
            stack = self._stack
            start = perf_counter()
            busy = 0.0
            yielded = 0
            try:
                while True:
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        busy += t1 - t0
                        if stack:
                            stack[-1][1] += t1 - t0
                    yielded += 1
                    yield item
            finally:
                inner.close()
                self.stats[name]["yielded"] += yielded
                self._record(name, span, parent, start, perf_counter(), busy, frame[1])

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in LAYERS:
            st = self.stats[name]
            if name == "cli.main":
                out["cli.main.total_s"] = st["total_s"]
                continue
            out[f"{name}.calls"] = st["calls"]
            out[f"{name}.self_s"] = st["self_s"]
        children = self.stats["generation.independent_set_masks"]["children"]
        kept = self.stats["generation.triangle_free_graphs"]["kept"]
        iso = self.stats["iso.is_isomorphic"]
        cdm = self.stats["conjectures.connected_dominating_matching"]
        out["generation.children"] = children
        out["generation.kept"] = kept
        out["generation.kept_ratio"] = kept / children if children else 0.0
        out["iso.is_isomorphic.hit_ratio"] = iso["hits"] / iso["calls"] if iso["calls"] else 0.0
        out["cliques.maximal_cliques.yielded"] = self.stats["cliques.maximal_cliques"]["yielded"]
        out["conjectures.connected_dominating_matching.budget_exhausted"] = cdm[
            "raised.SearchBudgetExceeded"
        ]
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    src, jobs_path, out_path, trace, spans_path = argv
    sys.path.insert(0, src)
    import hadwiger2
    import hadwiger2.cli as cli

    if not Path(hadwiger2.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"hadwiger2 imported from {hadwiger2.__file__}, not from {src}")
    jobs = json.loads(Path(jobs_path).read_text())
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    # Traced passes are not sampled: the kernel would run inside spans.
    sampler = None if tracer else Sampler()
    results = []
    t0, cpu0 = perf_counter(), process_time()
    with sampler or contextlib.nullcontext():
        for job_argv in jobs:
            out, err = io.StringIO(), io.StringIO()
            sampled = sampler.wall_s if sampler else 0.0
            started = perf_counter()
            rc, error = None, None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(job_argv)
            except Exception:
                error = traceback.format_exc()
            seconds = perf_counter() - started - ((sampler.wall_s - sampled) if sampler else 0.0)
            results.append(
                {
                    "rc": rc,
                    "seconds": seconds,
                    "stdout": out.getvalue(),
                    "stderr": err.getvalue(),
                    "error": error,
                }
            )
    wall, cpu = perf_counter() - t0, process_time() - cpu0
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if sampler:
        wall -= sampler.wall_s
        cpu -= sampler.cpu_s
        speed = sampler.speed()
        report.update(speed=speed, ref_cpu_s=cpu * speed, kernel_samples=len(sampler.samples))
    report.update(wall_s=wall, cpu_s=cpu)
    if tracer:
        report["layers"] = tracer.metrics()
        tracer.write(Path(spans_path))
    Path(out_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
