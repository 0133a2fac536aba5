"""Self-test of the benchmark's verdict classifier.

    python3 perfbench/selftest.py

Runs small CLI jobs, corrupts their output the way a broken program
could (a flipped enumerate count, a cover with one vertex dropped, a
certificate member that breaks its clique), and checks that each
corruption counts as a wrong verdict and makes the benchmark's result
exit with code 1.  It also checks that the untouched outputs count as
found, and that "found=false" for cover4 counts as a refutation on the
Higman-Sims complement (4 * omega < n + 2) and as undecided on the
Mesner complement.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run
from run import ref


def cli(*argv: str) -> str:
    import hadwiger2.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        hadwiger2.cli.main(list(argv))
    return out.getvalue()


def exit_code(case: str, verdicts: Counter) -> int:
    record = {"workload": f"selftest-{case}", "seed": 0, "trace": 0, "e2e": {}}
    with contextlib.redirect_stdout(io.StringIO()):
        return run.finish(record, {}, {}, verdicts)


def flip_count(text: str) -> str:
    """n=5 checked=12 ... becomes checked=13."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        kv = ref.key_values(line)
        if kv.get("n") == "5":
            lines[i] = line.replace(f"checked={kv['checked']}", f"checked={int(kv['checked']) + 1}")
    return "\n".join(lines) + "\n"


def drop_vertex(text: str) -> str:
    """Remove the first covered vertex from every clique of a cover."""
    lines = text.splitlines()
    first_x = next(ln for ln in lines if ln.startswith("X "))
    victim = first_x.split()[1]
    return "\n".join(
        "X " + " ".join(v for v in ln.split()[1:] if v != victim) if ln.startswith("X ") else ln
        for ln in lines
    ) + "\n"


def break_clique(text: str, host: ref.Host) -> str:
    """Replace the last member of the first clique by a non-neighbour of its first."""
    lines = text.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("X "))
    members = [int(v) for v in lines[i].split()[1:]]
    outsider = next(v for v in range(host.n) if v != members[0] and v not in host.adj[members[0]])
    lines[i] = "X " + " ".join(map(str, members[:-1] + [outsider]))
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import hadwiger2 as h

    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    failures = []

    def expect(case: str, verdicts: Counter, cls: str, code: int) -> None:
        got = exit_code(case, verdicts)
        ok = verdicts[cls] > 0 and got == code and (cls == ref.WRONG or not verdicts[ref.WRONG])
        print(f"{'ok' if ok else 'FAIL'} {case}: {dict(verdicts)} exit={got}")
        if not ok:
            failures.append(case)

    try:
        run.build_hosts(0, tmp)
        hs = h.complement(h.higman_sims(h.steiner_3_6_22()))
        (tmp / "higman_sims.g6").write_text(h.write_graph6(hs) + "\n")
        refs = run.References(tmp)

        counts = ref.connected_alpha2_counts(run.FIXTURE, 6)
        sweep = cli("enumerate", "--max-n", "6", "--check", "cdm")
        expect("sweep-honest", ref.classify_sweep(sweep, 0, counts), ref.FOUND, 0)
        expect("sweep-flipped-count", ref.classify_sweep(flip_count(sweep), 0, counts), ref.WRONG, 1)

        hoff = refs.host("hoffman_singleton")
        cover = cli("certify", "--kind", "cover4", "--in", str(tmp / "hoffman_singleton.g6"))
        expect("cover4-honest", ref.classify_cover4(cover, hoff), ref.FOUND, 0)
        expect("cover4-vertex-dropped", ref.classify_cover4(drop_vertex(cover), hoff), ref.WRONG, 1)

        clebsch = refs.host("clebsch")
        cert = cli("certify", "--kind", "clebsch", "--in", str(tmp / "clebsch.g6"))
        bound = ref.THETA_F["clebsch"]
        expect("theta_f-honest", ref.classify_theta_f(cert, clebsch, bound), ref.FOUND, 0)
        expect(
            "theta_f-non-clique-member",
            ref.classify_theta_f(break_clique(cert, clebsch), clebsch, bound),
            ref.WRONG,
            1,
        )

        missing = "kind=cover4 found=false\n"
        higman = ref.Host("higman_sims", tmp / "higman_sims.g6")
        expect("cover4-higman-sims-refuted", ref.classify_cover4(missing, higman), ref.REFUTED, 0)
        expect("cover4-mesner-undecided", ref.classify_cover4(missing, refs.host("mesner")), ref.UNDECIDED, 0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test " + ("failed: " + ", ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
