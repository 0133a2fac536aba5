"""Command line front end: commands, formats, exit codes."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hadwiger2.cli import main
from hadwiger2.certificates import parse_certificate
from hadwiger2.graph6 import read_graph6, write_graph6
from hadwiger2.constructions import clebsch, cycle, hoffman_singleton, petersen
from hadwiger2.graphs import Graph, complement
from hadwiger2.iso import is_isomorphic
from hadwiger2.conjectures import parse_model, is_cdm

from conftest import milp_four_colourable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# sha256 (first 16 hex digits) of the graph6 line then the --labels-out
# file of ``--seed 3 build --family F ...``, recorded before the build
# families were moved onto one table of required flags.
GOLDEN_BUILDS = [
    ("cycle", ["--n", "7"], "f2ec2c4b666ef4e4"),
    ("complete", ["--n", "5"], "32b505c4704e842a"),
    ("petersen", [], "ee62b67a3e70ecb4"),
    ("hypercube", ["--d", "4"], "1f5cb1571cf8f1d5"),
    ("clebsch", [], "f588fc9020c71672"),
    ("kneser", ["--n", "7", "--k", "3"], "5b2d83dc6dfc746c"),
    ("generalized-kneser-geq", ["--n", "7", "--k", "3", "--t", "2"], "a207305f124cc9f1"),
    ("generalized-kneser-leq", ["--n", "7", "--k", "3", "--t", "1"], "0017a92432046903"),
    ("andrasfai", ["--d", "4"], "f38e5a60467a0fb7"),
    ("hoffman-singleton", [], "2fe634b201256193"),
    ("mesner", [], "7af9ed7b21b741e1"),
    ("gewirtz", ["--point", "3"], "a2b389f495466bb0"),
    ("higman-sims", [], "03b733f4d180b6c0"),
    ("eberhard", ["--p", "11"], "e41bdbc21c4bf2d1"),
    ("cayley", ["--orders", "4,2", "--connection", "1,0;3,0;0,1"], "febf8b8d83fbb468"),
    ("triangle-free-process", ["--n", "20"], "44f353543a12b5fc"),
]


# sha256 (first 16 hex digits) of stdout, and the exit code, of every
# ``screen`` and ``certify`` job of ``perfbench/run.py`` (its seed-1 host
# files), recorded before the second copies in src/ were deleted.  Host
# names stand for the graph6 files that ``benchmark_hosts`` writes.
GOLDEN_BENCHMARK_JOBS = [
    (["screen", "--in", "clebsch"], 0, "0e03d19d0366879d"),
    (["screen", "--in", "andrasfai6"], 0, "31ee567d1753843b"),
    (["screen", "--in", "kneser7_3"], 0, "d28e8d48a691a0ff"),
    (["screen", "--in", "hoffman_singleton"], 0, "9851addc02184616"),
    (["screen", "--in", "gewirtz"], 0, "0e7cfc7a3722cb3a"),
    (["screen", "--in", "mesner"], 0, "c35f480fe0865a68"),
    (["certify", "--kind", "cover4", "--in", "hoffman_singleton"], 0, "051ca9b0bd1bbb94"),
    (["certify", "--kind", "cover4", "--in", "gewirtz"], 0, "6210f6cb396a4141"),
    (["certify", "--kind", "cover4", "--in", "mesner"], 1, "085ca18284024e1c"),
    (["certify", "--kind", "clebsch", "--in", "clebsch"], 0, "3e2c4f05e1f86c06"),
    (["certify", "--kind", "mesner", "--in", "mesner"], 0, "0f536ea6177f4b55"),
    (["certify", "--kind", "kneser", "--n", "7", "--k", "3", "--t", "1"], 0, "2094b9c3f8f437bf"),
    (["certify", "--kind", "kneser", "--n", "9", "--k", "4", "--t", "2"], 0, "a2ad5be44d5bcc97"),
    (["certify", "--kind", "kneser", "--n", "10", "--k", "4", "--t", "1"], 0, "3f73544f10261eec"),
    (["check", "--conjecture", "4cm", "--in", "clebsch"], 0, "5c68285e926f9778"),
    (["check", "--conjecture", "shc-half", "--in", "tfp"], 0, "3371400e108adf5e"),
    (["check", "--conjecture", "cdm", "--budget", "20000", "--in", "tfp"], 0, "6d7b110a0421a611"),
]


@pytest.fixture(scope="module")
def benchmark_hosts(tmp_path_factory):
    """The benchmark's host files, built with the public constructors."""
    import hadwiger2 as h

    s = h.steiner_3_6_22()
    graphs = {
        "clebsch": h.complement(h.clebsch()),
        "andrasfai6": h.complement(h.andrasfai(6)),
        "kneser7_3": h.complement(h.kneser(7, 3)),
        "hoffman_singleton": h.complement(h.hoffman_singleton()),
        "gewirtz": h.complement(h.gewirtz(s)),
        "mesner": h.complement(h.mesner(s)),
        "tfp": h.complement(h.triangle_free_process(101, 1)),
    }
    hostdir = tmp_path_factory.mktemp("hosts")
    for name, g in graphs.items():
        (hostdir / f"{name}.g6").write_text(write_graph6(g) + "\n", encoding="ascii")
    return hostdir


@pytest.mark.parametrize(
    "argv,code,digest",
    GOLDEN_BENCHMARK_JOBS,
    ids=["_".join(a.lstrip("-") for a in j[0]) for j in GOLDEN_BENCHMARK_JOBS],
)
def test_golden_benchmark_stdout(capsys, benchmark_hosts, argv, code, digest):
    if argv[-2] == "--in":
        argv = argv[:-1] + [str(benchmark_hosts / f"{argv[-1]}.g6")]
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


# sha256 (first 16 hex digits) of stdout and of the --witness-out file, and
# the exit code, of the three ``check`` jobs of the benchmark and of every
# conjecture with a model witness on the even-order Clebsch and Petersen
# complements, recorded before the half-order search called its kernel
# directly.
GOLDEN_CHECK_WITNESSES = [
    (["check", "--conjecture", "4cm", "--in", "clebsch"], 0, "f8aa3e89737f14f2", "3e8e128eea6a6770"),
    (["check", "--conjecture", "shc-half", "--in", "tfp"], 0, "77ed4a8d2ca8c382", "7898ab6e796d8ba9"),
    (["check", "--conjecture", "cdm", "--budget", "20000", "--in", "tfp"], 0, "d886f9b604b6cec4", "a72be397d835d64e"),
    (["check", "--conjecture", "cdm", "--in", "clebsch"], 0, "37f08d487bd1804a", "044666f70bb77ad4"),
    (["check", "--conjecture", "shc-half", "--in", "clebsch"], 0, "98be12d92723a972", "dd63857a1343efd5"),
    (["check", "--conjecture", "cdm", "--in", "petersen"], 0, "6672e40b06cd8ad3", "dcdf989a1812633b"),
    (["check", "--conjecture", "shc-half", "--in", "petersen"], 0, "858cc19f97dea97f", "4c6fcbae70545b44"),
    (["check", "--conjecture", "4cm", "--in", "petersen"], 0, "f35d1ea93eebdc2e", "83c239621c33d96d"),
]


@pytest.mark.parametrize(
    "argv,code,out_digest,witness_digest",
    GOLDEN_CHECK_WITNESSES,
    ids=["_".join(a.lstrip("-") for a in j[0]) for j in GOLDEN_CHECK_WITNESSES],
)
def test_golden_check_witnesses(capsys, benchmark_hosts, tmp_path, argv, code, out_digest, witness_digest):
    name = argv[-1]
    host = benchmark_hosts / f"{name}.g6"
    if name == "petersen":
        host = tmp_path / "petersen.g6"
        host.write_text(write_graph6(complement(petersen())) + "\n", encoding="ascii")
    witness = tmp_path / "witness.txt"
    got, out, _ = run(capsys, *argv[:-1], str(host), "--witness-out", str(witness))

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert (got, digest(out), digest(witness.read_text())) == (code, out_digest, witness_digest)


class TestBuild:
    @pytest.mark.parametrize("family,flags,digest", GOLDEN_BUILDS, ids=[f[0] for f in GOLDEN_BUILDS])
    def test_golden_graph6_and_labels(self, capsys, tmp_path, family, flags, digest):
        labels = tmp_path / "labels.txt"
        code, out, _ = run(
            capsys, "--seed", "3", "build", "--family", family, *flags, "--labels-out", str(labels)
        )
        assert code == 0
        text = out + labels.read_text()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_kneser_petersen(self, capsys):
        code, out, err = run(capsys, "build", "--family", "kneser", "--n", "5", "--k", "2")
        assert code == 0
        g = read_graph6(out.strip())
        assert is_isomorphic(g, petersen())
        assert "seed=" in err

    def test_header_prints_the_parsed_arguments(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["x", "--unrelated"])
        code, out, err = run(capsys, "build", "--family", "cycle", "--n", "5")
        assert code == 0 and out == write_graph6(cycle(5)) + "\n"
        assert "args='build --family cycle --n 5'" in err

    def test_bad_seed_variable_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HADWIGER2_SEED", "abc")
        code, out, err = run(capsys, "build", "--family", "petersen")
        assert code == 2 and out == ""
        assert err == "error: HADWIGER2_SEED must be an integer, not 'abc'\n"

    def test_cycle_graph6_string(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "cycle", "--n", "5")
        assert code == 0
        # by hand from the format: n=5 -> 'D'; upper-triangle bits
        # 1 01 001 1001 pack to 101001, 100100 -> 'h', 'c'
        assert out.strip() == "Dhc" == write_graph6(cycle(5))

    def test_eberhard(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "eberhard", "--p", "11")
        assert code == 0
        assert read_graph6(out.strip()).n == 121

    def test_labels_sidecar(self, capsys, tmp_path):
        labels = tmp_path / "labels.txt"
        code, out, _ = run(
            capsys,
            "build", "--family", "kneser", "--n", "4", "--k", "2",
            "--labels-out", str(labels),
        )
        assert code == 0
        assert labels.read_text().splitlines()[0] == "0 1"

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "build", "--family", "nope")
        assert code == 2

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "build", "--family", "cycle")
        assert code == 2

    def test_golden_builds_cover_every_family(self):
        from hadwiger2 import cli

        assert {f for f, _, _ in GOLDEN_BUILDS} == set(cli._FAMILIES)

    def test_unknown_family_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "build", "--family", "nope")
        assert code == 2 and out == ""
        assert "invalid choice: 'nope'" in err

    def test_help_names_every_family(self, capsys):
        from hadwiger2 import cli

        code, out, _ = run(capsys, "build", "--help")
        assert code == 0
        assert [f for f in cli._FAMILIES if f not in out] == []

    def test_out_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        code, out, _ = run(
            capsys, "build", "--family", "petersen", "--out", str(path)
        )
        assert code == 0
        assert read_graph6(path.read_text().strip()) == petersen()

    def test_deterministic_process(self, capsys):
        code1, out1, _ = run(
            capsys, "--seed", "5", "build", "--family", "triangle-free-process", "--n", "9"
        )
        code2, out2, _ = run(
            capsys, "--seed", "5", "build", "--family", "triangle-free-process", "--n", "9"
        )
        assert code1 == code2 == 0 and out1 == out2


TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
C7 = cycle(7)


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


class TestCheck:
    def test_cdm_on_c5(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(cycle(5)))
        code, out, _ = run(capsys, "check", "--conjecture", "cdm")
        assert code == 0
        assert "holds=true" in out
        body = out[out.index("model") :]
        model = parse_model(body)
        assert is_cdm(cycle(5), model.branch_sets)

    def test_cdm_on_two_triangles_is_an_error(self, capsys, monkeypatch):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        feed(monkeypatch, write_graph6(g))
        code, _, err = run(capsys, "check", "--conjecture", "cdm")
        assert code == 2
        assert "connected" in err

    # stdout, the stderr lines after the header, and the exit code of
    # check on two disjoint triangles (disconnected, alpha 2) and on C7
    # (connected, alpha 3), recorded before check tested its input's
    # hypotheses itself; and on input of two graph6 lines.
    @pytest.mark.parametrize(
        "conjecture, host, want_out, want_err, want_code",
        [
            ("cdm", TWO_TRIANGLES, "", "error: connected dominating matchings need a connected host", 2),
            ("cdm", C7, "", "error: host must have independence number at most 2", 2),
            ("4cm", TWO_TRIANGLES, "conjecture=4cm n=6 target=1 cm=1 exact=true holds=true\nmodel 1\nB 0 1\n", "", 0),
            ("4cm", C7, "", "error: 4cm check requires independence number at most 2", 2),
            ("shc-half", TWO_TRIANGLES, "conjecture=shc-half n=6 target=3 holds=unknown\n", "", 3),
            ("shc-half", C7, "", "error: search is intended for hosts with alpha <= 2", 2),
            ("cdm", "Bw\nBw\n", "", "error: expected exactly one graph6 line on input", 2),
        ],
        ids=["cdm-2K3", "cdm-C7", "4cm-2K3", "4cm-C7", "shc-half-2K3", "shc-half-C7", "two-lines"],
    )
    def test_hypotheses_of_the_input(
        self, capsys, monkeypatch, conjecture, host, want_out, want_err, want_code
    ):
        feed(monkeypatch, host if isinstance(host, str) else write_graph6(host))
        code, out, err = run(capsys, "check", "--conjecture", conjecture)
        assert (out, err.splitlines()[1:], code) == (want_out, [want_err] if want_err else [], want_code)

    def test_shc_half_on_complete(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])))
        code, out, _ = run(capsys, "check", "--conjecture", "shc-half")
        assert code == 0 and "holds=true" in out

    def test_shc_half_gave_up_is_unknown(self, capsys, monkeypatch):
        # Two disjoint triangles have a K3 model but no perfect matching.
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        feed(monkeypatch, write_graph6(g))
        code, out, _ = run(capsys, "check", "--conjecture", "shc-half")
        assert code == 3
        assert out == "conjecture=shc-half n=6 target=3 holds=unknown\n"

    def test_4cm_budget_exhausted_is_unknown(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])))
        code, out, _ = run(capsys, "check", "--conjecture", "4cm", "--budget", "0")
        assert code == 3
        assert out == "conjecture=4cm n=8 target=2 cm=0 exact=false holds=unknown\n"

    def test_negative_budget_is_an_input_error(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(complement(cycle(7))))
        code, out, err = run(capsys, "check", "--conjecture", "4cm", "--budget", "-1")
        assert code == 2 and out == ""
        assert err.splitlines()[1:] == ["error: --budget must be non-negative, not -1"]

    def test_4cm_clebsch_complement_is_exact(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(complement(clebsch())))
        code, out, _ = run(capsys, "check", "--conjecture", "4cm")
        assert code == 0
        assert out.startswith("conjecture=4cm n=16 target=4 cm=8 exact=true holds=true\n")

    def test_4cm_witness_is_verified(self, monkeypatch):
        # 01 is no edge of the complement of C7, so its branch set is not connected.
        from hadwiger2 import cli, conjectures
        from hadwiger2.conjectures import Outcome
        from hadwiger2.matching import Matching

        bad = Outcome("found", Matching(((0, 1), (2, 4))))
        monkeypatch.setattr(conjectures, "_small_branch_sets", lambda g, singletons, budget: bad)
        with pytest.raises(RuntimeError, match="fails verification"):
            cli._decide("4cm", complement(cycle(7)), None)

    def test_dominating_edge_not_found(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(cycle(5)))
        code, out, _ = run(capsys, "check", "--conjecture", "dominating-edge")
        assert code == 1 and "holds=false" in out

    def test_witness_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "w.txt"
        feed(monkeypatch, write_graph6(cycle(5)))
        code, out, _ = run(
            capsys, "check", "--conjecture", "cdm", "--witness-out", str(path)
        )
        assert code == 0
        model = parse_model(path.read_text())
        assert is_cdm(cycle(5), model.branch_sets)

    def test_parse_failure(self, capsys, monkeypatch):
        feed(monkeypatch, "notagraph6\x01")
        code, _, err = run(capsys, "check", "--conjecture", "cdm")
        assert code == 2


class TestEnumerate:
    def test_cdm_to_6(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "6", "--check", "cdm")
        assert code == 0
        assert "n=3 checked=2 violations=0" in out
        assert "violations_total=0" in out

    def test_4cm_to_6(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "6", "--check", "4cm")
        assert code == 0
        assert "violations_total=0" in out

    def test_budget_exit(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--max-n", "6", "--check", "cdm", "--budget", "3"
        )
        assert code == 3
        assert "budget_exhausted=true" in out

    def test_partial_sweep_with_a_violation_fails(self, capsys, monkeypatch):
        # A violation found before the budget runs out is a definite answer.
        from hadwiger2 import cli

        monkeypatch.setattr(cli, "_holds", lambda name, g: g.n != 3)
        code, out, _ = run(capsys, "enumerate", "--max-n", "6", "--check", "cdm", "--budget", "4")
        assert code == 1
        assert out.splitlines()[-1] == "total=4 violations_total=2 budget_exhausted=true"

    def test_sequential_sweep_does_not_import_multiprocessing(self):
        got = _fresh_python(
            "import contextlib, io, sys\n"
            "from hadwiger2 import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['enumerate', '--max-n', '5', '--check', 'cdm', '--workers', '1'])\n"
            "print(code, 'multiprocessing' in sys.modules)\n"
        )
        assert got == "0 False\n"

    def test_desk_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-n", "12", "--check", "cdm")
        assert code == 2

    def test_negative_budget_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--max-n", "3", "--check", "cdm", "--budget", "-1")
        assert code == 2 and out == ""
        assert err.splitlines()[1:] == ["error: --budget must be non-negative, not -1"]

    def test_unknown_check_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--max-n", "3", "--check", "shc-half")
        assert code == 2 and out == ""
        assert "invalid choice: 'shc-half'" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_an_input_error(self, capsys, workers):
        code, out, err = run(capsys, "enumerate", "--max-n", "3", "--check", "cdm", "--workers", workers)
        assert code == 2 and out == ""
        assert err.splitlines()[1:] == [f"error: --workers must be at least 1, not {workers}"]


class TestCertify:
    def test_clebsch(self, capsys):
        code, out, _ = run(capsys, "certify", "--kind", "clebsch")
        assert code == 0
        assert "verified=true bound=16/5" in out
        cert = parse_certificate(out[out.index("theta_f") :])
        assert cert.size == 16

    def test_kneser(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--kind", "kneser", "--n", "5", "--k", "2", "--t", "1", "--r", "0"
        )
        assert code == 0
        assert "bound=5/2" in out

    def test_mesner(self, capsys):
        code, out, _ = run(capsys, "certify", "--kind", "mesner")
        assert code == 0
        assert "bound=11/3" in out  # 22/6 reduced

    def test_cover4(self, capsys, monkeypatch):
        g = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        feed(monkeypatch, write_graph6(g))
        code, out, _ = run(capsys, "certify", "--kind", "cover4")
        assert code == 0
        assert "found=true" in out
        assert "cover4" in out

    @pytest.mark.parametrize(
        "cover",
        [
            ((0, 2), (1, 2), (2, 3), (3, 4)),  # 02 is no edge of C5
            ((0, 1), (1, 2), (2, 3), (2, 3)),  # vertex 4 is not covered
            ((0, 1), (2, 3), (4,), (4,)),  # total 6 < n + 2
        ],
    )
    def test_cover4_witness_is_verified(self, capsys, monkeypatch, cover):
        from hadwiger2 import certificates

        monkeypatch.setattr(certificates, "_four_cover", lambda g, rows, base: cover)
        feed(monkeypatch, write_graph6(cycle(5)))
        with pytest.raises(RuntimeError, match="fails verification"):
            main(["certify", "--kind", "cover4"])
        assert "kind=cover4" not in capsys.readouterr().out

    def test_cover4_not_found(self, capsys, monkeypatch, steiner_system):
        from hadwiger2.steiner import higman_sims

        feed(monkeypatch, write_graph6(complement(higman_sims(steiner_system))))
        code, out, _ = run(capsys, "certify", "--kind", "cover4")
        assert code == 1
        assert "found=false" in out

    def test_cover4_mesner_refuted(self, capsys, monkeypatch, steiner_system):
        # 4 * omega = 84 >= n + 2 = 79, so the refutation is the colouring:
        # the Mesner graph is not 4-colourable.
        from hadwiger2.steiner import mesner

        feed(monkeypatch, write_graph6(complement(mesner(steiner_system))))
        code, out, _ = run(capsys, "certify", "--kind", "cover4")
        assert code == 1
        assert out.splitlines() == ["kind=cover4 found=false"]
        assert not milp_four_colourable(mesner(steiner_system))

    @pytest.mark.parametrize("command", [["certify", "--kind", "cover4"], ["screen"]])
    def test_truncated_graph6_header_is_an_input_error(self, capsys, monkeypatch, command):
        # "~" once decoded as the empty graph: cover4 printed found=false
        # and the screen blamed the independence number.
        feed(monkeypatch, "~\n")
        code, out, err = run(capsys, *command)
        assert code == 2 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: truncated graph6 header"
        ]


class TestScreen:
    def test_c5(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(cycle(5)))
        code, out, _ = run(capsys, "screen")
        assert code == 0
        assert "P8=fail" in out
        assert "survives_minimal-hc=false" in out
        assert "not a candidate" in out

    def test_alpha_mismatch(self, capsys, monkeypatch):
        feed(monkeypatch, write_graph6(cycle(6)))
        code, _, err = run(capsys, "screen")
        assert code == 2


def _codes_and_numpy(argvs, then="") -> str:
    """Run each argv through ``cli.main`` in a fresh interpreter (conftest
    imports numpy), then the statement ``then``, and return its line: the
    exit codes, then whether numpy was imported."""
    return _fresh_python(
        "import contextlib, io, sys\n"
        "from hadwiger2 import cli\n"
        f"argvs = {argvs!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in argvs]\n"
        f"{then}\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )


def _fresh_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports hadwiger2 from
    this checkout, and return its stdout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_srg_workflows_do_not_import_numpy(steiner_system, tmp_path):
    # The package has no runtime dependencies: one command of each kind,
    # and the exact clique bound on a complement that is vertex-transitive
    # but not strongly regular, run without numpy.
    from hadwiger2.steiner import gewirtz, mesner

    hosts = {
        "hoffman_singleton": hoffman_singleton(),
        "gewirtz": gewirtz(steiner_system),
        "mesner": mesner(steiner_system),
    }
    argvs = []
    for name, host in hosts.items():
        path = tmp_path / f"{name}.g6"
        path.write_text(write_graph6(complement(host)) + "\n")
        argvs.append(["screen", "--in", str(path)])
    argvs.append(["certify", "--kind", "cover4", "--in", str(tmp_path / "hoffman_singleton.g6")])
    kneser_path = str(tmp_path / "kneser.g6")
    argvs.append(["build", "--family", "kneser", "--n", "8", "--k", "3", "--complement",
                  "--out", kneser_path])
    argvs.append(["check", "--conjecture", "cdm", "--in", kneser_path])
    argvs.append(["enumerate", "--max-n", "6", "--check", "cdm"])
    then = (
        "from hadwiger2.cliques import max_clique\n"
        "from hadwiger2.graph6 import read_graph6\n"
        f"codes.append(len(max_clique(read_graph6(open({kneser_path!r}).read().strip()))))"
    )
    assert _codes_and_numpy(argvs, then) == "[0, 0, 0, 0, 0, 0, 0, 21] False\n"


def test_orbit_screen_does_not_import_numpy(steiner_system, tmp_path):
    # The screen searches the complement for its automorphism orbits; that
    # search, like the rest of the screen, must not pull numpy in.
    from hadwiger2.steiner import mesner

    argvs = []
    for name, host in (("clebsch", clebsch()), ("mesner", mesner(steiner_system))):
        path = tmp_path / f"{name}.g6"
        path.write_text(write_graph6(complement(host)) + "\n")
        argvs.append(["screen", "--in", str(path)])
    assert _codes_and_numpy(argvs) == "[0, 0] False\n"


def _main_steps(steps) -> list[tuple[int, str, str]]:
    """Run each ``(argv, HADWIGER2_SEED)`` step through ``cli.main``, in
    order, in one fresh interpreter: the exit code, stdout and stderr of
    each call."""
    got = _fresh_python(
        "import contextlib, io, json, os\n"
        "from hadwiger2 import cli\n"
        "results = []\n"
        f"for argv, seed in {steps!r}:\n"
        "    os.environ['HADWIGER2_SEED'] = seed\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = cli.main(argv)\n"
        "    results.append((code, out.getvalue(), err.getvalue()))\n"
        "print(json.dumps(results))\n"
    )
    return [tuple(r) for r in json.loads(got)]


def test_repeated_main_calls_match_fresh_interpreters(tmp_path):
    # One process reuses one parser for every call.  Each call must still
    # get back the default budget, report a usage error or --help as a
    # fresh interpreter does, and read HADWIGER2_SEED anew.
    c5 = tmp_path / "c5.g6"
    c5.write_text(write_graph6(cycle(5)) + "\n")
    check = ["check", "--conjecture", "cdm", "--in", str(c5)]
    build = ["build", "--family", "triangle-free-process", "--n", "12"]
    steps = [
        (check + ["--budget", "0"], "0"),
        (check, "0"),
        (["check", "--conjecture", "nope"], "0"),
        (check, "0"),
        (["--help"], "0"),
        (check, "0"),
        (build, "1"),
        (build, "2"),
    ]
    together = _main_steps(steps)
    assert together == [_main_steps([step])[0] for step in steps]
    assert [code for code, _, _ in together] == [3, 0, 2, 0, 0, 0, 0, 0]
    assert "holds=unknown" in together[0][1] and "holds=true" in together[1][1]
    assert "invalid choice: 'nope'" in together[2][2] and "usage: hadwiger2" in together[4][1]
    assert "seed=1 " in together[6][2] and "seed=2 " in together[7][2]
    assert together[6][1] != together[7][1]


def test_parser_is_built_on_the_first_call_only():
    # Importing cli builds no parser; the first main call builds the
    # top-level parser and its subparsers, and later calls, a usage error
    # and --help among them, build none.
    got = _fresh_python(
        "import argparse, contextlib, io, json\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from hadwiger2 import cli\n"
        "seen = [list(built)]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for argv in (['build', '--family', 'petersen'], ['check', '--conjecture', 'nope'], ['--help']):\n"
        "        cli.main(argv)\n"
        "        seen.append(list(built))\n"
        "print(json.dumps(seen))\n"
    )
    at_import, *after_calls = json.loads(got)
    assert at_import == []
    assert after_calls[0].count("hadwiger2") == 1
    assert after_calls == [after_calls[0]] * 3


class TestWorkersAndComplement:
    def test_parallel_enumerate_matches_sequential(self, capsys):
        code1, out1, _ = run(capsys, "enumerate", "--max-n", "6", "--check", "cdm")
        code2, out2, _ = run(
            capsys, "enumerate", "--max-n", "6", "--check", "cdm", "--workers", "2"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_parallel_4cm_matches_sequential(self, capsys):
        code1, out1, _ = run(capsys, "enumerate", "--max-n", "6", "--check", "4cm")
        code2, out2, _ = run(
            capsys, "enumerate", "--max-n", "6", "--check", "4cm", "--workers", "2"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_build_complement(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "cycle", "--n", "5", "--complement")
        assert code == 0
        assert read_graph6(out.strip()) == complement(cycle(5))

    def test_shc_half_on_higman_sims_complement(self, capsys, monkeypatch, steiner_system):
        from hadwiger2.steiner import higman_sims

        gc = complement(higman_sims(steiner_system))
        feed(monkeypatch, write_graph6(gc))
        code, out, _ = run(capsys, "check", "--conjecture", "shc-half")
        assert code == 0
        assert "holds=true" in out
        model = parse_model(out[out.index("model") :])
        assert model.order == 50

    def test_cdm_budget_exit(self, capsys, monkeypatch, steiner_system):
        from hadwiger2.steiner import mesner

        # The search finds a CDM of this host after 20 nodes.
        feed(monkeypatch, write_graph6(complement(mesner(steiner_system))))
        code, out, _ = run(
            capsys, "check", "--conjecture", "cdm", "--budget", "10"
        )
        assert code == 3
        assert "budget_exhausted=true" in out
