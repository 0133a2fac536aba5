"""References and the verdict classifier for the hadwiger2 benchmark.

Nothing here imports hadwiger2.  Hosts are read back from their graph6
files with networkx's own parser, witnesses are checked in plain Python,
and clique numbers, chromatic numbers and enumeration counts come from
networkx or from published values.

Every verdict lands in one of four classes:

- ``found``: a positive answer whose witness checks out, or a decided
  screen property equal to the reference;
- ``refuted``: a negative answer the reference confirms;
- ``undecided``: the program gave up (``not-evaluated``, budget
  exhausted, a heuristic "not found") or no decided reference exists;
- ``wrong``: the answer contradicts a decided reference or its witness
  is invalid.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import networkx as nx

FOUND, REFUTED, UNDECIDED, WRONG = "found", "refuted", "undecided", "wrong"
CLASSES = (FOUND, REFUTED, UNDECIDED, WRONG)

# ---------------------------------------------------------------------------
# Host graphs, as networkx sees them


class Host:
    """A benchmark host read from graph6 with networkx, plus its invariants."""

    def __init__(self, name: str, path: Path):
        self.name = name
        self.graph = nx.from_graph6_bytes(path.read_bytes().strip())
        self.n = self.graph.number_of_nodes()
        self.adj = {v: set(self.graph[v]) for v in self.graph}
        self._omega = None
        self._chi = None

    @property
    def omega(self) -> int:
        if self._omega is None:
            self._omega = int(nx.max_weight_clique(self.graph, weight=None)[1])
        return self._omega

    @property
    def chi(self) -> int:
        """Chromatic number for alpha <= 2: colour classes are vertices and
        non-edges, so chi = n - nu(complement)."""
        if self._chi is None:
            co = nx.complement(self.graph)
            self._chi = self.n - len(nx.max_weight_matching(co, maxcardinality=True))
        return self._chi

    @property
    def delta(self) -> int:
        return min(len(s) for s in self.adj.values())

    def is_clique(self, members) -> bool:
        members = list(members)
        if len(set(members)) != len(members):
            return False
        if any(v not in self.adj for v in members):
            return False
        return all(b in self.adj[a] for a, b in combinations(members, 2))


def srg_parameters(host: Host):
    """(n, k, lambda, mu) if the host is strongly regular, else None."""
    degrees = {len(s) for s in host.adj.values()}
    if len(degrees) != 1:
        return None
    lam, mu = set(), set()
    for a, b in combinations(range(host.n), 2):
        common = len(host.adj[a] & host.adj[b])
        (lam if b in host.adj[a] else mu).add(common)
    if len(lam) > 1 or len(mu) > 1:
        return None
    return (host.n, degrees.pop(), lam.pop() if lam else 0, mu.pop() if mu else 0)


# Published parameters of the named hosts (complements of the named
# graphs), used to confirm that set-up built what the workload claims.
HOST_SHAPES = {
    "clebsch": ("srg", (16, 10, 6, 6)),
    "hoffman_singleton": ("srg", (50, 42, 35, 36)),
    "gewirtz": ("srg", (56, 45, 36, 36)),
    "mesner": ("srg", (77, 60, 47, 45)),
    "andrasfai6": ("regular", (17, 10)),  # complement of the 6-regular And(6)
    "kneser7_3": ("regular", (35, 30)),  # complement of the 4-regular K(7,3)
}


def check_host_shape(host: Host) -> None:
    """Raise if a named host does not have its published parameters."""
    kind, want = HOST_SHAPES[host.name]
    if kind == "srg":
        got = srg_parameters(host)
    else:
        degrees = {len(s) for s in host.adj.values()}
        got = (host.n, degrees.pop()) if len(degrees) == 1 else None
    if got != want:
        raise ValueError(f"host {host.name}: parameters {got}, expected {want}")


# ---------------------------------------------------------------------------
# Parsing helpers for the CLI's line format


def key_values(line: str) -> dict[str, str]:
    out = {}
    for part in line.split():
        if "=" in part:
            k, v = part.split("=", 1)
            out[k] = v
    return out


def first_kv_line(stdout: str, key: str) -> dict[str, str] | None:
    for line in stdout.splitlines():
        kv = key_values(line)
        if key in kv:
            return kv
    return None


def member_lines(stdout: str, header: str, tag: str) -> list[list[int]] | None:
    """Integer rows tagged ``tag`` after the first line starting with ``header``."""
    lines = stdout.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.startswith(header)), None)
    if start is None:
        return None
    rows = []
    for ln in lines[start + 1:]:
        parts = ln.split()
        if not parts or parts[0] != tag:
            break
        try:
            rows.append([int(x) for x in parts[1:]])
        except ValueError:
            return None
    return rows


# ---------------------------------------------------------------------------
# sweep: per-level counts of connected alpha <= 2 graphs


def connected_alpha2_counts(fixture: Path, max_n: int) -> dict[int, int]:
    """Published triangle-free counts minus the disconnected complements.

    A triangle-free graph has a disconnected complement iff it is a join
    of two non-empty parts; a triangle-free join is K_{a,b}, and there
    are floor(n/2) of those on n >= 2 vertices.
    """
    tf = {int(k): v for k, v in json.loads(fixture.read_text()).items()}
    return {n: tf[n] - n // 2 for n in range(1, max_n + 1)}


def atlas_counts(max_n: int = 7) -> dict[int, int]:
    """Connected graphs with a triangle-free complement, from the atlas."""
    counts = Counter()
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 1 <= n <= max_n and nx.is_connected(h):
            if not any(nx.triangles(nx.complement(h)).values()):
                counts[n] += 1
    return dict(counts)


def classify_sweep(stdout: str, rc: int | None, expected: dict[int, int]) -> Counter:
    """One count verdict per level, one CDM verdict per graph, one total.

    The CDM reference is the paper's desk-scale result: every connected
    graph with alpha <= 2 on at most nine vertices has a connected
    dominating matching, so each violation is wrong.
    """
    out = Counter()
    seen = {}
    total = None
    for line in stdout.splitlines():
        kv = key_values(line)
        if "n" in kv and "checked" in kv:
            seen[int(kv["n"])] = (int(kv["checked"]), int(kv["violations"]))
        elif "total" in kv:
            total = kv
    for n, want in expected.items():
        if n not in seen:
            out[WRONG] += 1
            continue
        checked, violations = seen[n]
        out[FOUND if checked == want else WRONG] += 1
        out[WRONG] += violations
        out[FOUND] += max(checked - violations, 0)
    ok_total = (
        total is not None
        and int(total["total"]) == sum(expected.values())
        and int(total["violations_total"]) == 0
        and rc == 0
    )
    out[FOUND if ok_total else WRONG] += 1
    return out


# ---------------------------------------------------------------------------
# screen: hand-written verdict table

PROPERTIES = tuple(f"P{i}" for i in range(1, 23))

# P3, P9, P17, P19 and P20 are derived from n, delta, chi and omega (see
# derived_screen) and are marked '*'.  Elsewhere P = pass, F = fail and
# N = not-evaluated (P22 is capped at 24 vertices; P6 on the Mesner
# complement runs out of its CDM search budget).
#                       P1 ........ P10 ........ P20 P22
SCREEN_TABLE = {
    "clebsch":           "FP*FFFPP*PFPPPPP*P**PF",
    "andrasfai6":        "PP*PPFPP*PPPPPPP*P**PP",
    "kneser7_3":         "PP*PPFFP*PPFPFFF*P**PN",
    "hoffman_singleton": "FP*FFFPP*PFPPPPP*P**PN",
    "gewirtz":           "FP*FFFPP*PFPPPPP*P**PN",
    "mesner":            "PP*PPNPP*PPPPPPP*P**PN",
}
_STATUS = {"P": "pass", "F": "fail", "N": "not-evaluated"}


def derived_screen(host: Host) -> dict[str, str]:
    n, chi, delta, omega = host.n, host.chi, host.delta, host.omega
    tests = {
        "P3": n == 2 * chi - 1,
        "P9": delta >= chi,
        "P17": chi >= 7,
        "P19": omega <= chi - 3,
        "P20": delta >= chi + 1,
    }
    return {p: "pass" if ok else "fail" for p, ok in tests.items()}


def screen_reference(host: Host) -> dict[str, str]:
    row = SCREEN_TABLE[host.name]
    ref = {p: _STATUS.get(c) for p, c in zip(PROPERTIES, row)}
    ref.update(derived_screen(host))
    return ref


def classify_screen(stdout: str, reference: dict[str, str]) -> Counter:
    """One verdict per property.  A reference 'not-evaluated' may become
    decided; a change between two decided values is wrong."""
    got = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition("=")
        if sep and name in reference:
            got[name] = rest.split()[0] if rest.split() else ""
    out = Counter()
    for p, ref in reference.items():
        status = got.get(p)
        if status == "not-evaluated":
            out[UNDECIDED] += 1
        elif status not in ("pass", "fail"):
            out[WRONG] += 1
        elif ref != "not-evaluated" and status != ref:
            out[WRONG] += 1
        else:
            out[FOUND if status == "pass" else REFUTED] += 1
    return out


# ---------------------------------------------------------------------------
# certify: witness checks


def classify_cover4(stdout: str, host: Host) -> Counter:
    """Four cliques covering V with total size >= n + 2.

    "found=false" refutes only when 4 * omega < n + 2 (no four cliques can
    reach the total); otherwise it is a heuristic miss and undecided.
    """
    kv = first_kv_line(stdout, "found")
    if kv is None:
        return Counter({WRONG: 1})
    if kv["found"] != "true":
        return Counter({REFUTED if 4 * host.omega < host.n + 2 else UNDECIDED: 1})
    cover = member_lines(stdout, "cover4", "X")
    ok = (
        cover is not None
        and len(cover) == 4
        and all(host.is_clique(c) for c in cover)
        and set().union(*map(set, cover)) == set(range(host.n))
        and sum(len(c) for c in cover) >= host.n + 2
    )
    return Counter({FOUND if ok else WRONG: 1})


class KneserHost:
    """K(n,k,>=t) with vertex i the i-th k-subset in colexicographic order
    (the documented labelling of the CLI's kneser certificates)."""

    def __init__(self, n: int, k: int, t: int):
        self.t = t
        self.sets = sorted(
            (frozenset(c) for c in combinations(range(n), k)),
            key=lambda s: tuple(sorted(s, reverse=True)),
        )
        self.n = len(self.sets)

    def is_clique(self, members) -> bool:
        members = list(members)
        if len(set(members)) != len(members):
            return False
        if any(not 0 <= v < self.n for v in members):
            return False
        return all(
            len(self.sets[a] & self.sets[b]) >= self.t for a, b in combinations(members, 2)
        )


# Fractional clique cover numbers of the certified hosts.  Each equals
# n / omega, the lower bound every graph satisfies, so a certificate with
# this bound is optimal.  For K(n,k,>=t), omega is the largest
# t-intersecting family of k-sets (Erdos-Ko-Rado for t = 1,
# Ahlswede-Khachatrian for t = 2).
THETA_F = {
    "clebsch": Fraction(16, 5),  # 16 vertices, omega 5
    "mesner": Fraction(77, 21),  # 77 vertices, omega 21
    (7, 3, 1): Fraction(35, 15),  # C(7,3) / C(6,2)
    (9, 4, 2): Fraction(126, 21),  # C(9,4) / C(7,2)
    (10, 4, 1): Fraction(210, 84),  # C(10,4) / C(9,3)
}


def classify_theta_f(stdout: str, host, bound: Fraction) -> Counter:
    """A verified certificate: every member a clique, and every vertex in
    at least r/k members, with k equal to the known bound (exact)."""
    kv = first_kv_line(stdout, "verified")
    if kv is None or kv["verified"] != "true":
        return Counter({WRONG: 1})
    cliques = member_lines(stdout, "theta_f", "X")
    header = next((ln for ln in stdout.splitlines() if ln.startswith("theta_f ")), "")
    try:
        stated = Fraction(header.split()[1])
        claimed = Fraction(kv["bound"])
    except (IndexError, KeyError, ValueError, ZeroDivisionError):
        return Counter({WRONG: 1})
    if not cliques or stated != bound or claimed != bound or int(kv.get("cliques", -1)) != len(cliques):
        return Counter({WRONG: 1})
    if not all(host.is_clique(c) for c in cliques):
        return Counter({WRONG: 1})
    mult = Counter(v for c in cliques for v in c)
    threshold = Fraction(len(cliques)) / bound
    ok = all(mult[v] >= threshold for v in range(host.n))
    return Counter({FOUND if ok else WRONG: 1})


def _connected_within(host: Host, members: set[int]) -> bool:
    start = next(iter(members))
    seen, stack = {start}, [start]
    while stack:
        for w in host.adj[stack.pop()] & members:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == members


def valid_model(host: Host, sets: list[list[int]], order: int, edges_only: bool) -> bool:
    """Disjoint non-empty connected branch sets, pairwise adjacent, at
    least ``order`` of them; with ``edges_only`` every set is an edge."""
    if len(sets) < order:
        return False
    seen = set()
    masks = []
    for b in sets:
        s = set(b)
        if not s or len(s) != len(b) or s & seen or any(v not in host.adj for v in s):
            return False
        if edges_only and len(s) != 2:
            return False
        if not _connected_within(host, s):
            return False
        seen |= s
        masks.append(s)
    reach = [set().union(*(host.adj[v] for v in s)) for s in masks]
    return all(reach[i] & masks[j] for i, j in combinations(range(len(masks)), 2))


def dominating(host: Host, edges: list[list[int]]) -> bool:
    """Every vertex off the matching sees an end of every matching edge."""
    covered = {v for e in edges for v in e}
    return all(
        host.adj[x] & set(e) for x in range(host.n) if x not in covered for e in edges
    )


def classify_model(stdout: str, host: Host, conjecture: str) -> Counter:
    """4cm, shc-half and cdm answers: a positive answer needs a valid
    witness; a negative or budgeted one has no decided reference here."""
    kv = first_kv_line(stdout, "holds")
    if kv is None:
        return Counter({WRONG: 1})
    if kv["holds"] != "true":
        return Counter({UNDECIDED: 1})
    sets = member_lines(stdout, "model ", "B")
    if sets is None:
        return Counter({WRONG: 1})
    if conjecture == "4cm":
        ok = valid_model(host, sets, (host.n + 1) // 4, edges_only=True)
    elif conjecture == "shc-half":
        ok = valid_model(host, sets, (host.n + 1) // 2, edges_only=False)
    else:  # cdm
        ok = valid_model(host, sets, 1, edges_only=True) and dominating(host, sets)
    return Counter({FOUND if ok else WRONG: 1})
