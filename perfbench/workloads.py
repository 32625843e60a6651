"""Input generation, the query streams and their output checkers.

Every input is a pure function of the workload seed.  The generator keeps
its own description of each space (points plus the order as up-set masks),
so the expected answers below come from an oracle that shares no code with
topolab: opens are counted as the upper sets of the order, and every
closed-set family of a finite T0 space must equal the point closures S_c.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass

# The queries each document receives in one pass: each command has weight
# 1/4, and the sub-choices of reflect and check split their quarter evenly.
COMMANDS = (
    ("info",), ("info",), ("info",),
    ("families",), ("families",), ("families",),
    ("reflect", "--category", "sob"),
    ("reflect", "--category", "d"),
    ("reflect", "--category", "wf"),
    ("check", "--property", "sober"),
    ("check", "--property", "well_filtered"),
    ("check", "--property", "core_compact"),
)
FAMILY_LABELS = ("S_c", "D_c", "RD", "Irr_c", "Sob(X)", "d(X)", "WF(X)")
QUERY_CAP = "12"  # TOPOLAB_CAP for the query workload: reflect up to 12 points
# Documents per carrier size.  Wide (7-9 points): the antichain and WIDE_DAGS
# DAGs.  Deep (10-12 points): spaces on which the well-filtered sweep runs and
# on which it is skipped.
WIDE_DAGS = 8
DEEP_SWEPT, DEEP_SKIPPED = 8, 4
SWEEP_MAX_Q = 32  # topolab's well-filtered sweep runs only up to this many compact sets
# Random draws per kept document, for the stratified samples.
WIDE_CANDIDATES, DEEP_CANDIDATES = 48, 16


@dataclass
class Doc:
    """A generated space document and the oracle's view of it."""

    name: str
    points: tuple[str, ...]
    up: tuple[int, ...]  # up[i]: mask of the points above point i
    text: str = ""
    path: str = ""

    @property
    def n(self) -> int:
        return len(self.points)

    def opens(self) -> list[int]:
        return _upper_sets(self.up)

    def point_closures(self) -> frozenset[frozenset[str]]:
        return frozenset(
            frozenset(self.points[j] for j in range(self.n) if self.up[j] >> i & 1)
            for i in range(self.n))


@dataclass
class Query:
    argv: list[str]
    doc: Doc
    n_opens: int


def _upper_sets(up: tuple[int, ...]) -> list[int]:
    """Upper sets of the order, in (popcount, value) order."""
    n = len(up)
    ups = [m for m in range(1 << n) if all(up[i] & ~m == 0 for i in range(n) if m >> i & 1)]
    return sorted(ups, key=lambda m: (bin(m).count("1"), m))


def _closure_rows(n: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """Reflexive-transitive closure of the (i <= j) edges, as up-set rows."""
    rows = [1 << i for i in range(n)]
    for i, j in edges:
        rows[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return tuple(rows)


def _order_text(doc: Doc, edges: list[tuple[int, int]]) -> str:
    lines = [f"space {doc.name}", "points " + " ".join(doc.points)]
    lines += [f"order {doc.points[i]} < {doc.points[j]}" for i, j in edges]
    return "\n".join(lines) + "\n"


def _topology_text(doc: Doc) -> str:
    groups = ("{" + " ".join(doc.points[i] for i in range(doc.n) if m >> i & 1) + "}"
              for m in doc.opens())
    return f"space {doc.name}\npoints {' '.join(doc.points)}\nopens {' '.join(groups)}\n"


def _stratified(candidates: list, key, count: int) -> list:
    """`count` of the candidates, one from the middle of each equal band of
    their `key` order: a sample that keeps the model's distribution of the
    key but not the luck of a small draw."""
    ranked = sorted(candidates, key=key)
    band = len(ranked) // count
    return [ranked[k * band + band // 2] for k in range(count)]


def _wide_docs(seed: int, rng: random.Random) -> list[Doc]:
    """7-9 points: per size, the antichain and WIDE_DAGS DAGs with edge
    probability 1/8, the DAGs stratified by their number of opens.  Every
    third document is in topology form, the rest in order form."""
    docs = []
    for n in (7, 8, 9):
        points = tuple(f"p{i}" for i in range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        dags = [[pair for pair in pairs if rng.random() < 1 / 8]
                for _ in range(WIDE_CANDIDATES * WIDE_DAGS)]
        edge_sets = [[]] + _stratified(dags, lambda e: _count_opens(n, e), WIDE_DAGS)
        for k, edges in enumerate(edge_sets):
            doc = Doc(f"w{seed}-{n}-{k}", points, _closure_rows(n, edges))
            doc.text = _topology_text(doc) if k % 3 == 1 else _order_text(doc, edges)
            docs.append(doc)
    return docs


def _count_opens(n: int, edges: list[tuple[int, int]]) -> int:
    """Number of upper sets, counted as antichains: those without the least
    remaining point x, plus those with x and nothing comparable to it.  It
    ranks the many candidate DAGs without listing their opens."""
    up = _closure_rows(n, edges)
    comparable = [up[i] | sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]

    def count(rest: int) -> int:
        if not rest:
            return 1
        x = (rest & -rest).bit_length() - 1
        without = count(rest & ~(1 << x))
        if comparable[x] & rest == 1 << x:
            return 2 * without
        return without + count(rest & ~comparable[x])

    return count((1 << n) - 1)


_ORDER_LINE = re.compile(r"^order (\S+) < (\S+)$")


def _deep_docs(seed: int, rng: random.Random) -> list[Doc]:
    """10-12 points from topolab's own p=1/2 generator, written with render.
    Per size, spaces on which the well-filtered sweep runs (at most
    SWEEP_MAX_Q nonempty opens) and on which it is skipped, two to one, about
    the generator's own proportion; each group stratified by number of opens."""
    from topolab.cli_io import random_space, render

    docs = []
    for n in (10, 11, 12):
        swept, skipped = [], []
        while (len(swept) < DEEP_CANDIDATES * DEEP_SWEPT
               or len(skipped) < DEEP_CANDIDATES * DEEP_SKIPPED):
            space = random_space(rng.getrandbits(63), n)
            (swept if len(space.opens) - 1 <= SWEEP_MAX_Q else skipped).append(space)
        spaces = (_stratified(swept, _opens_key, DEEP_SWEPT)
                  + _stratified(skipped, _opens_key, DEEP_SKIPPED))
        for k, space in enumerate(spaces):
            text = render(space)
            lines = text.splitlines()
            points = tuple(lines[1].split()[1:])
            index = {p: i for i, p in enumerate(points)}
            edges = []
            for line in lines[2:]:
                a, b = _ORDER_LINE.match(line).groups()
                edges.append((index[a], index[b]))
            doc = Doc(lines[0].split()[1], points, _closure_rows(n, edges))
            doc.text = _topology_text(doc) if k in (0, DEEP_SWEPT) else text
            docs.append(doc)
    return docs


def _opens_key(space) -> tuple[int, str]:
    return len(space.opens), space.name


def make_inputs(seed: int, directory: str) -> list[Query]:
    """Generate and write the wide and the deep documents, then lay out one
    pass of queries: every document receives every entry of COMMANDS once,
    half of each document's queries ask for --json, and the order is
    shuffled, so that the two kinds of document interleave."""
    rng = random.Random(f"query:{seed}")
    docs = _wide_docs(seed, rng) + _deep_docs(seed, rng)
    os.makedirs(directory, exist_ok=True)
    queries = []
    for i, doc in enumerate(docs):
        doc.path = os.path.join(directory, f"doc{i:02d}.space")
        with open(doc.path, "w", encoding="utf-8") as handle:
            handle.write(doc.text)
        n_opens = len(doc.opens())
        json_flags = [True] * (len(COMMANDS) // 2) + [False] * (len(COMMANDS) - len(COMMANDS) // 2)
        rng.shuffle(json_flags)
        for command, as_json in zip(COMMANDS, json_flags):
            argv = [command[0], doc.path, *command[1:]] + (["--json"] if as_json else [])
            queries.append(Query(argv, doc, n_opens))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# checkers


_INFO = re.compile(r"^space (\S+): (\d+) points, (\d+) opens, (\d+) closed sets$")
_REFLECT = re.compile(r"^(sob|d|wf)-reflection of (\S+): (\d+) points, (\d+) opens$")
_CHECK = re.compile(r"^(\w+) = (True|False)\b")
_GROUP = re.compile(r"\{([^}]*)\}")


def check_query(query: Query, code: int, out: str) -> str | None:
    """None when the output of one query is right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    argv, doc = query.argv, query.doc
    command, as_json = argv[0], "--json" in argv
    try:
        if command == "info":
            if as_json:
                body = json.loads(out)
                got = (len(body["points"]), len(body["opens"]))
            else:
                m = _INFO.match(out.splitlines()[0])
                got = (int(m.group(2)), int(m.group(3))) if m else None
            want = (doc.n, query.n_opens)
        elif command == "families":
            if as_json:
                fams = {label: frozenset(frozenset(ms) for ms in body["members"])
                        for label, body in json.loads(out)["families"].items()}
            else:
                fams = {}
                for line in out.splitlines():
                    label, _, rest = line.partition(" ")
                    fams[label] = frozenset(
                        frozenset(filter(None, g.split(","))) for g in _GROUP.findall(rest))
            sc = doc.point_closures()
            got = sorted(label for label, members in fams.items() if members == sc)
            want = sorted(FAMILY_LABELS)
        elif command == "reflect":
            if as_json:
                space = json.loads(out)["space"]
                got = (len(space["points"]), len(space["opens"]))
            else:
                m = _REFLECT.match(out.splitlines()[0])
                got = (int(m.group(3)), int(m.group(4))) if m else None
            want = (doc.n, query.n_opens)
        else:
            prop = argv[argv.index("--property") + 1]
            if as_json:
                body = json.loads(out)
                got = (body["property"], body["value"])
            else:
                m = _CHECK.match(out)
                got = (m.group(1), m.group(2) == "True") if m else None
            want = (prop, True)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if got != want:
        return f"expected {want}, got {got}"
    return None


def mutate_output(query: Query, out: str) -> str:
    """A correct output with one fact changed, for the checker self-test."""
    command = query.argv[0]
    if "--json" in query.argv:
        body = json.loads(out)
        if command == "info":
            body["opens"].pop()
        elif command == "reflect":
            body["space"]["points"].pop()
        elif command == "families":
            body["families"]["S_c"]["members"].pop()
        else:
            body["value"] = not body["value"]
        return json.dumps(body)
    if command == "check":
        return out.replace(" = True", " = False", 1)
    if command == "families":
        return _GROUP.sub("", out, count=1)
    return re.sub(r"(\d+) points", lambda m: f"{int(m.group(1)) + 1} points", out, count=1)


# Acceptance pass counts (tests/test_acceptance.py) as functions of the
# verify configuration and the suite's own counts.
def verify_count_violations(report: dict) -> list[str]:
    """Reasons a verify report (as written by the verify child) is wrong."""
    cfg = report["config"]
    suites = {s["name"]: s for s in report["suites"]}
    problems = []
    if not report["ok"]:
        problems.append("report.ok is false")
    for s in report["suites"]:
        if s["failed"]:
            problems.append(f"{s['name']}: {s['failed']} failed checks")
    expected = {
        "finite_collapse": ("passed", cfg["samples"] * (4 + 2 * cfg["categories"])),
        "universal_property": ("passed", cfg["universal_samples"]),
        "closure_formula": ("passed", cfg["closure_samples"]),
        "rudin_witness": ("passed+skipped", cfg["rudin_instances"]),
    }
    for name, (what, want) in expected.items():
        s = suites.get(name)
        if s is None:
            problems.append(f"{name}: suite missing")
            continue
        got = s["passed"] + (s["skipped"] if what == "passed+skipped" else 0)
        if got != want:
            problems.append(f"{name}: {what} = {got}, expected {want}")
    return problems


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()
