"""Space documents, JSON/DOT export, the built-in zoo, seeded random
generation, the verify suite runner, and the command line interface.

The random model: a DAG on n labelled points is sampled by drawing one bit
per pair (i, j) with i < j (edge present on 1), the order is the
reflexive-transitive closure, and the space is its upper-set topology.
Bits come from the splitmix64 stream documented on SplitMix64, consumed
least significant bit first, pairs in lexicographic order, so identical
seeds reproduce byte-identical spaces on any platform.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field, replace
from json.encoder import encode_basestring
from typing import Callable, Optional, Sequence, Union

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FiniteSpace,
    _check_carrier,
    _closed_order,
    bit_indices,
    check_continuous,
    from_poset,
    is_homeomorphic,
)
from .errors import (
    ContractViolation,
    DslError,
    ResourceCapError,
    UnsupportedSpaceError,
    ValidationError,
)
from .families import (
    ALL_CATEGORIES,
    CategoryTag,
    directed_closures,
    irreducible_closed,
    k_family,
    point_closures,
    rudin_sets,
    rudin_witness_search,
)
from .hyperspaces import (
    ClosedFamily,
    box,
    diamond,
    lower_vietoris,
    smyth_power,
    xi,
)
from .products_properties import (
    PREDICATE_NAMES,
    PropertyReport,
    check_kspace_product,
    check_product_reflection,
    check_smyth_category,
    predicates,
    product,
    product_mask,
    project_mask,
)
from .reflections import (
    Reflection,
    d_completion,
    reflect,
    universal_property_report,
)
from . import oracles
from . import symbolic as sym
from .symbolic import (
    COFINITE,
    OMEGA_CHAIN,
    SymbolicReflection,
    SymbolicSpace,
    SymbolicVariant,
    sym_predicates,
    sym_reflect,
    sym_space_iso,
)

SCHEMA_VERSION = "1"

Space = Union[FiniteSpace, SymbolicSpace]


# ---------------------------------------------------------------------------
# seeded randomness


MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output mixes the state with
    (z ^= z >> 30) * 0xBF58476D1CE4E5B9, (z ^= z >> 27) * 0x94D049BB133111EB,
    z ^ z >> 31.  All arithmetic is modulo 2**64."""

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._bit_buffer = 0
        self._bits_left = 0

    def next_word(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_bit(self) -> int:
        if self._bits_left == 0:
            self._bit_buffer = self.next_word()
            self._bits_left = 64
        bit = self._bit_buffer & 1
        self._bit_buffer >>= 1
        self._bits_left -= 1
        return bit

    def next_below(self, n: int) -> int:
        return self.next_word() % n


def random_space(seed: int, n: int, caps: Caps | None = None) -> FiniteSpace:
    """Deterministic random T0 space on n points (see module docstring)."""
    caps = caps or default_caps()
    if n < 1:
        raise ValidationError("a random space needs at least one point")
    if n > caps.max_points:
        raise ResourceCapError(f"a random space of {n} points", "max_points",
                               caps.max_points, n)
    rng = SplitMix64(seed)
    labels = tuple(f"p{i}" for i in range(n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_bit():
                pairs.append((labels[i], labels[j]))
    return from_poset(labels, pairs, caps).renamed(f"rand-{seed & MASK64}-{n}")


# ---------------------------------------------------------------------------
# the zoo


def zoo() -> dict[str, Space]:
    sierpinski = from_poset(("bot", "top"), [("bot", "top")])
    discrete2 = from_poset(("a", "b"), [])
    vee = from_poset(("a", "b", "t"), [("a", "t"), ("b", "t")])
    wedge = from_poset(("t", "a", "b"), [("t", "a"), ("t", "b")])
    diamond4 = from_poset(("bot", "l", "r", "top"),
                          [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])
    return {
        "sierpinski": sierpinski.renamed("sierpinski"),
        "discrete2": discrete2.renamed("discrete2"),
        "vee": vee.renamed("vee"),
        "wedge": wedge.renamed("wedge"),
        "diamond": diamond4.renamed("diamond"),
        "omega_chain": OMEGA_CHAIN,
        "cofinite": COFINITE,
    }


def zoo_space(name: str) -> Space:
    spaces = zoo()
    if name not in spaces:
        raise ValidationError(
            f"unknown zoo space {name!r}; available: {', '.join(sorted(spaces))}"
        )
    return spaces[name]


# ---------------------------------------------------------------------------
# the space DSL


def parse(text: str) -> Space:
    """Parse a space document.

    Three bodies are accepted after the ``space NAME`` header: ``points``
    plus ``order a < b`` lines (the order lines form a DAG whose
    reflexive-transitive closure is the order), ``points`` plus ``opens``
    lines listing brace groups, or ``symbolic VARIANT``.  A document in the
    plain layout is read whole (_parse_plain); any other, and any that it
    declines, is read line by line (_parse_lines), which names every error.
    """
    space = _parse_plain(text)
    return space if space is not None else _parse_lines(text)


_LABEL = r"[^\s#<{}]+"
# The layout render writes: a `space` line, a `points` line, then only
# `order a < b` lines or one `opens` line; single spaces, \n endings, no
# comment.  A group's body is any text but braces, '#' and line ends (a \s
# class costs three times as much on a long line), split as _scan_opens splits it.
_PLAIN = re.compile(rf"space ([^\s#]+)\npoints((?: {_LABEL})+)((?:\norder {_LABEL} < {_LABEL})*"
                    r"|\nopens(?: \{[^{}#\r\n]*\})+)\n?")


def _parse_plain(text: str) -> Optional[FiniteSpace]:
    """The space of a plain-layout document, matched whole: its labels come
    from one split, each opens group's mask from one token pass, and order
    pairs that all point up the points line are closed in one sweep from
    the last point down.  None for any other text, and for a repeated or
    unknown label or a carrier over `max_points`: _parse_lines reads those
    and reports them."""
    match = _PLAIN.fullmatch(text)
    if match is None:
        return None
    name, labels, body = match.groups()
    points = tuple(labels.split())
    n = len(points)
    index = dict(zip(points, range(n)))
    if len(index) != n or n > default_caps().max_points:
        return None
    if body.startswith("\nopens"):
        bits = {p: 1 << i for i, p in enumerate(points)}
        bits["}"] = 0  # ends a group: no label holds a brace
        masks, mask = [], 0
        for bit in map(bits.get, body[6:].replace("{", "").replace("}", " }").split()):
            if bit:
                mask |= bit
            elif bit is None:
                return None  # a label of no point
            else:
                masks.append(mask)
                mask = 0
        return FiniteSpace(points, masks, name)
    tokens = body.split()  # order a < b: four tokens a line
    try:
        pairs = list(zip(map(index.__getitem__, tokens[1::4]),
                         map(index.__getitem__, tokens[3::4])))
    except KeyError:  # a label of no point
        return None
    rows = [1 << i for i in range(n)]
    if all(i <= j for i, j in pairs):
        # a pair's upper row is closed before it is read
        for i, j in sorted(pairs, reverse=True):
            rows[i] |= rows[j]
        return FiniteSpace._of_order(points, rows, name)
    for i, j in pairs:
        rows[i] |= 1 << j
    return FiniteSpace._of_order(points, _closed_order(points, rows), name)


def _parse_lines(text: str) -> Space:
    """Parse a space document line by line, syntax first and labels second:
    a malformed line raises at its line, in document order; then come the
    checks of the whole document (empty, symbolic, no points line, a carrier
    over `max_points`); last, the first label of no point raises at its line."""
    name = None
    points: Optional[tuple[str, ...]] = None
    form = None  # "order", "opens" or "symbolic", once a line of that body is read
    body: list[tuple[int, list]] = []  # each body line: its number, and its chain or groups

    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # lines end only at \n, \r\n and \r (not at the other breaks
    # str.splitlines knows, such as \f or U+2028, which stay whitespace)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        head = line.split(None, 1)[0]  # an opens line can hold a thousand tokens
        if name is None:
            tokens = line.split()
            if head != "space" or len(tokens) != 2:
                raise DslError("expected 'space NAME'", lineno)
            name = tokens[1]
            continue
        if head == "symbolic":
            tokens = line.split()
            variants = sorted(v.value for v in SymbolicVariant)
            if len(tokens) != 2 or tokens[1] not in variants:
                raise DslError("expected 'symbolic VARIANT' with VARIANT one of "
                               + ", ".join(variants), lineno)
            if points is not None:
                raise DslError("symbolic spaces carry no point list", lineno)
            if form == "symbolic":
                raise DslError("duplicate symbolic line", lineno)
            if form is not None:
                raise DslError(f"symbolic spaces carry no {form} lines", lineno)
            form, variant = head, SymbolicVariant(tokens[1])
            continue
        if head == "points":
            if form == "symbolic":
                raise DslError("symbolic spaces carry no point list", lineno)
            if points is not None:
                raise DslError("duplicate points line", lineno)
            tokens = line.split()
            if len(tokens) < 2:
                raise DslError("points line needs at least one label", lineno)
            points = tuple(tokens[1:])
            if "{" in line or "}" in line:
                braced = next(p for p in points if "{" in p or "}" in p)
                raise DslError(f"point label {braced!r} holds a brace, "
                               "which no opens group can name", lineno)
            continue
        if head == "order" or head == "opens":
            if form not in (None, head):
                raise DslError(f"{head} lines cannot mix with this body", lineno)
            form = head
            if head == "opens":
                body.append((lineno, _scan_opens(line[5:], lineno)))
                continue
            chain = [t.strip() for t in line[5:].split("<")]
            if len(chain) < 2 or "" in chain:
                raise DslError("expected 'order a < b'", lineno)
            body.append((lineno, chain))
            continue
        raise DslError(f"unknown directive {head!r}", lineno)

    if name is None:
        raise DslError("empty document", 1)
    if form == "symbolic":
        return SymbolicSpace(variant, name=name)
    if points is None:
        raise DslError("missing points line", 1)
    _check_carrier(len(points), default_caps())
    bits = {p: 1 << i for i, p in enumerate(points)}
    if form == "opens":
        masks = []
        for lineno, groups in body:
            for labels in groups:
                mask = 0
                for label in labels:
                    bit = bits.get(label)
                    if bit is None:
                        raise DslError(f"open mentions unknown point {label!r}", lineno)
                    mask |= bit
                masks.append(mask)
        return FiniteSpace(points, masks, name=name)
    rows = [1 << i for i in range(len(points))]  # row i: bit i and the bits over point i
    for lineno, chain in body:
        links = list(map(bits.get, chain))
        if None in links:
            raise DslError(f"order mentions unknown element {chain[links.index(None)]!r}", lineno)
        for below, above in zip(links, links[1:]):
            rows[below.bit_length() - 1] |= above
    return FiniteSpace._of_order(points, _closed_order(points, rows), name)


def _scan_opens(rest: str, lineno: int) -> list[list[str]]:
    """The label groups of one opens line, read one group per '}'.  A
    malformed brace group raises, the first in the line first."""
    groups = []
    *chunks, last = rest.split("}")
    for chunk in chunks:
        outside, brace, group = chunk.partition("{")
        if outside and not outside.isspace():
            raise DslError(f"label {outside.split()[0]!r} outside braces", lineno)
        if not brace:
            raise DslError("unbalanced '}'", lineno)
        if "{" in group:
            raise DslError("nested brace group", lineno)
        groups.append(group.split())
    outside, brace, group = last.partition("{")
    if outside and not outside.isspace():
        raise DslError(f"label {outside.split()[0]!r} outside braces", lineno)
    if brace:
        raise DslError("nested brace group" if "{" in group else "unbalanced '{'", lineno)
    return groups


def render(space: Space) -> str:
    """Space document text; parse(render(s)) rebuilds an equal space.  A
    name that a document cannot hold is written as the variant or as
    `space`; a point label that it cannot hold raises ValidationError."""
    if isinstance(space, SymbolicSpace):
        name = space.name if _is_token(space.name, "#") else space.variant.value
        return f"space {name}\nsymbolic {space.variant.value}\n"
    bad = next((p for p in space.points if not _is_token(p, "#<{}")), None)
    if bad is not None:
        raise ValidationError(f"point label {bad!r} cannot be written in a space document, "
                              f"whose labels hold no whitespace, '#', '<' or braces")
    name = space.name if _is_token(space.name, "#") else "space"
    lines = [f"space {name}", "points " + " ".join(space.points)]
    for i, j in space.covers():
        lines.append(f"order {space.points[i]} < {space.points[j]}")
    return "\n".join(lines) + "\n"


def _is_token(text: str, reserved: str) -> bool:
    """Whether parse reads `text` back as one token: it is nonempty and
    holds no whitespace (which splits tokens and lines) and no character of
    `reserved` ('#' starts a comment, '<' splits an order line, braces
    delimit an opens group)."""
    return bool(text) and not any(c.isspace() or c in reserved for c in text)


# ---------------------------------------------------------------------------
# JSON rendering


def to_jsonable(obj) -> dict:
    """The JSON document of `obj`, as plain dicts, lists and scalars."""
    if isinstance(obj, (FiniteSpace, ClosedFamily, Reflection)):
        return json.loads(render_json(obj))
    if isinstance(obj, SymbolicSpace):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "symbolic_space",
            "variant": obj.variant.value,
            "name": obj.name,
        }
    if isinstance(obj, sym.SymbolicFamily):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "symbolic_family",
            "space": obj.space.variant.value,
            "family": obj.kind,
            "status": obj.status,
            "point_closures": True,
            "includes_carrier": obj.includes_all,
        }
    if isinstance(obj, SymbolicReflection):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "symbolic_reflection",
            "category": obj.category.value,
            "base": obj.base.variant.value,
            "space": obj.space.variant.value,
            "added_points": list(obj.added_points),
        }
    if isinstance(obj, PropertyReport):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "property_report",
            "space": obj.space_name,
            "flags": {name: obj.flag(name) for name in PREDICATE_NAMES},
            "witnesses": dict(obj.witnesses),
        }
    if isinstance(obj, VerifyReport):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verify_report",
            "ok": obj.ok,
            "suites": [asdict(s) for s in obj.suites],
        }
    raise ValidationError(f"no JSON form for {type(obj).__name__}")


def render_json(obj) -> str:
    """The text of json.dumps(to_jsonable(obj), indent=2, ensure_ascii=False,
    sort_keys=True).  A finite space, a closed family and a reflection are
    written straight from their masks; any other object through _dump_json."""
    if isinstance(obj, FiniteSpace):
        return _finite_space_json(obj, "\n", {})
    if isinstance(obj, ClosedFamily):
        members = _dump_mask_lists(obj.base.points, obj.members, "\n  ", {})
        return _closed_family_json(obj, "\n", members)
    if isinstance(obj, Reflection):
        return _reflection_json(obj)
    return _dump_json(to_jsonable(obj))


# The writers below emit the keys of each object in sorted order, so that
# their text is the stdlib's; `indent` is the newline and indentation that
# precede the object's closing brace.
_SCHEMA = encode_basestring(SCHEMA_VERSION)


def _finite_space_json(x: FiniteSpace, indent: str, tables: dict) -> str:
    inner = indent + "  "
    points = f",{inner}  ".join(map(encode_basestring, x.points))
    return (f'{{{inner}"kind": "finite_space",{inner}"name": {encode_basestring(x.name)},'
            f'{inner}"opens": {_dump_mask_lists(x.points, x.opens, inner, tables)},'
            f'{inner}"points": [{inner}  {points}{inner}],'
            f'{inner}"schema_version": {_SCHEMA}{indent}}}')


def _closed_family_json(fam: ClosedFamily, indent: str, members: str) -> str:
    """A closed family whose member lists have the text `members`."""
    inner = indent + "  "
    return (f'{{{inner}"base": {encode_basestring(fam.base.name)},'
            f'{inner}"kind": "closed_family",{inner}"label": {encode_basestring(fam.label)},'
            f'{inner}"members": {members},{inner}"schema_version": {_SCHEMA},'
            f'{inner}"status": "exact"{indent}}}')


def _reflection_json(r: Reflection) -> str:
    """A reflection at the top of a text: its base and family share label
    tables, as both list masks of the base at one depth."""
    tables: dict = {}
    base, targets = r.base, r.space.points
    embedding = sorted(zip(base.points, [targets[k] for k in r.embedding.mapping]))
    members = _dump_mask_lists(base.points, r.family.members, "\n    ", tables)
    return ('{\n  "base": ' + _finite_space_json(base, "\n  ", tables)
            + f',\n  "category": {encode_basestring(r.category.value)},\n  "embedding": {{\n    '
            + ",\n    ".join([f"{encode_basestring(p)}: {encode_basestring(q)}"
                               for p, q in embedding])
            + '\n  },\n  "family": ' + _closed_family_json(r.family, "\n  ", members)
            + ',\n  "kind": "reflection",\n  "schema_version": ' + _SCHEMA
            + ',\n  "space": ' + _finite_space_json(r.space, "\n  ", tables) + "\n}")


def _families_json(space: FiniteSpace, fams: dict[str, ClosedFamily]) -> str:
    """The `families --json` table: families that share a member list
    share its text, written once."""
    tables: dict = {}
    texts: dict[tuple[int, ...], str] = {}
    rows = []
    for key, fam in sorted(fams.items()):
        members = texts.get(fam.members)
        if members is None:
            members = texts[fam.members] = _dump_mask_lists(
                space.points, fam.members, "\n      ", tables)
        rows.append(f"{encode_basestring(key)}: "
                    + _closed_family_json(fam, "\n    ", members))
    return ('{\n  "families": {\n    ' + ",\n    ".join(rows)
            + '\n  },\n  "kind": "families",\n  "schema_version": ' + _SCHEMA
            + f',\n  "space": {encode_basestring(space.name)}\n}}')


def _dump_json(value) -> str:
    """The `--json` text of a document of plain dicts, lists and scalars."""
    return json.dumps(value, indent=2, ensure_ascii=False, sort_keys=True)


def _dump_mask_lists(points: tuple[str, ...], masks: Sequence[int], indent: str,
                     tables: dict) -> str:
    """The text of the label lists of `masks`, each lowest bit first, as a
    value whose closing bracket `indent` precedes: one list pass per block
    of six points.  The table of a block holds the 64 runs of its encoded
    labels, each label after its separator; every list on the same points
    and indentation in one text shares them through `tables`."""
    if not masks:
        return "[]"
    inner = indent + "  "
    blocks = tables.get((points, indent))
    if blocks is None:
        blocks = tables[points, indent] = []
        sep = "," + inner + "  "
        for k in range(0, len(points), 6):
            table = [""]
            for p in points[k:k + 6]:
                run = sep + encode_basestring(p)
                table += [t + run for t in table]  # bit b of an index adds the b-th label
            blocks.append(table)
    runs = [blocks[0][m & 63] for m in masks]
    for k in range(1, len(blocks)):
        table, shift = blocks[k], 6 * k
        runs = [run + table[m >> shift & 63] for run, m in zip(runs, masks)]
    tail = inner + "]"
    return "[" + inner + ("," + inner).join(["[" + run[1:] + tail if run else "[]"
                                             for run in runs]) + indent + "]"


# ---------------------------------------------------------------------------
# DOT rendering


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(obj) -> str:
    """Hasse diagram of the specialization order; hyperspace points keep
    their member-set labels; symbolic spaces draw an ellipsis node plus any
    adjoined point."""
    if isinstance(obj, (Reflection, SymbolicReflection)):
        return render_dot(obj.space)
    if isinstance(obj, SymbolicSpace):
        return _render_dot_symbolic(obj)
    space = obj
    lines = [f'digraph "{_dot_escape(space.name or "space")}" {{', "  rankdir=BT;"]
    for p in space.points:
        lines.append(f'  "{_dot_escape(p)}";')
    for i, j in space.covers():
        lines.append(f'  "{_dot_escape(space.points[i])}" -> "{_dot_escape(space.points[j])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_dot_symbolic(space: SymbolicSpace) -> str:
    lines = [f'digraph "{_dot_escape(space.name or space.variant.value)}" {{',
             "  rankdir=BT;"]
    shown = ["0", "1", "2"]
    ellipsis = "..."
    for p in shown + [ellipsis]:
        lines.append(f'  "{p}";')
    if space.variant in (SymbolicVariant.OMEGA_CHAIN, SymbolicVariant.OMEGA_PLUS_ONE):
        for a, b in zip(shown, shown[1:]):
            lines.append(f'  "{a}" -> "{b}";')
        lines.append(f'  "{shown[-1]}" -> "{ellipsis}";')
    top = space.adjoined_point
    if top is not None:
        lines.append(f'  "{_dot_escape(top)}";')
        if space.variant is SymbolicVariant.OMEGA_PLUS_ONE:
            lines.append(f'  "{ellipsis}" -> "{_dot_escape(top)}";')
        else:
            for p in shown + [ellipsis]:
                lines.append(f'  "{p}" -> "{_dot_escape(top)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify configuration and runner


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0x544F504F
    samples: int = 500
    max_points: int = 6
    categories: tuple[CategoryTag, ...] = ALL_CATEGORIES
    caps: Caps = field(default_factory=default_caps)
    mutate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed & MASK64)
        if self.samples < 1:
            raise ValidationError("samples must be positive")
        if self.max_points < 1:
            raise ValidationError("max_points must be positive")
        if self.max_points > self.caps.max_points:
            raise ValidationError(
                f"max_points {self.max_points} exceeds the point cap "
                f"{self.caps.max_points}; TOPOLAB_CAP=max_points={self.max_points} lifts it")
        if not self.categories:
            raise ValidationError("at least one category is required")

    # Derived per-suite sample counts; the defaults reproduce the sizes of
    # the acceptance suite (500 / 100 / 200 / 100 / 100).
    @property
    def universal_samples(self) -> int:
        return max(1, self.samples // 5)

    @property
    def closure_samples(self) -> int:
        return max(1, self.samples * 2 // 5)

    @property
    def product_pairs(self) -> int:
        return max(1, self.samples // 5)

    @property
    def rudin_instances(self) -> int:
        return max(1, self.samples // 5)

    @property
    def transfer_samples(self) -> int:
        return max(1, self.samples // 12)

    @property
    def structural_samples(self) -> int:
        return max(1, self.samples // 25)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, note: str) -> bool:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            self.notes.append(note)
        return condition

    def skip(self, note: str) -> None:
        self.skipped += 1
        self.notes.append(f"skipped: {note}")

    def record(self, verdict: oracles.Verdict, note: str) -> None:
        """Count an oracle verdict: passed, failed, or skipped with its reason."""
        if verdict.holds is None:
            self.skip(f"{note}: {verdict.reason}")
        else:
            self.check(verdict.holds, f"{note}: {verdict.reason}")


@dataclass(frozen=True)
class VerifyReport:
    config: VerifyConfig
    suites: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok() for s in self.suites)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def summary_lines(self) -> list[str]:
        lines = []
        for s in self.suites:
            status = "ok" if s.ok() else "FAIL"
            lines.append(
                f"{s.name:<22} {status:<4} passed={s.passed} failed={s.failed} "
                f"skipped={s.skipped}"
            )
            for note in s.notes[:5]:
                lines.append(f"    {note}")
        lines.append("verify: " + ("all suites passed" if self.ok else "violations found"))
        return lines


def _sample_space(rng: SplitMix64, max_points: int, caps: Caps,
                  min_points: int = 1) -> FiniteSpace:
    seed = rng.next_word()
    span = max(1, max_points - min_points + 1)
    n = min_points + seed % span
    return random_space(rng.next_word(), n, caps)


def suite_finite_collapse(cfg: VerifyConfig) -> SuiteResult:
    """The finite collapse: Irr_c = RD = D_c = S_c, every K-family equals the
    point closures, and every reflection is homeomorphic to the space."""
    res = SuiteResult("finite_collapse")
    rng = SplitMix64(cfg.seed)
    for _ in range(cfg.samples):
        x = _sample_space(rng, cfg.max_points, cfg.caps)
        try:
            sc = point_closures(x).member_set()
            dc = directed_closures(x).member_set()
            rd = rudin_sets(x).family.member_set()
            irr = irreducible_closed(x).member_set()
            res.check(sc == dc == oracles.directed_closure_masks(x),
                      f"{x.name}: D_c differs from S_c or its oracle")
            res.check(dc <= rd and rd <= irr, f"{x.name}: family chain broken")
            cross = oracles.rudin_cross_check(x, rd)  # rides on the RD check
            res.check(rd == sc == oracles.rudin_sets_by_filtered_enumeration(x, max_size=1)
                      and cross.holds is not False,
                      f"{x.name}: RD differs from S_c or its oracle: {cross.reason}")
            if cross.holds is None:
                res.skip(f"{x.name}: Rudin cross-check: {cross.reason}")
            res.check(irr == sc == frozenset(oracles.irreducible_closed_sets(x)),
                      f"{x.name}: Irr_c differs from S_c or its oracle")
            for c in cfg.categories:
                kf = k_family(x, c).member_set()
                res.check(kf == sc, f"{x.name}: {c.value}-family differs from S_c")
                r = reflect(x, c)
                res.check(is_homeomorphic(r.space, x, cfg.caps),
                          f"{x.name}: {c.value}-reflection not homeomorphic to the space")
        except ResourceCapError as exc:
            res.skip(f"{x.name}: {exc}")
    return res


def suite_cofinite_example(cfg: VerifyConfig) -> SuiteResult:
    """The cofinite space: a d-space, not well-filtered, not sober; the whole
    carrier is a Rudin set but not a directed closure; its d-reflection is
    itself while the sober and well-filtered reflections adjoin one point."""
    res = SuiteResult("cofinite_example")
    preds = sym_predicates(COFINITE)
    res.check(preds.d_space, "cofinite space should be a d-space")
    res.check(not preds.well_filtered, "cofinite space should not be well-filtered")
    res.check(not preds.sober, "cofinite space should not be sober")
    res.check(preds.compact, "cofinite space should be compact")
    rd = sym.sym_family(COFINITE, "rd")
    dc = sym.sym_family(COFINITE, "dc")
    res.check(rd.contains(sym.closed_all()), "carrier should be a Rudin set")
    res.check(not dc.contains(sym.closed_all()), "carrier should not be a directed closure")
    res.check(not dc.includes_all and rd.includes_all,
              "RD and D_c should differ on the carrier")
    d_fam = sym.sym_family(COFINITE, CategoryTag.D_SPACE)
    res.check(rd.includes_all and not d_fam.includes_all,
              "the carrier witnesses RD not within the d-family")
    rd_refl = sym_reflect(COFINITE, CategoryTag.D_SPACE)
    rw = sym_reflect(COFINITE, CategoryTag.WELL_FILTERED)
    rs = sym_reflect(COFINITE, CategoryTag.SOBRIETY)
    res.check(sym_space_iso(rd_refl.space, COFINITE), "d-reflection should be the space")
    res.check(sym_space_iso(rw.space, rs.space),
              "wf- and sober reflections should agree")
    res.check(rw.space.variant is SymbolicVariant.COFINITE_PLUS_TOP,
              "wf-reflection should adjoin one generic point")
    res.check(rw.added_points == (sym.GENERIC_POINT,),
              "the adjoined point should be the generic point")
    res.check(not sym_space_iso(rd_refl.space, rw.space),
              "d- and wf-reflections should differ")
    return res


def suite_omega_chain(cfg: VerifyConfig) -> SuiteResult:
    """The chain of naturals under the Scott topology reflects to the chain
    with one new top for all three categories; its dcpo completion agrees."""
    res = SuiteResult("omega_chain")
    preds = sym_predicates(OMEGA_CHAIN)
    res.check(not preds.sober, "chain should not be sober")
    res.check(not preds.d_space, "chain should not be a d-space")
    res.check(not preds.well_filtered, "chain should not be well-filtered")
    res.check(preds.compact, "chain should be compact")
    for c in ALL_CATEGORIES:
        r = sym_reflect(OMEGA_CHAIN, c)
        res.check(r.space.variant is SymbolicVariant.OMEGA_PLUS_ONE,
                  f"{c.value}-reflection should be the chain plus a top")
        res.check(r.added_points == (sym.OMEGA_POINT,),
                  "the adjoined point should be the top")
        again = sym_reflect(r.space, c)
        res.check(sym_space_iso(again.space, r.space),
                  "reflection should be a fixed point")
    comp = d_completion(OMEGA_CHAIN)
    res.check(isinstance(comp.space, SymbolicSpace)
              and comp.space.variant is SymbolicVariant.OMEGA_PLUS_ONE,
              "dcpo completion of the chain should adjoin one top")
    sc = sym.sym_family(OMEGA_CHAIN, "sc")
    dc = sym.sym_family(OMEGA_CHAIN, "dc")
    wf = sym.sym_family(OMEGA_CHAIN, CategoryTag.WELL_FILTERED)
    irr = sym.sym_family(OMEGA_CHAIN, "irr")
    res.check(sc.subset_of(dc) and dc.subset_of(wf) and wf.subset_of(irr),
              "family sandwich broken on the chain")
    res.check(dc.includes_all and not sc.includes_all,
              "carrier should be a directed closure but not a point closure")
    return res


def suite_universal_property(cfg: VerifyConfig) -> SuiteResult:
    """Every continuous map into a catalog target factors uniquely through
    the reflection embedding."""
    res = SuiteResult("universal_property")
    rng = SplitMix64(cfg.seed ^ 0x9E3779B9)
    for _ in range(cfg.universal_samples):
        x = _sample_space(rng, min(4, cfg.max_points), cfg.caps)
        try:
            report = universal_property_report(
                x, CategoryTag.WELL_FILTERED, caps=cfg.caps)
            res.check(report.ok and report.maps_tested == report.unique_factorizations,
                      f"{x.name}: {report.violations[:3]}")
        except ResourceCapError as exc:
            res.skip(f"{x.name}: {exc}")
    return res


def suite_closure_formula(cfg: VerifyConfig) -> SuiteResult:
    """closure(eta(A)) = box(cl A) in the reflection hyperspace, for every
    subset A of every sampled space."""
    res = SuiteResult("closure_formula")
    rng = SplitMix64(cfg.seed ^ 0xC10705E)
    for _ in range(cfg.closure_samples):
        x = _sample_space(rng, min(5, cfg.max_points), cfg.caps)
        r = reflect(x, CategoryTag.WELL_FILTERED)
        hv = r.hyper
        ok = True
        for a in range(1 << x.n):
            eta_image = r.embedding.image_mask(a)
            lhs = hv.space.closure(eta_image)
            rhs = box(r.family, x.closure(a))
            if lhs != rhs:
                ok = False
                break
            if hv.space.closure(r.embedding.image_mask(x.closure(a))) != rhs:
                ok = False
                break
            # for closed sets the box is itself the closure of the embedded image
            if x.is_closed(a) and hv.space.closure(box(r.family, a)) != rhs:
                ok = False
                break
        res.check(ok, f"{x.name}: closure formula failed")
    return res


def suite_product_theorems(cfg: VerifyConfig) -> SuiteResult:
    """gamma is a homeomorphism between the reflection of a product and the
    product of the reflections; the product of spaces is a K-space iff every
    factor is, including the symbolic splits."""
    res = SuiteResult("product_theorems")
    caps = replace(cfg.caps, max_points=max(cfg.caps.max_points, 16))
    rng = SplitMix64(cfg.seed ^ 0x9120D0C7)
    for _ in range(cfg.product_pairs):
        x = _sample_space(rng, min(4, cfg.max_points), caps)
        y = _sample_space(rng, min(4, cfg.max_points), caps)
        for c in cfg.categories:
            try:
                pr = check_product_reflection([x, y], c, caps)
                res.check(pr.ok, f"{x.name} x {y.name} [{c.value}]: {pr.notes[:2]}")
                if pr.gamma is not None and pr.gamma.source.n > caps.max_iso_points:
                    res.skip(f"{x.name} x {y.name} [{c.value}]: homeomorphism cross-check: "
                             f"{pr.gamma.source.n} points exceed max_iso_points "
                             f"{caps.max_iso_points}")
                elif pr.gamma is not None:
                    res.check(is_homeomorphic(pr.gamma.source, pr.gamma.target, caps),
                              f"{x.name} x {y.name} [{c.value}]: search found no homeomorphism")
                kp = check_kspace_product([x, y], c, caps)
                res.record(kp.verdict, f"{x.name} x {y.name} [{c.value}]: biconditional")
            except ResourceCapError as exc:
                res.skip(f"{x.name} x {y.name} [{c.value}]: {exc}")
    sierpinski = zoo_space("sierpinski")
    for c, expected in ((CategoryTag.D_SPACE, True),
                        (CategoryTag.SOBRIETY, False),
                        (CategoryTag.WELL_FILTERED, False)):
        kp = check_kspace_product([COFINITE, sierpinski], c, cfg.caps)
        res.record(kp.verdict, f"cofinite x sierpinski [{c.value}]: biconditional")
        res.check(kp.product_is_kspace.holds is expected
                  and kp.factors_are_kspaces.holds is expected,
                  f"cofinite x sierpinski [{c.value}]: expected both sides {expected}")
    return res


def suite_rudin_witness(cfg: VerifyConfig) -> SuiteResult:
    """The minimal-closed-set search on irreducible families of compact
    saturated sets returns certified minimal irreducible results."""
    res = SuiteResult("rudin_witness")
    rng = SplitMix64(cfg.seed ^ 0x12D17)
    for _ in range(cfg.rudin_instances):
        x = _sample_space(rng, min(5, cfg.max_points), cfg.caps, min_points=2)
        base = x.saturation(1 << rng.next_below(x.n))
        members = [base]
        for _ in range(rng.next_below(3)):
            grown = x.saturation(members[-1] | 1 << rng.next_below(x.n))
            if grown != members[-1]:
                members.append(grown)
        anchor = next(bit_indices(members[0]))
        extra = 0
        if rng.next_bit():
            extra = 1 << rng.next_below(x.n)
        c0 = x.closure(1 << anchor | extra)
        a = rudin_witness_search(x, members, c0)
        inside = [b for b in x.closed_sets if b & ~c0 == 0]
        res.check(a in oracles.minimal_meeting_all(inside, members)
                  and oracles.is_irreducible_closed_set(x, a), f"{x.name}: witness not certified")
    return res


def suite_transfer(cfg: VerifyConfig) -> SuiteResult:
    """Frame isomorphism between the opens of a space and of its reflection,
    the diamond laws of its embedding and the box laws of x -> up x, every
    predicate flag of both spaces against its oracle (so the flags
    transfer), symbolic compactness transfer, and the Smyth power checks for
    the sober and well-filtered categories."""
    res = SuiteResult("transfer")
    rng = SplitMix64(cfg.seed ^ 0x7245F)
    spaces = [s for s in zoo().values() if isinstance(s, FiniteSpace)]
    for _ in range(cfg.transfer_samples):
        spaces.append(_sample_space(rng, min(5, cfg.max_points), cfg.caps))
    for x in spaces:
        r = reflect(x, CategoryTag.WELL_FILTERED)
        res.record(oracles.eta_laws(r.embedding, r.family), f"{x.name}: eta laws")
        power = smyth_power(x)
        res.record(oracles.xi_laws(xi(x, power), power), f"{x.name}: xi laws")
        image = {}
        for u in x.opens:
            image[u] = diamond(r.family, u)
        res.check(len(set(image.values())) == len(x.opens)
                  and set(image.values()) == set(r.space.opens),
                  f"{x.name}: diamond is not a bijection onto the reflection opens")
        lattice_ok = all(
            image[u] | image[v] == image[u | v]
            and image[u] & image[v] == image[u & v]
            for u in x.opens for v in x.opens
        )
        res.check(lattice_ok, f"{x.name}: diamond does not preserve unions/intersections")

        for space in (x, r.space):
            report = predicates(space)
            for name, verdict in oracles.flag_verdicts(space).items():
                # the mutation mode flips every flag: a harness self-test
                res.record(verdict.expect(report.flag(name) != cfg.mutate),
                           f"{space.name}: {name} flag against its oracle")
        for c in (CategoryTag.SOBRIETY, CategoryTag.WELL_FILTERED):
            try:
                res.record(check_smyth_category(x, c),
                           f"{x.name}: Smyth power check for {c.value}")
            except ResourceCapError as exc:
                res.skip(f"{x.name}: {exc}")
    # symbolic compactness transfer and symbolic frame order-isomorphism
    for s in (OMEGA_CHAIN, COFINITE):
        for c in ALL_CATEGORIES:
            r = sym_reflect(s, c)
            res.check(sym_predicates(s).compact == sym_predicates(r.space).compact,
                      f"{s.name}: compactness does not transfer under {c.value}")
            if s.variant is SymbolicVariant.OMEGA_CHAIN:
                opens = [sym.open_empty()] + [sym.open_up(n) for n in range(6)]
            else:
                opens = [sym.open_empty(), sym.open_cofinite(),
                         sym.open_cofinite({0}), sym.open_cofinite({0, 1}),
                         sym.open_cofinite({2, 5})]
            ok = True
            for u in opens:
                for v in opens:
                    lhs = sym.sym_open_subset(s, u, v)
                    rhs = sym.sym_open_subset(
                        r.space,
                        sym.reflection_open_of(s, r.space, u),
                        sym.reflection_open_of(s, r.space, v))
                    if lhs != rhs:
                        ok = False
            res.check(ok, f"{s.name}: reflection opens are not order isomorphic")
    return res


def suite_structural(cfg: VerifyConfig) -> SuiteResult:
    """Remaining structural lemmas: the box transfer of K-sets, the
    irreducibility transfer, hyperspace subspace coherence, product
    irreducibility laws, retracts, idempotence, and the dcpo completion."""
    res = SuiteResult("structural")
    rng = SplitMix64(cfg.seed ^ 0x57121)
    for _ in range(cfg.structural_samples):
        x = _sample_space(rng, min(4, cfg.max_points), cfg.caps)
        c = CategoryTag.WELL_FILTERED
        r = reflect(x, c)
        kf = r.family.member_set()
        k_refl = frozenset(k_family(r.space, c).members)
        ok = True
        for a in x.closed_sets:
            if a == 0:
                continue
            if (a in kf) != (box(r.family, a) in k_refl):
                ok = False
        res.check(ok, f"{x.name}: box transfer of K-sets failed")
        ok = True
        for a in range(1, 1 << x.n):
            lhs = oracles.is_irreducible_subset(x, a)
            rhs = oracles.is_irreducible_subset(r.space, box(r.family, x.closure(a)))
            if lhs != rhs:
                ok = False
        res.check(ok, f"{x.name}: irreducibility transfer failed")
        # S_c inside every nonempty closed set: a proper subfamily unless
        # each closed set is a point closure
        g2 = ClosedFamily(x, tuple(a for a in x.closed_sets if a))
        g1 = point_closures(x)
        big = lower_vietoris(g2)
        small = lower_vietoris(g1)
        keep = 0
        for m in g1.members:
            keep |= 1 << g2.member_position(m)
        res.check(small.space == big.space.subspace(keep),
                  f"{x.name}: hyperspace of a subfamily is not the subspace")
        r2 = reflect(r.space, c)
        res.check(is_homeomorphic(r2.space, r.space, cfg.caps),
                  f"{x.name}: reflection is not idempotent")
        res.record(oracles.sober(r.space).expect(
                       kf == frozenset(oracles.irreducible_closed_sets(x))),
                   f"{x.name}: sobriety coincidence")
        comp = d_completion(x)
        res.check(
            comp.space.n == x.n and is_homeomorphic(comp.space, x, cfg.caps),
            f"{x.name}: dcpo completion is not an isomorphic copy")
        res.record(oracles.dcpo_completion(x, comp.space, comp.embedding.mapping),
                   f"{x.name}: dcpo completion")
    # product irreducibility and closure-projection laws on small factors
    for _ in range(max(1, cfg.structural_samples // 2)):
        x = _sample_space(rng, 3, cfg.caps)
        y = _sample_space(rng, 3, cfg.caps)
        p = product([x, y], cfg.caps)
        irreducible = oracles.is_irreducible_subset
        ok_pair = True
        for a in range(1, 1 << x.n):
            for b in range(1, 1 << y.n):
                prod = product_mask([a, b], [x, y])
                if irreducible(p, prod) != (irreducible(x, a) and irreducible(y, b)):
                    ok_pair = False
        res.check(ok_pair, f"{x.name} x {y.name}: product irreducibility law failed")
        ok_proj = True
        for a in range(1, 1 << p.n):
            if not irreducible(p, a):
                continue
            cl = p.closure(a)
            rebuilt = product_mask(
                [x.closure(project_mask(a, [x, y], 0)),
                 y.closure(project_mask(a, [x, y], 1))], [x, y])
            if cl != rebuilt:
                ok_proj = False
        res.check(ok_proj, f"{x.name} x {y.name}: closure projection law failed")
    # a constructed retract pair: the vee retracts onto a chain
    vee = zoo_space("vee")
    chain = vee.subspace(vee.mask_of("a", "t"), name="chain")
    section = ContinuousMap(chain, vee, tuple(vee.index(p) for p in chain.points))
    retraction = ContinuousMap(vee, chain,
                               (chain.index("a"), chain.index("a"), chain.index("t")))
    res.check(check_continuous(section).ok and check_continuous(retraction).ok,
              "retract pair maps must be continuous")
    res.check(retraction.after(section).mapping == tuple(range(chain.n)),
              "retraction composed with the section must be the identity")
    for c in ALL_CATEGORIES:
        res.check(k_family(chain, c).member_set() == point_closures(chain).member_set(),
                  "a retract of a K-space must have a collapsed K-family")
    return res


SUITES = (
    suite_finite_collapse,
    suite_cofinite_example,
    suite_omega_chain,
    suite_universal_property,
    suite_closure_formula,
    suite_product_theorems,
    suite_rudin_witness,
    suite_transfer,
    suite_structural,
)


def verify(config: VerifyConfig | None = None) -> VerifyReport:
    """Run every invariant suite over random samples, the zoo, and the
    symbolic spaces.  Resource-cap skips are counted separately from
    failures; any failure makes the report (and the CLI) non-zero."""
    config = config or VerifyConfig()
    suites = []
    for suite in SUITES:
        result = suite(config)
        # failures before skips, so that many skips cannot hide a failure
        result.notes = sorted(result.notes, key=lambda n: n.startswith("skipped: "))[:20]
        suites.append(result)
    return VerifyReport(config, tuple(suites))


# ---------------------------------------------------------------------------
# command line interface


def _load_space(spec: str) -> Space:
    if spec.startswith("zoo:"):
        return zoo_space(spec[len("zoo:"):])
    try:  # os.read to EOF: a buffered file object costs more than the read
        fd = os.open(spec, os.O_RDONLY)
        try:
            chunks = [os.read(fd, 1 << 16)]
            while chunks[-1]:
                chunks.append(os.read(fd, 1 << 16))
        finally:  # a directory opens, and fails at its first read
            os.close(fd)
        data = b"".join(chunks)
    except OSError as exc:  # str(exc) would name the path a second time
        raise ValidationError(f"cannot read {spec!r}: {exc.strerror or exc}") from exc
    try:
        # parse breaks lines at \n, \r\n and \r: no newline translation is lost
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {spec!r}: byte {exc.start} is not UTF-8") from exc
    return parse(text)


def _emit(args, obj, plain: Callable[[], str]) -> None:
    """Print `obj` as JSON, as DOT, or as the text `plain()`, which is built
    only for plain output."""
    if getattr(args, "json", False):
        print(render_json(obj))
    elif getattr(args, "dot", False):
        print(render_dot(obj), end="")
    else:
        text = plain()
        print(text, end="" if text.endswith("\n") else "\n")


def _space_summary(space: Space) -> str:
    if isinstance(space, SymbolicSpace):
        preds = sym_predicates(space)
        return (f"symbolic space {space.name or space.variant.value} "
                f"({space.variant.value})\n"
                f"sober={preds.sober} d_space={preds.d_space} "
                f"well_filtered={preds.well_filtered} compact={preds.compact}")
    lines = [
        # complement is a bijection from the opens onto the closed sets
        f"space {space.name or '?'}: {space.n} points, {space.open_count} opens, "
        f"{space.open_count} closed sets",
        "points: " + " ".join(space.points),
        "order:  " + (", ".join(
            f"{space.points[i]} < {space.points[j]}" for i, j in space.covers())
            or "(discrete)"),
    ]
    return "\n".join(lines)


def _cmd_info(args, caps: Caps) -> int:
    space = _load_space(args.space)
    _emit(args, space, lambda: _space_summary(space))
    return 0


def _cmd_families(args, caps: Caps) -> int:
    space = _load_space(args.space)
    if isinstance(space, SymbolicSpace):
        sym_fams = {key: sym.sym_family(space, key) for key in ("sc", "dc", "rd", "irr")}
        for c in ALL_CATEGORIES:
            sym_fams[f"K[{c.value}]"] = sym.sym_family(space, c)
        if args.json:
            print(_dump_json({
                "schema_version": SCHEMA_VERSION,
                "kind": "symbolic_families",
                "space": space.variant.value,
                "families": {key: to_jsonable(fam) for key, fam in sym_fams.items()},
            }))
        else:
            print("\n".join(f"{key:<4} point closures"
                            + (" + carrier" if fam.includes_all else "")
                            for key, fam in sym_fams.items()))
        return 0
    fams = {
        "S_c": point_closures(space),
        "D_c": directed_closures(space),
        "RD": rudin_sets(space).family,
        "Irr_c": irreducible_closed(space),
    }
    for c in ALL_CATEGORIES:
        fams[c.family_label] = k_family(space, c)
    if args.json:
        print(_families_json(space, fams))
    else:
        texts: dict[tuple[int, ...], str] = {}  # the seven share one member list
        for label, fam in fams.items():
            rendered = texts.get(fam.members)
            if rendered is None:
                rendered = texts[fam.members] = " ".join(
                    space.render_subset(m) for m in fam.members)
            print(f"{label:<7} {rendered}")
    return 0


def _cmd_reflect(args, caps: Caps) -> int:
    space = _load_space(args.space)
    c = CategoryTag(args.category)
    if isinstance(space, SymbolicSpace):
        r = sym_reflect(space, c)
        _emit(args, r, lambda: (
            f"{c.value}-reflection of {space.name or space.variant.value}: "
            f"{r.space.variant.value}"
            + (f" (adjoined: {', '.join(r.added_points)})" if r.added_points else
               " (the space itself)")))
        return 0
    r = reflect(space, c)

    def plain() -> str:
        lines = [f"{c.value}-reflection of {space.name or '?'}: "
                 f"{r.space.n} points, {r.space.open_count} opens"]
        for p in space.points:
            lines.append(f"  eta({p}) = {r.embedding(p)}")
        return "\n".join(lines)

    _emit(args, r, plain)
    return 0


def _cmd_product(args, caps: Caps) -> int:
    spaces = [_load_space(s) for s in args.spaces]
    if any(isinstance(s, SymbolicSpace) for s in spaces):
        raise ValidationError("the product command takes finite spaces; symbolic "
                              "products are tested by verify's product_theorems "
                              "suite and by check_kspace_product")
    p = product(spaces, caps)
    _emit(args, p, lambda: _space_summary(p))
    return 0


def _cmd_check(args, caps: Caps) -> int:
    space = _load_space(args.space)
    name = args.property
    if isinstance(space, SymbolicSpace):
        known = asdict(sym_predicates(space))
        if name not in known:
            raise ValidationError(
                f"property {name!r} is not available for symbolic spaces; "
                f"choose from {', '.join(sorted(known))}")
        if args.json:
            print(_dump_json({"schema_version": SCHEMA_VERSION, "kind": "check",
                              "space": space.variant.value, "property": name,
                              "value": known[name]}))
        else:
            print(f"{name} = {known[name]}")
        return 0
    report = predicates(space)
    if name not in PREDICATE_NAMES:
        raise ValidationError(
            f"unknown property {name!r}; choose from {', '.join(PREDICATE_NAMES)}")
    value = report.flag(name)
    if args.json:
        print(_dump_json({"schema_version": SCHEMA_VERSION, "kind": "check",
                          "space": space.name, "property": name, "value": value,
                          "witness": report.witnesses.get(name, "")}))
    else:
        witness = report.witnesses.get(name)
        print(f"{name} = {value}" + (f"  ({witness})" if witness else ""))
    return 0


def _cmd_zoo(args, caps: Caps) -> int:
    if not args.name:
        for name in sorted(zoo()):
            print(name)
        return 0
    space = zoo_space(args.name)
    if getattr(args, "render", False):
        print(render(space), end="")
        return 0
    _emit(args, space, lambda: _space_summary(space))
    return 0


def _cmd_verify(args, caps: Caps) -> int:
    categories = ALL_CATEGORIES
    if args.categories:
        tags = []
        for part in args.categories.split(","):
            part = part.strip()
            try:
                tags.append(CategoryTag(part))
            except ValueError:
                raise ValidationError(f"unknown category {part!r}; use "
                                      + ", ".join(c.value for c in CategoryTag)) from None
        categories = tuple(tags)
    config = VerifyConfig(
        seed=args.seed,
        samples=args.samples,
        max_points=args.max_points,
        categories=categories,
        caps=caps,
        mutate=args.mutate,
    )
    report = verify(config)
    if args.json:
        print(render_json(report))
    else:
        print("\n".join(report.summary_lines()))
    return report.exit_code


class _ArgvTable:
    """The grammar of a command on one SPACE whose other arguments are
    store and store_true options, read from the Action objects that its
    parser's add_argument returned."""

    def __init__(self, space: argparse.Action, options: Sequence[argparse.Action]):
        if any(a.type is not None or a.nargs not in (None, 0) for a in options):
            raise ValueError("an argv table reads only store and store_true options")
        self.space = space.dest
        self.options = {s: a for a in options for s in a.option_strings}
        self.defaults = {a.dest: a.default for a in options}
        self.required = [a.dest for a in options if a.required]

    def read(self, argv: Sequence[str]) -> Optional[argparse.Namespace]:
        """The Namespace that build_parser().parse_args(argv) returns, when
        every token after the command is an exact option string, its value
        or the SPACE; None when any is not, or when a value starts with '-',
        falls outside its choices or is missing, or a required option or
        SPACE is missing (argparse then reads argv and reports)."""
        values = {"command": argv[0], **self.defaults}
        space = None
        tokens = iter(argv[1:])
        for token in tokens:
            action = self.options.get(token)
            if action is None:
                if space is not None or token.startswith("-"):
                    return None
                space = token
            elif action.nargs == 0:
                values[action.dest] = action.const
            else:
                value = next(tokens, None)
                if value is None or value.startswith("-") or (
                        action.choices is not None and value not in action.choices):
                    return None
                values[action.dest] = value
        if space is None or any(values[dest] is None for dest in self.required):
            return None
        values[self.space] = space
        return argparse.Namespace(**values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the process.
    It keeps the argv tables of the commands on one SPACE (`argv_tables`),
    which _parse_args reads before it calls argparse."""
    parser = argparse.ArgumentParser(
        prog="topolab",
        description="Finite T0 spaces, hyperspace reflections, and their checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.argv_tables = {}

    def add_space_cmd(name, help_text, nargs=None, option=None):
        """A command on one SPACE (or, with `nargs`, on several) with
        --json, --dot and the `option` given as (flag, keyword arguments)."""
        cmd = sub.add_parser(name, help=help_text)
        space = cmd.add_argument("spaces" if nargs else "space", nargs=nargs, metavar="SPACE",
                                 help="path to a space document, or zoo:NAME")
        options = [cmd.add_argument("--json", action="store_true", help="machine output"),
                   cmd.add_argument("--dot", action="store_true", help="DOT diagram output")]
        if option is not None:
            options.append(cmd.add_argument(option[0], **option[1]))
        if not nargs:
            parser.argv_tables[name] = _ArgvTable(space, options)

    add_space_cmd("info", "summarize a space")
    add_space_cmd("families", "print the canonical closed-set families")
    add_space_cmd("reflect", "build a reflection",
                  option=("--category", {"choices": sorted(c.value for c in CategoryTag),
                                         "required": True}))
    add_space_cmd("product", "product of finite spaces", nargs="+")
    add_space_cmd("check", "evaluate a space property",
                  option=("--property", {"required": True, "metavar": "NAME"}))

    zoo_cmd = sub.add_parser("zoo", help="list or show built-in spaces")
    zoo_cmd.add_argument("name", nargs="?", default="")
    zoo_cmd.add_argument("--json", action="store_true")
    zoo_cmd.add_argument("--dot", action="store_true")
    zoo_cmd.add_argument("--render", action="store_true",
                         help="print the space document form")

    verify_cmd = sub.add_parser("verify", help="run the invariant suites")
    verify_cmd.add_argument("--seed", type=int, default=VerifyConfig.seed)
    verify_cmd.add_argument("--samples", type=int, default=VerifyConfig.samples)
    verify_cmd.add_argument("--max-points", type=int, dest="max_points",
                            default=VerifyConfig.max_points)
    verify_cmd.add_argument("--categories", default="",
                            help="comma separated subset of sob,d,wf")
    verify_cmd.add_argument("--mutate", action="store_true",
                            help="invert one predicate as a harness self-test")
    verify_cmd.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "info": _cmd_info,
    "families": _cmd_families,
    "reflect": _cmd_reflect,
    "product": _cmd_product,
    "check": _cmd_check,
    "zoo": _cmd_zoo,
    "verify": _cmd_verify,
}


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """build_parser().parse_args(argv).  A command on one SPACE is read
    from its argv table when the table can read argv; any other argv goes
    to argparse whole."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = parser.argv_tables.get(argv[0]) if argv else None
    args = table.read(argv) if table is not None else None
    return args if args is not None else parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, default_caps())
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away; send what is still buffered to the null
        # device, so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (DslError, ValidationError, UnsupportedSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"mathematical violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
