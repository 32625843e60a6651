"""The space DSL, exporters, seeded generation, the verify runner, and the CLI."""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_core_space import wide_orders
from test_oracles import orders

from topolab import (
    DslError,
    FiniteSpace,
    ResourceCapError,
    SplitMix64,
    SymbolicSpace,
    ValidationError,
    VerifyConfig,
    enumerate_continuous_maps,
    find_homeomorphism,
    from_poset,
    oracles,
    parse,
    point_closures,
    product,
    random_space,
    render,
    render_dot,
    render_json,
    verify,
    zoo,
    zoo_space,
)
from topolab import cli_io
from topolab.caps import Caps
from topolab.core_space import bit_indices
from topolab.cli_io import (
    _dump_json,
    build_parser,
    main,
    suite_product_theorems,
    to_jsonable,
)
from topolab.symbolic import SymbolicVariant


# ---------------------------------------------------------------------------
# the DSL


def test_parse_poset_form(sierpinski):
    space = parse("space s\npoints a b\norder a < b\n")
    assert isinstance(space, FiniteSpace)
    assert space.n == 2 and len(space.opens) == 3
    assert space.leq(space.index("a"), space.index("b"))


def test_parse_topology_form():
    space = parse("space x\npoints 0 1\nopens {} {1} {0 1}\n")
    assert space.n == 2 and len(space.opens) == 3
    assert space.leq(space.index("0"), space.index("1"))


def test_parse_symbolic_form():
    space = parse("space w\nsymbolic cofinite\n")
    assert isinstance(space, SymbolicSpace)
    assert space.variant is SymbolicVariant.COFINITE
    assert space.name == "w"


def test_parse_order_chains_and_comments():
    space = parse("# three point chain\nspace c\npoints a b c\norder a < b < c\n")
    assert space.leq(space.index("a"), space.index("c"))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DslError) as err:
        parse("space s\npoints a b\norder a <\n")
    assert err.value.line == 3
    with pytest.raises(DslError):
        parse("points a b\n")
    with pytest.raises(DslError):
        parse("space s\npoints a b\nopens {a\n")
    with pytest.raises(DslError):
        parse("space s\npoints a b\norder a < b\nopens {} {a b}\n")
    with pytest.raises(ValidationError):
        parse("space s\npoints a b\norder a < b\norder b < a\n")
    with pytest.raises(DslError) as err:
        parse("space s\npoints a b\nopens {} {a b}\nopens {a} {zz}\n")
    assert err.value.line == 4
    assert "'zz'" in str(err.value)
    with pytest.raises(DslError, match="no point list") as err:
        parse("space s\nsymbolic cofinite\npoints a b\n")
    assert err.value.line == 3
    with pytest.raises(DslError, match="duplicate symbolic") as err:
        parse("space s\nsymbolic cofinite\n# second body\nsymbolic omega_chain\n")
    assert err.value.line == 4


def test_parse_breaks_lines_only_at_newlines():
    """A line ends at \\n, \\r\\n or \\r and nowhere else: the other breaks
    str.splitlines knows are whitespace inside a line, in a comment and
    between labels alike, and the line numbers count only the three."""
    with pytest.raises(DslError) as err:
        parse("space s\n# section\f break\npoints a b\norder a < z\n")
    assert (str(err.value), err.value.line) == ("line 4: order mentions unknown element 'z'", 4)
    for gap in ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        for end in ("\n", "\r\n", "\r"):
            space = parse(f"space s{end}points a{gap}b{end}order a < b{end}")
            assert space.points == ("a", "b") and space.leq(0, 1), (gap, end)
            with pytest.raises(DslError) as err:
                parse(f"space s{end}points a{gap}b # c{gap}d{end}bogus{end}")
            assert (str(err.value), err.value.line) == (
                "line 3: unknown directive 'bogus'", 3), (gap, end)


def test_points_line_refuses_a_label_holding_a_brace():
    """No opens group can name such a label, so neither body form takes it."""
    for text, label, line in (("space s\npoints a{ b\nopens {} {b} {a{ b}\n", "a{", 2),
                              ("space s\npoints b a}\norder b < a}\n", "a}", 2),
                              ("space s\nopens {}\npoints a {} # {\n", "{}", 3)):
        with pytest.raises(DslError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (
            f"line {line}: point label {label!r} holds a brace, "
            "which no opens group can name", line)
    # a brace in a comment on the points line is no label
    assert parse("space s\npoints a b # {a}\norder a < b\n").points == ("a", "b")


def test_parse_opens_lines_before_the_points_line():
    space = parse("space x\nopens {} {1}\nopens {0 1}\npoints 0 1\n")
    assert space == parse("space x\npoints 0 1\nopens {} {1} {0 1}\n")
    with pytest.raises(DslError) as err:
        parse("space x\nopens {} {1}\nopens {0 1} {zz}\npoints 0 1\nopens {yy}\n")
    assert err.value.line == 3 and "'zz'" in str(err.value)
    # a malformed line after an unknown label is reported first, as it always was
    with pytest.raises(DslError) as err:
        parse("space x\npoints 0 1\nopens {} {zz} {0 1}\nopens {1\n")
    assert err.value.line == 4 and "unbalanced '{'" in str(err.value)


def test_line_reader_reports_in_document_order():
    """The line reader names the first malformed line, then a carrier over
    the cap, then the first label of no point, each in document order
    whether the body lines stand before or after the points line."""
    unknown_zz = "order mentions unknown element 'zz'"
    for text, fault, line in (
            ("space s\norder a < zz\npoints a b\norder yy < a\n", unknown_zz, 2),
            ("space s\norder a < zz\npoints a b\nbogus\n", "unknown directive 'bogus'", 4),
            ("space s\nopens {zz}\npoints a b c\nopens {} {a b c}\n",
             "open mentions unknown point 'zz'", 2),
            ("space s\norder a < b < zz < yy\npoints a b\n", unknown_zz, 2),
            # \f does not end a line
            ("space s\r\npoints a b\r\norder a < b\f< zz\r\n", unknown_zz, 3)):
        with pytest.raises(DslError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (f"line {line}: {fault}", line)
    with mock.patch.dict(os.environ, {"TOPOLAB_CAP": "max_points=2"}):
        with pytest.raises(ResourceCapError, match="a poset of 3 elements"):
            parse("space s\nopens {zz}\npoints a b c\nopens {} {a b c}\n")


def test_symbolic_line_after_a_body_line_is_refused(tmp_path, capsys):
    """An order or opens line before a symbolic line is refused at the
    symbolic line, as the same lines in the other order are refused."""
    for body, form in (("order a < b", "order"), ("opens {} {a}", "opens")):
        text = f"space s\n{body}\nsymbolic cofinite\n"
        message = f"line 3: symbolic spaces carry no {form} lines"
        with pytest.raises(DslError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (message, 3)
        doc = tmp_path / f"{form}.topo"
        doc.write_text(text)
        assert main(["info", str(doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_each_malformed_opens_line_names_its_fault_and_line():
    for text, fault, line in (
            ("space s\npoints a b\nopens {} {a {b}} {a b}\n", "nested brace group", 3),
            ("space s\npoints a b\n\nopens {} {a} } {a b}\n", "unbalanced '}'", 4),
            ("space s\npoints a b\nopens {} x {a b}\n", "label 'x' outside braces", 3),
            ("space s\npoints a b\nopens {}\nopens {a b} {b\n", "unbalanced '{'", 4),
            # the first fault in the line is named, and a line before the
            # points line is read as it is met
            ("space s\nopens {a} x {\npoints a b\n", "label 'x' outside braces", 2),
            ("space s\nopens {} {a} {b\nopens }\npoints a b\n", "unbalanced '{'", 2)):
        with pytest.raises(DslError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (f"line {line}: {fault}", line)


def token_scan_opens(rest, lineno):
    """A copy of the opens scanner that read one token at a time, kept as
    the reference for the scanner that reads one brace group per '}'."""
    groups = []
    group = None  # the labels of the group being read, or None between groups
    for token in rest.replace("{", " { ").replace("}", " } ").split():
        if token == "{":
            if group is not None:
                raise DslError("nested brace group", lineno)
            group = []
        elif token == "}":
            if group is None:
                raise DslError("unbalanced '}'", lineno)
            groups.append(group)
            group = None
        elif group is None:
            raise DslError(f"label {token!r} outside braces", lineno)
        else:
            group.append(token)
    if group is not None:
        raise DslError("unbalanced '{'", lineno)
    return groups


def _scan_outcome(scan, *args):
    try:
        return scan(*args)
    except (DslError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


# the pieces of an opens line: braces, the points a b c, unknown labels, blanks
_opens_pieces = st.sampled_from(["{", "}", "a", "b", "c", "zz", "q", " ", "\t", "  "])
_opens_groups = st.lists(st.sampled_from(["a", "b", "c", "zz"]), max_size=4).map(
    lambda labels: "{" + " ".join(labels) + "}")
_opens_lines = st.one_of(
    st.lists(_opens_pieces, max_size=14).map("".join),
    st.lists(st.one_of(_opens_groups, _opens_groups, _opens_pieces), max_size=8).map(" ".join),
    st.lists(_opens_groups, max_size=8).map(" ".join),
    st.just("{} {a b c}"))


@given(st.lists(_opens_lines, max_size=3), st.lists(_opens_lines, max_size=3))
@example(["{} {c}"], ["{b c} {a b c}"])
@example(["{} {zz} {a b c}"], ["{a} q {"])
@settings(max_examples=300, deadline=None)
def test_opens_scanner_matches_the_token_scanner(before, after):
    """Each line, and the whole document, with the opens lines before and
    after the points line, read the same as under the token scanner: the
    same label groups, or the same error and line."""
    for lineno, rest in enumerate(before + after, start=2):
        assert _scan_outcome(cli_io._scan_opens, rest, lineno) == \
            _scan_outcome(token_scan_opens, rest, lineno)
    text = "".join(["space s\n"] + [f"opens {r}\n" for r in before] + ["points a b c\n"]
                   + [f"opens {r}\n" for r in after])
    got = _scan_outcome(parse, text)
    with mock.patch.object(cli_io, "_scan_opens", token_scan_opens):
        assert got == _scan_outcome(parse, text)


def test_unknown_label_is_the_first_in_document_order(tmp_path):
    """Whatever the hash seed, the error names the first unknown label."""
    doc = tmp_path / "unknown.topo"
    doc.write_text("space s\npoints a b\nopens {} {a b} {b zz yy qq rr}\n")
    env = _python_m_topolab_env()
    for seed in range(1, 7):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run([sys.executable, "-m", "topolab", "info", str(doc)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: line 3: open mentions unknown point 'zz'\n", seed


def test_parse_render_round_trip_on_zoo():
    for name, space in zoo().items():
        assert parse(render(space)) == space, name


def topology_text(space):
    groups = " ".join("{" + " ".join(space.points[i] for i in range(space.n) if u >> i & 1)
                      + "}" for u in space.opens)
    return f"space t\npoints {' '.join(space.points)}\nopens {groups}\n"


@st.composite
def _order_documents(draw):
    """An order x, and an order-form document of a relation on its points
    with the relation's pairs: every cover of x, some pairs that others
    imply (reflexive ones too), and at times a few pairs at random, which
    may close a cycle.  The pairs come shuffled; a pair that starts where
    the last line ends may extend it into a chain such as `a < b < c`.
    The points line may come after order lines, among comments."""
    x = draw(orders())
    points = x.points
    implied = [(points[i], points[j]) for i in range(x.n) for j in range(x.n) if x.leq(i, j)]
    pairs = [(points[i], points[j]) for i, j in x.covers()]
    pairs += draw(st.lists(st.sampled_from(implied), max_size=4))
    pairs += draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                           max_size=draw(st.sampled_from((0, 2)))))
    pairs = draw(st.permutations(pairs))
    chains = []
    for a, b in pairs:
        if chains and chains[-1][-1] == a and draw(st.booleans()):
            chains[-1].append(b)
        else:
            chains.append([a, b])
    lines = [f"order {' < '.join(chain)}" + draw(st.sampled_from(("", "  # a < b")))
             for chain in chains]
    lines.insert(draw(st.integers(0, len(lines))), "points " + " ".join(points))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "# x < y"))))
    name = draw(st.sampled_from(("o", "poset")))
    return x, "\n".join([f"space {name}", *lines]) + "\n", pairs, name


def _built(build) -> tuple:
    """The space that build() returns with its labels and name, or the
    type and message of the ValidationError it raises."""
    try:
        space = build()
    except ValidationError as exc:
        return type(exc), str(exc)
    return space, space.points, space.name


@given(_order_documents())
@settings(max_examples=80, deadline=None)
def test_parse_render_round_trip_on_orders(case):
    """Order lines are read straight into the rows of the order: every
    document gives the space, or the cycle message, of from_poset."""
    x, text, pairs, name = case
    assert parse(render(x)) == x
    assert parse(topology_text(x)) == x
    assert _built(lambda: parse(text)) == _built(
        lambda: from_poset(x.points, pairs).renamed(name))


_POINT_LABELS = ("a", "b", "c", "d", "b<c")  # a label may hold '<'


@st.composite
def _mixed_order_documents(draw):
    """An order-form document as (text, text with each two-label line
    forced onto the chain path): two-label lines, chains, unknown labels,
    `a < a`, malformed order lines and comments, the points line anywhere
    (or missing), lines ended by \n or \r\n.  A two-label line
    `order a < b` is forced as `order a < b < b`, which links the same rows."""
    label = st.sampled_from(("a", "b", "c", "d") * 6 + ("b<c", "z"))  # z is no point
    gap = st.sampled_from(("", " ", "  ", "\t"))
    comment = st.sampled_from(("", " # c", "# a < z"))
    lines = []
    for kind in draw(st.lists(st.sampled_from(("pair",) * 9 + ("self", "chain", "note")
                                                    + ("bad",) * draw(st.integers(0, 1))),
                              max_size=8)):
        if kind in ("note", "bad"):
            text = draw(st.sampled_from(("# a < b", "", "  # z") if kind == "note" else (
                "order a <", "order < b", "order a", "order", "order a < # b", "order a << b")))
            lines.append((text, text))
            continue
        a = draw(label)
        chain = [a, a] if kind == "self" else [a] + draw(st.lists(
            label, min_size=1 if kind == "pair" else 2, max_size=1 if kind == "pair" else 3))
        g, tail = draw(gap), draw(comment)
        text = "order " + f"{g}<{g}".join(chain)
        forced = text + f"{g}<{g}{chain[-1]}" if len(chain) == 2 and "<" not in "".join(chain) \
            else text
        lines.append((text + tail, forced + tail))
    if draw(st.integers(0, 19)):
        points = draw(st.permutations(_POINT_LABELS))[:draw(st.integers(3, 5))]
        line = "points " + " ".join(points)
        lines.insert(draw(st.integers(0, len(lines))), (line, line))
    end = draw(st.sampled_from(("\n", "\r\n")))
    return tuple(end.join(["space s", *(pair[k] for pair in lines)]) + end for k in (0, 1))


@given(_mixed_order_documents())
@example(("space s\norder a < b\npoints a b\n", "space s\norder a < b < b\npoints a b\n"))
@example(("space s\npoints a b<c c\norder a < b<c\n",) * 2)
@example(("space s\npoints a b\norder a < z\norder z < q\n",
          "space s\npoints a b\norder a < z < z\norder z < q < q\n"))
@settings(max_examples=300, deadline=None)
def test_two_label_order_lines_parse_like_chains(case):
    """A two-label order line on known labels is linked in place; any
    document gives the space, or the error text and line, that it gives
    with every such line forced onto the chain path."""
    text, forced = case
    assert _built(lambda: parse(text)) == _built(lambda: parse(forced))


_JUNK = st.sampled_from(("space s\n", "space", "points", "order", "opens", "symbolic", "cofinite",
                         " ", "\t", "\n", "\r", "\r\n", "\f", "{", "}", "<", "#", "a", "b", "é"))


@given(st.one_of(st.text(), st.lists(_JUNK).map("".join)))
@example("space s\npoints a\nopens {} {a} }\n")
@settings(max_examples=300, deadline=None)
def test_parse_refuses_junk_only_with_document_errors(text):
    """Any text parses to a space or raises DslError, ValidationError or
    ResourceCapError: never another exception."""
    try:
        parse(text)
    except (DslError, ValidationError, ResourceCapError):
        pass


def test_render_topology_form_normalizes():
    space = parse("space x\npoints 0 1\nopens {} {1} {0 1}\n")
    assert parse(render(space)) == space


# one token of a document line: no whitespace; no '#' (a comment) and, in a
# label, no '<' (which splits an order line) and no brace (which delimits an
# opens group)
_dsl_chars = st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace())
_dsl_labels = st.text(_dsl_chars.filter(lambda c: c not in "#<{}"), min_size=1, max_size=4)


@st.composite
def _labelled_orders(draw):
    labels = draw(st.lists(_dsl_labels, min_size=1, max_size=6, unique=True))
    pairs = [(labels[i], labels[j]) for i, j in itertools.combinations(range(len(labels)), 2)
             if draw(st.booleans())]
    name = draw(st.one_of(st.text(_dsl_chars.filter(lambda c: c != "#"), max_size=4),
                          st.text(max_size=4)))
    return from_poset(labels, pairs).renamed(name)


@given(_labelled_orders())
@settings(max_examples=100, deadline=None)
def test_render_round_trips_every_label_a_document_can_hold(x):
    back = parse(render(x))
    assert back == x and back.points == x.points
    writable = x.name and not any(c.isspace() or c == "#" for c in x.name)
    assert back.name == (x.name if writable else "space")


def test_render_refuses_labels_a_document_cannot_hold():
    for points, pairs, bad in ((["a<b", "c"], [("a<b", "c")], "a<b"),
                               (["c", "a#b"], [], "a#b"),
                               (["c", "a b", "d\te"], [], "a b"),
                               (["b", "a{"], [("b", "a{")], "a{"),
                               (["}"], [], "}")):
        with pytest.raises(ValidationError, match=re.escape(repr(bad))):
            render(from_poset(points, pairs))
    # a name a document cannot hold is written as `space`, or as the variant
    for name in ("x#y", "x y", "x\ty", ""):
        assert render(from_poset(["a"], []).renamed(name)) == "space space\npoints a\n"
    assert render(SymbolicSpace(SymbolicVariant.COFINITE, name="my#w")) == \
        "space cofinite\nsymbolic cofinite\n"


# a step off the plain layout, at random: each reads line by line
_OFF_PLAIN = ("comment", "tab", "double space", "cr", "chain", "points late", "blank line",
              "brace label", "angle label", "two opens lines")


@st.composite
def _plain_layout_documents(draw):
    """A plain-layout document, or one a step off it, as (text, whether it
    is plain with distinct, known labels, so that _parse_plain must read
    it): the covers or the opens of an order under random labels.  Pairs
    may descend the points line and close cycles; a label may be repeated
    in the points line, or unknown (`zz`); groups may be `{}`, repeat a
    label, or leave the family short of a topology; the last newline may
    be missing."""
    x = draw(orders())
    labels = draw(st.lists(st.one_of(st.sampled_from(("a", "b", "order", "opens", "é")),
                                     _dsl_labels.filter(lambda t: t != "zz")),
                           min_size=x.n, max_size=x.n, unique=True))
    clean = True
    if x.n > 1 and not draw(st.integers(0, 9)):
        labels[-1], clean = labels[0], False
    known = st.sampled_from(labels)
    if draw(st.booleans()):
        pairs = [(labels[i], labels[j]) for i, j in x.covers()]
        pairs += draw(st.lists(st.tuples(known, known), max_size=draw(st.sampled_from((0, 2)))))
        body = [f"order {a} < {b}" for a, b in draw(st.permutations(pairs))]
    else:
        groups = [[labels[i] for i in bit_indices(u)] for u in x.opens]
        if draw(st.booleans()):
            groups.pop(draw(st.integers(0, len(groups) - 1)))
        groups += draw(st.lists(st.lists(known, max_size=4), max_size=2))  # may repeat a label
        body = ["opens " + " ".join("{" + " ".join(g) + "}" for g in draw(st.permutations(groups)))]
    if body and not draw(st.integers(0, 7)):
        k = draw(st.integers(0, len(body) - 1))
        body[k], clean = body[k].replace(draw(known), "zz", 1), False
    lines = ["space " + draw(st.sampled_from(("s", "order", "{x}"))), "points " + " ".join(labels),
             *body]
    off = draw(st.sampled_from((None,) * 8 + _OFF_PLAIN))
    k = draw(st.integers(1, len(lines) - 1))
    if off == "comment":
        lines[k] += " # a < b"
    elif off in ("tab", "double space"):
        lines[k] = lines[k].replace(" ", "\t" if off == "tab" else "  ", 1)
    elif off == "chain" and body and body[0].startswith("order"):
        lines[2] += " < " + draw(known)
    elif off == "points late" and body:
        lines[1], lines[2] = lines[2], lines[1]
    elif off == "blank line":
        lines.insert(k, "")
    elif off in ("brace label", "angle label"):
        lines[1] += " q{" if off == "brace label" else " q<r"
    elif off == "two opens lines" and body and body[0].startswith("opens"):
        lines.append("opens {}")
    text = "\n".join(lines) + draw(st.sampled_from(("\n", "")))
    if off == "cr":
        text = text.replace("\n", "\r\n")
    return text, clean and off is None


def _read(read, text) -> tuple:
    """What `read` makes of `text`: the space's points, rows and name, or
    the type, text and line of the document error it raises."""
    try:
        space = read(text)
    except (DslError, ValidationError, ResourceCapError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return space.points, space.up_masks, space.name


@given(_plain_layout_documents(), st.sampled_from((4, 12)))
@example(("space s\npoints a b c\norder b < c\norder a < b", True), 12)
@example(("space s\npoints a b\nopens {} {b} {b b} {a b}\n", True), 12)
@example(("space s\npoints a b\norder b < a\norder a < b\n", True), 12)
@example(("space s\npoints a b c d e\norder a < b\n", True), 4)
@settings(max_examples=300, deadline=None)
def test_plain_documents_read_whole_as_line_by_line(case, max_points):
    """The whole match gives every document the points, rows and name, or
    the error text and line, of the line parser alone, and it reads every
    plain document whose labels are distinct and known and whose carrier
    meets the cap."""
    text, plain = case
    with mock.patch.dict(os.environ, {"TOPOLAB_CAP": f"max_points={max_points}"}):
        want = _read(cli_io._parse_lines, text)
        assert _read(parse, text) == want
        if plain and len(text.split("\n")[1].split()) - 1 <= max_points:
            with mock.patch.object(cli_io, "_parse_lines", side_effect=AssertionError(text)):
                assert _read(parse, text) == want


# ---------------------------------------------------------------------------
# seeded randomness


def test_splitmix64_reference_vector():
    rng = SplitMix64(0)
    assert [rng.next_word() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_random_space_is_deterministic():
    a = random_space(12345, 5)
    b = random_space(12345, 5)
    assert a == b and a.points == b.points
    assert any(random_space(12345 + k, 5) != a for k in range(1, 6))


def test_random_space_one_point():
    assert random_space(1, 1).n == 1


def test_random_space_sweep_is_valid():
    for seed in range(25):
        space = random_space(seed, 5)
        assert space.n == 5  # construction validates the axioms


# ---------------------------------------------------------------------------
# JSON and DOT


def test_json_has_schema_version(sierpinski):
    doc = json.loads(render_json(sierpinski))
    assert doc["schema_version"] == "1"
    assert doc["points"] == ["bot", "top"]
    assert [set(u) for u in doc["opens"]] == [set(), {"top"}, {"bot", "top"}]


def test_json_for_reflection_and_report(vee):
    from topolab import CategoryTag, predicates, reflect

    r = reflect(vee, CategoryTag.SOBRIETY)
    doc = json.loads(render_json(r))
    assert doc["kind"] == "reflection"
    assert doc["embedding"]["t"] == "{a,b,t}"
    rep = json.loads(render_json(predicates(vee)))
    assert rep["flags"]["sober"] is True


def test_json_for_symbolic(sierpinski):
    doc = json.loads(render_json(zoo_space("cofinite")))
    assert doc["variant"] == "cofinite"
    with pytest.raises(ValidationError):
        to_jsonable(object())


def _stdlib_json(value) -> str:
    """The indented text the JSON outputs have always had."""
    return json.dumps(value, indent=2, ensure_ascii=False, sort_keys=True)


_ODD_LABELS = ['q"', "b\\", "é", "☃", "𝒳", "tab\t", "/", "\u2028"]


def _odd_labels(n: int) -> list[str]:
    """n labels, the first ones of which JSON escapes."""
    return [_ODD_LABELS[i] if i < len(_ODD_LABELS) else f"p{i}" for i in range(n)]


def _label_lists(labels, masks) -> list[list[str]]:
    return [[p for i, p in enumerate(labels) if m >> i & 1] for m in masks]


@st.composite
def _mask_documents(draw):
    """A document of one to three mask-list leaves, each (points, masks),
    on carriers of one to four label blocks, at depths 1 to 3, and the same
    document with each leaf written out as plain label lists."""
    doc, plain = {}, {}
    for key in "abc"[:draw(st.integers(1, 3))]:
        n = draw(st.sampled_from((1, 6, 7, 12, 13, 19)))
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
        leaf, lists = (tuple(_odd_labels(n)), tuple(masks)), _label_lists(_odd_labels(n), masks)
        for _ in range(draw(st.integers(0, 2))):
            leaf, lists = {"in": leaf}, {"in": lists}
        doc[key], plain[key] = leaf, lists
    return doc, plain


def _dump_mask_document(doc) -> str:
    """The text of `doc` with each (points, masks) leaf written by
    _dump_mask_lists at its depth, all leaves sharing one table store."""
    leaves, tables = {}, {}

    def mark(value, depth):
        if isinstance(value, dict):
            return {k: mark(v, depth + 1) for k, v in value.items()}
        leaves[f"@leaf{len(leaves)}@"] = value, "\n" + "  " * depth
        return f"@leaf{len(leaves) - 1}@"

    text = _dump_json(mark(doc, 0))
    for mark_text, ((points, masks), indent) in leaves.items():
        text = text.replace(json.dumps(mark_text),
                            cli_io._dump_mask_lists(points, masks, indent, tables))
    return text


@given(_mask_documents())
@settings(max_examples=150, deadline=None)
@example(({"a": (("x",), (0, 1))}, {"a": [[], ["x"]]}))  # the empty open
@example(({"a": (("x",), ())}, {"a": []}))  # no members
@example(({"a": (("x", "y"), (3,)),  # one carrier at two depths
           "b": {"in": (("x", "y"), (1,))}},
          {"a": [["x", "y"]], "b": {"in": [["x"]]}}))
@example(({"a": (("x", "y"), (1, 3)),  # one list at two depths
           "b": {"in": (("x", "y"), (1, 3))}},
          {"a": [["x"], ["x", "y"]], "b": {"in": [["x"], ["x", "y"]]}}))
def test_mask_lists_are_written_as_the_labels_of_their_set_bits(case):
    """_dump_mask_lists writes each mask as the labels of its set bits,
    lowest bit first, in the stdlib's text at any depth, with leaves on one
    carrier sharing their label tables."""
    doc, plain = case
    assert _dump_mask_document(doc) == _stdlib_json(plain)


def test_mask_lists_are_not_plain_json():
    """Masks are never written as JSON numbers: to_jsonable gives a space's
    opens as label lists, and at the top of a text _dump_mask_lists writes
    them as at any other depth."""
    x = from_poset(_odd_labels(13), [], Caps(max_points=13))
    masks = (0, 1, 1 << 12, (1 << 13) - 1, 0b1000001000001)
    assert to_jsonable(x)["opens"] == _label_lists(x.points, x.opens)
    assert json.dumps(to_jsonable(x)) == json.dumps(json.loads(render_json(x)))
    assert cli_io._dump_mask_lists(x.points, masks, "\n", {}) \
        == _stdlib_json(_label_lists(x.points, masks))


@st.composite
def _odd_orders(draw):
    """Orders on carriers of one, two and three label blocks (1, 6, 7, 12
    and 13 points) with labels that JSON escapes, and with labels that no
    space document can hold; pairs i < j are edges with probability 1/2."""
    n = draw(st.sampled_from((1, 6, 7, 12, 13)))
    labels = _odd_labels(n)
    pairs = [(labels[i], labels[j]) for i, j in itertools.combinations(range(n), 2)
             if draw(st.booleans())]
    return from_poset(labels, pairs, Caps(max_points=13))


def _cli_json(argv, x) -> str:
    """The output of `main(argv + ["--json"])` with SPACE read as `x`."""
    out = io.StringIO()
    with mock.patch.object(cli_io, "_load_space", lambda spec: x), \
            contextlib.redirect_stdout(out):
        assert main(argv + ["--json"]) == 0, argv
    return out.getvalue()


@given(st.one_of(orders(), wide_orders(), _odd_orders()), st.sampled_from(("sob", "d", "wf")))
@settings(max_examples=60, deadline=None)
@example(from_poset(["x"], []), "sob")
@example(from_poset(_odd_labels(13), [], Caps(max_points=13)), "wf")  # 8,192 opens
def test_json_answers_list_the_labels_of_their_masks(x, category):
    """`info`, `families` and `reflect --json` print the stdlib's indented
    text of their document, and every open and member list in it, at every
    depth, is the labels of its mask, lowest bit first.  to_jsonable gives
    the same document as plain JSON."""
    from topolab import directed_closures, irreducible_closed, k_family, reflect, rudin_sets
    from topolab.families import ALL_CATEGORIES, CategoryTag

    with mock.patch.dict(os.environ, {"TOPOLAB_CAP": "max_points=13"}):
        info, fams, refl = (_cli_json(argv, x) for argv in (
            ["info", "X"], ["families", "X"], ["reflect", "X", "--category", category]))
        r = reflect(x, CategoryTag(category))
        expected = {"S_c": point_closures(x), "D_c": directed_closures(x),
                    "RD": rudin_sets(x).family, "Irr_c": irreducible_closed(x)}
        expected.update((c.family_label, k_family(x, c)) for c in ALL_CATEGORIES)
    for text in (info, fams, refl):
        assert text == _stdlib_json(json.loads(text)) + "\n"
    info, fams, refl = map(json.loads, (info, fams, refl))
    assert info["opens"] == _label_lists(x.points, x.opens)
    assert info == to_jsonable(x) and json.loads(json.dumps(to_jsonable(x))) == info
    assert fams["families"].keys() == expected.keys()
    for key, fam in expected.items():
        assert fams["families"][key]["members"] == _label_lists(x.points, fam.members), key
        assert fams["families"][key] == to_jsonable(fam), key
    assert refl["base"] == info
    assert refl["family"]["members"] == _label_lists(x.points, r.family.members)
    assert refl["space"]["opens"] == _label_lists(r.space.points, r.space.opens)
    assert refl["embedding"] == {p: r.embedding(p) for p in x.points}
    assert refl == to_jsonable(r)


def test_json_of_spaces_past_two_label_blocks(monkeypatch):
    """Opens and members on carriers of 13 to 18 points (three label
    blocks) with labels that JSON escapes, at the depths at which `info`,
    `reflect` and `families` print them: the labels are those of the set
    bits, and the text is the stdlib's."""
    monkeypatch.setenv("TOPOLAB_CAP", "max_points=18")
    from topolab import CategoryTag, irreducible_closed, reflect

    for n in (13, 18):
        labels = _odd_labels(n)
        # disjoint 2- and 3-chains keep the lattice a few thousand opens
        pairs = [(labels[i], labels[i + 1]) for i in range(0, n - 1) if i % 3 != 2]
        x = from_poset(labels, pairs).renamed(f"odd{n}")
        fam = irreducible_closed(x)
        r = reflect(x, CategoryTag.SOBRIETY)
        texts = [render_json(x), render_json(r),
                 _dump_json({"families": {"Irr_c": to_jsonable(fam)}})]
        for text in texts:
            assert text == _stdlib_json(json.loads(text))
        info, refl, fams = map(json.loads, texts)
        assert info["opens"] == _label_lists(labels, x.opens)
        assert refl["base"] == info
        assert refl["family"]["members"] == _label_lists(labels, r.family.members)
        assert refl["space"]["opens"] == _label_lists(r.space.points, r.space.opens)
        assert fams["families"]["Irr_c"]["members"] == _label_lists(labels, fam.members)


def _golden_argvs(spec: str, symbolic: bool) -> list[list[str]]:
    argvs = [["info", spec], ["families", spec]]
    argvs += [["reflect", spec, "--category", c] for c in ("sob", "d", "wf")]
    argvs += [["check", spec, "--property", p] for p in ("sober", "compact")]
    if not symbolic:
        argvs.append(["product", spec, "zoo:sierpinski"])
    return argvs


def test_cli_json_outputs_keep_the_stdlib_text(tmp_path, monkeypatch, capsys):
    """Every indented --json output, on the zoo and two generated wide
    spaces, is the stdlib's indented text of the document it prints."""
    monkeypatch.setenv("TOPOLAB_CAP", "16")  # the products of the wide spaces
    labels = [f"p{i}" for i in range(8)]
    antichain = tmp_path / "antichain.topo"
    antichain.write_text(f"space é-antichain\npoints {' '.join(labels[:7])}\n", encoding="utf-8")
    sparse = tmp_path / "sparse.topo"  # four disjoint 2-chains: 81 opens
    sparse.write_text(f"space sparse\npoints {' '.join(labels)}\n"
                      + "".join(f"order p{i} < p{i + 4}\n" for i in range(4)))
    argvs = [["verify", "--samples", "20"]]
    for name, space in sorted(zoo().items()):
        argvs += _golden_argvs(f"zoo:{name}", isinstance(space, SymbolicSpace))
    for doc in (antichain, sparse):
        argvs += _golden_argvs(str(doc), False)
    for argv in argvs:
        assert main(argv + ["--json"]) == 0, argv
        out = capsys.readouterr().out
        assert out == _stdlib_json(json.loads(out)) + "\n", argv


def test_dot_sierpinski(sierpinski):
    dot = render_dot(sierpinski)
    nodes = [line for line in dot.splitlines()
             if line.strip().endswith('";') and "->" not in line]
    assert len(nodes) == 2
    assert dot.count("->") == 1


def test_dot_reflection_labels(vee):
    from topolab import CategoryTag, reflect

    dot = render_dot(reflect(vee, CategoryTag.SOBRIETY))
    assert '"{a,b,t}"' in dot


def test_dot_symbolic_has_ellipsis_and_generic_point():
    from topolab import CategoryTag, sym_reflect

    dot = render_dot(zoo_space("omega_chain"))
    assert '"..."' in dot and "->" in dot
    r = sym_reflect(zoo_space("cofinite"), CategoryTag.WELL_FILTERED)
    dot = render_dot(r)
    assert "⊛" in dot


# ---------------------------------------------------------------------------
# verify


def test_verify_small_config_passes():
    report = verify(VerifyConfig(samples=10))
    assert report.ok
    assert report.exit_code == 0
    names = [s.name for s in report.suites]
    assert "finite_collapse" in names and "transfer" in names


def test_verify_mutation_mode_fails():
    report = verify(VerifyConfig(samples=10, mutate=True))
    assert not report.ok
    assert report.exit_code == 1


def test_product_theorems_count_the_gamma_cross_checks_they_skip():
    res = suite_product_theorems(VerifyConfig(samples=10, caps=Caps(max_iso_points=1)))
    notes = [n for n in res.notes if "homeomorphism cross-check" in n]
    assert len(notes) == 2 * 3  # two pairs, three categories, all above one point
    assert all(n.startswith("skipped: ") and n.endswith("exceed max_iso_points 1")
               for n in notes)
    assert res.skipped >= len(notes) and res.failed == 0


def test_verify_config_validation():
    with pytest.raises(ValidationError):
        VerifyConfig(samples=0)
    with pytest.raises(ValidationError) as exc:
        VerifyConfig(max_points=13)
    assert str(exc.value) == \
        "max_points 13 exceeds the point cap 12; TOPOLAB_CAP=max_points=13 lifts it"
    for bad in (0, -1):
        with pytest.raises(ValidationError) as exc:
            VerifyConfig(max_points=bad)
        assert str(exc.value) == "max_points must be positive"


def test_cap_env_override(monkeypatch):
    from topolab.caps import default_caps

    monkeypatch.setenv("TOPOLAB_CAP", "15")
    assert default_caps() == Caps(max_points=15)
    assert default_caps() is default_caps()  # parsed once per value
    monkeypatch.setenv("TOPOLAB_CAP", "max_opens=64,max_points=9")
    caps = default_caps()
    assert caps.max_opens == 64 and caps.max_points == 9
    for bad in ("bogus=1", "max_hyper_base_points=3"):
        monkeypatch.setenv("TOPOLAB_CAP", bad)
        for _ in range(2):  # a bad value is refused at every call
            with pytest.raises(ValidationError, match="unknown cap"):
                default_caps()
    monkeypatch.setenv("TOPOLAB_CAP", "15")
    assert default_caps().max_points == 15
    monkeypatch.delenv("TOPOLAB_CAP")
    assert default_caps().max_points == 12


def test_cap_errors_name_the_field_the_value_and_the_setting(monkeypatch):
    chain13 = ([f"p{i}" for i in range(13)], [(f"p{i}", f"p{i + 1}") for i in range(12)])
    vee = zoo_space("vee")
    zigzag = from_poset([f"p{i}" for i in range(6)],
                        [("p0", "p1"), ("p2", "p1"), ("p2", "p3"), ("p4", "p3"), ("p4", "p5")])
    sites = [
        (lambda: random_space(1, 13), "max_points 12; TOPOLAB_CAP=max_points=13 "),
        (lambda: from_poset(*chain13), "max_points 12; TOPOLAB_CAP=max_points=13 "),
        (lambda: product([vee, vee, vee]), "max_points 12; TOPOLAB_CAP=max_points=27 "),
        (lambda: enumerate_continuous_maps(vee, vee, Caps(max_maps=26)),
         "max_maps 26; TOPOLAB_CAP=max_maps=27 "),
        (lambda: find_homeomorphism(vee, vee, Caps(max_iso_points=2)),
         "max_iso_points 2; TOPOLAB_CAP=max_iso_points=3 "),
        (lambda: oracles.diamond_lattice(point_closures(vee), Caps(max_opens=3)),
         "max_opens 3; TOPOLAB_CAP=max_opens=N with N > 3 "),
    ]
    for call, message in sites:
        with pytest.raises(ResourceCapError, match=re.escape(message) + "lifts it$"):
            call()
    monkeypatch.setenv("TOPOLAB_CAP", "max_opens=2")  # the count's memo takes 3
    for view in ("opens", "open_count"):
        with pytest.raises(ResourceCapError, match=re.escape(
                "exceeds max_opens 2; TOPOLAB_CAP=max_opens=N with N > 2 lifts it")):
            getattr(zigzag, view)


# ---------------------------------------------------------------------------
# the CLI


def test_cli_info_and_exit_codes(tmp_path, capsys):
    doc = tmp_path / "s.topo"
    doc.write_text("space s\npoints a b\norder a < b\n")
    assert main(["info", str(doc)]) == 0
    out = capsys.readouterr().out
    assert "2 points" in out

    assert main(["check", str(doc), "--property", "sober"]) == 0
    assert main(["check", str(doc), "--property", "nonsense"]) == 2
    capsys.readouterr()
    missing = str(tmp_path / "missing.topo")
    assert main(["info", missing]) == 2
    assert capsys.readouterr().err == f"error: cannot read {missing!r}: No such file or directory\n"

    bad = tmp_path / "bad.topo"
    bad.write_text("space b\npoints a b\nopens {} {a}\n")
    assert main(["info", str(bad)]) == 2

    capsys.readouterr()
    latin1 = tmp_path / "latin1.topo"
    latin1.write_bytes(b"space x\npoints a\xff b\n")
    assert main(["info", str(latin1)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(latin1)!r}: byte 16 is not UTF-8\n"
    assert main(["info", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(tmp_path)!r}: Is a directory\n"


def test_cli_reads_a_document_longer_than_one_read(tmp_path, capsys):
    """The reader reads to the end of the file, past its 64 KiB reads, and
    names a byte that is not UTF-8 by its offset in the whole file."""
    data = ("space long\npoints a b c\n" + "# padding\n" * 8000
            + "order a < b\norder b < c\n").encode()
    assert len(data) > 1 << 16
    doc = tmp_path / "long.topo"
    doc.write_bytes(data)
    got, want = cli_io._load_space(str(doc)), parse(doc.read_text())
    assert (got, got.name) == (want, want.name) and got.leq(0, 2)
    doc.write_bytes(data + b"# \xff\n")
    assert main(["info", str(doc)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot read {str(doc)!r}: byte {len(data) + 2} is not UTF-8\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_cli_reading_a_directory_leaves_no_descriptor_open(tmp_path, capsys):
    """A directory opens and fails at its first read: its descriptor is
    closed all the same."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        assert main(["info", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(tmp_path)!r}: Is a directory\n" * 3
    assert len(os.listdir("/proc/self/fd")) == before


def test_cli_repeated_labels_fail_alike_in_order_and_opens_bodies(tmp_path, capsys):
    doc = tmp_path / "dup.topo"
    for body in ("order a < b", "opens {} {b} {a b}"):
        doc.write_text(f"space dup\npoints a a b\n{body}\n")
        assert main(["info", str(doc)]) == 2
        assert capsys.readouterr().err == "error: point labels must be distinct\n"


def test_cli_cap_exit_code(tmp_path, capsys):
    """One carrier cap for both body forms, checked once the body is read:
    before an unknown label is reported, the order is closed or the opens
    are validated."""
    doc = tmp_path / "big.topo"
    labels = [f"p{i}" for i in range(14)]
    chain = from_poset(labels, zip(labels, labels[1:]), Caps(max_points=14))
    refused = ("resource cap: a poset of 14 elements exceeds max_points 12; "
               "TOPOLAB_CAP=max_points=14 lifts it\n")
    for text in (f"space big\npoints {' '.join(labels)}\n", render(chain), topology_text(chain),
                 f"space big\norder p0 < zz\norder p1 < p0 < p1\npoints {' '.join(labels)}\n",
                 f"space big\nopens {{p0}} {{zz}}\npoints {' '.join(labels)}\n"):
        doc.write_text(text)
        assert main(["info", str(doc)]) == 3, text
        assert capsys.readouterr().err == refused
    with pytest.raises(ResourceCapError, match="a poset of 14 elements"):
        parse(topology_text(chain))


def test_unknown_order_label_names_its_line(tmp_path, capsys):
    """The first label of no point in document order is reported with its
    line, an order line above the points line included, after the whole
    document is read: a later malformed line is reported first."""
    for text, label, line in (
            ("space s\npoints a b\norder a < c\n", "c", 3),
            ("space s\npoints a b\norder a < qq < b < rr\norder zz < a\n", "qq", 3),
            ("space s\norder b < a\n# x\norder a < zz\npoints a b\norder yy < b\n", "zz", 4),
            ("space s\norder a < zz\norder yy < b\npoints a b\n", "zz", 2),
            ("space s\npoints a b\n\norder a < b\norder b < a\norder zz < a\n", "zz", 6)):
        with pytest.raises(DslError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (
            f"line {line}: order mentions unknown element {label!r}", line)
    with pytest.raises(DslError) as err:
        parse("space s\norder a < zz\npoints a b\norder a <\n")
    assert (str(err.value), err.value.line) == ("line 4: expected 'order a < b'", 4)
    doc = tmp_path / "unknown.topo"
    doc.write_text("space s\npoints a b\norder a < c\n")
    assert main(["info", str(doc)]) == 2
    assert capsys.readouterr().err == "error: line 3: order mentions unknown element 'c'\n"


def test_cli_bad_cap_override_is_an_input_error(monkeypatch, capsys):
    for bad in ("bogus=1", "max_hyper_base_points=7", "max_points=x", "0", "max_opens=0"):
        monkeypatch.setenv("TOPOLAB_CAP", bad)
        assert main(["info", "zoo:vee"]) == 2
        assert capsys.readouterr().err.startswith("error: TOPOLAB_CAP: ")


def test_cli_long_chain_needs_no_deep_recursion(tmp_path, monkeypatch, capsys):
    """The open count (`info`, `reflect`) and the open listing (validation
    and the `opens` view) of a chain longer than the interpreter's recursion
    limit all answer."""
    monkeypatch.setenv("TOPOLAB_CAP", "max_points=1000")
    labels = [f"c{i}" for i in range(1000)]
    doc = tmp_path / "chain.topo"
    doc.write_text(f"space chain\npoints {' '.join(labels)}\norder {' < '.join(labels)}\n")
    assert main(["info", str(doc)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("space chain: 1000 points, 1001 opens, 1001 closed sets\n")
    assert main(["reflect", "--category", "sob", str(doc)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("sob-reflection of chain: 1000 points, 1001 opens\n")
    assert "Traceback" not in err
    full = (1 << 1000) - 1
    chain = FiniteSpace(labels, [full & ~((1 << k) - 1) for k in range(1001)], "chain")
    assert FiniteSpace._of_order(labels, chain.up_masks).opens == chain.opens


def test_cli_wide_spaces_list_no_lattice_they_do_not_print(tmp_path, monkeypatch, capsys):
    """Past the old hyperspace cap, only commands that print or walk the open
    lattice meet max_opens; the plain open counts are counted, not listed."""
    monkeypatch.setenv("TOPOLAB_CAP", "64")
    labels = [f"p{i}" for i in range(64)]
    chain = tmp_path / "chain.topo"
    chain.write_text(f"space chain\npoints {' '.join(labels)}\norder {' < '.join(labels)}\n")
    antichain = tmp_path / "antichain.topo"
    antichain.write_text(f"space antichain\npoints {' '.join(labels[:20])}\n")
    for argv in (["info"], ["families"], ["reflect", "--category", "wf"],
                 ["check", "--property", "sober"]):
        assert main([argv[0], str(chain)] + argv[1:]) == 0, argv
    assert "64 points, 65 opens" in capsys.readouterr().out
    for argv in (["families"], ["check", "--property", "sober"]):
        assert main([argv[0], str(antichain)] + argv[1:]) == 0, argv
    capsys.readouterr()
    assert main(["info", str(antichain)]) == 0
    assert "20 points, 1048576 opens, 1048576 closed sets" in capsys.readouterr().out
    assert main(["reflect", str(antichain), "--category", "wf"]) == 0
    assert "wf-reflection of antichain: 20 points, 1048576 opens" in capsys.readouterr().out
    half = tmp_path / "half.topo"
    half.write_text(f"space half\npoints {' '.join(labels[:10])}\n")
    assert main(["product", "zoo:discrete2", str(half)]) == 0
    assert "20 points, 1048576 opens, 1048576 closed sets" in capsys.readouterr().out
    for argv in (["info"], ["reflect", "--category", "wf"]):
        assert main([argv[0], str(antichain), "--json"] + argv[1:]) == 3, argv
        assert "exceeds max_opens 131072" in capsys.readouterr().err


def test_machine_output_builds_no_plain_text(monkeypatch, capsys):
    """--json and --dot print no summary, so they count no opens, and --json
    lists no covers (a DOT diagram is drawn from them)."""
    def refuse(self):
        raise AssertionError("plain text built for machine output")

    covers = FiniteSpace.covers
    with monkeypatch.context() as patch:
        patch.setattr(FiniteSpace, "open_count", property(refuse))
        patch.setattr(FiniteSpace, "covers", refuse)
        for argv in (["info", "zoo:vee"], ["reflect", "zoo:vee", "--category", "wf"],
                     ["product", "zoo:vee", "zoo:sierpinski"], ["zoo", "diamond"]):
            assert main(argv + ["--json"]) == 0, argv
        patch.setattr(FiniteSpace, "covers", covers)
        assert main(["reflect", "zoo:vee", "--category", "wf", "--dot"]) == 0
        capsys.readouterr()
        with pytest.raises(AssertionError, match="plain text"):
            main(["info", "zoo:vee"])
    assert main(["info", "zoo:vee"]) == 0
    assert "3 points, 5 opens, 5 closed sets" in capsys.readouterr().out
    assert main(["reflect", "zoo:vee", "--category", "wf"]) == 0
    assert "wf-reflection of vee: 3 points, 5 opens" in capsys.readouterr().out


def test_cli_builds_its_parser_once(capsys):
    assert build_parser() is build_parser()
    assert main(["info", "zoo:vee", "--json"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["reflect", "zoo:vee", "--category", "nonsense"])
    capsys.readouterr()
    assert main(["info", "zoo:vee", "--json"]) == 0
    assert capsys.readouterr().out == first


def _cli_outcome(capsys, argv) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--he"], ["info", "-h"], ["infoo", "zoo:vee"], ["-x", "info", "zoo:vee"],
    ["info", "zoo:vee", "--bogus"], ["info", "zoo:vee", "--js"],
    ["reflect", "zoo:vee", "--category=wf"], ["reflect", "--category", "sob", "--json", "zoo:vee"],
    ["info", "--", "zoo:vee"], ["--", "info", "zoo:vee"], ["families", "zoo:vee", "--", "--json"],
    ["reflect", "zoo:vee"], ["reflect", "zoo:vee", "--category", "x"], ["info", "zoo:vee", "extra"],
    ["verify", "--samples", "x"], ["zoo", "vee", "--r"], ["check", "--property=sober", "zoo:vee"],
])
def test_cli_dispatch_parses_like_the_top_level_parser(argv, monkeypatch, capsys):
    """main hands the arguments after a command name to that command's
    parser; the parsed arguments, the exit code, the output and the error
    text are those of build_parser().parse_args."""
    dispatched = _cli_outcome(capsys, argv)
    try:
        args = cli_io._parse_args(argv)
    except SystemExit:  # help or a usage error: its output is compared below
        capsys.readouterr()
    else:
        assert args == build_parser().parse_args(argv)
    monkeypatch.setattr(cli_io, "_parse_args", lambda argv: build_parser().parse_args(argv))
    assert dispatched == _cli_outcome(capsys, argv)


_COMMAND_NAMES = ("info", "families", "reflect", "product", "check", "zoo", "verify")
_ARGV_TOKENS = _COMMAND_NAMES + (
    "--json", "--dot", "--category", "--property", "--render", "--seed", "--samples",
    "--max-points", "--categories", "--mutate", "--help",  # every option string
    "--cat", "--js", "--prop", "--d", "--category=wf", "--property=sober", "--json=1",
    "--", "-h", "-", "", "-1", "zoo:vee", "zoo:sierpinski", "sob", "d", "wf", "x", "sober", "3")


@st.composite
def _query_argvs(draw):
    """A command on one SPACE, then its SPACE and options in any order: the
    SPACE and each option may be left out or repeated, a value may be any
    token, and now and then a token drawn at random is put in."""
    command = draw(st.sampled_from(("info", "families", "reflect", "check")))
    mostly_once = st.sampled_from((1, 1, 1, 1, 1, 0, 2))
    units = [["zoo:vee"]] * draw(mostly_once)
    for flag in ("--json", "--dot"):
        units += [[flag]] * draw(st.integers(0, 2))
    option = {"reflect": ("--category", ("sob", "d", "wf")),
              "check": ("--property", ("sober", "compact"))}.get(command)
    if option is not None:
        flag, choices = option
        value = st.one_of(st.sampled_from(choices), st.sampled_from(_ARGV_TOKENS))
        units += [[flag, draw(value)] for _ in range(draw(mostly_once))]
    argv = [command] + [token for unit in draw(st.permutations(units)) for token in unit]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_ARGV_TOKENS)))
    return argv


def _parsed(parse_args, argv) -> tuple:
    """The Namespace, or the exit code, of parse_args(argv), and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@given(st.one_of(_query_argvs(),
                 st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6),
                 st.builds(lambda command, rest: [command, *rest], st.sampled_from(_COMMAND_NAMES),
                           st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6))))
@example(["reflect", "zoo:vee", "--category", "sob", "--category", "x"])
@example(["check", "zoo:vee", "--json", "--json"])
@example(["check", "zoo:vee", "--property"])
@example(["info", ""])
@example(["info", "-h"])
@example(["check", "zoo:vee", "--property", "--js"])
@example(["families", "-x", "zoo:vee"])
@settings(max_examples=300, deadline=None)
def test_argv_tables_read_argv_like_argparse(argv):
    """_parse_args, which reads a command on one SPACE from its argv table
    when it can, returns the Namespace, exit code and output of
    build_parser().parse_args on every argv."""
    assert _parsed(cli_io._parse_args, argv) == _parsed(build_parser().parse_args, argv)


def test_canonical_queries_do_not_reach_argparse(monkeypatch, capsys):
    """A query whose tokens are exact option strings, their values and one
    SPACE is read from its command's argv table alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a canonical query")

    build_parser()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in (["info", "zoo:vee"], ["info", "--dot", "zoo:vee", "--json"],
                 ["families", "zoo:vee", "--json"], ["families", "zoo:cofinite"],
                 ["reflect", "zoo:vee", "--category", "wf"],
                 ["reflect", "--category", "d", "--category", "sob", "zoo:vee", "--dot"],
                 ["check", "zoo:vee", "--property", "sober", "--json"],
                 ["check", "--property", "compact", "zoo:omega_chain"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    with pytest.raises(AssertionError, match="argparse read"):
        main(["info", "zoo:vee", "--js"])


def test_families_renders_its_member_list_once_per_answer(monkeypatch, capsys):
    """The seven finite families are one list of point closures: plain
    output renders each member once, --json writes the list once, and
    neither keeps anything for the next call."""
    space = zoo_space("diamond")
    rendered = []
    render_subset = FiniteSpace.render_subset
    monkeypatch.setattr(FiniteSpace, "render_subset",
                        lambda self, mask: rendered.append(mask) or render_subset(self, mask))
    passes = []
    dump_mask_lists = cli_io._dump_mask_lists
    monkeypatch.setattr(cli_io, "_dump_mask_lists",
                        lambda *args: passes.append(args[0]) or dump_mask_lists(*args))
    for _ in range(2):
        rendered.clear()
        assert main(["families", "zoo:diamond"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(rendered) == sorted(space.down_masks)
        assert len(lines) == 7 and len({line[8:] for line in lines}) == 1
        passes.clear()
        assert main(["families", "zoo:diamond", "--json"]) == 0
        families = json.loads(capsys.readouterr().out)["families"]
        assert len(passes) == 1 and len(families) == 7
        assert len({json.dumps(f["members"]) for f in families.values()}) == 1


def _python_m_topolab_env() -> dict[str, str]:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "TOPOLAB_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_python_m_topolab_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "topolab", "zoo"],
                          env=_python_m_topolab_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "sierpinski" in proc.stdout.split()


def test_cli_closed_stdout_exits_quietly():
    """A reader that closed the pipe gets no traceback on standard error and
    an input/output error code, not the code of a mathematical violation."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "topolab", "zoo"],
                              env=_python_m_topolab_env(), stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 2


def test_cli_zoo_reflect_product_families(capsys):
    assert main(["zoo"]) == 0
    assert "sierpinski" in capsys.readouterr().out
    assert main(["zoo", "vee", "--dot"]) == 0
    assert "->" in capsys.readouterr().out
    assert main(["reflect", "zoo:cofinite", "--category", "wf"]) == 0
    assert "cofinite_plus_top" in capsys.readouterr().out
    assert main(["product", "zoo:sierpinski", "zoo:sierpinski"]) == 0
    assert "4 points" in capsys.readouterr().out
    assert main(["families", "zoo:vee"]) == 0
    assert "Irr_c" in capsys.readouterr().out
    # `product` builds finite products only, and names what tests the others
    assert main(["product", "zoo:cofinite", "zoo:vee"]) == 2
    assert capsys.readouterr().err == (
        "error: the product command takes finite spaces; symbolic products are "
        "tested by verify's product_theorems suite and by check_kspace_product\n")


def test_category_and_variant_names_reach_the_user_unchanged(capsys):
    """The names a user types for a category or a symbolic variant, and the
    errors that list them."""
    reflect_table = build_parser().argv_tables["reflect"]
    assert reflect_table.options["--category"].choices == ["d", "sob", "wf"]
    assert main(["verify", "--categories", "sob,x"]) == 2
    assert capsys.readouterr().err == "error: unknown category 'x'; use sob, d, wf\n"
    with pytest.raises(DslError) as err:
        parse("space s\n# no such variant\nsymbolic nope\n")
    assert (str(err.value), err.value.line) == (
        "line 3: expected 'symbolic VARIANT' with VARIANT one of cofinite, "
        "cofinite_plus_top, omega_chain, omega_plus_one", 3)


def test_cli_symbolic_families_json_matches_plain(capsys):
    assert main(["families", "zoo:cofinite"]) == 0
    plain = {}
    for line in capsys.readouterr().out.splitlines():
        label, rest = line.split(None, 1)
        plain[label] = rest.endswith("+ carrier")
    assert main(["families", "zoo:cofinite", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    flags = {label: fam["includes_carrier"] for label, fam in doc["families"].items()}
    assert len(plain) == 7
    assert flags == plain


def test_cli_json_outputs_are_parseable(capsys):
    assert main(["reflect", "zoo:vee", "--category", "sob", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "reflection"
    assert main(["check", "zoo:omega_chain", "--property", "sober", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] is False


def test_cli_verify(capsys):
    assert main(["verify", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "finite_collapse" in out and "all suites passed" in out
    assert main(["verify", "--samples", "5", "--mutate"]) == 1
    capsys.readouterr()
    assert main(["verify", "--samples", "5", "--categories", "sob", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
