"""The space DSL, exporters, seeded generation, the verify runner, and the CLI."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from topolab.caps import Caps
from topolab.cli_io import _dump_json, build_parser, main, suite_product_theorems, to_jsonable
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


def test_parse_render_round_trip_on_zoo():
    for name, space in zoo().items():
        assert parse(render(space)) == space, name


def topology_text(space):
    groups = " ".join("{" + " ".join(space.points[i] for i in range(space.n) if u >> i & 1)
                      + "}" for u in space.opens)
    return f"space t\npoints {' '.join(space.points)}\nopens {groups}\n"


@given(orders())
@settings(max_examples=40, deadline=None)
def test_parse_render_round_trip_on_orders(x):
    assert parse(render(x)) == x
    assert parse(topology_text(x)) == x


def test_render_topology_form_normalizes():
    space = parse("space x\npoints 0 1\nopens {} {1} {0 1}\n")
    assert parse(render(space)) == space


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


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


def _stdlib_json(value) -> str:
    """The indented text the JSON outputs have always had."""
    return json.dumps(value, indent=2, ensure_ascii=False, sort_keys=True)


_json_text = st.text(st.one_of(
    st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001d4b3')),
    max_size=8)
_json_strings = st.one_of(_json_text, _json_text.map(_Str))
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _json_strings)
_json_values = st.recursive(_json_scalars, lambda children: st.one_of(
    st.lists(_json_strings),  # the writer's one-join path
    st.lists(children),
    st.lists(children).map(tuple),
    st.lists(children).map(_List),
    st.dictionaries(_json_strings, children),
    st.dictionaries(_json_strings, children).map(_Dict),
), max_leaves=12)


@given(_json_values)
@settings(max_examples=100, deadline=None)
def test_json_writer_matches_the_stdlib(value):
    assert _dump_json(value) == _stdlib_json(value)


def _golden_argvs(spec: str, symbolic: bool) -> list[list[str]]:
    argvs = [["info", spec], ["families", spec]]
    argvs += [["reflect", spec, "--category", c] for c in ("sob", "d", "wf")]
    if not symbolic:
        argvs.append(["product", spec, "zoo:sierpinski"])
    return argvs


def test_cli_json_outputs_keep_the_stdlib_text(tmp_path, monkeypatch, capsys):
    """Every indented --json output, on the zoo and two generated wide
    spaces, is the stdlib's indented text of the document it prints."""
    monkeypatch.setenv("TOPOLAB_CAP", "16")  # the products of the wide spaces
    labels = [f"p{i}" for i in range(8)]
    antichain = tmp_path / "antichain.topo"
    antichain.write_text(f"space antichain\npoints {' '.join(labels[:7])}\n")
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
    assert main(["info", str(tmp_path / "missing.topo")]) == 2

    bad = tmp_path / "bad.topo"
    bad.write_text("space b\npoints a b\nopens {} {a}\n")
    assert main(["info", str(bad)]) == 2

    capsys.readouterr()
    latin1 = tmp_path / "latin1.topo"
    latin1.write_bytes(b"space x\npoints a\xff b\n")
    assert main(["info", str(latin1)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(latin1)!r}: byte 16 is not UTF-8\n"
    assert main(["info", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {str(tmp_path)!r}: ")


def test_cli_repeated_labels_fail_alike_in_order_and_opens_bodies(tmp_path, capsys):
    doc = tmp_path / "dup.topo"
    for body in ("order a < b", "opens {} {b} {a b}"):
        doc.write_text(f"space dup\npoints a a b\n{body}\n")
        assert main(["info", str(doc)]) == 2
        assert capsys.readouterr().err == "error: point labels must be distinct\n"


def test_cli_cap_exit_code(tmp_path, capsys):
    doc = tmp_path / "big.topo"
    labels = " ".join(f"p{i}" for i in range(14))
    doc.write_text(f"space big\npoints {labels}\n")
    assert main(["info", str(doc)]) == 3


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


def test_cli_builds_its_parser_once(capsys):
    assert build_parser() is build_parser()
    assert main(["info", "zoo:vee", "--json"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["reflect", "zoo:vee", "--category", "nonsense"])
    capsys.readouterr()
    assert main(["info", "zoo:vee", "--json"]) == 0
    assert capsys.readouterr().out == first


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
    assert main(["product", "zoo:cofinite", "zoo:vee"]) == 2


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
