"""Pinned CLI output: the sha256 of every successful `info`, `families`,
`reflect`, `check` and `product` output, plain, `--json` and `--dot`, on the
zoo and on generated documents in order and topology form.

A change that means to keep every output byte-identical (a speedup, a
refactor) must leave these digests as they are.  A change that alters an
output on purpose updates the digest of each document it alters and says
why.  Error texts are not covered here; they keep their own asserts.
"""

import hashlib

import pytest

from topolab import SymbolicSpace, random_space, render, zoo
from topolab.cli_io import main
from topolab.products_properties import PREDICATE_NAMES

SYMBOLIC_PROPERTIES = ("sober", "d_space", "well_filtered", "compact")
FORMS = ([], ["--json"], ["--dot"])
# (seed, points) of the random_space documents: the p=1/2 model on 4 to 12 points
RANDOM_DOCS = ((1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (7, 9), (8, 10),
               (9, 10), (10, 11), (11, 12), (12, 12))


def _topology_text(space) -> str:
    groups = " ".join("{" + " ".join(space.labels_of(u)) + "}" for u in space.opens)
    return f"space {space.name}\npoints {' '.join(space.points)}\nopens {groups}\n"


def _wide_texts() -> dict[str, str]:
    """Two 9-point spaces with wide open lattices: the antichain (512 opens,
    in topology form) and three disjoint 3-chains (64 opens, order form)."""
    labels = [f"q{i}" for i in range(9)]
    groups = " ".join("{" + " ".join(labels[i] for i in range(9) if m >> i & 1) + "}"
                      for m in sorted(range(512), key=lambda m: (bin(m).count("1"), m)))
    chains = "".join(f"order q{i} < q{i + 3} < q{i + 6}\n" for i in range(3))
    return {
        "antichain9": f"space antichain9\npoints {' '.join(labels)}\nopens {groups}\n",
        "chains9": f"space chains9\npoints {' '.join(labels)}\n{chains}",
    }


def _documents() -> dict[str, str]:
    docs = {}
    for seed, n in RANDOM_DOCS:
        space = random_space(seed, n)
        docs[f"{space.name}.order"] = render(space)
        docs[f"{space.name}.opens"] = _topology_text(space)
    docs.update(_wide_texts())
    return docs


def _commands(spec: str, symbolic: bool, n: int) -> list[list[str]]:
    out = [["info", spec], ["families", spec]]
    out += [["reflect", spec, "--category", c] for c in ("sob", "d", "wf")]
    out += [["check", spec, "--property", p]
            for p in (SYMBOLIC_PROPERTIES if symbolic else PREDICATE_NAMES)]
    if not symbolic and 2 * n <= 12:  # a product carrier under the default point cap
        out.append(["product", spec, "zoo:sierpinski"])
    return out


def _digest(argvs: list[list[str]], spec: str, capsys) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        for form in FORMS:
            assert main(argv + form) == 0, argv + form
            out = capsys.readouterr().out.encode()
            call = " ".join(argv + form).replace(spec, "SPACE").encode()
            h.update(len(call).to_bytes(8, "big") + call)
            h.update(len(out).to_bytes(8, "big") + out)
    return h.hexdigest()


def _all_digests(tmp_path, capsys) -> dict[str, str]:
    digests = {}
    for name, space in sorted(zoo().items()):
        symbolic = isinstance(space, SymbolicSpace)
        spec = f"zoo:{name}"
        digests[spec] = _digest(_commands(spec, symbolic, 0 if symbolic else space.n),
                                spec, capsys)
    for name, text in _documents().items():
        path = tmp_path / f"{name}.space"
        path.write_text(text, encoding="utf-8")
        n = len(text.splitlines()[1].split()) - 1
        digests[name] = _digest(_commands(str(path), False, n), str(path), capsys)
    return digests


GOLDEN = {  # retaken when `check --json` became indented text like every other --json output
    "zoo:cofinite": "33456edbe88d446044f533c782d460633dfd72ce3cde8341175ce5f05c5ef8a3",
    "zoo:diamond": "64252807a784f39875b0b0db82f3f1f63266f71aa3c713c87d223465a56f6720",
    "zoo:discrete2": "29cd9fc6d81e1e2c97a3724a763d4d3827c9faa27acc72afd41789be2b0af9fd",
    "zoo:omega_chain": "aa168ad06cee60088a612d42a7fef1be9fdb82ed90fa04a6c681941f2e101327",
    "zoo:sierpinski": "9c8499a5397c38c457f51fadb734333b8b846567d30d4eee963ddf4fd7372f7f",
    "zoo:vee": "72ff732c54917c7b89a71b821caee317e5bcd88d5d652ee8ce3694bbb8b499ad",
    "zoo:wedge": "428b2893bd8262ce171ff440dbeb11a5c93a9d86202e9b0ffcbd016e889e57fa",
    "rand-1-4.order": "214e6b469ba1fed6806c0e251eca5fc5908a17a38f9281bd349b0209069f8170",
    "rand-1-4.opens": "214e6b469ba1fed6806c0e251eca5fc5908a17a38f9281bd349b0209069f8170",
    "rand-2-5.order": "7a42622cff9a70e9fcadea6d70681e66834a04c3f028a98bb4b5e8addab4ba8d",
    "rand-2-5.opens": "7a42622cff9a70e9fcadea6d70681e66834a04c3f028a98bb4b5e8addab4ba8d",
    "rand-3-6.order": "54c9da0ecce216b519e03e8ef57b3794716f5ea1ed5b00b692289349fd3930c9",
    "rand-3-6.opens": "54c9da0ecce216b519e03e8ef57b3794716f5ea1ed5b00b692289349fd3930c9",
    "rand-4-7.order": "72d8c04c27356b33931c534f07809f1de5d0d27a14882f79d7d1fe3e6b0217e7",
    "rand-4-7.opens": "72d8c04c27356b33931c534f07809f1de5d0d27a14882f79d7d1fe3e6b0217e7",
    "rand-5-8.order": "cc46cfa144f53ce38f42da428645a307dfec2120ff3da168dd5bf2bb9f870ac9",
    "rand-5-8.opens": "cc46cfa144f53ce38f42da428645a307dfec2120ff3da168dd5bf2bb9f870ac9",
    "rand-6-9.order": "11a2c53d384aedf41617e06ab7cdd8168e1364f6851df81a442f99a220ce6da2",
    "rand-6-9.opens": "11a2c53d384aedf41617e06ab7cdd8168e1364f6851df81a442f99a220ce6da2",
    "rand-7-9.order": "3a02cd9607aca87320032a744e55f6a733293b636d50cb772b6beefe722b135c",
    "rand-7-9.opens": "3a02cd9607aca87320032a744e55f6a733293b636d50cb772b6beefe722b135c",
    "rand-8-10.order": "6163c08e9c9aa970c7789435eaa05a99f2b1362da01ddae15b14adcf43b3e0f8",
    "rand-8-10.opens": "6163c08e9c9aa970c7789435eaa05a99f2b1362da01ddae15b14adcf43b3e0f8",
    "rand-9-10.order": "0a643a0f00588893212eef1f166902fe5ed02e4d35e45e3a6ea2ad6a7bec1e27",
    "rand-9-10.opens": "0a643a0f00588893212eef1f166902fe5ed02e4d35e45e3a6ea2ad6a7bec1e27",
    "rand-10-11.order": "5ff8991af072d9283701ae235f4a7012854d00370fadf78d814bd53ebfc5106f",
    "rand-10-11.opens": "5ff8991af072d9283701ae235f4a7012854d00370fadf78d814bd53ebfc5106f",
    "rand-11-12.order": "9ecabee93ce08e454e97ee746f937bbcdfb329355bd38bb69aa659f0ecd10ffb",
    "rand-11-12.opens": "9ecabee93ce08e454e97ee746f937bbcdfb329355bd38bb69aa659f0ecd10ffb",
    "rand-12-12.order": "8f655951981cfabd52adb22ab2daf7f9147efb04a2b64dc0e79fc413395336ac",
    "rand-12-12.opens": "8f655951981cfabd52adb22ab2daf7f9147efb04a2b64dc0e79fc413395336ac",
    "antichain9": "f89888cc32b50eced686248984810a4f8f1c3599123b692935b62a9edf456080",
    "chains9": "216a22cc7cea90d31fcb4a777335790061d513403d3910608ae8c1b9ad97df2d",
}


def test_cli_outputs_match_the_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TOPOLAB_CAP", raising=False)
    assert _all_digests(tmp_path, capsys) == GOLDEN
