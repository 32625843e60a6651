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


GOLDEN = {  # taken before the bulk label tables and the one-pass opens scanner
    "zoo:cofinite": "8b2f0c897babdcd92cd03ff448de20bc894de432d673b7342f59416d525fd722",
    "zoo:diamond": "1f3a785220e41f5d16818cf85009ce5ecd651ac6d87c5708a2c15e74e2be3b0e",
    "zoo:discrete2": "4ebee941cb36640c7d6009466ff79ff8006bed9a37ed6078dc9ed03e6d60ecbe",
    "zoo:omega_chain": "8879c9288f0c6276fef2bdb01f81c76adc24403d4f1fc347d76314a167346257",
    "zoo:sierpinski": "b8df79abd57402a0e84f57c1b69b82d75aab03c28e633d7cd37b1f7c417a5a76",
    "zoo:vee": "c9f6f4d0aa88f80e31884638fdb2a9ba283704de599979a584d644b922b58134",
    "zoo:wedge": "f63d5f2e8f3818022dee26d2c5da7b5d6968c2a93033a339d9b6850fb0511bea",
    "rand-1-4.order": "4bbdc59f12221f86769c65ff1980787577162bd31e8616b1cb7169c1880b9939",
    "rand-1-4.opens": "4bbdc59f12221f86769c65ff1980787577162bd31e8616b1cb7169c1880b9939",
    "rand-2-5.order": "23c2149570e6aa06f018c7c9e7e7d6b3f3c0d794f94ec6d4671c74c620fc7009",
    "rand-2-5.opens": "23c2149570e6aa06f018c7c9e7e7d6b3f3c0d794f94ec6d4671c74c620fc7009",
    "rand-3-6.order": "687423c0dbe003b274695314ef333880fd2fd47cc42be0865700bf21d8bbd5a3",
    "rand-3-6.opens": "687423c0dbe003b274695314ef333880fd2fd47cc42be0865700bf21d8bbd5a3",
    "rand-4-7.order": "7d0624d2a4ab6861f3089a6b763ae142d027a62336eb1622f3677c8e4b349ae0",
    "rand-4-7.opens": "7d0624d2a4ab6861f3089a6b763ae142d027a62336eb1622f3677c8e4b349ae0",
    "rand-5-8.order": "a006369657cfff60b97fbcc54df3ff1392fa76e9d16ac7faa01c0d96717835e5",
    "rand-5-8.opens": "a006369657cfff60b97fbcc54df3ff1392fa76e9d16ac7faa01c0d96717835e5",
    "rand-6-9.order": "8efeacef10af878b29407c25e75629d1359dfd9bd57bc137c7ef0c353f270dbe",
    "rand-6-9.opens": "8efeacef10af878b29407c25e75629d1359dfd9bd57bc137c7ef0c353f270dbe",
    "rand-7-9.order": "764ecd639a2ecc8e72bb31d992b5590f092b6357cb67bc9116658c62db8e1a65",
    "rand-7-9.opens": "764ecd639a2ecc8e72bb31d992b5590f092b6357cb67bc9116658c62db8e1a65",
    "rand-8-10.order": "eb1c1bd131a8602e001ec210582954ca81df16c09e45ef421f1a1e40af22590a",
    "rand-8-10.opens": "eb1c1bd131a8602e001ec210582954ca81df16c09e45ef421f1a1e40af22590a",
    "rand-9-10.order": "12eb34dc116a40b10890c4aa941edd77a832ed96805ada31408a77e4b4193a96",
    "rand-9-10.opens": "12eb34dc116a40b10890c4aa941edd77a832ed96805ada31408a77e4b4193a96",
    "rand-10-11.order": "21d15f7f58fffd3ea86e52048b00017b47e4eda7259abb2f3995b0d33382f0b5",
    "rand-10-11.opens": "21d15f7f58fffd3ea86e52048b00017b47e4eda7259abb2f3995b0d33382f0b5",
    "rand-11-12.order": "9d8d82d70b1c54ec59fbe98b29c80873949052f08d20ddf8263462e611c81c3a",
    "rand-11-12.opens": "9d8d82d70b1c54ec59fbe98b29c80873949052f08d20ddf8263462e611c81c3a",
    "rand-12-12.order": "c86a32577b3074b5a60a264fa8a5b1a5c329cb271da51c09c6cc8b25316c35fb",
    "rand-12-12.opens": "c86a32577b3074b5a60a264fa8a5b1a5c329cb271da51c09c6cc8b25316c35fb",
    "antichain9": "069025bbb1d7ab2495df1ae9db736dfd30c2c19050ef18ebcb7bbb7bb343a7c3",
    "chains9": "4fcd7b67e9b9b60831e4393b025f249b82694d9076b50b70fd5461fbccc45e8f",
}


def test_cli_outputs_match_the_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TOPOLAB_CAP", raising=False)
    assert _all_digests(tmp_path, capsys) == GOLDEN
