"""The definitional oracles against the theorem-based production answers,
and the tri-state bookkeeping of their verdicts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topolab import (
    ALL_CATEGORIES,
    CategoryTag,
    ContinuousMap,
    SymbolicSpace,
    ValidationError,
    check_kspace_product,
    check_smyth_category,
    d_completion,
    directed_closures,
    from_poset,
    irreducible_closed,
    is_irreducible_closed_set,
    is_irreducible_subset,
    predicates,
    random_space,
    reflect,
    rudin_sets,
    rudin_witness_search,
    satisfies_category,
    smyth_power,
    sober_target_catalog,
    xi,
)
from topolab import oracles
from topolab.caps import Caps
from topolab.cli_io import SuiteResult
from topolab.oracles import Verdict
from topolab.products_properties import PREDICATE_NAMES
from topolab.symbolic import SymbolicVariant


def order_space(n, edges):
    labels = tuple(f"p{i}" for i in range(n))
    return from_poset(labels, [(labels[i], labels[j]) for i, j in edges])


def antichain(n):
    return order_space(n, [])


def order_pairs(x):
    """Every pair (a, b) of labels with a <= b in the order of x."""
    return [(x.points[i], x.points[j]) for i in range(x.n) for j in range(x.n) if x.leq(i, j)]


@st.composite
def orders(draw):
    """Orders on at most 6 points; the edge probability ranges over [0, 1],
    so antichains (2^n opens) and chains both occur.  The points are
    relabelled at random, so index order need not be a linear extension."""
    n = draw(st.integers(1, 6))
    p = draw(st.floats(0, 1))
    label = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return order_space(n, [(label[i], label[j]) for (i, j), u in zip(pairs, coins) if u < p])


def assert_production_matches_oracles(x):
    report = predicates(x)
    verdicts = oracles.flag_verdicts(x)
    assert set(verdicts) == set(PREDICATE_NAMES)
    for name, verdict in verdicts.items():
        if verdict.holds is not None:
            assert report.flag(name) == verdict.holds, (x.name, name, verdict)
    for c in ALL_CATEGORIES:
        verdict = oracles.category(x, c)
        if verdict.holds is not None:
            assert satisfies_category(x, c) == verdict.holds, (x.name, c, verdict)


@given(orders())
@settings(max_examples=40, deadline=None)
def test_predicates_match_oracles_on_orders(x):
    assert_production_matches_oracles(x)
    for c in ALL_CATEGORIES:
        assert_production_matches_oracles(reflect(x, c).space)


def test_predicates_match_oracles_on_the_catalog():
    for x in sober_target_catalog(4):
        assert_production_matches_oracles(x)
        for c in ALL_CATEGORIES:
            assert_production_matches_oracles(reflect(x, c).space)


def rudin_witnesses_by_enumeration(x):
    """The first single compact saturated set, in canonical order, for which
    each Rudin set is a minimal meeting set."""
    out = {}
    for k in x.opens:
        if k:
            for a in oracles.minimal_meeting_all(x.closed_sets, (k,)):
                out.setdefault(a, (k,))
    return out


def smyth_irreducible(x, members):
    """The members are irreducible in the Smyth power space: any two
    nonempty basic opens box(U) of the subspace on the members meet."""
    boxes = {sum(1 << i for i, m in enumerate(members) if m & ~u == 0) for u in x.opens}
    return all(a & b for a in boxes if a for b in boxes if b)


def witness_search_by_enumeration(x, members, c0):
    """The canonically least minimal closed subset of `c0` meeting every
    member, or None when the members are not irreducible."""
    if not smyth_irreducible(x, members):
        return None
    inside = [a for a in x.closed_sets if a & ~c0 == 0]
    return oracles.minimal_meeting_all(inside, members)[0]


def assert_witness_search_matches_oracle(x, members, c0):
    expected = witness_search_by_enumeration(x, members, c0)
    if expected is None:
        with pytest.raises(ValidationError, match="not irreducible"):
            rudin_witness_search(x, members, c0)
    else:
        assert rudin_witness_search(x, members, c0).minimal_closed == expected, \
            (x.name, members, c0)


def assert_families_match_oracles(x):
    assert directed_closures(x).member_set() == oracles.directed_closure_masks(x)
    assert irreducible_closed(x).members == oracles.irreducible_closed_sets(x)
    rd = rudin_sets(x)
    assert rd.family.member_set() == oracles.rudin_sets_by_filtered_enumeration(x, max_size=1)
    assert [(a, w.filtered) for a, w in rd.witnesses.items()] == \
        list(rudin_witnesses_by_enumeration(x).items())
    for a in x.closed_sets:
        assert is_irreducible_closed_set(x, a) == oracles.is_irreducible_closed_set(x, a)
    for a in range(1 << x.n):
        assert is_irreducible_subset(x, a) == oracles.is_irreducible_subset(x, a)


@given(orders(), st.data())
@settings(max_examples=40, deadline=None)
def test_families_match_oracles_on_orders(x, data):
    assert_families_match_oracles(x)
    compacts = [u for u in x.opens if u]
    for _ in range(5):
        members = data.draw(st.lists(st.sampled_from(compacts), min_size=1, max_size=3))
        c0 = data.draw(st.sampled_from(x.closed_sets))
        if all(m & c0 for m in members):
            assert_witness_search_matches_oracle(x, members, c0)


def test_families_match_oracles_on_the_catalog():
    for x in sober_target_catalog(4):
        assert_families_match_oracles(x)
        compacts = [u for u in x.opens if u]
        for size in (1, 2):
            for members in itertools.combinations(compacts, size):
                for c0 in x.closed_sets:
                    if all(m & c0 for m in members):
                        assert_witness_search_matches_oracle(x, list(members), c0)


def test_witness_search_on_a_wide_antichain():
    # its Smyth power space has more opens than the default cap allows
    x = antichain(6)
    members = [x.full_mask, 0b111100, 0b001100]
    assert rudin_witness_search(x, members, x.full_mask).minimal_closed == 0b000100


@given(orders())
@settings(max_examples=60, deadline=None)
def test_open_count_matches_the_listed_lattice(x):
    count = x.open_count
    assert "opens" not in x.__dict__
    assert count == len(x.opens)
    # the memo stays below the number of opens, so a cap the view meets holds the count
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TOPOLAB_CAP", f"max_opens={count}")
        assert from_poset(x.points, order_pairs(x)).open_count == count


def chains(*lengths):
    """The disjoint union of chains of the given lengths."""
    labels, pairs = [], []
    for k, length in enumerate(lengths):
        chain = [f"c{k}_{i}" for i in range(length)]
        labels += chain
        pairs += zip(chain, chain[1:])
    return from_poset(labels, pairs, Caps(max_points=64))


def test_open_count_on_chains_antichains_and_their_unions():
    """n + 1 opens on an n-chain, 2**n on an n-antichain, and the product of
    the counts on a disjoint union, all without listing a lattice."""
    for x, count in ((chains(64), 65), (chains(*[1] * 20), 2 ** 20),
                     (chains(5, 1, 3, 7, 2), 6 * 2 * 4 * 8 * 3)):
        assert x.open_count == count
        assert "opens" not in x.__dict__


def swapped(f):
    """`f` with the images of its first two points exchanged."""
    m = f.mapping
    return ContinuousMap(f.source, f.target, (m[1], m[0]) + m[2:])


def test_embedding_laws_on_the_catalog_and_its_reflections():
    for x in sober_target_catalog(4):
        for s in [x] + [reflect(x, c).space for c in ALL_CATEGORIES]:
            power = smyth_power(s)
            f = xi(s, power)
            assert oracles.xi_laws(f, power).holds is True, s.name
            for c in ALL_CATEGORIES:
                r = reflect(s, c)
                assert oracles.eta_laws(r.embedding, r.family).holds is True, (s.name, c)
            if s.n > 1:
                assert oracles.xi_laws(swapped(f), power).holds is False, s.name
                assert oracles.eta_laws(swapped(r.embedding), r.family).holds is False, s.name


def test_oracle_over_budget_is_skipped():
    verdict = oracles.well_filtered(antichain(6))
    assert verdict.holds is None
    assert "63" in verdict.reason and str(oracles.WF_MAX_COMPACTS) in verdict.reason


def test_oracles_decide_within_budget():
    x = antichain(5)  # 31 nonempty compact saturated sets
    for verdict in oracles.flag_verdicts(x).values():
        assert verdict.holds is True, verdict
    assert oracles.rudin_cross_check(x, frozenset(x.down_masks)).holds is True
    assert oracles.rudin_cross_check(x, frozenset()).holds is False
    assert oracles.rudin_cross_check(antichain(6), frozenset()).holds is None


def test_verdict_algebra():
    yes, no, skip = Verdict(True, "y"), Verdict(False, "n"), Verdict(None, "budget")
    assert yes.expect(True).holds is True
    assert yes.expect(False).holds is False
    assert no.expect(False).holds is True
    assert skip.expect(True) is skip
    assert oracles.conjunction([yes, skip, no]) is no
    assert oracles.conjunction([yes, skip]) is skip
    assert oracles.conjunction([yes, yes]).holds is True


def test_suite_counts_a_skipped_verdict():
    res = SuiteResult("s")
    res.record(Verdict(True, "fine"), "a")
    res.record(Verdict(None, "|Q| = 63 exceeds the budget 32"), "b")
    res.record(Verdict(False, "broken"), "c")
    assert (res.passed, res.failed, res.skipped) == (1, 1, 1)
    assert res.notes == ["skipped: b: |Q| = 63 exceeds the budget 32", "c: broken"]


def test_theorem_checkers_skip_over_budget():
    wide = antichain(4)  # the product is the 16-point antichain
    for c in ALL_CATEGORIES:
        kp = check_kspace_product([wide, wide], c, Caps(max_points=16))
        assert kp.verdict.holds is None
        assert kp.factors_are_kspaces.holds is True
    # a sober symbolic factor: the product side rests on the finite factor's oracle
    sober_chain = SymbolicSpace(SymbolicVariant.OMEGA_PLUS_ONE)
    kp = check_kspace_product([sober_chain, antichain(9)], CategoryTag.SOBRIETY)
    assert kp.product_is_kspace.holds is None and kp.verdict.holds is None
    kp = check_kspace_product([sober_chain, antichain(2)], CategoryTag.SOBRIETY)
    assert kp.product_is_kspace.holds is True and kp.verdict.holds is True
    assert check_smyth_category(antichain(5), CategoryTag.WELL_FILTERED).holds is None
    assert check_smyth_category(antichain(2), CategoryTag.WELL_FILTERED).holds is True


def test_dcpo_oracles():
    for x in (random_space(3, 4), random_space(8, 6), order_space(3, [(0, 1), (1, 2)])):
        comp = d_completion(x)
        assert oracles.dcpo_completion(x, comp.completed, comp.unit).holds is True
    # on the chain p0 < p1 < p2 the reversed unit sends max{p0, p1} = p1 to
    # the closure of p1, below the image of p0
    reversed_unit = tuple(reversed(comp.unit))
    assert oracles.dcpo_completion(x, comp.completed, reversed_unit).holds is False
    big = antichain(oracles.DCPO_MAX_POINTS + 1)
    assert oracles.dcpo_completion(big, big, tuple(range(big.n))).holds is None
