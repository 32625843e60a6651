"""Each precomputed-row kernel against its plain form.

The oracles and the map layer work on per-call index lists and bitsets;
the references here are the direct loops they replace, kept only in the
tests.  Every comparison is exact: the same verdict and reason, the same
family, the same closures, the same rows.  The canonical form of an order
is checked against its definition: a relabelling of the rows that does not
depend on the labels, equal for two orders iff some permutation carries
one onto the other."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_core_space import wide_orders
from test_oracles import antichain, chains, order_space, orders

from topolab import (
    ALL_CATEGORIES,
    FiniteSpace,
    ValidationError,
    from_poset,
    k_family,
    oracles,
    reflect,
    sober_target_catalog,
)
from topolab.caps import Caps
from topolab.core_space import (
    THIN_OPENS_PER_POINT,
    _canonical_form,
    _closed_order,
    _thin_count,
    bit_indices,
)
from topolab.hyperspaces import _inclusion_up_rows
from topolab.oracles import WF_MAX_COMPACTS, WF_MAX_FAMILY, Verdict


def filtered_families(q, max_size):
    """Every filtered family of at most `max_size` members of `q`, by size."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(q, size):
            if all(any(m & ~(a & b) == 0 for m in combo)
                   for a, b in itertools.combinations(combo, 2)):
                yield combo


def well_filtered_reference(x):
    """Every open containing the intersection of a filtered family must
    contain a member: each open tested against each family."""
    q = [u for u in x.opens if u]
    if len(q) > WF_MAX_COMPACTS:
        return Verdict(None, f"|Q| = {len(q)} exceeds the budget {WF_MAX_COMPACTS}")
    count = 0
    for combo in filtered_families(q, WF_MAX_FAMILY):
        count += 1
        inter = x.full_mask
        for k in combo:
            inter &= k
        for u in x.opens:
            if inter & ~u == 0 and not any(k & ~u == 0 for k in combo):
                return Verdict(False, f"violating family {[x.render_subset(k) for k in combo]}")
    return Verdict(True, f"sweep over {count} filtered families agreed")


def rudin_reference(x, max_size):
    """The minimal meeting sets of each filtered family, scanned afresh."""
    found = set()
    for combo in filtered_families([u for u in x.opens if u], max_size):
        meeting = [a for a in x.closed_sets if all(a & k for k in combo)]
        found.update(a for i, a in enumerate(meeting)
                     if not any(b & ~a == 0 for b in meeting[:i]))
    return frozenset(found)


def is_directed_reference(x, mask):
    """Nonempty, and every ordered pair has an upper bound in the subset."""
    members = list(bit_indices(mask))
    return bool(members) and all(x.up_masks[a] & x.up_masks[b] & mask
                                 for a in members for b in members)


def directed_closures_reference(x):
    """The closure of every directed subset, each closure taken directly."""
    return frozenset(x.closure(mask) for mask in range(1, 1 << x.n)
                     if is_directed_reference(x, mask))


def relabelled_rows(rows, order):
    """The rows with point order[k] renamed k."""
    new = {old: k for k, old in enumerate(order)}
    return tuple(sum(1 << new[j] for j in bit_indices(rows[i])) for i in order)


def isomorphic_by_permutations(x, y):
    """Some bijection of the points carries the order of x onto that of y."""
    return x.n == y.n and any(relabelled_rows(x.up_masks, perm) == y.up_masks
                              for perm in itertools.permutations(range(x.n)))


def inclusion_rows_reference(members):
    """Each pair of members tested for inclusion."""
    return [sum(1 << k for k, b in enumerate(members) if a & ~b == 0) for a in members]


def bipartite_order(lows, ups):
    """Points 0..lows-1 below, and point lows + u above the lows in ups[u]."""
    rows = [1 << i for i in range(lows + len(ups))]
    for u, below in enumerate(ups):
        for i in below:
            rows[i] |= 1 << (lows + u)
    return tuple(rows)


# Colour refinement cannot split these: every point above has two points
# below it and every point below two above, but a 4-cycle and a 6-cycle of
# covers are not isomorphic, so the upper points are not all alike.
C4_AND_C6 = bipartite_order(5, [(0, 1), (0, 1), (2, 3), (3, 4), (4, 2)])


# the wide cases: 15 and 31 nonempty opens, under WF_MAX_COMPACTS
WIDE = (antichain(4), antichain(5))


def wide(test):
    for x in WIDE:
        test = example(x)(test)
    return test


@given(orders())
@wide
@settings(max_examples=40, deadline=None)
def test_well_filtered_matches_the_per_open_sweep(x):
    assert oracles.well_filtered(x) == well_filtered_reference(x)


@given(orders())
@wide
@settings(max_examples=40, deadline=None)
def test_rudin_enumeration_matches_the_per_family_scan(x):
    for max_size in (1, 2, 3):
        assert oracles.rudin_sets_by_filtered_enumeration(x, max_size) == \
            rudin_reference(x, max_size), max_size


@given(orders())
@wide
@settings(max_examples=40, deadline=None)
def test_directed_closures_match_the_direct_closure_loop(x):
    assert oracles.directed_closure_masks(x) == directed_closures_reference(x)


@given(orders())
@wide
@example(order_space(3, [(1, 0), (2, 0)]))  # the top has the lowest index
@settings(max_examples=60, deadline=None)
def test_directedness_matches_the_ordered_pair_definition(x):
    closures, directed = oracles._subset_tables(x.up_masks, x.down_masks)
    for mask in range(1 << x.n):
        assert directed[mask] == is_directed_reference(x, mask), mask
        assert closures[mask] == x.closure(mask), mask


@given(orders(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_form_is_a_relabelling_that_ignores_the_labels(x, rng):
    form, order = _canonical_form(x.up_masks)
    assert sorted(order) == list(range(x.n))
    assert relabelled_rows(x.up_masks, order) == form
    perm = list(range(x.n))
    rng.shuffle(perm)
    assert _canonical_form(relabelled_rows(x.up_masks, perm))[0] == form


@given(orders(), orders(), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_forms_agree_with_the_permutation_test(x, y, relabel, rng):
    if relabel:  # half of the pairs are isomorphic by construction
        perm = list(range(x.n))
        rng.shuffle(perm)
        rows = relabelled_rows(x.up_masks, perm)
        y = from_poset(x.points, [(x.points[i], x.points[j])
                                  for i, row in enumerate(rows) for j in bit_indices(row)])
    same = _canonical_form(x.up_masks)[0] == _canonical_form(y.up_masks)[0]
    assert same == isomorphic_by_permutations(x, y)


def test_canonical_form_where_refinement_cannot_tell_points_apart():
    form, order = _canonical_form(C4_AND_C6)
    assert relabelled_rows(C4_AND_C6, order) == form
    rng = random.Random(0)
    perm = list(range(len(C4_AND_C6)))
    for _ in range(30):
        rng.shuffle(perm)
        assert _canonical_form(relabelled_rows(C4_AND_C6, perm))[0] == form


@given(orders())
@wide
@example(antichain(1))  # its only Smyth member has an empty complement
@example(antichain(6))  # 63 Smyth members over 6 points
@settings(max_examples=40, deadline=None)
def test_inclusion_rows_match_the_pairwise_scan(x):
    families = [k_family(x, c).members for c in ALL_CATEGORIES]
    families.append(tuple(x.full_mask ^ u for u in x.opens if u))  # the Smyth order
    for members in families:
        assert _inclusion_up_rows(x, members) == inclusion_rows_reference(members)


def test_kernels_match_on_the_catalog():
    catalog = sober_target_catalog(4)
    for x in catalog:
        assert oracles.well_filtered(x) == well_filtered_reference(x)
        assert oracles.rudin_sets_by_filtered_enumeration(x) == rudin_reference(x, 3)
        assert oracles.directed_closure_masks(x) == directed_closures_reference(x)
    forms = [_canonical_form(x.up_masks)[0] for x in catalog]
    assert len(set(forms)) == len(catalog)
    for x, form in zip(catalog, forms):
        for perm in itertools.permutations(range(x.n)):
            assert _canonical_form(relabelled_rows(x.up_masks, perm))[0] == form


def warshall_reference(points, rows):
    """Warshall's closure of the relation, then the first pair of equal rows
    (a cycle, in a transitive relation) refused."""
    n = len(rows)
    rows = list(rows)
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    for i, j in itertools.combinations(range(n), 2):
        if rows[i] == rows[j]:
            raise ValidationError(f"order contains a cycle through {points[i]!r} and {points[j]!r}")
    return rows


@st.composite
def relations(draw):
    """Row i holds bit i and the bits over i: on up to 9 points, pairs drawn
    at random, self-loops included, and half the time oriented upwards in
    index order (no cycle), else in any direction (usually a cycle)."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    if draw(st.booleans()):
        pairs = [(min(p), max(p)) for p in pairs]
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    return rows


@given(relations())
@example([0b11, 0b11])  # a two-cycle
@example([0b101, 0b011, 0b110])  # 0 < 2 < 1 < 0, against index order
@example([0b11, 0b110, 0b100])  # a chain in index order
@settings(max_examples=300, deadline=None)
def test_closed_order_matches_warshall(rows):
    points = [f"p{i}" for i in range(len(rows))]
    given_rows = list(rows)
    try:
        want = warshall_reference(points, rows)
    except ValidationError as err:
        with pytest.raises(ValidationError) as got:
            _closed_order(points, rows)
        assert str(got.value) == str(err)
    else:
        assert _closed_order(points, rows) == want
    assert rows == given_rows  # the relation itself is left as it was


def test_closed_order_closes_a_chain_deeper_than_the_recursion_limit():
    n = 3000
    rows = [1 << i | 1 << (i + 1) for i in range(n - 1)] + [1 << (n - 1)]
    closed = _closed_order([f"p{i}" for i in range(n)], rows)
    assert closed == [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]


@st.composite
def straddling_orders(draw):
    """Orders on 8 to 16 points with edge probability 1/3 or 1/4: the open
    lattices of most of the first stay within open_count's listing bound,
    and most of the second outgrow it."""
    n = draw(st.integers(8, 16))
    odds = draw(st.sampled_from([3, 4]))
    labels = [f"p{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i, j in itertools.combinations(range(n), 2)
             if draw(st.integers(1, odds)) == 1]
    return from_poset(labels, pairs, Caps(max_points=16))


def fan(tops, length):
    """`tops` maximal points over a chain of `length` points: one component
    with 2**tops + length opens, whose listing places the tops first."""
    chain = [f"c{i}" for i in range(length)]
    top = [f"t{i}" for i in range(tops)]
    pairs = list(zip(chain, chain[1:])) + [(chain[-1], t) for t in top]
    return from_poset(chain + top, pairs, Caps(max_points=64))


@given(st.one_of(wide_orders(), straddling_orders()))
@example(chains(1))
@example(chains(40))
@example(chains(3, 1, 4, 1, 5))
@example(antichain(12))
@settings(max_examples=80, deadline=None)
def test_open_count_matches_the_listed_lattice_across_the_listing_bound(x):
    count = x.open_count
    assert "opens" not in x.__dict__
    assert count == len(x.opens)


@st.composite
def counted_spaces(draw):
    """A maker of fresh copies of one space: an order, a wide order, or the
    reflection space of an order."""
    kind = draw(st.sampled_from(("order", "wide", "reflection")))
    if kind == "reflection":
        x, c = draw(orders()), draw(st.sampled_from(ALL_CATEGORIES))
        return lambda: reflect(x, c).space
    x = draw(orders() if kind == "order" else wide_orders())
    return lambda: FiniteSpace._of_order(x.points, x.up_masks, x.name)


@given(counted_spaces())
@settings(max_examples=80, deadline=None)
def test_open_count_is_the_number_of_opens_whichever_view_comes_first(make):
    """The count read first, after the `opens` view and after the down
    rows: each is the number of opens."""
    first = make()
    count = first.open_count
    assert count == len(first.opens)
    after_opens = make()
    after_opens.opens
    assert after_opens.open_count == count
    after_down = make()
    after_down.down_masks
    assert after_down.open_count == count


def test_the_listing_bound_sends_a_fan_one_top_wider_to_the_recursion():
    widest = max(j for j in range(1, 30) if 2 ** j <= THIN_OPENS_PER_POINT * j)
    for tops, listed in ((widest, True), (widest + 1, False)):
        x = fan(tops, 5)
        assert (_thin_count(x.up_masks, range(x.n), 1 << 17) is not None) == listed
        assert x.open_count == 2 ** tops + 5 == len(x.opens)
