"""Each precomputed-row kernel against its plain form.

The oracles and the map layer work on per-call index lists and bitsets;
the references here are the direct loops they replace, kept only in the
tests.  Every comparison is exact: the same verdict and reason, the same
family, the same closures, the same signatures."""

import itertools

from hypothesis import example, given, settings

from test_oracles import antichain, order_space, orders

from topolab import oracles, sober_target_catalog, specialization_order
from topolab.core_space import _refined_signatures, bit_indices
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


def is_directed_reference(poset, mask):
    """Nonempty, and every ordered pair has an upper bound in the subset."""
    members = list(bit_indices(mask))
    return bool(members) and all(poset.leq[a] & poset.leq[b] & mask
                                 for a in members for b in members)


def directed_closures_reference(x):
    """The closure of every directed subset, each closure taken directly."""
    poset = specialization_order(x)
    return frozenset(x.closure(mask) for mask in range(1, 1 << x.n)
                     if is_directed_reference(poset, mask))


def signatures_reference(x, y):
    """Three rounds of neighbourhood signatures, the rows re-read each round."""
    spaces = (x, y)
    ids = [[(s.down_masks[i].bit_count(), s.up_masks[i].bit_count()) for i in range(s.n)]
           for s in spaces]
    for _ in range(3):
        table = {}
        for k, s in enumerate(spaces):
            prev = ids[k]
            ids[k] = [table.setdefault((prev[i],
                                        tuple(sorted(prev[j] for j in bit_indices(s.up_masks[i]))),
                                        tuple(sorted(prev[j] for j in bit_indices(s.down_masks[i])))),
                                       len(table))
                      for i in range(s.n)]
    return ids


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
    poset = specialization_order(x)
    closures, directed = oracles._subset_tables(x.up_masks, x.down_masks)
    for mask in range(1 << x.n):
        assert directed[mask] == is_directed_reference(poset, mask), mask
        assert closures[mask] == x.closure(mask), mask


@given(orders(), orders())
@settings(max_examples=40, deadline=None)
def test_signatures_match_the_per_round_rows(x, y):
    assert _refined_signatures(x, y) == signatures_reference(x, y)


def test_kernels_match_on_the_catalog():
    catalog = sober_target_catalog(4)
    for x in catalog:
        assert oracles.well_filtered(x) == well_filtered_reference(x)
        assert oracles.rudin_sets_by_filtered_enumeration(x) == rudin_reference(x, 3)
        assert oracles.directed_closure_masks(x) == directed_closures_reference(x)
    for x, y in itertools.product(catalog, repeat=2):
        assert _refined_signatures(x, y) == signatures_reference(x, y)
