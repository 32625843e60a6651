"""Products, property predicates, and the product/transfer theorem checkers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracles import orders

from topolab import (
    ALL_CATEGORIES,
    CategoryTag,
    ContractViolation,
    check_continuous,
    check_kspace_product,
    check_product_reflection,
    check_smyth_category,
    is_homeomorphic,
    predicates,
    product,
    projections,
    random_space,
    way_below,
)
from topolab.caps import Caps
from topolab.families import is_irreducible_subset
from topolab.products_properties import PropertyReport, product_mask, project_mask
from topolab.symbolic import COFINITE, OMEGA_CHAIN

WIDE_CAPS = Caps(max_points=16)


def box_union_opens(x, y):
    """Oracle: close the open boxes under union."""
    family = {product_mask([u, v], [x, y]) for u in x.opens for v in y.opens}
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                if a | b not in family:
                    family.add(a | b)
                    changed = True
    return family


def product_rows_reference(xs):
    """Row of each coordinate tuple: the tuples above it in every factor."""
    coords = list(itertools.product(*(range(x.n) for x in xs)))
    return tuple(sum(1 << t for t, d in enumerate(coords)
                     if all(x.leq(ci, di) for x, ci, di in zip(xs, c, d)))
                 for c in coords)


# ---------------------------------------------------------------------------
# products


@given(st.lists(orders(), min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_product_rows_match_the_coordinatewise_order(xs):
    p = product(xs, Caps(max_points=6 ** 3))
    assert p.up_masks == product_rows_reference(xs)
    assert p.points == tuple("(" + ",".join(c) + ")"
                             for c in itertools.product(*(x.points for x in xs)))


def test_product_with_point_is_identity(vee):
    point = random_space(0, 1)
    p = product([vee, point])
    assert is_homeomorphic(p, vee)


def test_sierpinski_square_matches_box_oracle(sierpinski):
    p = product([sierpinski, sierpinski])
    oracle = box_union_opens(sierpinski, sierpinski)
    assert set(p.opens) == oracle
    assert p.n == 4
    assert len(p.opens) == 6  # frozen from the box-union oracle
    assert "(bot,top)" in p.points


def test_product_opens_equal_box_unions_on_samples():
    for seed in (10, 20):
        x = random_space(seed, 3)
        y = random_space(seed + 1, 3)
        p = product([x, y])
        assert set(p.opens) == box_union_opens(x, y)


def test_projections_are_continuous():
    x = random_space(30, 3)
    y = random_space(31, 4)
    p = product([x, y], WIDE_CAPS)
    for proj in projections(p, [x, y]):
        assert check_continuous(proj).ok


def test_ternary_product(sierpinski, discrete2):
    p = product([sierpinski, discrete2, sierpinski], WIDE_CAPS)
    assert p.n == 8
    assert p.points[0].count(",") == 2


@given(st.lists(orders().filter(lambda x: x.n <= 3), min_size=3, max_size=3)
       .filter(lambda xs: xs[0].n * xs[1].n * xs[2].n <= 12))
@settings(max_examples=40, deadline=None)
def test_product_is_associative_and_commutative_up_to_homeomorphism(xs):
    x, y, z = xs
    caps = Caps(max_iso_points=12)
    xyz = product([x, y, z])
    assert is_homeomorphic(product([product([x, y]), z]), xyz, caps)
    assert is_homeomorphic(product([x, product([y, z])]), xyz, caps)
    assert is_homeomorphic(product([z, x, y]), xyz, caps)
    assert is_homeomorphic(product([y, x]), product([x, y]), caps)


# ---------------------------------------------------------------------------
# predicates


def test_sierpinski_flags_all_true(sierpinski):
    rep = predicates(sierpinski)
    for name in ("sober", "d_space", "well_filtered", "compact",
                 "locally_hypercompact", "c_space", "core_compact",
                 "locally_compact"):
        assert rep.flag(name)


def test_random_space_flags():
    rep = predicates(random_space(9, 6))
    assert rep.sober and rep.d_space and rep.well_filtered
    assert rep.c_space  # least neighbourhoods are principal upper sets


def test_report_asserts_implication_chain():
    with pytest.raises(ContractViolation):
        PropertyReport("bad", sober=True, d_space=True, well_filtered=False,
                       compact=True, locally_hypercompact=True, c_space=True,
                       core_compact=True, locally_compact=True)


def way_below_oracle(space, u, v):
    opens = space.opens
    for size in range(1, len(opens) + 1):
        for combo in itertools.combinations(opens, size):
            directed = all(
                any(a | b == c or (a | b) & ~c == 0 for c in combo)
                for a in combo for b in combo
            )
            if not directed:
                continue
            union = 0
            for w in combo:
                union |= w
            if v & ~union == 0 and not any(u & ~w == 0 for w in combo):
                return False
    return True


def test_way_below_matches_directed_family_oracle(sierpinski, discrete2):
    for space in (sierpinski, discrete2):
        for u in space.opens:
            for v in space.opens:
                assert way_below(space, u, v) == way_below_oracle(space, u, v)


# ---------------------------------------------------------------------------
# product reflection theorem


def test_product_reflection_sierpinski_pair(sierpinski):
    res = check_product_reflection([sierpinski, sierpinski],
                                   CategoryTag.SOBRIETY, WIDE_CAPS)
    assert res.ok
    assert res.gamma.source.n == 4
    assert is_homeomorphic(res.gamma.source, res.gamma.target)


def test_product_reflection_with_point(vee):
    point = random_space(0, 1)
    for c in ALL_CATEGORIES:
        assert check_product_reflection([vee, point], c, WIDE_CAPS).ok


def test_product_reflection_random_pairs():
    for seed in (12, 40):
        x = random_space(seed, 4)
        y = random_space(seed + 5, 4)
        for c in ALL_CATEGORIES:
            res = check_product_reflection([x, y], c, WIDE_CAPS)
            assert res.ok, res.notes
            if res.gamma.source.n <= 8:
                assert is_homeomorphic(res.gamma.source, res.gamma.target)


# ---------------------------------------------------------------------------
# K-space product biconditional


def test_kspace_product_finite(sierpinski, discrete2):
    for c in ALL_CATEGORIES:
        res = check_kspace_product([sierpinski, discrete2], c, WIDE_CAPS)
        assert res.verdict.holds
        assert res.product_is_kspace.holds and res.factors_are_kspaces.holds


def test_kspace_product_cofinite_splits(sierpinski):
    d = check_kspace_product([COFINITE, sierpinski], CategoryTag.D_SPACE)
    assert d.verdict.holds and d.product_is_kspace.holds and d.factors_are_kspaces.holds
    s = check_kspace_product([COFINITE, sierpinski], CategoryTag.SOBRIETY)
    assert s.verdict.holds and s.product_is_kspace.holds is False
    assert s.factors_are_kspaces.holds is False
    w = check_kspace_product([COFINITE, sierpinski], CategoryTag.WELL_FILTERED)
    assert w.verdict.holds and w.product_is_kspace.holds is False
    assert w.factors_are_kspaces.holds is False


def test_kspace_product_omega_splits(sierpinski):
    for c in ALL_CATEGORIES:
        res = check_kspace_product([OMEGA_CHAIN, sierpinski], c)
        assert res.verdict.holds and res.product_is_kspace.holds is False


# ---------------------------------------------------------------------------
# Smyth categories


def test_smyth_checks(sierpinski, discrete2):
    assert check_smyth_category(sierpinski, CategoryTag.SOBRIETY).holds
    assert check_smyth_category(discrete2, CategoryTag.WELL_FILTERED).holds
    for seed in (7, 16):
        space = random_space(seed, 4)
        assert check_smyth_category(space, CategoryTag.SOBRIETY).holds


# ---------------------------------------------------------------------------
# irreducibility laws on products


def test_product_irreducibility_law():
    pairs = [(random_space(3, 3), random_space(5, 3)),
             (random_space(24, 3), random_space(26, 3)),
             (random_space(51, 4), random_space(52, 4))]  # a 16-point product
    for x, y in pairs:
        p = product([x, y], WIDE_CAPS)
        for a in range(1, 1 << x.n):
            for b in range(1, 1 << y.n):
                prod = product_mask([a, b], [x, y])
                assert is_irreducible_subset(p, prod) == (
                    is_irreducible_subset(x, a) and is_irreducible_subset(y, b))


def test_closure_projection_law_for_irreducibles():
    x = random_space(8, 3)
    y = random_space(9, 3)
    p = product([x, y])
    for a in range(1, 1 << p.n):
        if not is_irreducible_subset(p, a):
            continue
        rebuilt = product_mask(
            [x.closure(project_mask(a, [x, y], 0)),
             y.closure(project_mask(a, [x, y], 1))], [x, y])
        assert p.closure(a) == rebuilt


def test_locally_compact_iff_core_compact_on_well_filtered():
    for seed in range(6):
        rep = predicates(random_space(seed + 200, 5))
        assert rep.well_filtered
        assert rep.locally_compact == rep.core_compact
