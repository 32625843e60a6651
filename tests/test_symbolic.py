"""Closed-form families, predicates, and reflections of the two infinite
spaces, and the descriptor algebra around them."""

import pytest

from topolab import (
    CategoryTag,
    sym_family,
    sym_predicates,
    sym_product_irr,
    sym_reflect,
    sym_space_iso,
)
from topolab.symbolic import (
    COFINITE,
    GENERIC_POINT,
    OMEGA_CHAIN,
    OMEGA_PLUS_ONE,
    SymbolicSpace,
    SymbolicVariant,
    closed_all,
    closed_down,
    closed_finite,
    closed_generic_point,
    open_cofinite,
    open_up,
    reflection_open_of,
    sym_open_subset,
)

ALL = (CategoryTag.SOBRIETY, CategoryTag.D_SPACE, CategoryTag.WELL_FILTERED)


# ---------------------------------------------------------------------------
# families


def test_chain_families():
    sc = sym_family(OMEGA_CHAIN, "sc")
    dc = sym_family(OMEGA_CHAIN, "dc")
    irr = sym_family(OMEGA_CHAIN, "irr")
    assert not sc.includes_all
    assert dc.includes_all and irr.includes_all
    assert sc.contains(closed_down(7))
    assert not sc.contains(closed_all())
    assert dc.contains(closed_all())
    for c in ALL:
        assert sym_family(OMEGA_CHAIN, c).includes_all


def test_cofinite_families():
    rd = sym_family(COFINITE, "rd")
    dc = sym_family(COFINITE, "dc")
    d_fam = sym_family(COFINITE, CategoryTag.D_SPACE)
    wf = sym_family(COFINITE, CategoryTag.WELL_FILTERED)
    irr = sym_family(COFINITE, "irr")
    assert rd.contains(closed_all())
    assert not dc.contains(closed_all())
    assert not d_fam.includes_all
    assert wf.includes_all and irr.includes_all
    assert rd.contains(closed_finite({3}))
    assert not rd.contains(closed_finite({3, 4}))  # two-point sets split


def test_family_sandwich_on_descriptors():
    for space in (OMEGA_CHAIN, COFINITE):
        sc = sym_family(space, "sc")
        dc = sym_family(space, "dc")
        rd = sym_family(space, "rd")
        wf = sym_family(space, CategoryTag.WELL_FILTERED)
        d_fam = sym_family(space, CategoryTag.D_SPACE)
        irr = sym_family(space, "irr")
        assert sc.subset_of(dc) and dc.subset_of(rd)
        assert rd.subset_of(wf) and wf.subset_of(irr)
        assert dc.subset_of(d_fam) and d_fam.subset_of(wf)


def test_unknown_family_selector():
    with pytest.raises(Exception):
        sym_family(OMEGA_CHAIN, "nope")


# ---------------------------------------------------------------------------
# predicates


def test_cofinite_predicates():
    preds = sym_predicates(COFINITE)
    assert preds.sober is False
    assert preds.d_space is True
    assert preds.well_filtered is False
    assert preds.compact is True


def test_chain_predicates():
    preds = sym_predicates(OMEGA_CHAIN)
    assert preds.sober is False
    assert preds.d_space is False
    assert preds.well_filtered is False
    assert preds.compact is True


def test_plus_variants_satisfy_everything():
    for space in (OMEGA_PLUS_ONE, sym_reflect(COFINITE, CategoryTag.SOBRIETY).space):
        preds = sym_predicates(space)
        assert preds.sober and preds.d_space and preds.well_filtered
        assert preds.compact


# ---------------------------------------------------------------------------
# reflections


def test_omega_reflections_add_one_top():
    for c in ALL:
        r = sym_reflect(OMEGA_CHAIN, c)
        assert r.space.variant is SymbolicVariant.OMEGA_PLUS_ONE
        assert r.added_points == ("ω",)
        assert r.embedding.image_of(5) == closed_down(5)


def test_cofinite_reflections_split_by_category():
    rd = sym_reflect(COFINITE, CategoryTag.D_SPACE)
    rw = sym_reflect(COFINITE, CategoryTag.WELL_FILTERED)
    rs = sym_reflect(COFINITE, CategoryTag.SOBRIETY)
    assert sym_space_iso(rd.space, COFINITE)
    assert rw.space.variant is SymbolicVariant.COFINITE_PLUS_TOP
    assert sym_space_iso(rw.space, rs.space)
    assert not sym_space_iso(rd.space, rw.space)
    assert rw.added_points == (GENERIC_POINT,)
    assert rw.embedding.image_of(2) == closed_finite({2})


V = SymbolicVariant
REFLECTED = {  # (base variant, category) -> (reflected variant, adjoined points)
    (V.OMEGA_CHAIN, CategoryTag.SOBRIETY): (V.OMEGA_PLUS_ONE, ("ω",)),
    (V.OMEGA_CHAIN, CategoryTag.D_SPACE): (V.OMEGA_PLUS_ONE, ("ω",)),
    (V.OMEGA_CHAIN, CategoryTag.WELL_FILTERED): (V.OMEGA_PLUS_ONE, ("ω",)),
    (V.OMEGA_PLUS_ONE, CategoryTag.SOBRIETY): (V.OMEGA_PLUS_ONE, ()),
    (V.OMEGA_PLUS_ONE, CategoryTag.D_SPACE): (V.OMEGA_PLUS_ONE, ()),
    (V.OMEGA_PLUS_ONE, CategoryTag.WELL_FILTERED): (V.OMEGA_PLUS_ONE, ()),
    (V.COFINITE, CategoryTag.SOBRIETY): (V.COFINITE_PLUS_TOP, (GENERIC_POINT,)),
    (V.COFINITE, CategoryTag.D_SPACE): (V.COFINITE, ()),
    (V.COFINITE, CategoryTag.WELL_FILTERED): (V.COFINITE_PLUS_TOP, (GENERIC_POINT,)),
    (V.COFINITE_PLUS_TOP, CategoryTag.SOBRIETY): (V.COFINITE_PLUS_TOP, ()),
    (V.COFINITE_PLUS_TOP, CategoryTag.D_SPACE): (V.COFINITE_PLUS_TOP, ()),
    (V.COFINITE_PLUS_TOP, CategoryTag.WELL_FILTERED): (V.COFINITE_PLUS_TOP, ()),
}


@pytest.mark.parametrize("variant, category", REFLECTED,
                         ids=[f"{v.value}-{c.value}" for v, c in REFLECTED])
def test_reflected_variant_and_added_points(variant, category):
    r = sym_reflect(SymbolicSpace(variant, name=variant.value), category)
    assert (r.space.variant, r.added_points) == REFLECTED[variant, category]
    assert r.embedding.target is r.space


def test_reflection_fixed_points():
    for space in (OMEGA_CHAIN, COFINITE):
        for c in ALL:
            once = sym_reflect(space, c)
            twice = sym_reflect(once.space, c)
            assert sym_space_iso(twice.space, once.space)
            assert twice.added_points == ()


def test_compactness_transfers_to_reflections():
    for space in (OMEGA_CHAIN, COFINITE):
        for c in ALL:
            r = sym_reflect(space, c)
            assert sym_predicates(space).compact == sym_predicates(r.space).compact


# ---------------------------------------------------------------------------
# descriptor algebra


def test_generic_points():
    assert closed_generic_point(OMEGA_CHAIN, closed_down(3)) == 3
    assert closed_generic_point(OMEGA_CHAIN, closed_all()) is None
    assert closed_generic_point(OMEGA_PLUS_ONE, closed_all()) == "ω"
    assert closed_generic_point(COFINITE, closed_finite({8})) == 8
    assert closed_generic_point(COFINITE, closed_finite({1, 2})) is None


def test_reflection_opens_are_order_isomorphic():
    r = sym_reflect(OMEGA_CHAIN, CategoryTag.D_SPACE)
    opens = [open_up(n) for n in range(8)]
    for u in opens:
        for v in opens:
            assert sym_open_subset(OMEGA_CHAIN, u, v) == sym_open_subset(
                r.space, reflection_open_of(OMEGA_CHAIN, r.space, u),
                reflection_open_of(OMEGA_CHAIN, r.space, v))
    rw = sym_reflect(COFINITE, CategoryTag.WELL_FILTERED)
    opens = [open_cofinite(s) for s in ({0},) + (frozenset(), {1, 4}, {0, 1, 2})]
    for u in opens:
        for v in opens:
            assert sym_open_subset(COFINITE, u, v) == sym_open_subset(
                rw.space, reflection_open_of(COFINITE, rw.space, u),
                reflection_open_of(COFINITE, rw.space, v))


# ---------------------------------------------------------------------------
# products with a finite factor


def test_product_irreducibles_with_sierpinski(sierpinski):
    assert sym_family(OMEGA_CHAIN, "irr").includes_all
    assert not sym_product_irr(OMEGA_CHAIN, sierpinski)  # the carrier has no generic point


def test_product_irreducibles_cofinite_discrete(discrete2):
    assert sym_family(COFINITE, "irr").includes_all
    assert not sym_product_irr(COFINITE, discrete2)


def test_one_point_factor_keeps_sym_irreducibles():
    point = __import__("topolab").random_space(0, 1)
    assert not sym_product_irr(COFINITE, point)
    # the chain with its top is sober: every irreducible closed set is a point closure
    assert sym_product_irr(OMEGA_PLUS_ONE, point)

