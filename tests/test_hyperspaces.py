"""Hyperspace constructions, the canonical embeddings, and their lattices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracles import orders

from topolab import (
    ClosedFamily,
    ContinuousMap,
    FiniteSpace,
    ResourceCapError,
    ValidationError,
    box,
    diamond,
    eta,
    from_poset,
    irreducible_closed,
    is_homeomorphic,
    lower_vietoris,
    point_closures,
    random_space,
    smyth_power,
    xi,
)
from topolab.caps import Caps
from topolab.hyperspaces import _is_order_embedding
from topolab.oracles import box_lattice, diamond_lattice
from topolab.products_properties import predicates


def family_of_point_closures(space):
    return point_closures(space)


# ---------------------------------------------------------------------------
# diamond / box


def test_diamond_box_on_sierpinski(sierpinski):
    g = ClosedFamily(sierpinski, (sierpinski.mask_of("bot"), sierpinski.full_mask))
    # canonical member order: {bot} then {bot,top}
    assert g.members == (sierpinski.mask_of("bot"), sierpinski.full_mask)
    assert diamond(g, sierpinski.mask_of("top")) == 0b10
    assert box(g, sierpinski.mask_of("bot")) == 0b01
    assert diamond(g, sierpinski.full_mask) == 0b11
    assert diamond(g, 0) == 0
    assert box(g, sierpinski.full_mask) == 0b11


def test_closed_family_validation(sierpinski):
    with pytest.raises(ValidationError, match="not closed"):
        ClosedFamily(sierpinski, (sierpinski.mask_of("top"),))


def test_closed_family_checks_members_that_are_not_point_closures(vee):
    bottoms = vee.mask_of("a", "b")  # closed, the closure of no point
    assert bottoms not in vee.down_masks
    assert ClosedFamily(vee, vee.down_masks + (bottoms,)).members == (
        vee.mask_of("a"), vee.mask_of("b"), bottoms, vee.full_mask)
    outside = vee.mask_of("a") | 1 << vee.n
    with pytest.raises(ValidationError) as err:
        ClosedFamily(vee, vee.down_masks + (outside,))
    assert str(err.value) == "family member {a} is not closed in the base"


# ---------------------------------------------------------------------------
# lower Vietoris


def test_lower_vietoris_of_point_closures_reproduces_space(sierpinski, vee):
    for space in (sierpinski, vee):
        hv = lower_vietoris(point_closures(space))
        assert is_homeomorphic(hv.space, space)


def test_lower_vietoris_of_irreducibles(discrete2, vee):
    assert is_homeomorphic(lower_vietoris(irreducible_closed(discrete2)).space,
                           discrete2)
    assert is_homeomorphic(lower_vietoris(irreducible_closed(vee)).space, vee)


def test_lower_vietoris_opens_equal_diamond_lattice():
    for seed in (2, 9, 17):
        space = random_space(seed, 4)
        g = point_closures(space)
        hv = lower_vietoris(g)
        assert set(hv.space.opens) == set(diamond_lattice(g))


def test_lower_vietoris_handles_reducible_members(discrete2):
    # all nonempty closed sets of the discrete space; {a,b} is reducible, so
    # the lattice generation needs the intersection step
    g = ClosedFamily(discrete2, tuple(m for m in discrete2.closed_sets if m))
    hv = lower_vietoris(g)
    assert set(hv.space.opens) == set(diamond_lattice(g))
    assert hv.space.n == 3


def test_lower_vietoris_specialization_is_inclusion(vee):
    g = irreducible_closed(vee)
    hv = lower_vietoris(g)
    for i, a in enumerate(g.members):
        for j, b in enumerate(g.members):
            assert hv.space.leq(i, j) == (a & ~b == 0)


def test_lower_vietoris_preconditions(sierpinski):
    with pytest.raises(ValidationError, match="nonempty"):
        lower_vietoris(ClosedFamily(sierpinski, (0,)))
    # no carrier cap: the space is built from its inclusion rows, and only
    # listing its open lattice is bounded, by max_opens
    big = random_space(4, 8, Caps(max_points=8))
    assert is_homeomorphic(lower_vietoris(point_closures(big)).space, big)
    labels = tuple(f"p{i}" for i in range(18))
    wide = from_poset(labels, [], Caps(max_points=18))
    hv = lower_vietoris(point_closures(wide))
    assert hv.space.n == 18
    with pytest.raises(ResourceCapError, match="max_opens"):
        hv.space.opens
    # {a} u {b} and the point "a,b" both render as "{a,b}"
    clash = FiniteSpace(("a", "b", "a,b"), range(8))
    with pytest.raises(ValidationError, match="distinct"):
        lower_vietoris(ClosedFamily(clash, range(1, 8)))


# ---------------------------------------------------------------------------
# Smyth power space


def test_smyth_power_of_point():
    point = random_space(0, 1)
    ps = smyth_power(point)
    assert ps.space.n == 1


def test_smyth_power_of_sierpinski(sierpinski):
    ps = smyth_power(sierpinski)
    top = sierpinski.mask_of("top")
    assert set(ps.members) == {top, sierpinski.full_mask}
    assert box(ps, top) == 1 << ps.point_of_member(top)
    assert is_homeomorphic(ps.space, sierpinski)


def test_smyth_power_of_discrete2(discrete2):
    ps = smyth_power(discrete2)
    assert ps.space.n == 3
    order = ps.space
    full = ps.point_of_member(discrete2.full_mask)
    a = ps.point_of_member(discrete2.mask_of("a"))
    b = ps.point_of_member(discrete2.mask_of("b"))
    # Smyth order: the whole carrier lies below each singleton
    assert order.leq(full, a) and order.leq(full, b)
    assert not order.leq(a, b) and not order.leq(b, a)


def test_smyth_opens_equal_box_lattice():
    for seed in (5, 23):
        space = random_space(seed, 4)
        ps = smyth_power(space)
        assert set(ps.space.opens) == set(box_lattice(ps))


def test_smyth_power_of_finite_space_is_sober():
    for seed in (1, 6, 14):
        space = random_space(seed, 4)
        ps = smyth_power(space)
        assert predicates(ps.space).sober


# ---------------------------------------------------------------------------
# eta and xi


def test_eta_on_sierpinski(sierpinski):
    g = irreducible_closed(sierpinski)
    f = eta(g)
    assert f("top") == sierpinski.render_subset(sierpinski.full_mask)
    assert f("bot") == sierpinski.render_subset(sierpinski.mask_of("bot"))


def test_eta_image_is_point_closures_and_embeds():
    for seed in (8, 31):
        space = random_space(seed, 5)
        g = irreducible_closed(space)
        f = eta(g)
        image = f.image_mask(space.full_mask)
        expected = 0
        for m in point_closures(space).members:
            expected |= 1 << g.member_position(m)
        assert image == expected
        assert is_homeomorphic(f.target.subspace(image), space)


def test_eta_preimage_of_diamond_is_the_open():
    space = random_space(12, 5)
    g = irreducible_closed(space)
    hv = lower_vietoris(g)
    f = eta(g, hv)
    for u in space.opens:
        assert f.preimage_mask(diamond(g, u)) == u


def test_order_embedding_check_refuses_swapped_images():
    chain = from_poset(("a", "b", "c"), [("a", "b"), ("b", "c")])
    f = eta(point_closures(chain))
    assert _is_order_embedding(f)
    m = f.mapping
    for mapping in ((m[1], m[0], m[2]), (m[0], m[2], m[1]), (m[0], m[0], m[2])):
        assert not _is_order_embedding(ContinuousMap(chain, f.target, mapping)), mapping


@given(orders(), orders(), st.data())
@settings(max_examples=80, deadline=None)
def test_order_embedding_check_matches_the_pairwise_definition(x, y, data):
    mapping = tuple(data.draw(st.lists(st.integers(0, y.n - 1), min_size=x.n, max_size=x.n)))
    f = ContinuousMap(x, y, mapping)
    want = all(x.leq(i, j) == y.leq(mapping[i], mapping[j]) for i in range(x.n) for j in range(x.n))
    assert _is_order_embedding(f) == want


def test_eta_requires_point_closures(sierpinski):
    g = ClosedFamily(sierpinski, (sierpinski.full_mask,))
    with pytest.raises(ValidationError, match="missing"):
        eta(g)


def test_xi_on_sierpinski_and_discrete(sierpinski, discrete2):
    f = xi(sierpinski)
    assert f("bot") == sierpinski.render_subset(sierpinski.full_mask)
    g = xi(discrete2)
    ps = smyth_power(discrete2)
    image = g.image_mask(discrete2.full_mask)
    expected = 0
    for m in ps.supercompact_members():
        expected |= 1 << ps.point_of_member(m)
    assert image == expected


def test_xi_image_subspace_is_homeomorphic():
    space = random_space(42, 5)
    f = xi(space)
    image = f.image_mask(space.full_mask)
    assert is_homeomorphic(f.target.subspace(image), space)


# ---------------------------------------------------------------------------
# closure formula and subspace coherence


def test_closure_of_embedded_image_is_box_of_closure():
    for seed in (3, 19, 55):
        space = random_space(seed, 5)
        g = irreducible_closed(space)
        hv = lower_vietoris(g)
        f = eta(g, hv)
        for a in range(1 << space.n):
            assert hv.space.closure(f.image_mask(a)) == box(g, space.closure(a))


def test_subfamily_hyperspace_is_a_subspace(vee):
    g2 = irreducible_closed(vee)
    g1 = ClosedFamily(vee, g2.members[:2])
    small = lower_vietoris(g1)
    keep = 0
    for m in g1.members:
        keep |= 1 << g2.member_position(m)
    assert small.space == lower_vietoris(g2).space.subspace(keep)
