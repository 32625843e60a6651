"""Reflections, map extension, the functor action, the universal property
verifier, and dcpo completion."""

import itertools

import pytest
from hypothesis import given, settings
from test_oracle_kernels import isomorphic_by_permutations
from test_oracles import orders

from topolab import (
    ALL_CATEGORIES,
    CategoryTag,
    ContinuousMap,
    ContractViolation,
    ValidationError,
    check_continuous,
    continuous_map,
    d_completion,
    diamond,
    enumerate_continuous_maps,
    extend,
    find_homeomorphism,
    from_poset,
    functor_map,
    identity_map,
    irreducible_closed,
    is_homeomorphic,
    k_family,
    point_closures,
    predicates,
    random_space,
    reflect,
    satisfies_category,
    sober_target_catalog,
    sym_reflect,
    universal_property_report,
)
from topolab.core_space import _canonical_form
from topolab.symbolic import OMEGA_CHAIN, SymbolicVariant


def test_reflect_examples(sierpinski, discrete2):
    assert is_homeomorphic(reflect(sierpinski, CategoryTag.SOBRIETY).space, sierpinski)
    assert is_homeomorphic(reflect(discrete2, CategoryTag.WELL_FILTERED).space,
                           discrete2)
    for seed in (3, 14):
        x = random_space(seed, 5)
        assert is_homeomorphic(reflect(x, CategoryTag.D_SPACE).space, x)


def test_reflection_embedding_pulls_back_diamonds(vee):
    r = reflect(vee, CategoryTag.WELL_FILTERED)
    for u in vee.opens:
        assert r.embedding.preimage_mask(diamond(r.family, u)) == u


# ---------------------------------------------------------------------------
# extension along the embedding


def test_extend_of_eta_is_identity(vee):
    r = reflect(vee, CategoryTag.WELL_FILTERED)
    fstar = extend(r.embedding, r)
    assert fstar.mapping == tuple(range(r.space.n))
    # the extension is the only factorization through the embedding
    assert universal_property_report(vee, CategoryTag.WELL_FILTERED, targets=[r.space]).ok


def test_extend_of_constant_is_constant(vee, sierpinski):
    r = reflect(vee, CategoryTag.WELL_FILTERED)
    const = continuous_map(vee, sierpinski, (0, 0, 0))
    fstar = extend(const, r)
    assert set(fstar.mapping) == {0}
    assert universal_property_report(vee, CategoryTag.WELL_FILTERED, targets=[sierpinski]).ok


def test_extend_vee_to_sierpinski(vee, sierpinski):
    r = reflect(vee, CategoryTag.WELL_FILTERED)
    f = continuous_map(vee, sierpinski,
                       {"a": "bot", "b": "bot", "t": "top"})
    fstar = extend(f, r)
    assert universal_property_report(vee, CategoryTag.WELL_FILTERED, targets=[sierpinski]).ok
    by_member = {r.family.members[k]: fstar.target.points[fstar.mapping[k]]
                 for k in range(len(r.family.members))}
    assert by_member[vee.mask_of("a", "b", "t")] == "top"
    assert by_member[vee.mask_of("a")] == "bot"
    assert by_member[vee.mask_of("b")] == "bot"
    assert fstar.after(r.embedding).mapping == f.mapping


def test_extend_rejects_wrong_source(vee, sierpinski):
    r = reflect(sierpinski, CategoryTag.SOBRIETY)
    f = identity_map(vee)
    with pytest.raises(ValidationError, match="source"):
        extend(f, r)


# ---------------------------------------------------------------------------
# functor action


def test_functor_map_identity(vee):
    fk = functor_map(identity_map(vee), CategoryTag.SOBRIETY)
    assert fk.mapping == tuple(range(fk.source.n))


def test_functor_map_example(discrete2, sierpinski):
    f = continuous_map(discrete2, sierpinski, {"a": "bot", "b": "top"})
    rx = reflect(discrete2, CategoryTag.SOBRIETY)
    ry = reflect(sierpinski, CategoryTag.SOBRIETY)
    fk = functor_map(f, CategoryTag.SOBRIETY)
    image_of_a = ry.family.members[fk.mapping[rx.family.member_position(
        discrete2.mask_of("a"))]]
    image_of_b = ry.family.members[fk.mapping[rx.family.member_position(
        discrete2.mask_of("b"))]]
    assert image_of_a == sierpinski.mask_of("bot")
    assert image_of_b == sierpinski.full_mask


def test_functor_map_composition_law():
    x, y, z = (random_space(s, 4) for s in (31, 32, 33))
    maps_xy = enumerate_continuous_maps(x, y)[:4]
    maps_yz = enumerate_continuous_maps(y, z)[:4]
    for c in ALL_CATEGORIES:
        for f in maps_xy:
            for g in maps_yz:
                left = functor_map(g.after(f), c)
                right = functor_map(g, c).after(functor_map(f, c))
                assert left.mapping == right.mapping


def test_functor_map_rejects_a_map_that_is_not_monotone(vee, sierpinski):
    # a goes to top and t to bot: a <= t but f(a) is above f(t)
    f = ContinuousMap(vee, sierpinski, (1, 0, 0))
    assert not check_continuous(f).ok
    with pytest.raises(ContractViolation):
        functor_map(f, CategoryTag.SOBRIETY)


# ---------------------------------------------------------------------------
# universal property


def test_universal_property_sierpinski_self(sierpinski):
    report = universal_property_report(sierpinski, CategoryTag.WELL_FILTERED,
                                       targets=[sierpinski])
    assert report.ok
    assert report.maps_tested == 3
    assert report.unique_factorizations == 3


def test_universal_property_point_source(sierpinski, vee):
    point = random_space(0, 1)
    report = universal_property_report(point, CategoryTag.SOBRIETY,
                                       targets=[sierpinski, vee])
    assert report.ok
    assert report.maps_tested == sierpinski.n + vee.n


def test_universal_property_vee_against_catalog(vee):
    catalog = sober_target_catalog(4)
    # the monotone functions from vee into each target, counted from all functions
    monotone = sum(
        all(y.leq(f[i], f[j]) for i in range(vee.n) for j in range(vee.n) if vee.leq(i, j))
        for y in catalog for f in itertools.product(range(y.n), repeat=vee.n))
    assert monotone == 321
    for c in ALL_CATEGORIES:
        report = universal_property_report(vee, c)
        assert report.ok
        assert not report.violations
        assert (report.targets, report.maps_tested, report.unique_factorizations) == \
            (len(catalog), monotone, monotone)


def test_sober_catalog_size():
    """One space per unlabelled poset: 1, 2, 5, 16, 63, 318 on 1 to 6
    points (OEIS A000112)."""
    assert len(sober_target_catalog(4)) == 24
    assert len(sober_target_catalog(5)) == 87
    catalog = sober_target_catalog(6)
    assert [sum(s.n == n for s in catalog) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]


def test_sober_catalog_keeps_the_first_order_of_each_class():
    """The DAGs i -> j (i < j) in the catalog's walk, each kept unless a
    permutation carries an earlier kept one onto it."""
    kept = []
    for n in range(1, 5):
        labels = tuple(f"t{i}" for i in range(n))
        pairs = list(itertools.combinations(labels, 2))
        for bits in range(1 << len(pairs)):
            x = from_poset(labels, [p for k, p in enumerate(pairs) if bits >> k & 1])
            if not any(isomorphic_by_permutations(s, x) for s in kept):
                kept.append(x)
    assert [(s.name, s.points, s.up_masks) for s in sober_target_catalog(4)] == \
        [(f"sober{s.n}.{k}", s.points, s.up_masks) for k, s in enumerate(kept)]


# ---------------------------------------------------------------------------
# reflection invariants


def test_kspace_fixed_point_three_way():
    for seed in (41, 52):
        x = random_space(seed, 5)
        for c in ALL_CATEGORIES:
            is_kspace = satisfies_category(x, c)
            r = reflect(x, c)
            assert is_kspace
            assert is_homeomorphic(r.space, x)
            assert k_family(x, c).member_set() == point_closures(x).member_set()


def test_reflection_idempotent():
    x = random_space(60, 5)
    for c in ALL_CATEGORIES:
        r = reflect(x, c)
        r2 = reflect(r.space, c)
        assert is_homeomorphic(r2.space, r.space)


@given(orders())
@settings(max_examples=80, deadline=None)
def test_reflect_is_idempotent_on_every_order(x):
    """A reflection is a finite T0 space, an object of every category, so
    reflecting it again gives the same order up to relabelling."""
    for c in ALL_CATEGORIES:
        once = reflect(x, c).space
        assert _canonical_form(reflect(once, c).space.up_masks)[0] == \
            _canonical_form(once.up_masks)[0]


def test_sobriety_coincidence():
    x = random_space(61, 5)
    for c in ALL_CATEGORIES:
        r = reflect(x, c)
        assert predicates(r.space).sober  # finite reflections are sober
        assert r.family.member_set() == frozenset(irreducible_closed(x).members)


def test_frame_isomorphism():
    x = random_space(62, 5)
    r = reflect(x, CategoryTag.SOBRIETY)
    image = {u: diamond(r.family, u) for u in x.opens}
    assert set(image.values()) == set(r.space.opens)
    assert len(set(image.values())) == len(x.opens)
    for u in x.opens:
        for v in x.opens:
            assert image[u] | image[v] == image[u | v]
            assert image[u] & image[v] == image[u & v]


def test_retract_of_kspace_collapses(vee):
    chain = vee.subspace(vee.mask_of("b", "t"))
    section = continuous_map(chain, vee, {"b": "b", "t": "t"})
    retraction = continuous_map(vee, chain, {"a": "b", "b": "b", "t": "t"})
    assert retraction.after(section).mapping == tuple(range(chain.n))
    for c in ALL_CATEGORIES:
        assert k_family(chain, c).member_set() == point_closures(chain).member_set()


def test_local_compactness_flags_transfer(diamond4):
    rep = predicates(diamond4)
    refl = predicates(reflect(diamond4, CategoryTag.WELL_FILTERED).space)
    for name in ("locally_hypercompact", "c_space", "core_compact",
                 "locally_compact", "compact"):
        assert rep.flag(name) == refl.flag(name)


# ---------------------------------------------------------------------------
# dcpo completion


def test_d_completion_of_chain():
    chain = from_poset(("x", "y"), [("x", "y")])
    comp = d_completion(chain)
    assert comp == reflect(chain, CategoryTag.D_SPACE)
    assert comp.space.n == 2
    assert find_homeomorphism(comp.space, chain)


def test_d_completion_of_random_posets():
    for seed in (5, 44):
        x = random_space(seed, 6)
        comp = d_completion(x)
        assert comp == reflect(x, CategoryTag.D_SPACE)
        assert is_homeomorphic(comp.space, x)
        # the unit sends each element to its point closure
        for i in range(x.n):
            member = comp.space.points[comp.embedding.mapping[i]]
            assert member == x.render_subset(x.down_masks[i])


def test_d_completion_of_omega_chain():
    comp = d_completion(OMEGA_CHAIN)
    assert comp == sym_reflect(OMEGA_CHAIN, CategoryTag.D_SPACE)
    assert comp.space.variant is SymbolicVariant.OMEGA_PLUS_ONE


def test_d_completion_rejects_other_symbolics():
    from topolab import COFINITE, UnsupportedSpaceError

    with pytest.raises(UnsupportedSpaceError):
        d_completion(COFINITE)
