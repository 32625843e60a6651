"""Closed-set family enumeration and the minimal-witness machinery."""

import itertools

import pytest

from topolab import (
    ALL_CATEGORIES,
    CategoryTag,
    ContractViolation,
    RudinWitness,
    ValidationError,
    directed_closures,
    enumerate_continuous_maps,
    irreducible_closed,
    is_irreducible_closed_set,
    k_family,
    point_closures,
    random_space,
    rudin_sets,
    rudin_witness_search,
    sober_target_catalog,
)
from topolab import oracles


def irreducible_by_raw_split(space, a):
    """The bare definition quantifying over all closed pairs, against which
    the per-set irreducibility oracle is checked."""
    if a == 0 or not space.is_closed(a):
        return False
    for f1 in space.closed_sets:
        for f2 in space.closed_sets:
            if a & ~(f1 | f2) == 0 and a & ~f1 != 0 and a & ~f2 != 0:
                return False
    return True


def directed_closures_oracle(space):
    """Closures of the directed subsets, directedness tested pairwise."""
    out = set()
    for mask in range(1, 1 << space.n):
        members = [i for i in range(space.n) if mask >> i & 1]
        directed = all(
            any(space.leq(a, c) and space.leq(b, c) for c in members)
            for a in members for b in members
        )
        if directed:
            out.add(space.closure(mask))
    return out


# ---------------------------------------------------------------------------
# S_c and D_c


def test_point_closures_examples(sierpinski, discrete2):
    sc = point_closures(sierpinski)
    assert set(sc.members) == {sierpinski.mask_of("bot"), sierpinski.full_mask}
    sc2 = point_closures(discrete2)
    assert set(sc2.members) == {discrete2.mask_of("a"), discrete2.mask_of("b")}


def test_directed_closures_collapse_with_oracle():
    for seed in (4, 13, 27):
        space = random_space(seed, 6)
        assert oracles.directed_closure_masks(space) == directed_closures_oracle(space)
        assert directed_closures(space).member_set() == point_closures(space).member_set()


# ---------------------------------------------------------------------------
# irreducible closed sets


def test_irreducible_closed_sierpinski(sierpinski):
    fam = irreducible_closed(sierpinski)
    assert set(fam.members) == {sierpinski.mask_of("bot"), sierpinski.full_mask}


def test_irreducible_closed_vee(vee):
    fam = irreducible_closed(vee)
    assert set(fam.members) == {vee.mask_of("a"), vee.mask_of("b"),
                                vee.mask_of("a", "b", "t")}
    # {a,b} is closed but splits
    assert not is_irreducible_closed_set(vee, vee.mask_of("a", "b"))


def test_irreducibility_check_matches_raw_definition():
    for seed in (2, 18, 33):
        space = random_space(seed, 5)
        for a in space.closed_sets:
            assert oracles.is_irreducible_closed_set(space, a) == \
                irreducible_by_raw_split(space, a)


def test_irreducible_closed_equals_point_closures():
    for seed in range(12):
        space = random_space(seed, 6)
        assert frozenset(irreducible_closed(space).members) == \
            point_closures(space).member_set()


# ---------------------------------------------------------------------------
# Rudin sets


def test_rudin_sets_of_sierpinski(sierpinski):
    rd = rudin_sets(sierpinski)
    assert rd.family.member_set() == point_closures(sierpinski).member_set()
    for a, witness in rd.witnesses.items():
        assert witness.minimal_closed == a


def test_rudin_sets_of_point():
    point = random_space(0, 1)
    rd = rudin_sets(point)
    assert rd.family.members == (1,)


def test_rudin_reduction_matches_filtered_enumeration():
    for seed in (6, 21):
        space = random_space(seed, 5)
        rd = rudin_sets(space)
        assert rd.family.member_set() == \
            oracles.rudin_sets_by_filtered_enumeration(space, max_size=3)
        assert rd.family.member_set() == point_closures(space).member_set()


def test_rudin_witness_validation(sierpinski):
    bot = sierpinski.mask_of("bot")
    top = sierpinski.mask_of("top")
    RudinWitness(sierpinski, (top,), sierpinski.full_mask)
    with pytest.raises(ValidationError, match="not minimal"):
        RudinWitness(sierpinski, (sierpinski.full_mask,), sierpinski.full_mask)
    with pytest.raises(ValidationError, match="misses"):
        RudinWitness(sierpinski, (top,), bot)
    with pytest.raises(ValidationError, match="not filtered"):
        disc = random_space(2, 2)
        assert len(disc.opens) == 4  # discrete sample
        RudinWitness(disc, (disc.mask_of("p0"), disc.mask_of("p1")), disc.full_mask)


def minimal_by_closed_set_scan(x, filtered, a):
    """The definition: no other closed subset of `a` meets every member."""
    return not any(b != a and b & ~a == 0 and all(b & k for k in filtered)
                   for b in x.closed_sets)


def test_rudin_witness_minimality_matches_the_closed_set_scan():
    """Every closed set meeting every member of a filtered family of one or
    two compact saturated sets, on every catalog space: the witness is
    accepted exactly when the scan finds it minimal."""
    accepted = rejected = 0
    for x in sober_target_catalog(4):
        compacts = [u for u in x.opens if u]
        families = [(k,) for k in compacts] + [
            (k, m) for k, m in itertools.combinations(compacts, 2)
            if k & ~m == 0 or m & ~k == 0]
        for filtered in families:
            for a in x.closed_sets:
                if not all(a & k for k in filtered):
                    continue
                if minimal_by_closed_set_scan(x, filtered, a):
                    RudinWitness(x, filtered, a)
                    accepted += 1
                else:
                    with pytest.raises(ValidationError, match="not minimal"):
                        RudinWitness(x, filtered, a)
                    rejected += 1
    assert accepted and rejected


# ---------------------------------------------------------------------------
# K-set families


def test_k_family_examples(sierpinski, discrete2):
    assert k_family(sierpinski, CategoryTag.WELL_FILTERED).member_set() == \
        point_closures(sierpinski).member_set()
    assert k_family(discrete2, CategoryTag.D_SPACE).member_set() == \
        {discrete2.mask_of("a"), discrete2.mask_of("b")}


def test_k_family_for_sobriety_equals_irreducible_closed():
    for seed in (9, 25):
        space = random_space(seed, 6)
        assert k_family(space, CategoryTag.SOBRIETY).member_set() == \
            frozenset(irreducible_closed(space).members)


def test_family_chain():
    for seed in range(8):
        space = random_space(seed + 100, 6)
        sc = point_closures(space).member_set()
        dc = directed_closures(space).member_set()
        rd = rudin_sets(space).family.member_set()
        wf = k_family(space, CategoryTag.WELL_FILTERED).member_set()
        d = k_family(space, CategoryTag.D_SPACE).member_set()
        irr = frozenset(irreducible_closed(space).members)
        assert sc <= dc <= rd <= wf <= irr
        assert dc <= d <= wf
        assert sc == irr


def test_kset_image_check_sweep(sierpinski, vee):
    """Continuous images of K-sets are K-sets: cl f(A) is in K(Y) for every
    continuous f: X -> Y and every A in K(X)."""
    spaces = (random_space(70, 4), random_space(71, 4), sierpinski, vee)
    for x, y in itertools.product(spaces, repeat=2):
        for f in enumerate_continuous_maps(x, y):
            for c in ALL_CATEGORIES:
                ky = k_family(y, c)
                for a in k_family(x, c).members:
                    assert y.closure(f.image_mask(a)) in ky


# ---------------------------------------------------------------------------
# topological Rudin witness search


def test_witness_search_on_sierpinski(sierpinski):
    top = sierpinski.mask_of("top")
    assert rudin_witness_search(sierpinski, [top], sierpinski.full_mask) == sierpinski.full_mask


def test_witness_search_principal_filter():
    space = random_space(15, 5)
    p = 2
    up = space.saturation(1 << p)
    cl = space.closure(1 << p)
    assert rudin_witness_search(space, [up], cl) == cl


def test_witness_search_certifies_minimality():
    space = random_space(83, 5)
    base = space.saturation(0b00101)
    grown = space.saturation(base | 0b01000)
    members = [base] + ([grown] if grown != base else [])
    anchor = base & -base
    c0 = space.closure(anchor | 0b10000)
    a = rudin_witness_search(space, members, c0)
    assert space.is_closed(a) and a & ~c0 == 0
    assert all(a & m for m in members)
    for b in space.closed_sets:
        if b != a and b & ~a == 0:
            assert not all(b & m for m in members)
    assert irreducible_by_raw_split(space, a)


def test_witness_search_preconditions(sierpinski, discrete2):
    bot = sierpinski.mask_of("bot")
    top = sierpinski.mask_of("top")
    with pytest.raises(ValidationError, match="does not meet"):
        rudin_witness_search(sierpinski, [top], bot)
    with pytest.raises(ValidationError, match="not saturated"):
        rudin_witness_search(sierpinski, [bot], sierpinski.full_mask)
    with pytest.raises(ValidationError, match="not irreducible"):
        rudin_witness_search(
            discrete2,
            [discrete2.mask_of("a"), discrete2.mask_of("b")],
            discrete2.full_mask,
        )
