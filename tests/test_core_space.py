"""Core space construction, operators, continuous maps, and their oracles."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_oracles import orders

from topolab import (
    ALL_CATEGORIES,
    ContinuousMap,
    FiniteSpace,
    ResourceCapError,
    ValidationError,
    check_continuous,
    continuous_map,
    directed_closures,
    enumerate_continuous_maps,
    find_homeomorphism,
    from_poset,
    identity_map,
    irreducible_closed,
    is_homeomorphic,
    k_family,
    lower_vietoris,
    point_closures,
    predicates,
    product,
    random_space,
    reflect,
    rudin_sets,
    sober_target_catalog,
)
from topolab.caps import Caps
from topolab.core_space import (
    _transpose,
    _upper_sets,
    bit_indices,
    canonical_masks,
    compress_mask,
    mask_key,
)


def brute_force_upper_sets(space):
    """Oracle: every subset tested against the upper-set condition."""
    out = set()
    for mask in range(1 << space.n):
        if all(space.up_masks[i] & ~mask == 0 for i in range(space.n) if mask >> i & 1):
            out.add(mask)
    return out


small_spaces = st.builds(
    random_space,
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=5),
)

subsets = st.integers(min_value=0, max_value=(1 << 5) - 1)


# ---------------------------------------------------------------------------
# posets and from_poset


def test_from_poset_chain_is_sierpinski():
    space = from_poset(("a", "b"), [("a", "b")])
    assert set(space.opens) == {0, space.mask_of("b"), space.mask_of("a", "b")}


def test_from_poset_antichain_is_discrete():
    assert len(from_poset(("a", "b"), []).opens) == 4


def test_from_poset_vee_opens_match_brute_force():
    space = from_poset(("a", "b", "t"), [("a", "t"), ("b", "t")])
    assert set(space.opens) == brute_force_upper_sets(space)
    expected = {0, space.mask_of("t"), space.mask_of("a", "t"),
                space.mask_of("b", "t"), space.mask_of("a", "b", "t")}
    assert set(space.opens) == expected


@given(small_spaces)
@settings(max_examples=60, deadline=None)
def test_opens_are_exactly_upper_sets(space):
    assert set(space.opens) == brute_force_upper_sets(space)


def test_poset_validation_names_axioms():
    with pytest.raises(ValidationError, match="cycle"):
        from_poset(("a", "b"), [("a", "b"), ("b", "a")])


def closure_reference(elements, pairs):
    """The rows of the reflexive-transitive closure by search from each
    element, and the first (i, j) with i < j below each other, or None."""
    index = {e: i for i, e in enumerate(elements)}
    succ = [set() for _ in elements]
    for a, b in pairs:
        succ[index[a]].add(index[b])
    rows = []
    for i in range(len(elements)):
        seen, todo = {i}, [i]
        while todo:
            for j in succ[todo.pop()] - seen:
                seen.add(j)
                todo.append(j)
        rows.append(sum(1 << j for j in seen))
    cycle = next(((i, j) for i in range(len(rows)) for j in range(len(rows))
                  if i != j and rows[i] >> j & 1 and rows[j] >> i & 1), None)
    return tuple(rows), cycle


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))))
@example((4, [(1, 2), (2, 1), (0, 3), (3, 0)]))  # e0-e3 has the least index, e1-e2 closes first
@settings(max_examples=150, deadline=None)
def test_from_pairs_closes_the_relation_like_a_search(case):
    n, edges = case
    labels = tuple(f"e{i}" for i in range(n))
    pairs = [(labels[a], labels[b]) for a, b in edges]
    rows, cycle = closure_reference(labels, pairs)
    if cycle is None:
        assert from_poset(labels, pairs).up_masks == rows
    else:
        i, j = cycle
        with pytest.raises(ValidationError) as err:
            from_poset(labels, pairs)
        assert str(err.value) == \
            f"order contains a cycle through {labels[i]!r} and {labels[j]!r}"


def test_specialization_examples(sierpinski, discrete2):
    s = sierpinski
    assert s.leq(s.index("bot"), s.index("top"))
    assert not s.leq(s.index("top"), s.index("bot"))
    assert not discrete2.leq(0, 1) and not discrete2.leq(1, 0)


def test_specialization_agrees_with_closure_membership():
    space = random_space(99, 5)
    for i in range(space.n):
        for j in range(space.n):
            # x <= y iff x lies in the closure of {y}
            assert space.leq(i, j) == bool(space.closure(1 << j) >> i & 1)


# ---------------------------------------------------------------------------
# closure / interior / saturation


def test_sierpinski_closure_and_saturation(sierpinski):
    top = sierpinski.mask_of("top")
    bot = sierpinski.mask_of("bot")
    assert sierpinski.closure(top) == sierpinski.full_mask
    assert sierpinski.saturation(bot) == sierpinski.full_mask
    assert sierpinski.closure(bot) == bot
    assert sierpinski.saturation(top) == top


def closure_oracle(space, a):
    """Complement of the union of the opens disjoint from a."""
    union = 0
    for u in space.opens:
        if u & a == 0:
            union |= u
    return space.full_mask & ~union


def saturation_oracle(space, a):
    out = space.full_mask
    for u in space.opens:
        if a & ~u == 0:
            out &= u
    return out


def interior_oracle(space, a):
    out = 0
    for u in space.opens:
        if u & ~a == 0:
            out |= u
    return out


def test_operators_match_definitional_oracles():
    space = random_space(7, 6)
    for a in range(1 << space.n):
        assert space.closure(a) == closure_oracle(space, a)
        assert space.saturation(a) == saturation_oracle(space, a)
        assert space.interior(a) == interior_oracle(space, a)


def down_set_oracle(space, a):
    """The points below a point of a, the order read off the opens: j <= i
    iff every open holding j holds i."""
    return sum(1 << j for j in range(space.n)
               if any(all(u >> i & 1 for u in space.opens if u >> j & 1)
                      for i in range(space.n) if a >> i & 1))


def test_closure_is_down_set_in_poset_spaces():
    for seed in (3, 11, 29):
        space = random_space(seed, 5)
        for a in range(1 << space.n):
            assert space.closure(a) == down_set_oracle(space, a)


@given(small_spaces, subsets, subsets)
@settings(max_examples=80, deadline=None)
def test_closure_properties(space, a, b):
    a &= space.full_mask
    b &= space.full_mask
    cl = space.closure
    assert cl(a) & ~cl(a | b) == 0          # monotone
    assert a & ~cl(a) == 0                  # extensive
    assert cl(cl(a)) == cl(a)               # idempotent
    sat = space.saturation(a)
    assert a & ~sat == 0 and space.is_open(sat)


# ---------------------------------------------------------------------------
# validation


def test_space_validation_names_axioms():
    with pytest.raises(ValidationError, match="at least one point"):
        FiniteSpace((), (0,))
    with pytest.raises(ValidationError, match="empty set"):
        FiniteSpace(("a",), (1,))
    with pytest.raises(ValidationError, match="carrier is not open"):
        FiniteSpace(("a", "b"), (0, 1))
    with pytest.raises(ValidationError, match="not T0"):
        FiniteSpace(("a", "b"), (0, 0b11))
    with pytest.raises(ValidationError, match=r"union: \{a,b\} is missing"):
        FiniteSpace(("a", "b", "c"), (0, 0b001, 0b010, 0b111))
    with pytest.raises(ValidationError, match=r"intersection: \{b\} is missing"):
        FiniteSpace(("a", "b", "c"), (0, 0b011, 0b110, 0b111))
    with pytest.raises(ValidationError, match="distinct"):
        FiniteSpace(("a", "a"), (0, 0b11))
    # 511 opens on 9 points: the discrete topology without {p0,p1}
    labels = tuple(f"p{i}" for i in range(9))
    with pytest.raises(ValidationError, match=r"union: \{p0,p1\} is missing"):
        FiniteSpace(labels, tuple(m for m in range(1 << 9) if m != 0b11))


def per_bit_validation(points, opens):
    """A copy of the validation that derived the up-rows by walking the
    bits of every open, kept as the reference for validation by least-open
    rows: the up-rows of a valid family, or the first error."""
    n = len(points)
    full = (1 << n) - 1
    opens = canonical_masks(opens)
    for u in opens:
        if u < 0 or u > full:
            raise ValidationError("an open set is not a subset of the carrier")
    opens_set = frozenset(opens)
    if 0 not in opens_set:
        raise ValidationError("the empty set is not open")
    if full not in opens_set:
        raise ValidationError("the full carrier is not open")
    up = [full] * n
    for u in opens:
        for i in bit_indices(u):
            up[i] &= u
    labels = FiniteSpace._of_order(points, up)  # for _check_t0 and render_subset only
    labels._check_t0(up)
    for m in up:
        if m not in opens_set:
            raise ValidationError("opens are not closed under intersection: "
                                  f"{labels.render_subset(m)} is missing")
    if _upper_sets(up, limit=len(opens)) is None:
        missing = next(a | r for a in opens for r in up if a | r not in opens_set)
        raise ValidationError("opens are not closed under union: "
                              f"{labels.render_subset(missing)} is missing")
    return tuple(up)


def _outcome(build, points, opens):
    try:
        return build(points, opens)
    except ValidationError as exc:
        return str(exc)


@st.composite
def wide_orders(draw):
    """Orders on 7 to 12 points whose pairs i < j are edges with probability
    1/8, the antichain among them: lattices of up to 4,096 opens, far wider
    than those of random_space's p = 1/2 orders."""
    n = draw(st.integers(7, 12))
    labels = [f"p{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i, j in itertools.combinations(range(n), 2)
             if draw(st.integers(0, 7)) == 7]
    return from_poset(labels, pairs)


@st.composite
def open_families(draw):
    """Families on 1 to 20 points (up to three bytes an open): the opens of
    an order, with sets dropped and sets added or with one open swapped for
    a non-open (so that the count stays), or arbitrary sets, with and
    without the empty set and the carrier; most are invalid in one of the
    ways validation names."""
    n = draw(st.integers(1, 20))
    full = (1 << n) - 1
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**64 - 1))
        if n <= 6:
            x = draw(orders())
        elif draw(st.booleans()):
            x = draw(wide_orders())
        else:
            x = random_space(seed, n, Caps(max_points=20))
        n, full = x.n, x.full_mask
        opens = set(x.opens)
        inner = sorted(opens - {0, full})
        if inner and draw(st.booleans()):
            m = draw(st.integers(0, full))
            new = next((c for c in [m] + [m ^ 1 << k for k in range(n)] if c not in opens), None)
            if new is not None:
                opens.remove(draw(st.sampled_from(inner)))
                opens.add(new)
                return tuple(f"p{i}" for i in range(n)), sorted(opens)
        opens -= set(draw(st.lists(st.sampled_from(sorted(opens)), max_size=2)))
    else:
        opens = set(draw(st.lists(st.integers(0, full), max_size=40)))
    opens |= set(draw(st.lists(st.integers(0, full), max_size=2)))
    opens |= {m for m, keep in ((0, draw(st.booleans())), (full, draw(st.booleans()))) if keep}
    return tuple(f"p{i}" for i in range(n)), sorted(opens)


_NINE = tuple(f"p{i}" for i in range(9))


@given(open_families())
@example((_NINE, list(range(1 << 9))))  # the antichain
@example((("a", "b"), [0b00, 0b01, 0b11]))  # {b} swapped for {a} in Sierpinski space: a topology
# a < b beside c with {b,c} swapped for {a,c}: the rows, and so the count, stay
@example((("a", "b", "c"), [0b000, 0b010, 0b011, 0b100, 0b101, 0b111]))
@settings(max_examples=300, deadline=None)
def test_space_validation_matches_the_per_bit_derivation(family):
    points, opens = family
    got = _outcome(lambda p, o: FiniteSpace(p, o).up_masks, points, opens)
    assert got == _outcome(per_bit_validation, points, opens)


_masks = st.one_of(st.integers(0, 255), st.integers(0, (1 << 200) - 1))


@given(st.lists(_masks, min_size=1, max_size=30).flatmap(
    lambda base: st.lists(st.sampled_from(base), max_size=60)))
@settings(max_examples=200, deadline=None)
def test_canonical_masks_sort_by_the_mask_key(masks):
    """Repeats collapse and ties of popcount fall to the value, as under
    mask_key, the key that callers outside core_space sort by."""
    assert canonical_masks(masks) == tuple(sorted(set(masks), key=mask_key))


@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=8))))
@settings(max_examples=100, deadline=None)
def test_labels_of_lists_the_set_bits(case):
    n, masks = case
    x = from_poset([f"p{i}" for i in range(n)], [], Caps(max_points=20))
    want = [tuple(f"p{i}" for i in range(n) if m >> i & 1) for m in masks]
    assert [x.labels_of(m) for m in masks] == want


def test_renamed_keeps_the_validated_space(vee, monkeypatch):
    def fail(self, *args, **kwargs):
        raise AssertionError("renamed must not validate again")

    monkeypatch.setattr(FiniteSpace, "__init__", fail)
    other = vee.renamed("other")
    assert other.name == "other" and vee.name == "vee"
    assert other == vee
    assert other.up_masks == vee.up_masks
    assert other.opens == vee.opens


def test_builders_leave_the_lattice_views_unbuilt():
    """Spaces, products, subspaces, hyperspaces, reflections, the seven
    families and the predicates are all computed from the order rows."""
    x = from_poset(("a", "b", "c", "d"), [("a", "c"), ("b", "c"), ("c", "d")])
    y = from_poset(("p", "q"), [("p", "q")])
    spaces = [x, y, product([x, y]), x.subspace(x.mask_of("a", "b", "c"))]
    for s in list(spaces):
        families = [point_closures(s), directed_closures(s), irreducible_closed(s),
                    rudin_sets(s).family] + [k_family(s, c) for c in ALL_CATEGORIES]
        spaces += [lower_vietoris(g).space for g in families]
        spaces += [reflect(s, c).space for c in ALL_CATEGORIES]
        predicates(s)
    for s in spaces:
        assert "opens" not in s.__dict__ and "closed_sets" not in s.__dict__, s.name


def test_open_lattice_view_names_its_cap(monkeypatch):
    labels = tuple(f"p{i}" for i in range(8))
    x = from_poset(labels, [])
    monkeypatch.setenv("TOPOLAB_CAP", "max_opens=255")
    with pytest.raises(ResourceCapError, match="exceeds max_opens 255"):
        x.opens
    monkeypatch.delenv("TOPOLAB_CAP")
    assert len(x.opens) == 256
    # a space built from its opens keeps them as the view
    y = FiniteSpace(x.points, x.opens)
    assert y.__dict__["opens"] == x.opens


def assert_rows_match_the_pairwise_order(x):
    """Down rows and covers against the order read one pair at a time."""
    n = x.n
    down = tuple(sum(1 << i for i in range(n) if x.leq(i, j)) for j in range(n))
    assert _transpose(x.up_masks) == x.down_masks == down
    below = [[i != j and x.leq(i, j) for j in range(n)] for i in range(n)]
    assert x.covers() == [(i, j) for i in range(n) for j in range(n) if below[i][j]
                          and not any(below[i][k] and below[k][j] for k in range(n))]


@given(orders())
@settings(max_examples=60, deadline=None)
def test_transpose_and_covers_on_orders(x):
    assert_rows_match_the_pairwise_order(x)


def test_transpose_and_covers_past_one_machine_word():
    caps = Caps(max_points=80)
    chain = from_poset([f"c{i}" for i in range(70)],
                       [(f"c{i}", f"c{i + 1}") for i in range(69)], caps)
    for x in (chain, random_space(5, 16, caps), random_space(6, 70, caps)):
        assert_rows_match_the_pairwise_order(x)
    assert chain.covers() == [(i, i + 1) for i in range(69)]


@given(orders())
@settings(max_examples=40, deadline=None)
def test_order_answers_match_the_listed_lattice(x):
    """Openness, closedness and subspaces from the order rows agree with the
    listed lattice; a space rebuilt from its opens is the same space."""
    opens, closed = set(x.opens), set(x.closed_sets)
    for a in range(1 << x.n):
        assert x.is_open(a) == (a in opens)
        assert x.is_closed(a) == (a in closed)
        if a:
            positions = list(bit_indices(a))
            reference = FiniteSpace(x.labels_of(a),
                                    {compress_mask(u & a, positions) for u in x.opens})
            assert x.subspace(a) == reference
    assert not x.is_open(1 << x.n) and not x.is_closed(-1)
    rebuilt = FiniteSpace(x.points, x.opens)
    assert rebuilt == x and hash(rebuilt) == hash(x)


def test_point_cap_is_enforced():
    labels = tuple(f"p{i}" for i in range(13))
    pairs = [(labels[i], labels[i + 1]) for i in range(12)]
    with pytest.raises(ResourceCapError):
        from_poset(labels, pairs)
    assert from_poset(labels, pairs, Caps(max_points=13)).n == 13


def test_point_cap_wins_over_a_cycle():
    """The carrier cap is checked before the pairs are closed, so an order
    over the cap is refused for its size even when it has a cycle."""
    labels = tuple(f"p{i}" for i in range(13))
    pairs = [(labels[i], labels[i + 1]) for i in range(12)] + [(labels[12], labels[0])]
    with pytest.raises(ResourceCapError, match="a poset of 13 elements exceeds max_points 12"):
        from_poset(labels, pairs)
    with pytest.raises(ValidationError, match="cycle"):
        from_poset(labels, pairs, Caps(max_points=13))


# ---------------------------------------------------------------------------
# continuous maps


def test_identity_and_constant_maps_are_continuous(vee):
    assert check_continuous(identity_map(vee)).ok
    for k in range(vee.n):
        const = ContinuousMap(vee, vee, (k,) * vee.n)
        assert check_continuous(const).ok


def test_sierpinski_swap_witness(sierpinski):
    swap = ContinuousMap(sierpinski, sierpinski, (1, 0))
    report = check_continuous(swap)
    assert not report.ok
    assert report.witness_open == sierpinski.mask_of("top")


def test_continuous_map_factory_rejects_discontinuous(sierpinski):
    with pytest.raises(ValidationError, match="not continuous"):
        continuous_map(sierpinski, sierpinski, {"bot": "top", "top": "bot"})


def enumerate_by_filtering(x, y):
    """Oracle: all |y|^|x| functions filtered by the preimage test."""
    out = []
    for combo in itertools.product(range(y.n), repeat=x.n):
        f = ContinuousMap(x, y, combo)
        if all(x.is_open(f.preimage_mask(u)) for u in y.opens):
            out.append(combo)
    return out


def test_enumerate_continuous_maps_examples(sierpinski, discrete2):
    point = from_poset(("z",), [])
    assert len(enumerate_continuous_maps(point, sierpinski)) == sierpinski.n
    selfmaps = enumerate_continuous_maps(sierpinski, sierpinski)
    assert [f.mapping for f in selfmaps] == enumerate_by_filtering(sierpinski, sierpinski)
    assert len(selfmaps) == 3
    from_discrete = enumerate_continuous_maps(discrete2, sierpinski)
    assert len(from_discrete) == 4


def test_enumeration_cap():
    big = random_space(5, 6)
    with pytest.raises(ResourceCapError):
        enumerate_continuous_maps(big, big, Caps(max_maps=100))


def test_map_enumeration_has_no_depth_limit():
    caps = Caps(max_points=2000)
    labels = tuple(f"p{i}" for i in range(1100))
    x = from_poset(labels, [], caps)
    point = from_poset(("z",), [])
    maps = enumerate_continuous_maps(x, point, caps)
    assert [f.mapping for f in maps] == [(0,) * 1100]


def test_continuous_maps_are_monotone():
    x = random_space(21, 4)
    y = random_space(22, 4)
    maps = enumerate_continuous_maps(x, y)
    assert [f.mapping for f in maps] == enumerate_by_filtering(x, y)
    for f in maps:
        assert all(y.leq(f.mapping[i], f.mapping[j])
                   for i in range(x.n) for j in range(x.n) if x.leq(i, j))


def relabeled(x, perm, suffix="x", caps=None):
    """x with its point i renamed and moved to the index perm.index(i)."""
    points = tuple(x.points[k] + suffix for k in perm)
    return from_poset(points, [(points[i], points[j]) for i in range(x.n)
                               for j in range(x.n) if x.leq(perm[i], perm[j])], caps)


def small_spaces_and_extremes():
    """The catalog spaces on at most 3 points, each also with its indices
    reversed (so that earlier points lie above later ones), a 4-antichain
    and a descending 4-chain."""
    labels = ("a", "b", "c", "d")
    small = [s for s in sober_target_catalog(4) if s.n <= 3]
    return small + [relabeled(s, range(s.n)[::-1]) for s in small] + [
        from_poset(labels, []),
        from_poset(labels, zip(labels[1:], labels)),
    ]


def test_map_layer_agrees_with_the_preimage_oracle():
    spaces = small_spaces_and_extremes()
    for x, y in itertools.product(spaces, repeat=2):
        oracle = enumerate_by_filtering(x, y)
        maps = enumerate_continuous_maps(x, y)
        assert [f.mapping for f in maps] == oracle
        # the trusted constructor: each map is the validated one, on its own
        # tuple rather than the backtracking table, in lexicographic order
        for f in maps:
            assert type(f.mapping) is tuple
            assert f == ContinuousMap(x, y, list(f.mapping))
            assert (f.source, f.target) == (x, y)
        assert [f.mapping for f in maps] == sorted({f.mapping for f in maps})
        continuous = set(oracle)
        for combo in itertools.product(range(y.n), repeat=x.n):
            report = check_continuous(ContinuousMap(x, y, combo))
            assert report.ok == (combo in continuous)
            if report.ok:
                assert report.witness_open is None
            else:
                assert y.is_open(report.witness_open)
                preimage = ContinuousMap(x, y, combo).preimage_mask(report.witness_open)
                assert not x.is_open(preimage)


def test_map_composition_and_images(vee, sierpinski):
    f = continuous_map(vee, sierpinski, {"a": "bot", "b": "bot", "t": "top"})
    g = identity_map(sierpinski)
    assert g.after(f).mapping == f.mapping
    assert f.image_mask(vee.mask_of("a", "t")) == sierpinski.full_mask
    assert f.preimage_mask(sierpinski.mask_of("top")) == vee.mask_of("t")


# ---------------------------------------------------------------------------
# homeomorphism search


def test_homeomorphism_finds_relabellings(sierpinski):
    other = from_poset(("x", "y"), [("y", "x")])
    phi = find_homeomorphism(sierpinski, other)
    assert phi is not None
    assert not is_homeomorphic(sierpinski, from_poset(("x", "y"), []))


def test_homeomorphism_distinguishes_vee_and_wedge(spaces):
    assert not is_homeomorphic(spaces["vee"], spaces["wedge"])
    assert is_homeomorphic(spaces["vee"], spaces["vee"])


def test_homeomorphism_carries_opens_onto_opens():
    for x in sober_target_catalog(4):
        for perm in itertools.permutations(range(x.n)):
            y = relabeled(x, perm)
            phi = find_homeomorphism(x, y)
            assert sorted(phi) == list(range(y.n))
            f = ContinuousMap(x, y, phi)
            assert {f.image_mask(u) for u in x.opens} == set(y.opens)


def test_homeomorphism_rejects_equal_signature_class_sizes(spaces):
    """vee and wedge have the same number of points and of opens, and their
    neighbourhood signatures fall into classes of the same sizes (one of
    size 2, one of size 1); only the signatures themselves differ."""
    vee, wedge = spaces["vee"], spaces["wedge"]

    def class_sizes(x):
        sig = [(x.down_masks[i].bit_count(), x.up_masks[i].bit_count()) for i in range(x.n)]
        return sorted(sig.count(s) for s in set(sig))

    assert (vee.n, len(vee.opens), class_sizes(vee)) == (wedge.n, len(wedge.opens), class_sizes(wedge))
    assert find_homeomorphism(vee, wedge) is None
    assert find_homeomorphism(wedge, vee) is None


def test_homeomorphism_cap():
    x = random_space(1, 6)
    with pytest.raises(ResourceCapError):
        is_homeomorphic(x, x, Caps(max_iso_points=5))


def test_homeomorphism_on_shuffled_random_spaces():
    base = random_space(77, 6)
    assert is_homeomorphic(base, relabeled(base, [3, 0, 5, 1, 4, 2]))


def order_of(n, pairs):
    labels = tuple(f"p{i}" for i in range(n))
    return from_poset(labels, [(labels[i], labels[j]) for i, j in pairs], Caps(max_points=n))


SYMMETRIC_ORDERS = {
    "8 disjoint 2-chains": order_of(16, [(2 * i, 2 * i + 1) for i in range(8)]),
    "a bottom under 7 parallel 2-chains": order_of(
        15, [(0, 2 * i + 1) for i in range(7)] + [(2 * i + 1, 2 * i + 2) for i in range(7)]),
    "the 16-point antichain": order_of(16, []),
    "the 8+8 crown": order_of(16, [(i, 8 + j) for i in range(8) for j in range(8) if i != j]),
    "2^4": order_of(16, [(a, b) for a in range(16) for b in range(16) if a != b and a & ~b == 0]),
}


@pytest.mark.parametrize("name", SYMMETRIC_ORDERS)
def test_homeomorphism_on_symmetric_orders(name):
    """Orders with large automorphism groups, where a search that does not
    prune by automorphisms meets up to n! leaves with equal forms."""
    caps = Caps(max_points=16, max_iso_points=16)
    x = SYMMETRIC_ORDERS[name]
    perm = list(range(x.n))
    random.Random(name).shuffle(perm)
    y = relabeled(x, perm, "", caps)
    phi = find_homeomorphism(x, y, caps)
    assert sorted(phi) == list(range(y.n))
    assert all(x.leq(i, j) == y.leq(phi[i], phi[j]) for i in range(x.n) for j in range(x.n))
    rows = list(y.up_masks)
    covers = y.covers()
    if covers:  # one cover removed
        i, j = covers[0]
        rows[i] &= ~(1 << j)
    else:  # the antichain has none: one added
        rows[0] |= 1 << 1
    z = from_poset(y.points, [(y.points[i], y.points[j])
                              for i, row in enumerate(rows) for j in bit_indices(row)], caps)
    assert find_homeomorphism(x, z, caps) is None


def test_subspace_of_vee(vee):
    sub = vee.subspace(vee.mask_of("a", "t"))
    assert sub.points == ("a", "t")
    assert len(sub.opens) == 3  # a chain
