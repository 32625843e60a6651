"""Finite products, the space-property predicates, and executable checkers
for the product and transfer theorems.

The product of finitely many finite spaces carries the box-generated
topology; on finite carriers that family equals the upper sets of the
componentwise specialization order, so the builder goes through the product
poset (the box-union form is what the tests enumerate against).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FinitePoset,
    FiniteSpace,
    bit_indices,
    check_continuous,
    from_poset,
)
from .errors import ContractViolation, ResourceCapError, ValidationError
from .families import (
    CategoryTag,
    _directed_closure_masks,
    _filtered_families,
    irreducible_closed,
    k_family,
)
from .hyperspaces import smyth_power
from .reflections import reflect
from .symbolic import (
    SymbolicSpace,
    SymbolicVariant,
    sym_family,
    sym_predicates,
    sym_product_irr,
)


# ---------------------------------------------------------------------------
# products


def _strides(sizes: Sequence[int]) -> list[int]:
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return strides


def product(xs: Sequence[FiniteSpace], caps: Caps | None = None) -> FiniteSpace:
    """Product space; carrier labels are rendered tuples like "(a,b)"."""
    caps = caps or default_caps()
    if not xs:
        raise ValidationError("product needs at least one factor")
    if len(xs) == 1:
        return xs[0]
    sizes = [x.n for x in xs]
    total = 1
    for s in sizes:
        total *= s
    if total > caps.max_points:
        raise ResourceCapError(
            f"product carrier has {total} points, cap is {caps.max_points}"
        )
    coords = list(itertools.product(*(range(s) for s in sizes)))
    labels = tuple(
        "(" + ",".join(xs[i].points[c[i]] for i in range(len(xs))) + ")"
        for c in coords
    )
    rows = []
    for c in coords:
        row = 0
        for t, d in enumerate(coords):
            if all(xs[i].leq(c[i], d[i]) for i in range(len(xs))):
                row |= 1 << t
        rows.append(row)
    poset = FinitePoset(labels, tuple(rows))
    name = " x ".join(x.name or "?" for x in xs)
    return from_poset(poset, caps).renamed(name)


def projections(p: FiniteSpace, xs: Sequence[FiniteSpace]) -> list[ContinuousMap]:
    """The coordinate projections of a product built by `product`."""
    sizes = [x.n for x in xs]
    strides = _strides(sizes)
    out = []
    for i, x in enumerate(xs):
        mapping = tuple((t // strides[i]) % sizes[i] for t in range(p.n))
        f = ContinuousMap(p, x, mapping)
        if not check_continuous(f).ok:
            raise ContractViolation("projection is not continuous")
        out.append(f)
    return out


def project_mask(mask: int, xs: Sequence[FiniteSpace], i: int) -> int:
    """Image of a product subset under the i-th projection."""
    sizes = [x.n for x in xs]
    strides = _strides(sizes)
    out = 0
    for t in bit_indices(mask):
        out |= 1 << ((t // strides[i]) % sizes[i])
    return out


def product_mask(masks: Sequence[int], xs: Sequence[FiniteSpace]) -> int:
    """The product subset with the given factor subsets."""
    sizes = [x.n for x in xs]
    out = 0
    for t, c in enumerate(itertools.product(*(range(s) for s in sizes))):
        if all(masks[i] >> c[i] & 1 for i in range(len(xs))):
            out |= 1 << t
    return out


# ---------------------------------------------------------------------------
# predicates


def way_below(x: FiniteSpace, u: int, v: int) -> bool:
    """Way-below on the open lattice.  Any directed family of opens of a
    finite space contains its union, so u is way below v iff u <= v."""
    if not x.is_open(u) or not x.is_open(v):
        raise ValidationError("way-below is defined on opens")
    return u & ~v == 0


def _wf_sweep(x: FiniteSpace, max_size: int = 3, max_q: int = 32) -> tuple[bool, str]:
    """Regression oracle for the well-filtered condition: check every
    filtered family of compact saturated sets of size up to `max_size`.
    The condition itself is forced by the least member of a finite filtered
    family, which is what the sweep re-confirms."""
    q = [u for u in x.opens if u]
    if len(q) > max_q:
        return True, f"sweep skipped: |Q| = {len(q)} exceeds {max_q}"
    count = 0
    for combo in _filtered_families(q, max_size):
        count += 1
        inter = x.full_mask
        for k in combo:
            inter &= k
        for u in x.opens:
            if inter & ~u == 0 and not any(k & ~u == 0 for k in combo):
                return False, f"violating family {[x.render_subset(k) for k in combo]}"
    return True, f"least-member reduction; sweep over {count} filtered families agreed"


@dataclass(frozen=True)
class PropertyReport:
    space_name: str
    sober: bool
    d_space: bool
    well_filtered: bool
    compact: bool
    locally_hypercompact: bool
    c_space: bool
    core_compact: bool
    locally_compact: bool
    witnesses: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.sober and not self.well_filtered:
            raise ContractViolation("report violates sober => well-filtered")
        if self.well_filtered and not self.d_space:
            raise ContractViolation("report violates well-filtered => d-space")
        if self.c_space and not self.locally_hypercompact:
            raise ContractViolation("report violates C-space => locally hypercompact")
        if self.locally_hypercompact and not self.locally_compact:
            raise ContractViolation(
                "report violates locally hypercompact => locally compact"
            )
        if self.locally_compact and not self.core_compact:
            raise ContractViolation("report violates locally compact => core compact")

    def flag(self, name: str) -> bool:
        return getattr(self, name)

    def by_category(self, c: CategoryTag) -> bool:
        return {CategoryTag.SOBRIETY: self.sober,
                CategoryTag.D_SPACE: self.d_space,
                CategoryTag.WELL_FILTERED: self.well_filtered}[c]


PREDICATE_NAMES = ("sober", "d_space", "well_filtered", "compact",
                   "locally_hypercompact", "c_space", "core_compact",
                   "locally_compact")


def predicates(x: FiniteSpace) -> PropertyReport:
    """All property flags, computed from the definitions."""
    witnesses: dict = {}

    sc = frozenset(x.down_masks)
    irr = irreducible_closed(x)
    sober = True
    for a in irr.members:
        generics = [i for i in range(x.n) if x.down_masks[i] == a]
        if len(generics) != 1:
            sober = False
            witnesses["sober"] = f"irreducible closed {x.render_subset(a)} " \
                                 f"has {len(generics)} generic points"
            break
    if sober:
        witnesses["sober"] = "every irreducible closed set is a unique point closure"

    dc = _directed_closure_masks(x)
    d_space = dc == sc
    witnesses["d_space"] = ("directed closures collapse to point closures"
                            if d_space else "a directed closure is not a point closure")

    well_filtered, wf_note = _wf_sweep(x)
    witnesses["well_filtered"] = wf_note

    compact = True
    witnesses["compact"] = "every open cover of a finite carrier is itself finite"

    lhc = True
    csp = True
    lc = True
    for i in range(x.n):
        up_i = x.up_masks[i]
        for u in x.opens:
            if not u >> i & 1:
                continue
            # up(i) is finitely generated, saturated, compact, and open,
            # so it witnesses all three local properties at once when it
            # fits under u.
            ok = up_i & ~u == 0 and x.interior(up_i) >> i & 1
            if not ok:
                lhc = csp = lc = False
                witnesses["c_space"] = (
                    f"no principal upper set fits between {x.points[i]} and "
                    f"{x.render_subset(u)}"
                )
                break
        if not lhc:
            break
    if csp:
        witnesses["c_space"] = "the principal upper set of each point is its least neighbourhood"
    witnesses["locally_hypercompact"] = witnesses["c_space"]
    witnesses["locally_compact"] = witnesses["c_space"]

    core = all(
        _union_of_way_below(x, v) == v for v in x.opens
    )
    witnesses["core_compact"] = ("every open is the union of its way-below opens"
                                 if core else "an open is not the union of its way-below opens")

    return PropertyReport(
        x.name or "space", sober, d_space, well_filtered, compact,
        lhc, csp, core, lc, witnesses,
    )


def _union_of_way_below(x: FiniteSpace, v: int) -> int:
    out = 0
    for u in x.opens:
        if way_below(x, u, v):
            out |= u
    return out


def satisfies_category(x: FiniteSpace, c: CategoryTag, caps: Caps | None = None) -> bool:
    """Category membership for a finite space.

    Below a work estimate the defining family is recomputed; above it the
    finite-space collapse applies (every finite T0 space is sober: an
    irreducible closed set with two maximal points splits over them, so
    each irreducible closed set is the closure of its unique maximal point;
    sobriety implies well-filtered implies d-space).  Small spaces are
    therefore always checked definitionally.
    """
    if c is CategoryTag.SOBRIETY:
        if len(x.closed_sets) ** 2 > 250_000:
            return True
        return frozenset(irreducible_closed(x).members) == frozenset(x.down_masks)
    if c is CategoryTag.D_SPACE:
        if (1 << x.n) * x.n * x.n > 2_000_000:
            return True
        return _directed_closure_masks(x) == frozenset(x.down_masks)
    ok, _ = _wf_sweep(x)
    return ok


# ---------------------------------------------------------------------------
# product reflection theorem


@dataclass(frozen=True)
class ProductReflectionResult:
    ok: bool
    category: CategoryTag
    product_points: int
    gamma: Optional[ContinuousMap]
    notes: tuple[str, ...]


def check_product_reflection(xs: Sequence[FiniteSpace], c: CategoryTag,
                             caps: Caps | None = None) -> ProductReflectionResult:
    """Build gamma(A) = (p_1(A), ..., p_n(A)) from the reflection of the
    product onto the product of the reflections and verify that it is a
    homeomorphism, a bijection continuous both ways; also verify on every
    member that the projections are K-sets and that the member is the
    product of its projections."""
    caps = caps or default_caps()
    p = product(xs, caps)
    rp = reflect(p, c, caps)
    rfs = [reflect(x, c, caps) for x in xs]
    target = product([r.space for r in rfs], caps)
    notes: list[str] = []
    sizes = [r.space.n for r in rfs]
    strides = _strides(sizes)
    mapping = []
    for a in rp.family.members:
        coords = []
        recovered = []
        for i, x in enumerate(xs):
            ai = project_mask(a, xs, i)
            if ai not in k_family(x, c):
                notes.append(f"projection of {p.render_subset(a)} is not a K-set")
            coords.append(rfs[i].family.member_position(ai))
            recovered.append(ai)
        if product_mask(recovered, xs) != a:
            notes.append(f"{p.render_subset(a)} is not the product of its projections")
        mapping.append(sum(coords[i] * strides[i] for i in range(len(xs))))
    gamma = ContinuousMap(rp.space, target, tuple(mapping))
    if not gamma.is_injective() or rp.space.n != target.n:
        notes.append("gamma is not bijective")
    if not notes:
        inverse = [0] * target.n
        for i, t in enumerate(gamma.mapping):
            inverse[t] = i
        gamma_inv = ContinuousMap(target, rp.space, tuple(inverse))
        if not check_continuous(gamma).ok or not check_continuous(gamma_inv).ok:
            notes.append("gamma or its inverse is not continuous")
    return ProductReflectionResult(not notes, c, p.n, gamma, tuple(notes))


# ---------------------------------------------------------------------------
# K-space product biconditional


@dataclass(frozen=True)
class KSpaceProductResult:
    category: CategoryTag
    product_is_kspace: bool
    factors_are_kspaces: bool

    @property
    def ok(self) -> bool:
        return self.product_is_kspace == self.factors_are_kspaces


def check_kspace_product(xs: Sequence[Union[FiniteSpace, SymbolicSpace]],
                         c: CategoryTag,
                         caps: Caps | None = None) -> KSpaceProductResult:
    """The product is a K-space iff every factor is.

    Finite factors are handled by the predicates on the actual product
    space.  With one symbolic factor the product side is computed from the
    product family algebra: the K-family of a finite product is the family
    of products of factor K-sets, so the product is a K-space iff every
    such pair is a pair of point closures."""
    caps = caps or default_caps()
    symbolic = [x for x in xs if isinstance(x, SymbolicSpace)
                and x.variant is not SymbolicVariant.FINITE]
    finite = [x.finite if isinstance(x, SymbolicSpace) else x for x in xs
              if not (isinstance(x, SymbolicSpace)
                      and x.variant is not SymbolicVariant.FINITE)]
    if not symbolic:
        p = product(finite, caps)
        lhs = satisfies_category(p, c, caps)
        rhs = all(satisfies_category(x, c, caps) for x in finite)
        return KSpaceProductResult(c, lhs, rhs)
    if len(symbolic) > 1:
        raise ValidationError("at most one infinite symbolic factor is supported")
    s = symbolic[0]
    f = product(finite, caps) if finite else None
    if f is None:
        raise ValidationError("a symbolic product check needs a finite factor")
    if c is CategoryTag.SOBRIETY:
        product_side = sym_product_irr(s, f).all_pairs_have_generic_points()
    elif c is CategoryTag.D_SPACE:
        sym_ok = sym_family(s, "dc").members_are_point_closures()
        fin_ok = _directed_closure_masks(f) == frozenset(f.down_masks)
        product_side = sym_ok and fin_ok
    else:
        sym_ok = sym_family(s, c).members_are_point_closures()
        fin_ok = frozenset(k_family(f, c).members) == frozenset(f.down_masks)
        product_side = sym_ok and fin_ok
    factors = sym_predicates(s).by_category(c) and satisfies_category(f, c, caps)
    return KSpaceProductResult(c, product_side, factors)


# ---------------------------------------------------------------------------
# Smyth categories


@dataclass(frozen=True)
class SmythCheckResult:
    category: CategoryTag
    base_is_kspace: bool
    power_is_kspace: bool

    @property
    def ok(self) -> bool:
        return (not self.base_is_kspace) or self.power_is_kspace


def check_smyth_category(x: FiniteSpace, c: CategoryTag,
                         caps: Caps | None = None) -> SmythCheckResult:
    """Whenever `x` is a K-space, its Smyth power space must be one too."""
    caps = caps or default_caps()
    ps = smyth_power(x, caps)
    return SmythCheckResult(
        c,
        satisfies_category(x, c, caps),
        satisfies_category(ps.space, c, caps),
    )
