"""Finite products, the space-property predicates, and executable checkers
for the product and transfer theorems.

The product of finitely many finite spaces carries the box-generated
topology; on finite carriers that family equals the upper sets of the
componentwise specialization order, so the builder builds the product from
the rows of that order (the box-union form is what the tests enumerate
against).

`predicates` and `satisfies_category` answer by the finite theorems; the
theorem checkers (`check_kspace_product`, `check_smyth_category`) decide
membership with the definitional `oracles`, so checking a theorem never
uses the theorem it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FiniteSpace,
    bit_indices,
    check_continuous,
)
from .errors import ContractViolation, ResourceCapError, ValidationError
from .families import CategoryTag
from .hyperspaces import smyth_power
from .oracles import Verdict, category, conjunction
from .reflections import reflect
from .symbolic import (
    SymbolicSpace,
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
        raise ResourceCapError(f"a product carrier of {total} points", "max_points",
                               caps.max_points, total)
    labels = tuple("(" + ",".join(c) + ")" for c in itertools.product(*(x.points for x in xs)))
    return FiniteSpace._of_order(labels, _product_rows(xs),
                                 " x ".join(x.name or "?" for x in xs))


def _product_rows(xs: Sequence[FiniteSpace]) -> list[int]:
    """The up-rows of the componentwise order, factor by factor.

    In P x F, with (p, f) at index p * |F| + f, the row of (p, f) is the
    row of f placed at every point above p: with `spread` holding bit
    q * |F| for each q above p, that is the product spread * row(f), whose
    shifted copies of row(f) do not overlap."""
    rows = list(xs[0].up_masks)
    for f in xs[1:]:
        shift = f.n
        grown = []
        for row in rows:
            spread = 0
            for q in bit_indices(row):
                spread |= 1 << q * shift
            grown += [spread * r for r in f.up_masks]
        rows = grown
    return rows


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


PREDICATE_NAMES = ("sober", "d_space", "well_filtered", "compact",
                   "locally_hypercompact", "c_space", "core_compact",
                   "locally_compact")


_LEAST_NEIGHBOURHOOD = "the principal upper set of each point is its least neighbourhood"
_FINITE_WITNESSES = {
    "sober": "every irreducible closed set is a unique point closure",
    "d_space": "directed closures collapse to point closures",
    "well_filtered": "least-member reduction: a filtered family of compact "
                     "saturated sets in a finite space has a least member",
    "compact": "every open cover of a finite carrier is itself finite",
    "locally_hypercompact": _LEAST_NEIGHBOURHOOD,
    "c_space": _LEAST_NEIGHBOURHOOD,
    "core_compact": "every open is the union of its way-below opens",
    "locally_compact": _LEAST_NEIGHBOURHOOD,
}


def predicates(x: FiniteSpace) -> PropertyReport:
    """All property flags of a finite T0 space, by the finite theorems.

    A closed set with two maximal points splits into two proper closed
    subsets, so irreducible closed sets are point closures: the space is
    sober, hence well-filtered and a d-space.  Open covers are finite.  The
    principal upper set of a point is its least neighbourhood, and compact
    (C-space, locally hypercompact, locally compact).  An open is way below
    exactly its supersets (core compact).
    """
    return PropertyReport(x.name or "space", **dict.fromkeys(PREDICATE_NAMES, True),
                          witnesses=dict(_FINITE_WITNESSES))


def satisfies_category(x: FiniteSpace, c: CategoryTag) -> bool:
    """Category membership of a finite space: a finite T0 space is sober,
    hence well-filtered, hence a d-space, so it belongs to every category
    (see `predicates`)."""
    return True


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
    rp = reflect(p, c)
    rfs = [reflect(x, c) for x in xs]
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
            if ai not in rfs[i].family:
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
    """The two sides of the biconditional, each an oracle verdict."""

    category: CategoryTag
    product_is_kspace: Verdict
    factors_are_kspaces: Verdict

    @property
    def verdict(self) -> Verdict:
        """Passed when both sides agree, skipped when an oracle skipped."""
        if self.product_is_kspace.holds is None:
            return self.product_is_kspace
        return self.factors_are_kspaces.expect(self.product_is_kspace.holds)


def check_kspace_product(xs: Sequence[Union[FiniteSpace, SymbolicSpace]],
                         c: CategoryTag,
                         caps: Caps | None = None) -> KSpaceProductResult:
    """The product is a K-space iff every factor is.

    Finite factors are handled by the membership oracles on the actual
    product space.  With one symbolic factor the product side is computed
    from the product family algebra: the K-family of a finite product is the
    family of products of factor K-sets, so the product is a K-space iff
    every such pair is a pair of point closures.  The finite factor's half
    of every branch is its membership oracle."""
    caps = caps or default_caps()
    symbolic = [x for x in xs if isinstance(x, SymbolicSpace)]
    finite = [x for x in xs if not isinstance(x, SymbolicSpace)]
    if not symbolic:
        p = product(finite, caps)
        return KSpaceProductResult(c, category(p, c),
                                   conjunction(category(x, c) for x in finite))
    if len(symbolic) > 1:
        raise ValidationError("at most one infinite symbolic factor is supported")
    s = symbolic[0]
    f = product(finite, caps) if finite else None
    if f is None:
        raise ValidationError("a symbolic product check needs a finite factor")
    fin = category(f, c)
    if c is CategoryTag.SOBRIETY:
        pairs_ok = sym_product_irr(s)
        product_side = conjunction([
            Verdict(pairs_ok, "irreducible closed pairs with generic points"), fin])
    else:
        sym_ok = sym_family(s, "dc" if c is CategoryTag.D_SPACE else c
                            ).members_are_point_closures()
        product_side = conjunction([Verdict(sym_ok, f"{s.variant.value} family collapses"),
                                    fin])
    factor_side = conjunction([Verdict(sym_predicates(s).by_category(c),
                                       f"{s.variant.value} predicate"), fin])
    return KSpaceProductResult(c, product_side, factor_side)


# ---------------------------------------------------------------------------
# Smyth categories


def check_smyth_category(x: FiniteSpace, c: CategoryTag) -> Verdict:
    """Whenever `x` is a K-space, its Smyth power space must be one too:
    passed when the base is not a K-space, skipped when an oracle skipped."""
    power = smyth_power(x).space
    base = category(x, c)
    if base.holds is False:
        return Verdict(True, "the base is not a K-space")
    return base if base.holds is None else category(power, c)
