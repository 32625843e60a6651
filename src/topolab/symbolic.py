"""Closed-form computation on finitely presentable infinite spaces.

Two base spaces are supported: the natural numbers under the Scott topology
of the usual chain order (closed sets: the empty set, the principal down
sets, and the whole carrier) and the naturals under the cofinite topology
(closed sets: the finite sets and the whole carrier).  Reflections of these
spaces land in two further variants, the chain with one new top point and
the cofinite space with one generic point adjoined, so the variant set is
closed under reflection.  Anything outside this closed world raises
UnsupportedSpaceError rather than approximating.

Family descriptors record one bit beyond the ever-present point closures:
whether the whole carrier belongs to the family.  That is exact for every
family handled here:

* chain: the carrier is the closure of the unbounded directed set of all
  naturals, so it lies in D_c and everything above it in the sandwich
  S_c <= D_c <= RD <= WF <= Irr_c; it is not a point closure (no top).
* cofinite: the specialization order is discrete, so directed sets are
  singletons and D_c collapses to the point closures; the space is a
  d-space for the same reason, so its d-family also collapses.  The carrier
  is minimal among closed sets meeting every member of the filtered family
  of cofinite subsets (all of which are compact saturated), hence a Rudin
  set, hence in the well-filtered family and irreducible.

Not modelled: the Smyth power space of the cofinite space (its compact
saturated sets are all nonempty subsets, which has no finite presentation
here), so the known failure of the d-space property for that power space is
documentation only, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .errors import UnsupportedSpaceError, ValidationError
from .families import CategoryTag

GENERIC_POINT = "⊛"  # the adjoined generic point is always labelled so
OMEGA_POINT = "ω"


class SymbolicVariant(Enum):
    OMEGA_CHAIN = "omega_chain"
    OMEGA_PLUS_ONE = "omega_plus_one"
    COFINITE = "cofinite"
    COFINITE_PLUS_TOP = "cofinite_plus_top"


CHAIN_VARIANTS = (SymbolicVariant.OMEGA_CHAIN, SymbolicVariant.OMEGA_PLUS_ONE)
COFINITE_VARIANTS = (SymbolicVariant.COFINITE, SymbolicVariant.COFINITE_PLUS_TOP)


@dataclass(frozen=True)
class SymbolicSpace:
    variant: SymbolicVariant
    name: str = field(default="", compare=False)

    @property
    def adjoined_point(self) -> Optional[str]:
        """Label of the point whose closure is the whole carrier, if any."""
        if self.variant is SymbolicVariant.OMEGA_PLUS_ONE:
            return OMEGA_POINT
        if self.variant is SymbolicVariant.COFINITE_PLUS_TOP:
            return GENERIC_POINT
        return None


OMEGA_CHAIN = SymbolicSpace(SymbolicVariant.OMEGA_CHAIN, name="omega_chain")
COFINITE = SymbolicSpace(SymbolicVariant.COFINITE, name="cofinite")
OMEGA_PLUS_ONE = SymbolicSpace(SymbolicVariant.OMEGA_PLUS_ONE, name="omega_plus_one")
COFINITE_PLUS_TOP = SymbolicSpace(SymbolicVariant.COFINITE_PLUS_TOP,
                                  name="cofinite_plus_top")


def sym_space_iso(a: SymbolicSpace, b: SymbolicSpace) -> bool:
    return a.variant is b.variant


# ---------------------------------------------------------------------------
# closed and open set descriptors


@dataclass(frozen=True)
class SymbolicClosed:
    """Closed-set descriptor: empty, a principal down set (chain variants),
    a finite set of naturals (cofinite variants), or the whole carrier."""

    kind: str  # "empty" | "down" | "finite_set" | "all"
    n: Optional[int] = None
    elems: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.kind not in ("empty", "down", "finite_set", "all"):
            raise ValidationError(f"unknown closed descriptor kind {self.kind!r}")
        if self.kind == "down" and (self.n is None or self.n < 0):
            raise ValidationError("down descriptor needs a natural number")
        if self.kind == "finite_set":
            if self.elems is None or not self.elems:
                raise ValidationError("finite-set descriptor needs a nonempty finite set")


def closed_down(n: int) -> SymbolicClosed:
    return SymbolicClosed("down", n=n)


def closed_finite(elems) -> SymbolicClosed:
    return SymbolicClosed("finite_set", elems=frozenset(elems))


def closed_all() -> SymbolicClosed:
    return SymbolicClosed("all")


@dataclass(frozen=True)
class SymbolicOpen:
    """Open-set descriptor: empty, an upper set starting at n (chain), or a
    cofinite set avoiding a finite exclusion (cofinite variants).  The whole
    carrier is up(0) respectively the cofinite set with empty exclusion."""

    kind: str  # "empty" | "up" | "cofinite"
    n: Optional[int] = None
    excluded: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.kind not in ("empty", "up", "cofinite"):
            raise ValidationError(f"unknown open descriptor kind {self.kind!r}")
        if self.kind == "up" and (self.n is None or self.n < 0):
            raise ValidationError("up descriptor needs a natural number")
        if self.kind == "cofinite" and self.excluded is None:
            raise ValidationError("cofinite descriptor needs an exclusion set")


def open_empty() -> SymbolicOpen:
    return SymbolicOpen("empty")


def open_up(n: int) -> SymbolicOpen:
    return SymbolicOpen("up", n=n)


def open_cofinite(excluded=()) -> SymbolicOpen:
    return SymbolicOpen("cofinite", excluded=frozenset(excluded))


def sym_open_subset(space: SymbolicSpace, a: SymbolicOpen, b: SymbolicOpen) -> bool:
    if a.kind == "empty":
        return True
    if b.kind == "empty":
        return False
    if space.variant in CHAIN_VARIANTS:
        return a.n >= b.n
    return b.excluded <= a.excluded


def closed_generic_point(space: SymbolicSpace, c: SymbolicClosed) -> Optional[Union[int, str]]:
    """The point whose closure is `c`, when one exists."""
    if c.kind == "down":
        return c.n
    if c.kind == "finite_set" and len(c.elems) == 1:
        return next(iter(c.elems))
    if c.kind == "all":
        return space.adjoined_point
    return None


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class SymbolicFamily:
    """A family of closed sets containing every point closure, plus possibly
    the whole carrier.  `status` is always exact for the supported spaces."""

    space: SymbolicSpace
    kind: str
    includes_all: bool
    status: str = "exact"

    def contains(self, c: SymbolicClosed) -> bool:
        if c.kind == "empty":
            return False
        if c.kind == "all":
            return self.includes_all or self.space.adjoined_point is not None
        if closed_generic_point(self.space, c) is not None:
            return True
        return False

    def members_are_point_closures(self) -> bool:
        """True iff every member is the closure of a point."""
        if not self.includes_all:
            return True
        return self.space.adjoined_point is not None

    def subset_of(self, other: "SymbolicFamily") -> bool:
        if self.space.variant is not other.space.variant:
            raise ValidationError("family comparison needs a common space")
        return (not self.includes_all) or other.includes_all


_FAMILY_KEYS = ("sc", "dc", "rd", "irr", "k_sob", "k_d", "k_wf")

# includes_all per (variant, family); the derivations are in the module
# docstring.  The plus variants normalize to True because the adjoined top
# makes the whole carrier a point closure.
_INCLUDES_ALL = {
    SymbolicVariant.OMEGA_CHAIN: {
        "sc": False, "dc": True, "rd": True, "irr": True,
        "k_sob": True, "k_d": True, "k_wf": True,
    },
    SymbolicVariant.COFINITE: {
        "sc": False, "dc": False, "rd": True, "irr": True,
        "k_sob": True, "k_d": False, "k_wf": True,
    },
    SymbolicVariant.OMEGA_PLUS_ONE: {k: True for k in _FAMILY_KEYS},
    SymbolicVariant.COFINITE_PLUS_TOP: {k: True for k in _FAMILY_KEYS},
}


def _family_key(which: Union[str, CategoryTag]) -> str:
    if isinstance(which, CategoryTag):
        return {"sob": "k_sob", "d": "k_d", "wf": "k_wf"}[which.value]
    key = which.lower()
    if key in ("sc", "dc", "rd", "irr"):
        return key
    raise ValidationError(f"unknown family selector {which!r}")


def sym_family(s: SymbolicSpace, which: Union[str, CategoryTag]) -> SymbolicFamily:
    """The requested closed-set family, exact."""
    key = _family_key(which)
    return SymbolicFamily(s, key, _INCLUDES_ALL[s.variant][key])


# ---------------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class SymbolicPredicates:
    sober: bool
    d_space: bool
    well_filtered: bool
    compact: bool

    def __post_init__(self):
        if self.sober and not self.well_filtered:
            raise ValidationError("sober spaces are well-filtered")
        if self.well_filtered and not self.d_space:
            raise ValidationError("well-filtered spaces are d-spaces")

    def by_category(self, c: CategoryTag) -> bool:
        return {CategoryTag.SOBRIETY: self.sober,
                CategoryTag.D_SPACE: self.d_space,
                CategoryTag.WELL_FILTERED: self.well_filtered}[c]


def sym_predicates(s: SymbolicSpace) -> SymbolicPredicates:
    """Flags computed from the family descriptors: a space fails a category
    membership exactly when the matching family owns a member that is not a
    point closure (the identity map forces the collapse on actual objects),
    and passes it when the family collapses, the construction of the
    reflection being an object of the category."""
    sober = sym_family(s, CategoryTag.SOBRIETY).members_are_point_closures()
    wf = sym_family(s, CategoryTag.WELL_FILTERED).members_are_point_closures()
    d = sym_family(s, "dc").members_are_point_closures()
    # Every variant is compact.  Chains: only the whole carrier up(0) contains
    # 0, so it is a member of every open cover.  Cofinite spaces: any nonempty
    # member of a cover misses finitely many points, each in one more member.
    return SymbolicPredicates(sober, d, wf, compact=True)


# ---------------------------------------------------------------------------
# reflections


@dataclass(frozen=True)
class SymbolicEmbedding:
    """The canonical embedding x -> cl{x} described on points."""

    base: SymbolicSpace
    target: SymbolicSpace

    def image_of(self, point: Union[int, str]) -> SymbolicClosed:
        if isinstance(point, str):
            if point != self.base.adjoined_point:
                raise ValidationError(f"point {point!r} is not in the carrier")
            return closed_all()
        if self.base.variant in CHAIN_VARIANTS:
            return closed_down(point)
        return closed_finite({point})


@dataclass(frozen=True)
class SymbolicReflection:
    category: CategoryTag
    base: SymbolicSpace
    family: SymbolicFamily
    space: SymbolicSpace
    added_points: tuple[str, ...]
    embedding: SymbolicEmbedding


def sym_reflect(s: SymbolicSpace, c: CategoryTag) -> SymbolicReflection:
    """The reflection computed from the closed-form family: the hyperspace of
    the K-family under the hit topology.  When the family is the point
    closures the reflection is the space itself; when it additionally owns
    the whole carrier, which no point of the space has as its closure, the
    reflection adjoins exactly one point whose closure is everything."""
    family = sym_family(s, c)
    if family.includes_all and s.adjoined_point is None:
        target = OMEGA_PLUS_ONE if s.variant in CHAIN_VARIANTS else COFINITE_PLUS_TOP
        added: tuple[str, ...] = (target.adjoined_point,)
    else:
        target, added = s, ()
    return SymbolicReflection(c, s, family, target, added, SymbolicEmbedding(s, target))


def reflection_open_of(base: SymbolicSpace, target: SymbolicSpace,
                       o: SymbolicOpen) -> SymbolicOpen:
    """The diamond image of a base open in the reflection: its points are the
    point closures of members of the open plus, when present, the adjoined
    generic point, which every nonempty open contains.  The descriptor
    parameter is therefore carried over unchanged."""
    if o.kind == "empty":
        return open_empty()
    if base.variant in CHAIN_VARIANTS and target.variant in CHAIN_VARIANTS:
        return open_up(o.n)
    if base.variant in COFINITE_VARIANTS and target.variant in COFINITE_VARIANTS:
        return open_cofinite(o.excluded)
    raise UnsupportedSpaceError("reflection open transfer needs matching variants")


# ---------------------------------------------------------------------------
# products with a finite factor


def sym_product_irr(s: SymbolicSpace) -> bool:
    """Whether every irreducible closed set B x C of the product of `s` with
    a finite factor has a generic point.  The irreducible closed sets of
    the product are exactly the products of irreducible closed factor sets,
    and B x C has one iff B and C both do (closures multiply across finite
    products).  Every C does, every finite T0 factor being sober, so the
    answer does not depend on the factor; `check_kspace_product` takes the
    factor's half from `oracles.sober`."""
    return sym_family(s, "irr").members_are_point_closures()
