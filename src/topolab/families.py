"""Canonical closed-set families of a finite T0 space.

Point closures S_c, directed-set closures D_c, irreducible closed sets
Irr_c, Rudin sets RD (closed sets minimal among those meeting every member
of some filtered family of compact saturated sets), and the K-set families
attached to the sober / d-space / well-filtered categories.

On a finite T0 space all of these collapse to the point closures: the space
is itself sober (hence an object of each category), so applying the K-set
condition to the identity map forces every closed K-set to be a point
closure.  `k_family` uses that collapse directly; the other families are
computed from their definitions (RD through the single-set reduction), and
the enumerations that check them against S_c live in `oracles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FiniteSpace,
    canonical_masks,
    mask_key,
    specialization_order,
)
from .errors import ContractViolation, ValidationError
from .hyperspaces import ClosedFamily, smyth_power


class CategoryTag(Enum):
    """The three concrete reflective subcategories handled by the library."""

    SOBRIETY = "sob"
    D_SPACE = "d"
    WELL_FILTERED = "wf"

    @property
    def family_label(self) -> str:
        return {"sob": "Sob(X)", "d": "d(X)", "wf": "WF(X)"}[self.value]


ALL_CATEGORIES = (CategoryTag.SOBRIETY, CategoryTag.D_SPACE, CategoryTag.WELL_FILTERED)


# ---------------------------------------------------------------------------
# basic families


def point_closures(x: FiniteSpace) -> ClosedFamily:
    """S_c: the closures of the singletons."""
    return ClosedFamily(x, x.down_masks, label="S_c")


def directed_closures(x: FiniteSpace) -> ClosedFamily:
    """D_c: closures of the subsets directed under the specialization order,
    by enumeration; `oracles.d_space` compares it with S_c."""
    return ClosedFamily(x, tuple(_directed_closure_masks(x)), label="D_c")


def _directed_closure_masks(x: FiniteSpace) -> frozenset[int]:
    """Closures of every directed subset, by enumerating all 2^n subsets."""
    poset = specialization_order(x)
    return frozenset(x.closure(mask) for mask in range(1, 1 << x.n)
                     if poset.is_directed_subset(mask))


def is_irreducible_closed_set(x: FiniteSpace, a: int) -> bool:
    """Nonempty closed `a` is irreducible: it is not the union of two proper
    closed subsets.  Checked by ranging the first component over the closed
    subsets of `a`; the second can then be taken to be cl(a minus first)."""
    if a == 0 or not x.is_closed(a):
        return False
    for f in x.closed_sets:
        if f != a and f & ~a == 0:
            if x.closure(a & ~f) != a:
                return False
    return True


def is_irreducible_subset(x: FiniteSpace, a: int) -> bool:
    """A subset is irreducible iff its closure is an irreducible closed set."""
    return a != 0 and is_irreducible_closed_set(x, x.closure(a))


def irreducible_closed(x: FiniteSpace) -> ClosedFamily:
    """Irr_c: all nonempty irreducible closed subsets."""
    members = [a for a in x.closed_sets if a and is_irreducible_closed_set(x, a)]
    return ClosedFamily(x, tuple(members), label="Irr_c")


# ---------------------------------------------------------------------------
# Rudin sets


@dataclass(frozen=True)
class RudinWitness:
    """A filtered family of compact saturated sets together with a closed set
    certified minimal among the closed sets meeting every member."""

    base: FiniteSpace
    filtered: tuple[int, ...]
    minimal_closed: int

    def __post_init__(self):
        x = self.base
        filtered = tuple(self.filtered)
        object.__setattr__(self, "filtered", filtered)
        if not filtered:
            raise ValidationError("witness family must be nonempty")
        for k in filtered:
            if k == 0:
                raise ValidationError("witness family members must be nonempty")
            if x.saturation(k) != k:
                raise ValidationError(
                    f"witness family member {x.render_subset(k)} is not saturated"
                )
        for a, b in itertools.combinations_with_replacement(filtered, 2):
            if not any(m & ~(a & b) == 0 for m in filtered):
                raise ValidationError(
                    "witness family is not filtered: "
                    f"{x.render_subset(a)} and {x.render_subset(b)} have no lower member"
                )
        a = self.minimal_closed
        if not x.is_closed(a):
            raise ValidationError("witness set is not closed")
        if any(a & k == 0 for k in filtered):
            raise ValidationError("witness set misses a family member")
        for b in x.closed_sets:
            if b != a and b & ~a == 0 and all(b & k for k in filtered):
                raise ValidationError(
                    f"witness set is not minimal: {x.render_subset(b)} also meets all members"
                )


@dataclass(frozen=True)
class RudinSets:
    family: ClosedFamily
    witnesses: dict[int, RudinWitness]


def _minimal_meeting_all(closed: Sequence[int], compacts: Sequence[int]) -> list[int]:
    """Minimal members, in canonical order, of the closed sets meeting every
    compact in `compacts`.  `closed` must be canonically sorted."""
    meeting = [a for a in closed if all(a & k for k in compacts)]
    out = []
    for i, a in enumerate(meeting):
        if not any(b & ~a == 0 for b in meeting[:i]):
            out.append(a)
    return out


def rudin_sets(x: FiniteSpace) -> RudinSets:
    """RD: closed sets with the Rudin property.

    A finite filtered family of compact saturated sets has a least member,
    so a closed set has the Rudin property iff it is minimal among the
    closed sets meeting some single nonempty compact saturated set.  The
    single-set reduction is used here; `oracles.rudin_cross_check` compares
    it with the enumeration of filtered families.
    """
    witnesses: dict[int, RudinWitness] = {}
    for k in x.opens:  # saturated = upper = open; all finite sets are compact
        if k == 0:
            continue
        for a in _minimal_meeting_all(x.closed_sets, (k,)):
            if a not in witnesses:
                witnesses[a] = RudinWitness(x, (k,), a)
    return RudinSets(ClosedFamily(x, tuple(witnesses), label="RD"), witnesses)


# ---------------------------------------------------------------------------
# K-set families


def k_family(x: FiniteSpace, c: CategoryTag) -> ClosedFamily:
    """The closed K-sets of `x` for the category `c`.

    A finite T0 space is sober, hence an object of every category under
    consideration; the identity map then forces each closed K-set to equal a
    point closure, and point closures are K-sets in any T0 space.  So the
    family is S_c(x) for every tag.  (For the sober tag this also coincides
    with Irr_c(x), which the suite checks definitionally.)
    """
    return ClosedFamily(x, x.down_masks, label=c.family_label)


def is_k_set(x: FiniteSpace, a: int, c: CategoryTag) -> bool:
    """A subset is a K-set iff its closure is a member of the K-family."""
    if a == 0:
        return False
    return x.closure(a) in k_family(x, c)


def kset_image_check(f: ContinuousMap, a: int, c: CategoryTag) -> bool:
    """Image closures of K-sets are K-sets: cl(f(a)) must land in the
    target's K-family whenever `a` belongs to the source's."""
    if a not in k_family(f.source, c):
        raise ValidationError("the given set is not a member of the source K-family")
    return f.target.closure(f.image_mask(a)) in k_family(f.target, c)


# ---------------------------------------------------------------------------
# topological Rudin witness search


@dataclass(frozen=True)
class TopologicalRudinResult:
    base: FiniteSpace
    members: tuple[int, ...]
    start_closed: int
    minimal_closed: int


def rudin_witness_search(x: FiniteSpace, members: Sequence[int], c0: int,
                         caps: Caps | None = None) -> TopologicalRudinResult:
    """Given compact saturated sets forming an irreducible subset of the Smyth
    power space and a closed set `c0` meeting all of them, return the
    canonically least closed subset of `c0` that still meets all members and
    is minimal with that property.  Minimality is certified by scanning every
    proper closed subset, and irreducibility of the result is verified
    definitionally.
    """
    caps = caps or default_caps()
    members = canonical_masks(members)
    if not members:
        raise ValidationError("member list must be nonempty")
    if not x.is_closed(c0):
        raise ValidationError("starting set is not closed")
    for m in members:
        if m == 0:
            raise ValidationError("members must be nonempty")
        if x.saturation(m) != m:
            raise ValidationError(f"member {x.render_subset(m)} is not saturated")
        if m & c0 == 0:
            raise ValidationError(
                f"member {x.render_subset(m)} does not meet the starting closed set"
            )
    ps = smyth_power(x, caps)
    point_set = 0
    for m in members:
        point_set |= 1 << ps.point_of_member(m)
    if not is_irreducible_subset(ps.space, point_set):
        raise ValidationError("member family is not irreducible in the Smyth power space")

    candidates = [a for a in x.closed_sets
                  if a & ~c0 == 0 and all(a & m for m in members)]
    minimal = []
    for i, a in enumerate(candidates):
        if not any(b & ~a == 0 for b in candidates[:i]):
            minimal.append(a)
    if not minimal:
        raise ContractViolation("no closed subset meets all members")
    result = min(minimal, key=mask_key)
    if not is_irreducible_closed_set(x, result):
        raise ContractViolation(
            "minimal meeting set is not irreducible although the member family is"
        )
    return TopologicalRudinResult(x, members, c0, result)
