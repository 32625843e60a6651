"""Canonical closed-set families of a finite T0 space.

Point closures S_c, directed-set closures D_c, irreducible closed sets
Irr_c, Rudin sets RD (closed sets minimal among those meeting every member
of some filtered family of compact saturated sets), and the K-set families
attached to the sober / d-space / well-filtered categories.

On a finite T0 space all of these are the point closures, read off the
specialization order (Stong 1966): a directed subset has a maximum, an
irreducible closed set has a unique maximal point, and the minimal closed
sets meeting an upper set k are the closures of the minimal points of k.
The space is itself sober (hence an object of each category), so applying
the K-set condition to the identity map forces every closed K-set to be a
point closure too.  The enumerations that check these answers from the
definitions live in `oracles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core_space import FiniteSpace, bit_indices, canonical_masks, mask_key
from .errors import ValidationError
from .hyperspaces import ClosedFamily


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
    """D_c: closures of the directed subsets.  A finite directed set has a
    maximum, whose closure is the closure of the set; `oracles.d_space`
    enumerates the directed subsets."""
    return ClosedFamily(x, x.down_masks, label="D_c")


def is_irreducible_closed_set(x: FiniteSpace, a: int) -> bool:
    """Closed `a` is irreducible (nonempty, not the union of two proper
    closed subsets) iff it is a point closure: the closures of its maximal
    points cover it, so it has exactly one."""
    return a in x.down_masks


def is_irreducible_subset(x: FiniteSpace, a: int) -> bool:
    """A subset is irreducible iff its closure is an irreducible closed set."""
    return a != 0 and x.closure(a) in x.down_masks


def irreducible_closed(x: FiniteSpace) -> ClosedFamily:
    """Irr_c: all nonempty irreducible closed subsets, the point closures;
    `oracles.irreducible_closed_sets` tests every closed set."""
    return ClosedFamily(x, x.down_masks, label="Irr_c")


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
        # A proper closed subset of `a` misses a maximal point of `a`, so it
        # lies inside `a` minus that point, which is closed; meeting every
        # member carries over to supersets, so these sets decide minimality.
        for i in bit_indices(a):
            b = a & ~(1 << i)
            if x.up_masks[i] & b == 0 and all(b & k for k in filtered):
                raise ValidationError(
                    f"witness set is not minimal: {x.render_subset(b)} also meets all members"
                )


@dataclass(frozen=True)
class RudinSets:
    family: ClosedFamily
    witnesses: dict[int, RudinWitness]


def rudin_sets(x: FiniteSpace) -> RudinSets:
    """RD: closed sets with the Rudin property.

    A finite filtered family of compact saturated sets has a least member,
    so RD holds the closed sets minimal among those meeting one nonempty
    upper set k: the closures of the minimal points of k.  RD is thus S_c,
    and the closure of q is witnessed first, in canonical order, by the
    upper set of q.  `oracles.rudin_sets_by_filtered_enumeration` enumerates
    the filtered families.
    """
    witnesses: dict[int, RudinWitness] = {}
    for q in sorted(range(x.n), key=lambda q: mask_key(x.up_masks[q])):
        witnesses[x.down_masks[q]] = RudinWitness(x, (x.up_masks[q],), x.down_masks[q])
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


# ---------------------------------------------------------------------------
# topological Rudin witness search


def rudin_witness_search(x: FiniteSpace, members: Sequence[int], c0: int) -> int:
    """Given compact saturated sets forming an irreducible subset of the Smyth
    power space and a closed set `c0` meeting all of them, return the
    canonically least closed subset of `c0` minimal among those meeting
    every member.

    The Smyth order is reverse inclusion, so the members are irreducible iff
    one of them, m0, lies inside every other.  A closed set meets every
    member iff it meets m0, so the minimal ones inside `c0` are point
    closures of points of m0 in `c0`; the canonically least of those is
    minimal, since a smaller point closure inside it comes first.
    """
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
    m0 = members[0]  # canonical order: a member inside every other comes first
    if any(m0 & ~m for m in members):
        raise ValidationError("member family is not irreducible in the Smyth power space")
    return min((x.down_masks[q] for q in bit_indices(m0 & c0)), key=mask_key)
