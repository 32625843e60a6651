"""Hyperspaces of closed sets: the hit-topology space P_H(G) on a family of
closed sets, the Smyth power space P_S(X) on compact saturated sets, and the
canonical embeddings eta (x -> cl{x}) and xi (x -> up x).

On a finite carrier the topology generated by the subbasic sets
diamond(U) = {G : G meets U} coincides with the family of all upper sets of
(G, set inclusion): the generated topology is a finite topology, hence
Alexandrov, and its specialization order is inclusion because the members
are closed.  The builders therefore materialize the open lattice from the
inclusion order; `oracles.diamond_lattice` and `oracles.box_lattice` perform
the raw subbase closures so tests can confirm the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FiniteSpace,
    _upper_sets,
    canonical_masks,
    check_continuous,
)
from .errors import ContractViolation, ResourceCapError, ValidationError


@dataclass(frozen=True)
class ClosedFamily:
    """A distinguished family of closed subsets of a base space.

    Members are canonical (popcount, value) sorted masks.
    """

    base: FiniteSpace
    members: tuple[int, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        members = canonical_masks(self.members)
        object.__setattr__(self, "members", members)
        for m in members:
            if not self.base.is_closed(m):
                raise ValidationError(
                    f"family member {self.base.render_subset(m)} is not closed in the base"
                )

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def _member_index(self) -> dict[int, int]:
        return {m: k for k, m in enumerate(self.members)}

    def member_position(self, mask: int) -> int:
        try:
            return self._member_index[mask]
        except KeyError:
            raise ValidationError(
                f"{self.base.render_subset(mask)} is not a member of the family"
            ) from None

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_index

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


def diamond(g: ClosedFamily, a: int) -> int:
    """Index mask of members meeting `a` (canonical member ordering)."""
    out = 0
    for k, m in enumerate(g.members):
        if m & a:
            out |= 1 << k
    return out


def box(g: ClosedFamily | SmythSpace, a: int) -> int:
    """Index mask of members contained in `a`."""
    out = 0
    for k, m in enumerate(g.members):
        if m & ~a == 0:
            out |= 1 << k
    return out


def _member_labels(g: ClosedFamily) -> tuple[str, ...]:
    return tuple(g.base.render_subset(m) for m in g.members)


def _inclusion_up_rows(members: tuple[int, ...]) -> list[int]:
    """Row k is the index mask of the members containing member k."""
    rows = []
    for a in members:
        row = 0
        for k, b in enumerate(members):
            if a & ~b == 0:
                row |= 1 << k
        rows.append(row)
    return rows


@dataclass(frozen=True)
class HyperSpace:
    """P_H(G): a finite space whose points are the members of a closed family."""

    family: ClosedFamily
    space: FiniteSpace

    @property
    def base(self) -> FiniteSpace:
        return self.family.base


def lower_vietoris(g: ClosedFamily, caps: Caps | None = None) -> HyperSpace:
    """The space of `g` under the topology generated by the diamond sets."""
    caps = caps or default_caps()
    if not g.members:
        raise ValidationError("lower Vietoris construction needs a nonempty family")
    for m in g.members:
        if m == 0:
            raise ValidationError("family members must be nonempty")
    if g.base.n > caps.max_hyper_base_points:
        raise ResourceCapError(
            f"base space has {g.base.n} points, hyperspace cap is {caps.max_hyper_base_points}"
        )
    rows = _inclusion_up_rows(g.members)
    opens = _upper_sets(rows, limit=caps.max_opens)
    if opens is None:
        raise ResourceCapError("hyperspace open lattice exceeds cap")
    name = f"P_H({g.label or 'G'})" + (f"@{g.base.name}" if g.base.name else "")
    space = FiniteSpace._of_order(_member_labels(g), rows, opens, name=name)
    return HyperSpace(g, space)


@dataclass(frozen=True)
class SmythSpace:
    """P_S(X): nonempty compact saturated sets under the box topology.

    Every subset of a finite space is compact, and the saturated sets are
    exactly the upper sets, so the points are the nonempty open masks of the
    base.  The specialization order is the Smyth order (reverse inclusion).
    """

    base: FiniteSpace
    members: tuple[int, ...]
    space: FiniteSpace

    def point_of_member(self, mask: int) -> int:
        return self._member_index[mask]

    @cached_property
    def _member_index(self) -> dict[int, int]:
        return {m: k for k, m in enumerate(self.members)}

    def supercompact_members(self) -> tuple[int, ...]:
        """Members every open cover of which has a single covering member;
        exactly the principal upper sets."""
        principal = {self.base.up_masks[i] for i in range(self.base.n)}
        return tuple(m for m in self.members if m in principal)


def smyth_power(x: FiniteSpace, caps: Caps | None = None) -> SmythSpace:
    caps = caps or default_caps()
    if x.n > caps.max_hyper_base_points:
        raise ResourceCapError(
            f"base space has {x.n} points, hyperspace cap is {caps.max_hyper_base_points}"
        )
    members = tuple(u for u in x.opens if u)
    # Smyth order, a below b iff b is a subset of a: inclusion of complements
    rows = _inclusion_up_rows(tuple(x.full_mask ^ m for m in members))
    opens = _upper_sets(rows, limit=caps.max_opens)
    if opens is None:
        raise ResourceCapError("Smyth power open lattice exceeds cap")
    labels = tuple(x.render_subset(m) for m in members)
    space = FiniteSpace._of_order(labels, rows, opens,
                                  name=f"P_S({x.name})" if x.name else "P_S")
    return SmythSpace(x, members, space)


def eta(g: ClosedFamily, hyper: HyperSpace | None = None,
        caps: Caps | None = None) -> ContinuousMap:
    """The canonical embedding x -> cl{x} of the base into P_H(g).

    Requires every point closure to be a member; verifies that the map is an
    injective continuous open embedding with eta^{-1}(diamond U) = U.
    """
    hv = hyper if hyper is not None else lower_vietoris(g, caps)
    base = g.base
    mapping = []
    for i in range(base.n):
        cl = base.down_masks[i]
        if cl not in g:
            raise ValidationError(
                f"point closure {base.render_subset(cl)} is missing from the family"
            )
        mapping.append(g.member_position(cl))
    f = ContinuousMap(base, hv.space, tuple(mapping))
    if not f.is_injective():
        raise ContractViolation("canonical embedding is not injective")
    if not check_continuous(f).ok:
        raise ContractViolation("canonical embedding is not continuous")
    image = f.image_mask(base.full_mask)
    for u in base.opens:
        d = diamond(g, u)
        if f.preimage_mask(d) != u:
            raise ContractViolation(
                f"eta preimage of diamond {base.render_subset(u)} differs from the open"
            )
        if f.image_mask(u) != d & image:
            raise ContractViolation("eta is not open onto its image")
    return f


def xi(x: FiniteSpace, smyth: SmythSpace | None = None,
       caps: Caps | None = None) -> ContinuousMap:
    """The canonical embedding x -> up x of the base into P_S(x)."""
    ps = smyth if smyth is not None else smyth_power(x, caps)
    mapping = tuple(ps.point_of_member(x.up_masks[i]) for i in range(x.n))
    f = ContinuousMap(x, ps.space, mapping)
    if not f.is_injective():
        raise ContractViolation("xi is not injective")
    if not check_continuous(f).ok:
        raise ContractViolation("xi is not continuous")
    image = f.image_mask(x.full_mask)
    expected_image = 0
    for m in ps.supercompact_members():
        expected_image |= 1 << ps.point_of_member(m)
    if image != expected_image:
        raise ContractViolation("xi image differs from the supercompact members")
    for u in x.opens:
        b = box(ps, u)
        if f.preimage_mask(b) != u:
            raise ContractViolation("xi preimage of a box differs from the open")
        if f.image_mask(u) != b & image:
            raise ContractViolation("xi is not open onto its image")
    return f
