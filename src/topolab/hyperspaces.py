"""Hyperspaces of closed sets: the hit-topology space P_H(G) on a family of
closed sets, the Smyth power space P_S(X) on compact saturated sets, and the
canonical embeddings eta (x -> cl{x}) and xi (x -> up x).

On a finite carrier the topology generated by the subbasic sets
diamond(U) = {G : G meets U} coincides with the family of all upper sets of
(G, set inclusion): the generated topology is a finite topology, hence
Alexandrov, and its specialization order is inclusion because the members
are closed.  The builders therefore build each hyperspace from its
inclusion rows and list its open lattice only when asked, and the canonical
embeddings are certified as order embeddings.  `oracles.diamond_lattice`,
`oracles.box_lattice`, `oracles.eta_laws` and `oracles.xi_laws` check both
from the subbases, open by open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core_space import ContinuousMap, FiniteSpace, _transpose, bit_indices, canonical_masks, lazy
from .errors import ContractViolation, ValidationError


@dataclass(frozen=True)
class ClosedFamily:
    """A distinguished family of closed subsets of a base space.

    Members are canonical (popcount, value) sorted masks.  `ClosedFamily(...)`
    validates every member: a point closure of the base passes by one set
    lookup (it is closed because the stored order is transitive), and any
    other member is tested with `is_closed`.  Only the theorem builders of
    `families` skip this, through `_of_point_closures`.
    """

    base: FiniteSpace
    members: tuple[int, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self):
        members = canonical_masks(self.members)
        object.__setattr__(self, "members", members)
        closures = self.base._closure_points
        for m in members:
            if m not in closures and not self.base.is_closed(m):
                raise ValidationError(
                    f"family member {self.base.render_subset(m)} is not closed in the base"
                )

    @classmethod
    def _of_point_closures(cls, x: FiniteSpace, label: str) -> "ClosedFamily":
        """S_c of `x` under `label`, with the members the space keeps
        (`FiniteSpace._sc_members`): closed and canonical, so trusted."""
        out = object.__new__(cls)
        object.__setattr__(out, "base", x)
        object.__setattr__(out, "members", x._sc_members)
        object.__setattr__(out, "label", label)
        return out

    @lazy
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


def _inclusion_up_rows(base: FiniteSpace, members: tuple[int, ...]) -> list[int]:
    """Row k is the index mask of the members containing member k, for
    members that are closed sets of `base`.  A member that is a point
    closure cl{x} is contained in exactly the members that hold x (they
    are lower sets), so its row is one lookup in the point -> members
    table; any other member's row is the AND of the table's rows over its
    points."""
    containing = _transpose(members)  # point -> members holding it
    closure_points = base._closure_points
    rows = []
    for a in members:
        x = closure_points.get(a)
        if x is None:
            row = (1 << len(members)) - 1
            for p in bit_indices(a):
                row &= containing[p]
        else:
            row = containing[x]
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


def lower_vietoris(g: ClosedFamily) -> HyperSpace:
    """The space of `g` under the topology generated by the diamond sets."""
    if not g.members:
        raise ValidationError("lower Vietoris construction needs a nonempty family")
    for m in g.members:
        if m == 0:
            raise ValidationError("family members must be nonempty")
    name = f"P_H({g.label or 'G'})" + (f"@{g.base.name}" if g.base.name else "")
    space = FiniteSpace._of_order(_member_labels(g), _inclusion_up_rows(g.base, g.members), name)
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

    @lazy
    def _member_index(self) -> dict[int, int]:
        return {m: k for k, m in enumerate(self.members)}

    def supercompact_members(self) -> tuple[int, ...]:
        """Members every open cover of which has a single covering member;
        exactly the principal upper sets."""
        principal = {self.base.up_masks[i] for i in range(self.base.n)}
        return tuple(m for m in self.members if m in principal)


def smyth_power(x: FiniteSpace) -> SmythSpace:
    """P_S(x), whose points are the nonempty opens of `x`: it lists the
    open lattice of `x`, which raises ResourceCapError past `max_opens`."""
    members = tuple(u for u in x.opens if u)
    # Smyth order, a below b iff b is a subset of a: inclusion of complements
    rows = _inclusion_up_rows(x, tuple(x.full_mask ^ m for m in members))
    labels = tuple(x.render_subset(m) for m in members)
    space = FiniteSpace._of_order(labels, rows, f"P_S({x.name})" if x.name else "P_S")
    return SmythSpace(x, members, space)


def _is_order_embedding(f: ContinuousMap) -> bool:
    """i <= j iff f(i) <= f(j): the preimage of the row of f(i) is the row of
    i.  Between finite T0 spaces this is exactly a topological embedding, as
    the opens on both sides are the upper sets.

    The preimages are built from the fibres of the image points, from the
    maximal ones down: the preimage of the row of v is the fibre of v ORed
    with the preimages of the rows of image points above v, skipping each
    point already inside a row taken, so a row costs about one OR per
    point covering it in the image, not a pass over the source."""
    fibres: dict[int, int] = {}  # image point -> the source points mapped to it
    for i, v in enumerate(f.mapping):
        fibres[v] = fibres.get(v, 0) | 1 << i
    image = sum(1 << v for v in fibres)
    target_up = f.target.up_masks
    preimage: dict[int, int] = {}  # image point -> the preimage of its row
    for v in sorted(fibres, key=lambda v: target_up[v].bit_count()):
        pre, taken = fibres[v], 1 << v
        rest = target_up[v] & image & ~taken
        while rest:
            w = (rest & -rest).bit_length() - 1
            pre |= preimage[w]  # w is above v, so its row is smaller and done
            taken |= target_up[w]
            rest &= ~taken
        preimage[v] = pre
    return all(preimage[v] == row for row, v in zip(f.source.up_masks, f.mapping))


def eta(g: ClosedFamily, hyper: HyperSpace | None = None) -> ContinuousMap:
    """The canonical embedding x -> cl{x} of the base into P_H(g).

    Requires every point closure to be a member; verifies that the map is
    an order embedding, hence a topological one.
    """
    hv = hyper if hyper is not None else lower_vietoris(g)
    base = g.base
    index = g._member_index
    try:  # member positions, so points of the hyperspace
        mapping = tuple([index[cl] for cl in base.down_masks])
    except KeyError as exc:
        raise ValidationError(
            f"point closure {base.render_subset(exc.args[0])} is missing from the family"
        ) from None
    f = ContinuousMap._of_table(base, hv.space, mapping)
    if not _is_order_embedding(f):
        raise ContractViolation("canonical embedding is not an order embedding")
    return f


def xi(x: FiniteSpace, smyth: SmythSpace | None = None) -> ContinuousMap:
    """The canonical embedding x -> up x of the base into P_S(x), verified
    to be an order embedding."""
    ps = smyth if smyth is not None else smyth_power(x)
    mapping = tuple(ps.point_of_member(x.up_masks[i]) for i in range(x.n))
    f = ContinuousMap(x, ps.space, mapping)
    if not _is_order_embedding(f):
        raise ContractViolation("xi is not an order embedding")
    return f
