"""Finite T0 spaces, stored as their specialization orders, and continuous
point maps.

Subsets of a carrier are bit masks over the point index.  Families of
subsets are kept sorted by (popcount, numeric value) so that every
enumeration in the library is deterministic.  All values are immutable
after construction; validation is eager and names the violated axiom.

A finite topology is automatically Alexandrov: each point has a least open
neighbourhood (the finite intersection of its neighbourhoods), so the opens
of a valid space are exactly the upper sets of its specialization order.
Validation exploits this.  In canonical order the first open that holds a
point is its least open if the family is a topology, so those opens are
taken as the order rows, and the family is accepted by one set comparison
with the upper sets of the rows (any such family of upper sets is a T0
topology).  Only a refused family has its order derived from every open,
to name the axiom it violates.  A space is therefore stored as its order
rows; its open lattice, which can be exponentially larger, is listed only
when asked for.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .caps import Caps, default_caps
from .errors import ResourceCapError, ValidationError


# ---------------------------------------------------------------------------
# bit-mask helpers


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_key(mask: int) -> tuple[int, int]:
    """Canonical (popcount, value) sort key for point-set masks."""
    return (mask.bit_count(), mask)


def canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct masks in mask_key order: a stable sort by popcount of
    the masks sorted by value (two C sorts, no Python key)."""
    return tuple(sorted(sorted(set(masks)), key=int.bit_count))


def compress_mask(mask: int, positions: Sequence[int]) -> int:
    """Re-index a mask onto the sub-carrier given by `positions`."""
    out = 0
    for new, old in enumerate(positions):
        if mask >> old & 1:
            out |= 1 << new
    return out


def _upper_sets(up_rows: Sequence[int], limit: int) -> Optional[list[int]]:
    """All upper sets of the partial order whose row i is the mask above i,
    in no particular order (callers sort them or compare them as a set).
    Every partial set of _grown_upper_sets extends to at least one upper
    set, so this returns None as soon as more than `limit` of them exist.
    """
    sets = [0]
    for sets in _grown_upper_sets(up_rows, range(len(up_rows))):
        if len(sets) > limit:
            return None
    return sets


def _grown_upper_sets(up_rows: Sequence[int], points: Iterable[int]) -> Iterator[list[int]]:
    """The upper sets of `points`, an up-closed set of points, grown one
    point at a time: after each point is placed, this yields (as one list,
    grown in place) the upper sets of the points placed so far.

    The points are placed from maximal elements down (the points above a
    point have smaller up-rows, so they are placed before it), and a point
    goes into each set that already holds its strict up-row: one list
    comprehension per point, and each set is built once, by the step of
    its last point."""
    sets = [0]
    for i in sorted(points, key=lambda i: up_rows[i].bit_count()):
        bit = 1 << i
        up = up_rows[i] & ~bit
        sets += [m | bit for m in sets if m & up == up]
        yield sets


# open_count lists a component while its partial sets number at most this
# many per point placed.  A chain's k + 1 opens stay under any multiple of at
# least 2.  Random orders of edge probability 1/2 have a few opens per point:
# 4 sent three of five 40-point ones to the recursion, at 2.7 times the cost
# of listing them, where 8 lists them all.  A wide lattice outgrows 8 per
# point within about six points (its maximal points double the sets), and a
# larger multiple only lists longer before giving up: with 16, 24-point
# orders of edge probability 1/8 took about 9% longer than with 8.
THIN_OPENS_PER_POINT = 8


def _thin_count(up_rows: Sequence[int], points: Iterable[int], limit: int) -> Optional[int]:
    """The number of upper sets of `points`, an up-closed set of points,
    or None as soon as the partial sets of _grown_upper_sets outnumber
    THIN_OPENS_PER_POINT times the points placed, or `limit`."""
    sets = [0]
    for placed, sets in enumerate(_grown_upper_sets(up_rows, points), 1):
        if len(sets) > min(THIN_OPENS_PER_POINT * placed, limit):
            return None
    return len(sets)


def _transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The converse relation: bit i of row j is bit j of row i, with one row
    per bit position up to the highest set bit (n rows for an order on n
    points, whose row i holds bit i).  The rows are written as binary
    strings, highest row first, so that the k-th column, read down, is the
    binary numeral of row k of the result (one string pass per row instead
    of one step per related pair, which a long chain has quadratically many
    of)."""
    width = f"0{max(rows, default=0).bit_length()}b"
    columns = [int("".join(c), 2) for c in zip(*[format(r, width) for r in reversed(rows)])]
    return tuple(reversed(columns))


class lazy:
    """A lazy view, computed on first read into the instance __dict__, where
    later reads find it before this non-data descriptor (frozen dataclasses
    too: __setattr__ is bypassed).  functools.cached_property takes a
    class-wide RLock at each first read on Python 3.10 and 3.11; a view is a
    pure function of its immutable instance, so a race stores equal values."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# ---------------------------------------------------------------------------
# spaces


def _labels(points: Sequence[str], mask: int) -> tuple[str, ...]:
    """The labels of the set bits of `mask`, lowest bit first."""
    # one pass over the labels and the binary digits
    return tuple([p for p, bit in zip(points, bin(mask)[:1:-1]) if bit == "1"])


def _checked_points(points: Iterable[str]) -> tuple[str, ...]:
    points = tuple(points)
    if not points:
        raise ValidationError("space must have at least one point (empty spaces are rejected)")
    if len(set(points)) != len(points):
        raise ValidationError("point labels must be distinct")
    if any(not isinstance(p, str) or not p for p in points):
        raise ValidationError("point labels must be nonempty strings")
    return points


@dataclass(frozen=True, init=False)
class FiniteSpace:
    """A finite T0 space, defined by its points and its up-rows (row i is
    the least open neighbourhood of point i, the set above i in the
    specialization order); the open and closed lattices are lazy views."""

    points: tuple[str, ...]
    up_masks: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __init__(self, points: Iterable[str], opens: Iterable[int], name: str = ""):
        """Validate an open-set family, which becomes the `opens` view.

        Row i is the first open, in canonical order, that holds i; in a
        topology that is the least open holding i.  The family is accepted
        iff it equals the set of upper sets of the rows: one set comparison.
        _upper_sets puts a point in a set only with the rest of its row,
        decided before it, so its sets are closed under union and
        intersection and are the upper sets of an order: an accepted family
        is a T0 topology and the rows are its order.  Only a refused family
        has its order derived from every open (through the transpose), to
        name the axiom it violates."""
        points = _checked_points(points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "name", name)
        n = len(points)
        full = (1 << n) - 1
        opens = canonical_masks(opens)
        if opens and (min(opens) < 0 or max(opens) > full):
            raise ValidationError("an open set is not a subset of the carrier")
        opens_set = frozenset(opens)
        if 0 not in opens_set:
            raise ValidationError("the empty set is not open")
        if full not in opens_set:
            raise ValidationError("the full carrier is not open")

        rows = [0] * n
        seen = 0
        for u in opens:
            for i in bit_indices(u & ~seen):
                rows[i] = u
            seen |= u
            if seen == full:
                break
        ups = _upper_sets(rows, limit=len(opens))
        if ups is not None and frozenset(ups) == opens_set:
            object.__setattr__(self, "up_masks", tuple(rows))
            self.__dict__["opens"] = opens
            return

        # j is above i iff every open that holds i also holds j
        holders = _transpose(opens)  # point -> the opens that hold it
        up = [sum(1 << j for j, other in enumerate(holders) if mine & other == mine)
              for mine in holders]
        self._check_t0(up)
        # every member is an upper set of `up`; the family must hold them all
        for m in up:
            if m not in opens_set:
                raise ValidationError(
                    "opens are not closed under intersection: "
                    f"{self.render_subset(m)} is missing"
                )
        # Each row of `up` is open, so it is the least open holding its
        # point: `up` is the order of the rows taken above, and the family, a
        # set of its upper sets, lacks one of them.  Every upper set is a
        # union of rows, so some open | row is missing.
        missing = next(a | r for a in opens for r in up if a | r not in opens_set)
        raise ValidationError(
            "opens are not closed under union: "
            f"{self.render_subset(missing)} is missing"
        )

    @classmethod
    def _of_order(cls, points: Sequence[str], up_rows: Sequence[int],
                  name: str = "") -> "FiniteSpace":
        """The space of a partial order given by its rows (row i is the set
        above i); the order is trusted, so only the labels are checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "points", _checked_points(points))
        object.__setattr__(out, "up_masks", tuple(up_rows))
        object.__setattr__(out, "name", name)
        return out

    def _check_t0(self, up: Sequence[int]) -> None:
        seen: dict[int, int] = {}
        for i, m in enumerate(up):
            if m in seen:
                raise ValidationError(
                    f"not T0: points {self.points[seen[m]]!r} and {self.points[i]!r} "
                    "have identical minimal neighbourhoods"
                )
            seen[m] = i

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @lazy
    def opens(self) -> tuple[int, ...]:
        """Every open, in canonical order: the upper sets of the
        specialization order.  Raises ResourceCapError when there are more
        than `max_opens` of them."""
        limit = default_caps().max_opens
        ups = _upper_sets(self.up_masks, limit=limit)
        if ups is None:
            raise ResourceCapError(f"open lattice of {self.name or 'the space'}",
                                   "max_opens", limit)
        return canonical_masks(ups)

    @lazy
    def open_count(self) -> int:
        """The number of opens, listed only where the lattice is thin.

        A built `opens` view (a topology-form document's) is counted as it
        stands.  An order with no isolated point is listed whole first
        (_grown_upper_sets), with no down-row transpose, while its partial
        sets stay within THIN_OPENS_PER_POINT times the points placed so
        far, and within `max_opens`: a chain's k + 1 opens do, so a long
        chain is counted in k steps of one list comprehension each, and a
        wide lattice outgrows the bound within a few points.  Otherwise the
        count is the product over connected components, an isolated point
        doubles it, and a larger component is listed in the same way; one
        that outgrows the bound is counted by its antichains (an upper set
        is the up-closure of its minimal points):
        A(P) = A(P - x) + A(P - (up x | down x)), memoized on masks, with x
        a point of most comparabilities.  The subproblems are not listed:
        trying each of them cost wide orders more than it saved.  Counting
        antichains is #P-complete (Provan and Ball 1983), so the memo, not
        the answer, is bounded by `max_opens`: past it this raises
        ResourceCapError.  Each memoized component adds at least one to the
        count, so the memo stays below the number of opens, and the count
        answers wherever the `opens` view would.  The recursion runs on an
        explicit stack of generators (each yields the masks it needs
        counted), so its depth, which is the length of a chain, is not
        bounded by the interpreter's.
        """
        if "opens" in self.__dict__:  # a built view is counted, never listed again
            return len(self.__dict__["opens"])
        limit = default_caps().max_opens
        up_rows, n, full = self.up_masks, self.n, self.full_mask
        # an isolated point (its row holds it alone, and no row of two or more
        # points holds it) doubles every listing: such an order goes to components
        related = reduce(int.__or__, (row for row in up_rows if row & (row - 1)), 0)
        if all(row & (row - 1) or row & related for row in up_rows):
            got = _thin_count(up_rows, range(n), limit)
            if got is not None:
                return got
        near = [u | d for u, d in zip(up_rows, self.down_masks)]
        memo: dict[int, int] = {}

        def count(mask: int, listing: bool) -> Iterator[int]:
            """The opens of the suborder on `mask`; the components of the
            whole order (`listing`) are listed when thin."""
            total = 1
            while mask:
                comp = frontier = mask & -mask
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= near[low.bit_length() - 1]
                    frontier ^= low
                    if not frontier:
                        frontier = reach & mask & ~comp
                        comp |= frontier
                mask &= ~comp
                if comp & (comp - 1) == 0:
                    total *= 2  # an isolated point doubles the count
                    continue
                got = memo.get(comp)
                if got is None and listing and comp != full:
                    got = _thin_count(up_rows, bit_indices(comp), limit)
                if got is None:
                    if len(memo) >= limit:
                        raise ResourceCapError(f"open count of {self.name or 'the space'}",
                                               "max_opens", limit)
                    x = max(bit_indices(comp), key=lambda i: (near[i] & comp).bit_count())
                    without_x = yield comp & ~(1 << x)
                    got = memo[comp] = without_x + (yield comp & ~near[x])
                total *= got
            return total

        stack = [count(full, True)]
        value = None
        while True:
            try:
                mask = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
                continue
            if mask & (mask - 1):
                stack.append(count(mask, False))
                value = None
            else:
                value = 2 if mask else 1  # no point or one point: no generator needed

    @lazy
    def closed_sets(self) -> tuple[int, ...]:
        """Every closed set, in canonical order; built from the `opens` view."""
        full = self.full_mask
        return canonical_masks(full ^ u for u in self.opens)

    @lazy
    def down_masks(self) -> tuple[int, ...]:
        return _transpose(self.up_masks)

    @lazy
    def _sc_members(self) -> tuple[int, ...]:
        """S_c in canonical order, the members of every family in `families`."""
        return canonical_masks(self.down_masks)

    @lazy
    def _closure_points(self) -> dict[int, int]:
        """Each point closure and its point: a point closure is closed,
        since the stored order is transitive, so membership here answers
        `is_closed`."""
        return {d: i for i, d in enumerate(self.down_masks)}

    def covers(self) -> list[tuple[int, int]]:
        """Hasse pairs (i, j) of the specialization order, i < j with nothing
        strictly between, ordered by i and then j.

        The points covering i are the minimal points of its strict up-row.
        One is found by stepping down from any point of the row while a
        point of the row lies below; dropping what it reaches leaves the
        others minimal.  A row costs the descents to its covers, not a test
        of every point above i; on a chain each descent is one step."""
        up, down = self.up_masks, self.down_masks
        out = []
        for i, row in enumerate(up):
            rest = row & ~(1 << i)
            found = 0
            while rest:
                low = rest & -rest
                below = down[low.bit_length() - 1] & rest & ~low
                while below:
                    low = below & -below
                    below = down[low.bit_length() - 1] & rest & ~low
                found |= low
                rest &= ~up[low.bit_length() - 1]
            out += [(i, j) for j in bit_indices(found)]
        return out

    @lazy
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown point {label!r}") from None

    def mask_of(self, *labels: str) -> int:
        out = 0
        for label in labels:
            out |= 1 << self.index(label)
        return out

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return _labels(self.points, mask)

    def render_subset(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"

    def is_open(self, mask: int) -> bool:
        """Opens are the upper sets: the subsets equal to their saturation."""
        return mask & ~self.full_mask == 0 and self.saturation(mask) == mask

    def is_closed(self, mask: int) -> bool:
        """Closed sets are the lower sets: the subsets equal to their closure."""
        return mask & ~self.full_mask == 0 and self.closure(mask) == mask

    def leq(self, i: int, j: int) -> bool:
        """Specialization order: i <= j iff i lies in the closure of {j}."""
        return bool(self.up_masks[i] >> j & 1)

    # -- topological operators ----------------------------------------------

    def closure(self, mask: int) -> int:
        down = self.down_masks
        out = 0
        while mask:
            low = mask & -mask
            out |= down[low.bit_length() - 1]
            mask ^= low
        return out

    def interior(self, mask: int) -> int:
        return self.full_mask & ~self.closure(self.full_mask & ~mask)

    def saturation(self, mask: int) -> int:
        """Intersection of all opens containing the set; equals its upper closure."""
        up = self.up_masks
        out = 0
        while mask:
            low = mask & -mask
            out |= up[low.bit_length() - 1]
            mask ^= low
        return out

    def renamed(self, name: str) -> "FiniteSpace":
        """The same, already validated, space under another name."""
        out = copy.copy(self)
        object.__setattr__(out, "name", name)
        return out

    def subspace(self, mask: int, name: str = "") -> "FiniteSpace":
        positions = list(bit_indices(mask))
        if not positions:
            raise ValidationError("subspace carrier must be nonempty")
        points = tuple(self.points[i] for i in positions)
        # the subspace topology of an Alexandrov space is that of the suborder
        rows = [compress_mask(self.up_masks[i], positions) for i in positions]
        return FiniteSpace._of_order(points, rows, name)


def from_poset(points: Sequence[str], pairs: Iterable[tuple[str, str]],
               caps: Caps | None = None) -> FiniteSpace:
    """The space of the order generated by the pairs (a, b), read a <= b:
    its opens are all upper sets (the Scott topology; on a finite poset
    every directed set has a maximum, so nothing more is required of an
    upper set).  The order is the reflexive-transitive closure of the
    pairs, by a depth-first search over each point's direct successors
    (_closed_order).  A carrier over `max_points` is refused first, before
    the pairs are read or closed."""
    points = tuple(points)
    n = len(points)
    _check_carrier(n, caps or default_caps())
    index = {p: i for i, p in enumerate(points)}
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise ValidationError(f"order mentions unknown element {missing!r}")
        rows[index[a]] |= 1 << index[b]
    return FiniteSpace._of_order(points, _closed_order(points, rows))


def _check_carrier(n: int, caps: Caps) -> None:
    """Refuse a poset of `n` elements over the carrier cap `max_points`."""
    if n > caps.max_points:
        raise ResourceCapError(f"a poset of {n} elements", "max_points",
                               caps.max_points, n)


def _closed_order(points: Sequence[str], rows: list[int]) -> list[int]:
    """The reflexive-transitive closure of the relation whose row i holds
    bit i and the bits of the points over point i; a relation whose closure
    is no partial order (it has a cycle) is refused with the first two
    points on the cycle.

    Each point's row is closed by a depth-first search over its direct
    successors (Purdom, *A transitive closure algorithm*, 1970): the closed
    row is the point's own row ORed with the closed rows of its successors,
    memoized, on an explicit stack (a long chain is deeper than the
    interpreter's recursion limit).  A successor already inside what the
    row has gathered adds nothing, so it is skipped: one OR per remaining
    edge.  A successor still on the search path closes a cycle; only then
    is the refusal derived, by _refuse_cycle.
    """
    closed = [0] * len(rows)  # 0 until the row is closed (a closed row holds its point)
    for root in range(len(rows)):
        if closed[root]:
            continue
        path = 1 << root  # the points on the search path
        stack = [[root, rows[root] & ~path, path]]  # [point, successors left, row so far]
        while stack:
            frame = stack[-1]
            rest, row = frame[1], frame[2]
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                if closed[j]:
                    row |= closed[j]
                    rest &= ~row
                elif path & low:
                    _refuse_cycle(points, rows)
                else:
                    break
            else:
                closed[frame[0]] = row  # its parent reads it when it meets it again
                path ^= 1 << frame[0]
                stack.pop()
                continue
            frame[1], frame[2] = rest, row
            stack.append([j, rows[j] & ~low, low])
            path |= low
    return closed


def _refuse_cycle(points: Sequence[str], rows: list[int]) -> None:
    """Raise for a relation with a cycle, naming the first two points on it:
    the relation is closed by Warshall's algorithm, and in a transitive
    relation i <= j <= i iff rows i and j are equal, so the first element on
    a cycle is the least index of a repeated row, and the next index with
    that row is the first element it meets."""
    for k in range(len(rows)):
        row_k = rows[k]
        rows = [r | row_k if r >> k & 1 else r for r in rows]
    i = next(i for i, r in enumerate(rows) if rows.count(r) > 1)
    j = rows.index(rows[i], i + 1)
    raise ValidationError(f"order contains a cycle through {points[i]!r} and {points[j]!r}")


# ---------------------------------------------------------------------------
# continuous maps


class ContinuityReport(NamedTuple):
    ok: bool
    witness_open: Optional[int]  # an open of the target with non-open preimage


@dataclass(frozen=True)
class ContinuousMap:
    """A total point function between finite spaces.

    Construction validates totality only; use `check_continuous` to test
    continuity, or the `continuous_map` factory to require it.  Between
    finite (hence Alexandrov) spaces a map is continuous iff it is monotone
    for the specialization orders.  Every map produced by library operations
    is continuous.
    """

    source: FiniteSpace
    target: FiniteSpace
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        if len(mapping) != self.source.n:
            raise ValidationError("mapping must assign every source point")
        for v in mapping:
            if not 0 <= v < self.target.n:
                raise ValidationError("mapping hits a point outside the target carrier")

    @classmethod
    def _of_table(cls, source: FiniteSpace, target: FiniteSpace,
                  mapping: tuple[int, ...]) -> "ContinuousMap":
        """The map with the point table `mapping`, a tuple of one target
        index per source point; the table is trusted, so nothing is checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "source", source)
        object.__setattr__(out, "target", target)
        object.__setattr__(out, "mapping", mapping)
        return out

    def __call__(self, label: str) -> str:
        return self.target.points[self.mapping[self.source.index(label)]]

    def image_mask(self, mask: int) -> int:
        mapping = self.mapping
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << mapping[low.bit_length() - 1]
            mask ^= low
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i, v in enumerate(self.mapping):
            if mask >> v & 1:
                out |= 1 << i
        return out

    def after(self, other: "ContinuousMap") -> "ContinuousMap":
        """self o other."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("composition requires matching middle space")
        return ContinuousMap(other.source, self.target,
                             tuple(self.mapping[v] for v in other.mapping))

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


def identity_map(x: FiniteSpace) -> ContinuousMap:
    return ContinuousMap(x, x, tuple(range(x.n)))


def continuous_map(source: FiniteSpace, target: FiniteSpace,
                   assignment: dict[str, str] | Sequence[int]) -> ContinuousMap:
    """Build a map and insist it is continuous."""
    if isinstance(assignment, dict):
        mapping = tuple(target.index(assignment[p]) for p in source.points)
    else:
        mapping = tuple(assignment)
    f = ContinuousMap(source, target, mapping)
    report = check_continuous(f)
    if not report.ok:
        raise ValidationError(
            "map is not continuous: preimage of open "
            f"{target.render_subset(report.witness_open)} is not open"
        )
    return f


def check_continuous(f: ContinuousMap) -> ContinuityReport:
    """True iff the map is monotone, which for finite spaces is continuity.

    When i <= j but f(i) is not below f(j), the witness is the least open
    up(f(i)) of the target: its preimage holds i but not j, so it is not open.
    """
    y_up, mapping = f.target.up_masks, f.mapping
    for i, row in enumerate(f.source.up_masks):
        up = y_up[mapping[i]]
        for j in bit_indices(row):
            if not up >> mapping[j] & 1:
                return ContinuityReport(False, up)
    return ContinuityReport(True, None)


def enumerate_continuous_maps(x: FiniteSpace, y: FiniteSpace,
                              caps: Caps | None = None) -> list[ContinuousMap]:
    """All continuous maps x -> y, in lexicographic order of their point tables.

    These are the monotone maps: the point tables are grown one source
    point at a time, in index order, each partial table extended by every
    target point above the images of the earlier points below it and below
    the images of the earlier points above it.  Extending the tables in
    their order keeps them in lexicographic order, and no step recurses, so
    the number of source points is not bounded by the interpreter's stack.
    Every table so built is total and monotone, so each map is made
    without validation.  The cap still bounds y.n ** x.n, the number of
    all functions (and so the partial tables of every step).
    """
    caps = caps or default_caps()
    total = y.n ** x.n
    if total > caps.max_maps:
        raise ResourceCapError(f"map enumeration over {total} candidate functions",
                               "max_maps", caps.max_maps, total)
    n = x.n
    earlier_below = [list(bit_indices(x.down_masks[i] & ((1 << i) - 1))) for i in range(n)]
    earlier_above = [list(bit_indices(x.up_masks[i] & ((1 << i) - 1))) for i in range(n)]
    y_up, y_down, y_full = y.up_masks, y.down_masks, y.full_mask
    values: dict[int, list[tuple[int]]] = {}  # allowed target mask -> its points, as 1-tuples
    tables: list[tuple[int, ...]] = [()]
    for below, above in zip(earlier_below, earlier_above):
        grown: list[tuple[int, ...]] = []
        for table in tables:
            allowed = y_full
            for k in below:
                allowed &= y_up[table[k]]
            for k in above:
                allowed &= y_down[table[k]]
            vs = values.get(allowed)
            if vs is None:
                vs = values[allowed] = [(v,) for v in bit_indices(allowed)]
            grown += [table + v for v in vs]
        tables = grown
    make = ContinuousMap._of_table
    return [make(x, y, table) for table in tables]


# ---------------------------------------------------------------------------
# homeomorphism by canonical form

CANONICAL_CACHE_SIZE = 2048  # orders kept; a verify run meets a few hundred


def _refine(colours: list[int], ups: list[list[int]], downs: list[list[int]]) -> list[int]:
    """Split the colour classes until they are stable.

    A colour is the number of points whose (colour, sorted colours above,
    sorted colours below) is smaller, so it does not depend on the labels,
    and each class keeps the positions it had before the split.
    """
    cells = len(set(colours))
    while cells < len(colours):
        keys = [(c, tuple(sorted([colours[j] for j in up])), tuple(sorted([colours[j] for j in down])))
                for c, up, down in zip(colours, ups, downs)]
        start: dict = {}
        for pos, key in enumerate(sorted(keys)):
            start.setdefault(key, pos)
        if len(start) == cells:
            break
        colours = [start[key] for key in keys]
        cells = len(start)
    return colours


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def _canonical_form(up_rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical form of the partial order whose row i is the set above i.

    Returns (form, order): relabelling point order[k] as k turns the rows
    into `form`, the least relabelled row tuple over the leaves of an
    individualization-refinement search (McKay, *Practical graph
    isomorphism*, 1981).  The search refines the colouring, then branches
    on each point of the least class of more than one point, made a class
    of its own.  Isomorphic orders have the same search tree up to the
    isomorphism, so their forms are equal, and order_x[k] -> order_y[k] is
    an isomorphism.  Two branches are pruned: a point whose twin (equal
    strict rows both ways, so swapping the two is an automorphism) was
    explored, and a point that an automorphism fixing the path maps onto an
    explored one.  An automorphism comes from two leaves with equal forms;
    the branch that found it leads to leaves already seen, so it is left.
    """
    n = len(up_rows)
    ups = [list(bit_indices(r)) for r in up_rows]
    down_rows = _transpose(up_rows)
    downs = [list(bit_indices(r)) for r in down_rows]
    twin = [(up_rows[i] ^ 1 << i, down_rows[i] ^ 1 << i) for i in range(n)]
    autos: list[list[int]] = []
    leaves: dict[tuple[int, ...], tuple[list[int], tuple[int, ...]]] = {}  # form -> order, path

    def next_point(node: tuple) -> Optional[int]:
        _, path, cell, explored = node
        gens = [g for g in autos if all(g[p] == p for p in path)]
        seen = set(explored)
        frontier = list(explored)
        while frontier:
            v = frontier.pop()
            for g in gens:
                if g[v] not in seen:
                    seen.add(g[v])
                    frontier.append(g[v])
        twins = {twin[s] for s in explored}
        return next((w for w in cell if w not in seen and twin[w] not in twins), None)

    stack: list[tuple] = []  # nodes (colours, path, cell, explored); stack[d] has a path of d points
    colours, path = _refine([0] * n, ups, downs), ()
    while True:
        if len(set(colours)) == n:
            order = [0] * n
            for i, c in enumerate(colours):
                order[c] = i
            form = tuple([sum([1 << colours[j] for j in ups[i]]) for i in order])
            if form in leaves:
                seen_order, seen_path = leaves[form]
                auto = [0] * n
                for i, j in zip(seen_order, order):
                    auto[i] = j
                autos.append(auto)
                # back to where the two paths part: the rest of this branch
                # is the image of the branch already explored
                d = next(k for k, (u, v) in enumerate(zip(seen_path, path)) if u != v)
                del stack[d + 1:]
            else:
                leaves[form] = (order, path)
        else:
            size = [0] * n
            for c in colours:
                size[c] += 1
            least = next(c for c in range(n) if size[c] > 1)
            stack.append((colours, path, [i for i in range(n) if colours[i] == least], []))
        while stack:
            w = next_point(stack[-1])
            if w is not None:
                break
            stack.pop()
        else:
            form = min(leaves)
            return form, tuple(leaves[form][0])
        parent, parent_path, _, explored = stack[-1]
        explored.append(w)
        c = parent[w]
        colours = [c + 1 if v == c and i != w else v for i, v in enumerate(parent)]
        colours, path = _refine(colours, ups, downs), parent_path + (w,)


def find_homeomorphism(x: FiniteSpace, y: FiniteSpace,
                       caps: Caps | None = None) -> Optional[tuple[int, ...]]:
    """A bijection carrying opens to opens, or None.

    Both spaces are finite, hence Alexandrov, so a bijection is a
    homeomorphism iff it is an order isomorphism of the specialization
    orders, and the orders are isomorphic iff their canonical forms are
    equal; point order_x[k] of x then goes to point order_y[k] of y.
    """
    caps = caps or default_caps()
    if x.n != y.n:
        return None
    if x.n > caps.max_iso_points:
        raise ResourceCapError(f"homeomorphism search on {x.n} points",
                               "max_iso_points", caps.max_iso_points, x.n)
    form_x, order_x = _canonical_form(x.up_masks)
    form_y, order_y = _canonical_form(y.up_masks)
    if form_x != form_y:
        return None
    phi = [0] * x.n
    for i, j in zip(order_x, order_y):
        phi[i] = j
    return tuple(phi)


def is_homeomorphic(x: FiniteSpace, y: FiniteSpace, caps: Caps | None = None) -> bool:
    return find_homeomorphism(x, y, caps) is not None
