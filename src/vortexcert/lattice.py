"""Island lattice geometry.

Islands are unit squares centred on the even-parity points (x + y even)
of the rectangle 0 <= x < lx, 0 <= y < ly.  Each island carries four
Majorana generators at its corners, labelled

    a ---- b        a = top-left,  b = top-right,
    |      |        d = bottom-left, c = bottom-right,
    d ---- c

numbered globally as 4 * (island rank) + (corner rank), islands ranked
lexicographically by (x, y) and corners in the order a, b, c, d.

Directed bonds couple diagonal neighbours: corner b of the island at p
to corner d of the island at p + (1, 1), and corner c of p to corner a
of p + (1, -1) (coordinates wrap when periodic).  Odd-parity points
whose four axis neighbours are all islands host an octagon: the eight
corners facing that point, which are exactly the endpoints of four
bonds.  The octet is stored in circuit order

    west_c, south_a, south_b, east_d, east_a, north_c, north_d, west_b.

Corner positions are kept in doubled integer coordinates (island centre
(2x, 2y), corner offsets (+-1, +-1)) so mirror planes through island
columns never touch a Majorana and all geometry stays exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .clifford import ReflectionMap

# CPython's built-in SHA-256, so that hashlib's OpenSSL binding (_hashlib and
# libcrypto, about 3.6 MB of resident pages) is never loaded; same digests
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

CORNERS = "abcd"
# doubled-coordinate corner offsets, in corner rank order a, b, c, d
_OFFSETS = {"a": (-1, 1), "b": (1, 1), "c": (1, -1), "d": (-1, -1)}
# circuit order of the octet around an octagon: (island role, corner)
_OCTET_CIRCUIT = (
    ("west", "c"), ("south", "a"), ("south", "b"), ("east", "d"),
    ("east", "a"), ("north", "c"), ("north", "d"), ("west", "b"),
)


class LatticeError(ValueError):
    pass


class ReflectionError(LatticeError):
    pass


class Octagon(NamedTuple):
    center: tuple[int, int]
    ring: dict  # role -> island coordinate, roles west/south/east/north
    octet: tuple[int, ...]  # Majorana ids in circuit order

    def __hash__(self):
        # the ring is a dict; hash its items so equal octagons, and so
        # equal lattices, hash equal
        return hash((self.center, tuple(sorted(self.ring.items())), self.octet))


@dataclass(frozen=True)
class IslandLattice:
    lx: int
    ly: int
    boundary: str
    islands: tuple[tuple[int, int], ...]
    bonds: tuple[tuple[int, int], ...]
    octagons: tuple[Octagon, ...]

    @property
    def n_islands(self) -> int:
        return len(self.islands)

    @property
    def n_majoranas(self) -> int:
        return 4 * len(self.islands)

    @property
    def n_modes(self) -> int:
        return 2 * len(self.islands)

    def island_rank(self, island: tuple[int, int]) -> int:
        try:
            return self._rank[island]
        except KeyError:
            raise LatticeError(f"no island at {island}") from None

    @cached_property
    def _rank(self) -> dict:
        # islands tuple is stored sorted, so rank = position; built once
        # per lattice and kept outside the fields, so equality, hashing
        # and the JSON do not see it
        return {p: r for r, p in enumerate(self.islands)}

    def majorana_id(self, island: tuple[int, int], corner: str) -> int:
        return 4 * self.island_rank(island) + CORNERS.index(corner)

    def corner_of(self, mid: int) -> tuple[tuple[int, int], str]:
        rank, c = divmod(mid, 4)
        return self.islands[rank], CORNERS[c]

    def corner_position(self, mid: int) -> tuple[int, int]:
        """Doubled-integer position of a Majorana."""
        (x, y), corner = self.corner_of(mid)
        ox, oy = _OFFSETS[corner]
        return 2 * x + ox, 2 * y + oy

    def to_json_dict(self) -> dict:
        return {
            "lx": self.lx,
            "ly": self.ly,
            "boundary": self.boundary,
            "islands": [list(p) for p in self.islands],
            "bonds": [list(b) for b in self.bonds],
            "octagons": [
                {
                    "center": list(o.center),
                    "ring": {role: list(p) for role, p in o.ring.items()},
                    "octet": list(o.octet),
                }
                for o in self.octagons
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return sha256(self.to_json().encode()).hexdigest()


def _wrap(p: tuple[int, int], lx: int, ly: int, periodic: bool):
    if periodic:
        return (p[0] % lx, p[1] % ly)
    if 0 <= p[0] < lx and 0 <= p[1] < ly:
        return p
    return None


def build_lattice(lx: int, ly: int, boundary: str = "open",
                  islands: Iterable[tuple[int, int]] | None = None) -> IslandLattice:
    """Construct the lattice, its bond list and its octagons.

    `islands` restricts the island set to a subset of the even-parity
    points (used for small fixtures such as the four-island diamond);
    by default every even-parity point of the region is an island.
    """
    if boundary not in ("open", "periodic"):
        raise LatticeError(f"unknown boundary {boundary!r}")
    if lx < 2 or ly < 2:
        raise LatticeError("region too small: need lx >= 2 and ly >= 2")
    if boundary == "periodic" and (lx % 2 or ly % 2):
        raise LatticeError(
            "periodic boundary needs even lx and ly; odd sizes break the "
            "island sublattice parity across the seam"
        )

    if islands is None:
        pts = [(x, y) for x in range(lx) for y in range(ly) if (x + y) % 2 == 0]
    else:
        pts = []
        seen = set()
        for p in islands:
            p = (int(p[0]), int(p[1]))
            if not (0 <= p[0] < lx and 0 <= p[1] < ly):
                raise LatticeError(f"island {p} outside the region")
            if (p[0] + p[1]) % 2:
                raise LatticeError(f"island {p} sits on an odd-parity point")
            if p in seen:
                raise LatticeError(f"duplicate island {p}")
            seen.add(p)
            pts.append(p)
        if not pts:
            raise LatticeError("empty island set")
    pts.sort()
    island_set = set(pts)
    rank = {p: r for r, p in enumerate(pts)}
    periodic = boundary == "periodic"

    def mid(p, corner):
        return 4 * rank[p] + CORNERS.index(corner)

    bonds = []
    for p in pts:
        for (dx, dy), src, dst in (((1, 1), "b", "d"), ((1, -1), "c", "a")):
            q = _wrap((p[0] + dx, p[1] + dy), lx, ly, periodic)
            if q is not None and q in island_set:
                bonds.append((mid(p, src), mid(q, dst)))

    octagons = list(_octagons(lx, ly, periodic, island_set, mid))

    lat = IslandLattice(lx, ly, boundary, tuple(pts), tuple(bonds), tuple(octagons))
    _check_octet_bonds(lat)
    return lat


def _octagons(lx, ly, periodic, island_set, mid):
    for qx in range(lx):
        for qy in range(ly):
            if (qx + qy) % 2 == 0:
                continue
            ring = {}
            for role, (dx, dy) in (("west", (-1, 0)), ("south", (0, -1)),
                                   ("east", (1, 0)), ("north", (0, 1))):
                p = _wrap((qx + dx, qy + dy), lx, ly, periodic)
                if p is None or p not in island_set:
                    ring = None
                    break
                ring[role] = p
            if ring is None:
                continue
            octet = tuple(mid(ring[role], c) for role, c in _OCTET_CIRCUIT)
            yield Octagon((qx, qy), ring, octet)


def _check_octet_bonds(lat: IslandLattice) -> None:
    # each octet must be the union of the endpoints of exactly 4 bonds
    for o in lat.octagons:
        members = set(o.octet)
        inside = [b for b in lat.bonds if b[0] in members and b[1] in members]
        straddling = [b for b in lat.bonds if (b[0] in members) != (b[1] in members)]
        if len(inside) != 4 or straddling:
            raise LatticeError(
                f"octagon at {o.center} is not closed by exactly four bonds"
            )


def translations(lat: IslandLattice) -> list[tuple[int, ...]]:
    """Majorana maps of the nonzero lattice translations of a periodic
    lattice that map its island set onto itself.

    A translation (tx, ty) with tx + ty even keeps the island sublattice;
    it moves every island, and keeps each corner, so its map sends
    Majorana 4 r + c to 4 r' + c for the island r' that r moves to, and
    a bond to the bond of the same direction.  The map is a tuple
    indexed by Majorana id.  An open lattice has none: [].
    """
    if lat.boundary != "periodic":
        return []
    maps, islands = [], set(lat.islands)
    for tx in range(lat.lx):
        for ty in range(lat.ly):
            if (tx + ty) % 2 or (tx, ty) == (0, 0):
                continue
            moved = [((x + tx) % lat.lx, (y + ty) % lat.ly) for x, y in lat.islands]
            if set(moved) != islands:
                continue
            maps.append(tuple(4 * lat.island_rank(q) + c
                              for q in moved for c in range(len(CORNERS))))
    return maps


def diamond_lattice() -> IslandLattice:
    """The four-island diamond: one octagon, open boundary, 16 Majoranas.

    Embedded in a 3 x 4 region with islands west (0,2), south (1,1),
    north (1,3), east (2,2) around the octagon centre (1,2); the
    vertical plane x = 1 bisects the octagon through the island column.
    """
    return build_lattice(3, 4, "open", islands=((0, 2), (1, 1), (1, 3), (2, 2)))


@dataclass(frozen=True)
class ReflectionData:
    axis: str  # 'x': vertical plane x = coord; 'y': horizontal plane y = coord
    coord: int
    island_map: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    sigma: ReflectionMap
    left: tuple[int, ...]
    right: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis,
            "coord": self.coord,
            "island_map": [[list(p), list(q)] for p, q in self.island_map],
            "sigma": [[i, j] for i, j in sorted(self.sigma.items())],
            "left": list(self.left),
            "right": list(self.right),
        }


_CORNER_MIRROR = {
    "x": {"a": "b", "b": "a", "c": "d", "d": "c"},
    "y": {"a": "d", "d": "a", "b": "c", "c": "b"},
}


def reflection_data(lat: IslandLattice, axis: str = "x", coord: int = 0) -> ReflectionData:
    """Mirror data for the plane {axis = coord} through an island column/row.

    The plane must run through integer island coordinates: a half-integer
    plane would flip the sublattice parity and send islands to points
    where no island can sit.  The reflected island set must coincide
    with the lattice's island set, or the mirror is rejected.
    """
    if axis not in ("x", "y"):
        raise ReflectionError(f"axis must be 'x' or 'y', got {axis!r}")
    if coord != int(coord):
        raise ReflectionError(
            f"plane {axis} = {coord} flips the island parity and maps "
            "islands to non-island points"
        )
    coord = int(coord)
    periodic = lat.boundary == "periodic"
    span = lat.lx if axis == "x" else lat.ly

    def mirror_island(p):
        x, y = p
        if axis == "x":
            q = (2 * coord - x, y)
        else:
            q = (x, 2 * coord - y)
        return _wrap(q, lat.lx, lat.ly, periodic)

    imap = {}
    for p in lat.islands:
        q = mirror_island(p)
        if q is None or q not in set(lat.islands):
            raise ReflectionError(
                f"plane {axis} = {coord} does not preserve the island set "
                f"(island {p} reflects to {q})"
            )
        imap[p] = q

    cmirror = _CORNER_MIRROR[axis]
    smap = {}
    for p in lat.islands:
        for c in CORNERS:
            smap[lat.majorana_id(p, c)] = lat.majorana_id(imap[p], cmirror[c])
    sigma = ReflectionMap(smap)

    # side assignment from doubled-coordinate positions
    doubled_plane = 2 * coord
    left, right = [], []
    for m in range(lat.n_majoranas):
        pos = lat.corner_position(m)[0 if axis == "x" else 1]
        if periodic:
            t = (pos - doubled_plane) % (2 * span)
            if t == 0 or t == span:
                raise ReflectionError("a Majorana sits on the mirror plane")
            (right if t < span else left).append(m)
        else:
            (left if pos < doubled_plane else right).append(m)

    if len(left) != len(right):
        raise ReflectionError(
            f"plane {axis} = {coord} does not bisect the Majoranas "
            f"({len(left)} left vs {len(right)} right)"
        )
    for m in left:
        if sigma(m) not in set(right):
            raise ReflectionError("mirror does not exchange the two sides")
        if sigma(m) == m:
            raise ReflectionError(f"Majorana {m} is fixed by the mirror")

    return ReflectionData(
        axis=axis,
        coord=coord,
        island_map=tuple(sorted((p, q) for p, q in imap.items())),
        sigma=sigma,
        left=tuple(left),
        right=tuple(right),
    )
