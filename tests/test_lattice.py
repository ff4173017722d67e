"""Island geometry, octagon enumeration, reflection side-splitting."""

import json

import pytest

from vortexcert.lattice import (
    LatticeError,
    ReflectionError,
    build_lattice,
    diamond_lattice,
    reflection_data,
)


def test_full_open_region():
    lat = build_lattice(3, 4, "open")
    assert lat.islands == ((0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 2))
    assert lat.n_majoranas == 24
    assert lat.n_modes == 12


def test_diamond_geometry():
    lat = diamond_lattice()
    assert lat.islands == ((0, 2), (1, 1), (1, 3), (2, 2))
    assert lat.n_majoranas == 16
    assert len(lat.bonds) == 4
    assert [o.center for o in lat.octagons] == [(1, 2)]
    # octet covers two Majoranas of each surrounding island
    octet = lat.octagons[0].octet
    assert len(octet) == 8
    assert len(set(octet)) == 8


def test_octet_circuit_order():
    # circuit reads west-c, south-a, south-b, east-d, east-a, north-c,
    # north-d, west-b
    lat = diamond_lattice()
    o = lat.octagons[0]
    expected = [
        lat.majorana_id((0, 2), "c"),
        lat.majorana_id((1, 1), "a"),
        lat.majorana_id((1, 1), "b"),
        lat.majorana_id((2, 2), "d"),
        lat.majorana_id((2, 2), "a"),
        lat.majorana_id((1, 3), "c"),
        lat.majorana_id((1, 3), "d"),
        lat.majorana_id((0, 2), "b"),
    ]
    assert list(o.octet) == expected


def test_periodic_torus_counts():
    lat = build_lattice(4, 4, "periodic")
    assert lat.n_islands == 8
    assert len(lat.bonds) == 16
    assert len(lat.octagons) == 8
    # every octagon on the torus has all four neighbors
    centers = {o.center for o in lat.octagons}
    assert centers == {(x, y) for x in range(4) for y in range(4)
                       if (x + y) % 2 == 1}


def test_open_region_octagon_needs_all_four_islands():
    # 2x2 full region has two islands and no octagon
    lat = build_lattice(2, 2, "open")
    assert lat.octagons == ()


def test_majorana_ids_are_rank_packed():
    lat = diamond_lattice()
    for rank, pos in enumerate(lat.islands):
        for corner_rank, corner in enumerate("abcd"):
            assert lat.majorana_id(pos, corner) == 4 * rank + corner_rank
            assert lat.corner_of(4 * rank + corner_rank) == (pos, corner)


def test_corner_positions_are_doubled_integers():
    lat = diamond_lattice()
    mid = lambda corner: lat.majorana_id((1, 1), corner)
    assert lat.corner_position(mid("a")) == (1, 3)   # top-left of (1,1)
    assert lat.corner_position(mid("b")) == (3, 3)
    assert lat.corner_position(mid("c")) == (3, 1)
    assert lat.corner_position(mid("d")) == (1, 1)


def test_build_rejections():
    with pytest.raises(LatticeError):
        build_lattice(1, 4)
    with pytest.raises(LatticeError):
        build_lattice(3, 4, "moebius")
    with pytest.raises(LatticeError):
        build_lattice(3, 4, "periodic")  # odd lx breaks the seam parity
    with pytest.raises(LatticeError):
        build_lattice(3, 4, islands=[(0, 1)])  # odd-parity point
    with pytest.raises(LatticeError):
        build_lattice(3, 4, islands=[(0, 2), (0, 2)])
    with pytest.raises(LatticeError):
        build_lattice(3, 4, islands=[])
    with pytest.raises(LatticeError):
        build_lattice(3, 4, islands=[(5, 1)])


def test_json_round_trip_and_hash_stability():
    lat = diamond_lattice()
    doc = json.loads(lat.to_json())
    assert doc["boundary"] == "open"
    assert doc["islands"] == [[0, 2], [1, 1], [1, 3], [2, 2]]
    assert lat.content_hash() == diamond_lattice().content_hash()
    assert lat.content_hash() != build_lattice(4, 4, "periodic").content_hash()


def test_lattices_are_hashable():
    # octagons hold their ring as a dict; equal lattices must still hash
    # equal, so a lattice can key a dict or sit in a set
    a, b = diamond_lattice(), diamond_lattice()
    torus = build_lattice(4, 4, "periodic")
    assert a == b and hash(a) == hash(b)
    assert hash(a.octagons[0]) == hash(b.octagons[0])
    assert len({a, b, torus, build_lattice(4, 4, "periodic")}) == 2
    assert {a: "diamond"}[b] == "diamond"
    # hashing leaves the serialized form and its digest alone
    assert a.content_hash() == (
        "654c0257476532085026a821dd02c9822aec5b5f5b6996382fe7cfad00cc36d9")


def test_island_rank_map_is_built_once():
    a, b = diamond_lattice(), diamond_lattice()
    ranks = [a.island_rank(p) for p in a.islands]
    assert ranks == list(range(a.n_islands))
    assert a._rank is a._rank
    # the cached map changes neither equality, the hash nor the JSON
    assert a == b and hash(a) == hash(b)
    assert a.to_json() == b.to_json() and a.content_hash() == b.content_hash()
    with pytest.raises(LatticeError):
        a.island_rank((0, 0))


def test_reflection_splits_halves(diamond, diamond_mirror):
    r = diamond_mirror
    assert r.axis == "x" and r.coord == 1
    assert set(r.left) | set(r.right) == set(range(16))
    assert not set(r.left) & set(r.right)
    assert len(r.left) == len(r.right)
    # sigma maps left onto right and is an involution
    for i in r.left:
        j = r.sigma(i)
        assert j in r.right
        assert r.sigma(j) == i


def test_reflection_island_map_on_diamond(diamond, diamond_mirror):
    m = dict(diamond_mirror.island_map)
    assert m[(0, 2)] == (2, 2)
    assert m[(1, 1)] == (1, 1)
    # on-plane islands swap corners a<->b and c<->d
    a = diamond.majorana_id((1, 1), "a")
    b = diamond.majorana_id((1, 1), "b")
    assert diamond_mirror.sigma(a) == b


def test_reflection_rejects_half_integer_plane(diamond):
    with pytest.raises(ReflectionError):
        reflection_data(diamond, "x", 0.5)


def test_reflection_rejects_asymmetric_island_set():
    lat = build_lattice(3, 4, islands=[(0, 2), (1, 1)])
    with pytest.raises(ReflectionError):
        reflection_data(lat, "x", 1)


def test_reflection_rejects_on_plane_majoranas_periodic():
    lat = build_lattice(4, 4, "periodic")
    # plane through x = 0 leaves the x = 0 column's corners off-plane
    # but the wrap makes x = 2 the antipodal column: both split cleanly
    r = reflection_data(lat, "x", 0)
    assert len(r.left) == len(r.right) == 16
    # vertical plane on a half-integer coordinate still fails
    with pytest.raises(ReflectionError):
        reflection_data(lat, "x", 0.5)


def test_horizontal_reflection(diamond):
    r = reflection_data(diamond, "y", 2)
    assert len(r.left) == 8
    m = dict(r.island_map)
    assert m[(1, 1)] == (1, 3)
    assert m[(0, 2)] == (0, 2)
