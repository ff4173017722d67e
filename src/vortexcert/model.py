"""Island Hamiltonian and vortex-loop observables.

The model on an island lattice with coupling lambda:

    H = sum_islands (-c_a c_b c_c c_d)  +  lambda * sum_bonds (i c_u c_v)

with bonds taken in their stored direction.  The island coefficient is
pinned at -1: together with the bond direction convention this puts the
terms bisected by a mirror plane into the -B*theta(B) shape that the
positivity machinery expects.  All coefficients are exact Gaussian
rationals; lambda enters as the decimal it is written as (0.1 is 1/10),
so theta(H) = H and [W, H] = 0 are decided exactly for every lambda.

Loop operators over an ordered site circuit (i1 .. i_2l) carry the
phase i^l, which makes them Hermitian involutions for every half
length l; for octagons (l = 4) the phase is +1.  A mirror plane that
bisects an octagon splits its octet into four consecutive circuit
positions per side, and the Lambda_minus run A reproduces the loop as
W = A * theta(A); the constructor asserts this identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import EXACT_I, MajoranaPolynomial, multiply, reflect
from .lattice import IslandLattice, Octagon, ReflectionData


class ModelError(ValueError):
    pass


def _exact_lambda(lam) -> Fraction:
    """lambda as the decimal it is written as: 0.1 means 1/10, not the
    binary float, and float() of the result gives lam back."""
    if isinstance(lam, (int, Fraction)):
        return Fraction(lam)
    return Fraction(repr(float(lam)))


def island_term(lat: IslandLattice, island: tuple[int, int]) -> MajoranaPolynomial:
    """-c_a c_b c_c c_d on one island."""
    base = 4 * lat.island_rank(island)
    return MajoranaPolynomial.monomial(range(base, base + 4), -1)


def bond_term(lat: IslandLattice, bond: tuple[int, int]) -> MajoranaPolynomial:
    """i c_u c_v for a directed lattice bond (u, v)."""
    if tuple(bond) not in set(lat.bonds):
        raise ModelError(f"{bond} is not a directed bond of this lattice")
    u, v = bond
    return MajoranaPolynomial.monomial((u, v), EXACT_I)


def build_hamiltonian(lat: IslandLattice, lam) -> MajoranaPolynomial:
    """Sum of island terms plus lambda times the bond terms.

    Every coefficient is an exact Gaussian rational, with lambda read
    through its decimal text, so symbolic identities like [W, H] = 0 and
    theta(H) = H are decided exactly, and the nearest floats of the
    coefficients are the float lambda's own.
    """
    h = MajoranaPolynomial.zero()
    for p in lat.islands:
        h = h + island_term(lat, p)
    lam_c = _exact_lambda(lam)
    for b in lat.bonds:
        h = h + bond_term(lat, b) * lam_c
    return h


def verify_reflection_symmetry(h: MajoranaPolynomial,
                               r: ReflectionData) -> tuple[bool, float]:
    """Is theta(H) = H, exactly?  Returns (verdict, max coefficient
    deviation)."""
    d = reflect(h, r.sigma) - h
    return d.is_zero, d.max_abs_coeff()


def loop_operator(lat: IslandLattice, sites) -> MajoranaPolynomial:
    """i^l times the ordered product over a closed circuit of 2l sites.

    Consecutive sites (cyclically) must be adjacent: on the same island
    or joined by a bond.  The phase makes the result a Hermitian
    involution for every l.
    """
    sites = tuple(int(s) for s in sites)
    if len(sites) < 2 or len(sites) % 2:
        raise ModelError("a loop needs an even number of sites, at least 2")
    if len(set(sites)) != len(sites):
        raise ModelError("loop sites must be distinct")
    n = lat.n_majoranas
    for s in sites:
        if not 0 <= s < n:
            raise ModelError(f"site {s} outside 0..{n - 1}")
    bondset = set(lat.bonds) | {(v, u) for u, v in lat.bonds}
    for s, t in zip(sites, sites[1:] + sites[:1]):
        if s // 4 != t // 4 and (s, t) not in bondset:
            raise ModelError(f"sites {s} and {t} are consecutive but not adjacent")
    half = len(sites) // 2
    return MajoranaPolynomial.monomial(sites, EXACT_I ** half)


@dataclass(frozen=True)
class VortexLoop:
    loop_sites: tuple[int, ...]
    half_length: int
    W: MajoranaPolynomial
    A_factor: MajoranaPolynomial | None


def _resolve_octagon(lat: IslandLattice, octagon) -> Octagon:
    if isinstance(octagon, Octagon):
        center = octagon.center
    else:
        center = (int(octagon[0]), int(octagon[1]))
    for o in lat.octagons:
        if o.center == center:
            return o
    raise ModelError(f"no octagon centred at {center} (an island is missing)")


def vortex_operator(lat: IslandLattice, octagon,
                    r: ReflectionData | None = None) -> VortexLoop:
    """Elementary vortex loop of one octagon, with its mirror factor.

    If `r` is given and the plane bisects the octet into two circuit
    arcs of four, A_factor is the Lambda_minus arc taken in circuit
    order, and W = A * theta(A) is asserted.  A plane that does not
    bisect this octagon just leaves A_factor absent.
    """
    o = _resolve_octagon(lat, octagon)
    w = loop_operator(lat, o.octet)
    a = None
    if r is not None:
        a = _bisected_factor(o, r)
        if a is not None:
            wa = multiply(a, reflect(a, r.sigma))
            if wa != w:
                raise ModelError(
                    f"mirror factorization broke for octagon {o.center}: "
                    f"A*theta(A) = {wa.render()} but W = {w.render()}"
                )
    return VortexLoop(loop_sites=o.octet, half_length=4, W=w, A_factor=a)


def _bisected_factor(o: Octagon, r: ReflectionData) -> MajoranaPolynomial | None:
    left = set(r.left)
    flags = [m in left for m in o.octet]
    if sum(flags) != 4:
        return None
    starts = [k for k in range(8) if flags[k] and not flags[k - 1]]
    if len(starts) != 1:
        # four per side but interleaved: the plane does not bisect the circuit
        return None
    s = starts[0]
    run = tuple(o.octet[(s + t) % 8] for t in range(4))
    return MajoranaPolynomial.monomial(run)


def parity_operator(lat: IslandLattice) -> MajoranaPolynomial:
    """Total fermion parity i^M c_0 ... c_{2M-1}; commutes with H."""
    m = lat.n_modes
    return MajoranaPolynomial.monomial(range(lat.n_majoranas), EXACT_I ** m)


def model_manifest(lat: IslandLattice, lam) -> dict:
    """JSON-ready summary of a model instance for reports."""
    h = build_hamiltonian(lat, lam)
    terms = [MajoranaPolynomial.monomial(key, coeff).render()
             for key, coeff in sorted(h.terms().items())]
    return {
        "lambda": float(lam),
        "majoranas": lat.n_majoranas,
        "islands": lat.n_islands,
        "bonds": len(lat.bonds),
        "octagons": len(lat.octagons),
        "lattice_hash": lat.content_hash(),
        "terms": terms,
    }
