"""Symbolic algebra of Majorana generators.

Generators c_0, c_1, ... satisfy c_i = c_i^dagger, c_i^2 = 1 and
{c_i, c_j} = 2 delta_ij.  A monomial is an ascending product of distinct
generators with a scalar coefficient; a polynomial is a finite sum of
monomials keyed by their index tuple.

Every coefficient is a Gaussian rational (`GaussianRational`), so
statements like "this commutator vanishes" or "theta(H) = H" carry no
floating-point caveat, and terms are pruned only at exact zero.  Inputs
are converted exactly: ints and Fractions as they are, and every finite
float or complex (numpy scalars included) as the binary rational it
already is.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping


def _rational(x) -> Fraction:
    """The exact value of a real scalar; NaN and infinities raise."""
    if isinstance(x, (int, Fraction)):
        return x if type(x) is Fraction else Fraction(x)
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    x = float(x)  # Fraction() refuses numpy's float32
    if not math.isfinite(x):
        raise ValueError(f"coefficient part {x!r} is not finite")
    return Fraction(x)


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar re + im*i with rational parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _rational(re))
        object.__setattr__(self, "im", _rational(im))

    def __add__(self, other):
        other = _as_exact_scalar(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_exact_scalar(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _as_exact_scalar(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = GaussianRational(1)
        base = self
        for _ in range(n):
            out = out * base
        return out

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    to_complex = __complex__


EXACT_ONE = GaussianRational(1)
EXACT_I = GaussianRational(0, 1)


def _as_exact_scalar(z) -> GaussianRational | None:
    """The exact value of a scalar, or None for a non-scalar."""
    if isinstance(z, GaussianRational):
        return z
    if isinstance(z, numbers.Real):
        return GaussianRational(z)
    if isinstance(z, numbers.Complex):
        z = complex(z)
        return GaussianRational(z.real, z.imag)
    return None


def _coefficient(z) -> GaussianRational:
    exact = _as_exact_scalar(z)
    if exact is None:
        raise TypeError(f"coefficient must be a number, got {z!r}")
    return exact


@lru_cache(maxsize=1 << 18)
def _canonical_core(indices: tuple) -> tuple:
    """(sorted key with pairs removed, parity sign) for an index tuple.

    Memoized: products rebuild the same index merges over and over, and
    the map is pure.  Entries are small tuples, so even a full cache
    stays in the tens of megabytes.
    """
    seq = list(indices)
    swaps = 0
    for k in range(1, len(seq)):
        x = seq[k]
        j = k - 1
        while j >= 0 and seq[j] > x:
            seq[j + 1] = seq[j]
            j -= 1
            swaps += 1
        seq[j + 1] = x

    out: list[int] = []
    for x in seq:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out), (-1 if swaps % 2 else 1)


def canonicalize(indices: Iterable[int], coeff=1):
    """Bring a generator product into canonical form.

    Sorts the index sequence (stable; the sign is the parity of the
    sorting permutation) and removes adjacent equal pairs via c^2 = 1.
    Returns (ascending index tuple of the survivors, signed coeff).
    """
    seq = []
    for i in indices:
        if not isinstance(i, (int,)) or isinstance(i, bool):
            raise TypeError(f"generator index must be int, got {i!r}")
        if i < 0:
            raise ValueError(f"generator index must be non-negative, got {i}")
        seq.append(i)
    key, sign = _canonical_core(tuple(seq))
    return key, (coeff if sign > 0 else -coeff)


class ReflectionMap:
    """Involutive index map i -> sigma(i)."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[int, int]):
        m = dict(mapping)
        for i, j in m.items():
            if j not in m or m[j] != i:
                raise ValueError(f"mapping is not an involution at index {i}")
        self._map = m

    def __call__(self, i: int) -> int:
        try:
            return self._map[i]
        except KeyError:
            raise KeyError(f"index {i} not covered by the reflection") from None

    def items(self):
        return self._map.items()


class MajoranaPolynomial:
    """Finite sum of canonical Majorana monomials.

    Immutable by convention: all operations return new polynomials.
    Terms are held as {ascending index tuple: GaussianRational} with the
    empty tuple denoting the identity.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        acc: dict[tuple, GaussianRational] = {}
        if terms:
            for key, coeff in terms.items():
                k, c = canonicalize(key, _coefficient(coeff))
                acc[k] = acc[k] + c if k in acc else c
        self._terms = {k: c for k, c in acc.items() if c}

    @classmethod
    def _from_canonical(cls, terms: dict) -> "MajoranaPolynomial":
        p = cls.__new__(cls)
        p._terms = {k: c for k, c in terms.items() if c}
        return p

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff=1) -> "MajoranaPolynomial":
        k, c = canonicalize(indices, _coefficient(coeff))
        return cls._from_canonical({k: c})

    @classmethod
    def identity(cls, coeff=1) -> "MajoranaPolynomial":
        return cls._from_canonical({(): _coefficient(coeff)})

    @classmethod
    def generator(cls, i: int) -> "MajoranaPolynomial":
        return cls.monomial((i,))

    @classmethod
    def zero(cls) -> "MajoranaPolynomial":
        return cls._from_canonical({})

    def terms(self) -> dict[tuple, GaussianRational]:
        return dict(self._terms)

    def coefficient(self, indices: Iterable[int]) -> GaussianRational | None:
        key, sign = canonicalize(indices, 1)
        c = self._terms.get(key)
        if c is None:
            return None
        return c if sign == 1 else -c

    def __iter__(self) -> Iterator[tuple]:
        return iter(sorted(self._terms))

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> frozenset[int]:
        out: set[int] = set()
        for k in self._terms:
            out.update(k)
        return frozenset(out)

    def degree(self) -> int:
        return max((len(k) for k in self._terms), default=0)

    def parities(self) -> frozenset[int]:
        """Degree parities present: subset of {0 (even), 1 (odd)}."""
        return frozenset(len(k) % 2 for k in self._terms)

    def max_abs_coeff(self) -> float:
        return max((abs(complex(c)) for c in self._terms.values()), default=0.0)

    def __add__(self, other):
        if not isinstance(other, MajoranaPolynomial):
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return MajoranaPolynomial._from_canonical(acc)

    def __sub__(self, other):
        if not isinstance(other, MajoranaPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MajoranaPolynomial._from_canonical(
            {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, MajoranaPolynomial):
            acc: dict[tuple, GaussianRational] = {}
            core = _canonical_core
            for k1, c1 in self._terms.items():
                for k2, c2 in other._terms.items():
                    k, sign = core(k1 + k2)
                    c = c1 * c2
                    if sign < 0:
                        c = -c
                    acc[k] = acc[k] + c if k in acc else c
            return MajoranaPolynomial._from_canonical(acc)
        return self._scaled(other)

    def __rmul__(self, other):
        # scalars commute with everything here
        return self._scaled(other)

    def _scaled(self, scalar):
        scalar = _as_exact_scalar(scalar)
        if scalar is None:
            return NotImplemented
        return MajoranaPolynomial._from_canonical(
            {k: c * scalar for k, c in self._terms.items()})

    def adjoint(self) -> "MajoranaPolynomial":
        """Hermitian adjoint: reverse each product, conjugate each coefficient."""
        out = {}
        for k, c in self._terms.items():
            n = len(k)
            c = c.conjugate()
            if (n * (n - 1) // 2) % 2:  # parity of reversing n factors
                c = -c
            out[k] = c
        return MajoranaPolynomial._from_canonical(out)

    def relabel(self, perm) -> "MajoranaPolynomial":
        """Linear relabelling c_i -> c_perm[i]: each product's indices are
        replaced in place (order preserved), then recanonicalized.  `perm`
        is any sequence or mapping indexed by generator."""
        return self._mapped(perm.__getitem__, conjugate=False)

    def reflect(self, rmap: ReflectionMap) -> "MajoranaPolynomial":
        """Anti-unitary mirror image: the relabelling by `rmap` with every
        coefficient conjugated."""
        return self._mapped(rmap, conjugate=True)

    def _mapped(self, image, conjugate: bool) -> "MajoranaPolynomial":
        acc: dict[tuple, GaussianRational] = {}
        for k, c in self._terms.items():
            key, coeff = canonicalize([image(i) for i in k],
                                      c.conjugate() if conjugate else c)
            acc[key] = acc[key] + coeff if key in acc else coeff
        return MajoranaPolynomial._from_canonical(acc)

    def is_hermitian(self) -> bool:
        return self == self.adjoint()

    def isclose(self, other: "MajoranaPolynomial", tol: float) -> bool:
        """Is every coefficient of self - other at most `tol` in modulus?"""
        return (self - other).max_abs_coeff() <= tol

    def __eq__(self, other):
        if not isinstance(other, MajoranaPolynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-dict backed; not hashable

    def render(self) -> str:
        """Canonical text form, identical bytes for identical polynomials.

        Terms are sorted by index tuple; each renders as
        ``(<re>,<im>)*c<i1>*c<i2>*...`` with the identity as
        ``(<re>,<im>)*1``.  Coefficients render as the nearest floats.
        """
        if not self._terms:
            return "(0.0,0.0)*1"
        parts = []
        for k in sorted(self._terms):
            z = complex(self._terms[k])
            re, im = z.real + 0.0, z.imag + 0.0  # normalize -0.0
            body = "*".join(f"c{i}" for i in k) if k else "1"
            parts.append(f"({re!r},{im!r})*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<MajoranaPolynomial {len(self._terms)} terms>"


def multiply(p: MajoranaPolynomial, q: MajoranaPolynomial) -> MajoranaPolynomial:
    return p * q


def adjoint(p: MajoranaPolynomial) -> MajoranaPolynomial:
    return p.adjoint()


def reflect(p: MajoranaPolynomial, rmap: ReflectionMap) -> MajoranaPolynomial:
    return p.reflect(rmap)


def commutator(p: MajoranaPolynomial, q: MajoranaPolynomial) -> MajoranaPolynomial:
    return p * q - q * p


def anticommutator(p: MajoranaPolynomial, q: MajoranaPolynomial) -> MajoranaPolynomial:
    return p * q + q * p
