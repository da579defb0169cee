"""Independent references: hand-written group invariants and the UCT formula.

Nothing here calls cohomkit.  For a trivial module A = (+)_j Z/c_j the
universal-coefficient theorem gives

    H^1(G, A) = Hom(G^ab, A)                 = (+)_{i,j} Z/gcd(a_i, c_j)
    H^2(G, A) = Ext(G^ab, A) (+) Hom(M(G), A) = (+)_{i,j} Z/gcd(a_i, c_j)
                                               (+) (+)_{k,j} Z/gcd(m_k, c_j)

with G^ab = (+) Z/a_i and the Schur multiplier M(G) = (+) Z/m_k.
"""

from __future__ import annotations

from collections import Counter
from math import gcd

import numpy as np

# name -> (invariants of G^ab, invariants of the Schur multiplier M(G)).
# Textbook values; Heis8 is the dihedral group of order 8 and Heis27 the
# extraspecial group 3^{1+2} of exponent 3, whose multiplier is C3 x C3.
INVARIANTS = {
    "1": ((), ()),
    "C2": ((2,), ()),
    "C3": ((3,), ()),
    "C4": ((4,), ()),
    "C6": ((6,), ()),
    "C2xC2": ((2, 2), (2,)),
    "S3": ((2,), ()),
    "D8": ((2, 2), (2,)),
    "Q8": ((2, 2), ()),
    "Heis8": ((2, 2), (2,)),
    "Heis27": ((3, 3), (3, 3)),
    # F128, the crossed product for base C2 and Galois group C2: a special
    # 2-group with F^ab = C2^4 and [F,F] = Z(F) = C2^3.  Its multiplier C2^8
    # is not derived by hand: it is the value pinned when this table was
    # written, and the classes workload ties it to three coefficient modules
    # at once (Z/2, Z/4, C2xC2), which the formula above links.
    "F128": ((2, 2, 2, 2), (2,) * 8),
}


def invariants(name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invariants of a catalog name or of a product written 'G*H*...'."""
    parts = name.split("*")
    ab, mult = INVARIANTS[parts[0]]
    for p in parts[1:]:
        pa, pm = INVARIANTS[p]
        mult = mult + pm + tuple(gcd(a, b) for a in ab for b in pa)
        ab = ab + pa
    return ab, mult


def uct(group: str, coeffs, degree: int) -> tuple[int, ...]:
    """Cyclic orders whose direct sum is H^degree(group, trivial coeffs), degree 1 or 2."""
    ab, mult = invariants(group)
    parts = [gcd(a, c) for a in ab for c in coeffs]
    if degree == 2:
        parts += [gcd(m, c) for m in mult for c in coeffs]
    return tuple(parts)


def primary(orders) -> Counter:
    """Multiset of prime-power cyclic factors of (+) Z/o."""
    out: Counter = Counter()
    for n in orders:
        n = int(n)
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out[q] += 1
            p += 1
    return out


def same_group(a, b) -> bool:
    return primary(a) == primary(b)


def render(orders) -> str:
    """Invariant factors, largest first, as the report renders groups."""
    by_p: dict[int, list[int]] = {}
    for q, mult in primary(orders).items():
        p = next(f for f in range(2, q + 1) if q % f == 0)
        by_p.setdefault(p, []).extend([q] * mult)
    depth = max((len(v) for v in by_p.values()), default=0)
    out = []
    for i in range(depth):
        f = 1
        for qs in by_p.values():
            qs.sort(reverse=True)
            if i < len(qs):
                f *= qs[i]
        out.append(f)
    return "x".join(f"C{d}" for d in out) if out else "0"


# ---------------------------------------------------------------------------
# Bar differential for trivial coefficients, written out per degree
# ---------------------------------------------------------------------------


def trivial_differential(mul: np.ndarray, table: np.ndarray, degree: int, mods) -> np.ndarray:
    """d of a degree-0 or degree-1 cochain with trivial action, reduced mod ``mods``.

    (d a)(g) = a - a = 0 and (d f)(g, h) = f(h) - f(gh) + f(g).
    """
    mods = np.asarray(mods, dtype=np.int64)
    n = mul.shape[0]
    if degree == 0:
        return np.zeros((n, len(mods)), dtype=np.int64)
    f = np.asarray(table, dtype=np.int64)
    out = f[None, :, :] - f[mul] + f[:, None, :]
    return out % mods


def is_trivial_cocycle(mul: np.ndarray, table: np.ndarray, degree: int, mods) -> bool:
    """Bar cocycle condition with trivial action, degree 1 or 2, mod ``mods``.

    Degree 1: f(h) - f(gh) + f(g) = 0.
    Degree 2: f(h, k) - f(gh, k) + f(g, hk) - f(g, h) = 0.
    """
    mods = np.asarray(mods, dtype=np.int64)
    f = np.asarray(table, dtype=np.int64)
    if degree == 1:
        return not (trivial_differential(mul, f, 1, mods)).any()
    n = mul.shape[0]
    idx = np.arange(n)
    d = (
        f[None, :, :, :]
        - f[mul[:, :, None], idx[None, None, :]]
        + f[idx[:, None, None], mul[None, :, :]]
        - f[:, :, None, :]
    )
    return not (d % mods).any()
