"""Nonabelian 2-cocycles (rho, u) over a finite quotient, with brute search.

A cocycle is a pair of tables rho: Q -> Aut(F), u: Q x Q -> F subject to
rho_{st} = int(u_{s,t}) . rho_s . rho_t  and the twisted associativity
u_{s,tv} rho_s(u_{t,v}) = u_{st,v} u_{s,t}.  Automorphisms are stored as
permutation arrays over a table-group materialization of F, so everything
here is bounded to |F| <= 2^9.

Neutrality (being cohomologous to some (rho', 1)) is decided by exhaustive
search over maps c: Q -> F with an explicit budget; exceeding the budget is
reported as undecided, never as a verdict.  The coboundary transform
u'_{s,t} = c_{st} u_{s,t} rho_s(c_t)^{-1} c_s^{-1} is written once
(``coboundary_u``), over a batch of maps c; ``transformed`` applies it to
one c, and the search to consecutive chunks of candidates in
``itertools.product`` order, so its witness is the first trivializing c.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cochain import Cochain
from .cohomology import CohomologyGroup, cohomology
from .crossed import BKDatum, CPIndex, TwistedForm, delta_twisted_formula
from .groups import FiniteGroup

# int64 entries of one chunk's u' tables in the neutrality search (1 MiB)
_CHUNK_ENTRIES = 1 << 17


class Neutrality(Enum):
    NEUTRAL = "neutral"
    NOT_NEUTRAL = "not-neutral"
    UNDECIDED = "undecided"


@dataclass
class NonabTwoCocycle:
    Q: FiniteGroup
    F: FiniteGroup
    rho: np.ndarray  # (|Q|, |F|) permutations of F
    u: np.ndarray    # (|Q|, |Q|) element indices in F

    def validate(self) -> bool:
        """The three laws as table comparisons over every (s, t, v) at once."""
        Q, F, rho, u = self.Q, self.F, self.rho, self.u
        # each rho_s is a permutation, then an automorphism: rho_s(ab) = rho_s(a) rho_s(b)
        if (np.sort(rho, axis=1) != np.arange(F.size)).any():
            return False
        if (F.mul[rho[:, :, None], rho[:, None, :]] != rho[:, F.mul]).any():
            return False
        # rho_{st} = int(u_{s,t}) . rho_s . rho_t, over (s, t, f)
        comp = rho[np.arange(Q.size)[:, None, None], rho[None]]
        if (rho[Q.mul] != F.mul[F.mul[u[:, :, None], comp], F.inv[u][:, :, None]]).any():
            return False
        # u_{s,tv} rho_s(u_{t,v}) = u_{st,v} u_{s,t}, over (s, t, v)
        return bool((F.mul[u[:, Q.mul], rho[:, u]] == F.mul[u[Q.mul], u[:, :, None]]).all())

    def transformed(self, c: np.ndarray) -> "NonabTwoCocycle":
        """The cohomologous cocycle along c: Q -> F."""
        F = self.F
        c = np.asarray(c, dtype=np.int64)
        # rho'_s = int(c_s) . rho_s
        rho2 = F.mul[F.mul[c[:, None], self.rho], F.inv[c][:, None]]
        return NonabTwoCocycle(self.Q, F, rho2, coboundary_u(self, c[None])[0])


def coboundary_u(coc: NonabTwoCocycle, c: np.ndarray) -> np.ndarray:
    """u'_{s,t} = c_{st} u_{s,t} rho_s(c_t)^{-1} c_s^{-1} for a batch c of shape (B, |Q|).

    Returns the batch of tables u', shape (B, |Q|, |Q|).
    """
    Q, F = coc.Q, coc.F
    rho_c = coc.rho[np.arange(Q.size)[:, None], c[:, None, :]]  # rho_s(c_t)
    val = F.mul[F.mul[c[:, Q.mul], coc.u], F.inv[rho_c]]
    return F.mul[val, F.inv[c][:, :, None]]


def cocycle_from_action(Q: FiniteGroup, F: FiniteGroup, action_perms: np.ndarray) -> NonabTwoCocycle:
    """The neutral cocycle (rho, 1) of an honest action."""
    u = np.zeros((Q.size, Q.size), dtype=np.int64)
    return NonabTwoCocycle(Q, F, np.asarray(action_perms, dtype=np.int64), u)


def bk_action_perms(datum: BKDatum, idx: CPIndex) -> np.ndarray:
    """The coordinatewise action of the Galois quotient as permutations."""
    cp = datum.cp
    Q = cp.Q
    n = cp.order
    na = idx.a_coords.shape[0]
    out = np.zeros((Q.size, n), dtype=np.int64)
    for q in Q.elements():
        znew = idx.z_index(cp.Zmod.apply(q, idx.z_coords))
        anew = idx.a_index(cp.Msum.apply(q, idx.a_coords))
        out[q] = (znew[:, None] * na + anew[None, :]).reshape(-1)
    return out


def central_shift(coc: NonabTwoCocycle, idx: CPIndex, beta: Cochain) -> NonabTwoCocycle:
    """Multiply u pointwise by a central 2-cochain valued in Z."""
    n = coc.Q.size
    na = idx.a_coords.shape[0]
    # (z, 0) has index z-index * |M + M|
    zidx = idx.z_index(beta.table.reshape(n * n, idx.cp.kz)).reshape(n, n) * na
    return NonabTwoCocycle(coc.Q, coc.F, coc.rho, coc.F.mul[zidx, coc.u])


def is_neutral_bruteforce(coc: NonabTwoCocycle, budget: int = 1 << 16):
    """Search maps c: Q -> F trivializing u; three-valued outcome.

    Candidates run in ``itertools.product`` order, a chunk at a time, and the
    witness is the first c whose u' is identically 1.
    """
    Q, F = coc.Q, coc.F
    total = F.size ** Q.size
    if total > budget:
        return Neutrality.UNDECIDED, None
    # c as base-|F| digits of its position in product order, most significant first
    weights = F.size ** np.arange(Q.size - 1, -1, -1, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (Q.size * Q.size))
    for start in range(0, total, step):
        pos = np.arange(start, min(start + step, total), dtype=np.int64)
        c = (pos[:, None] // weights) % F.size
        hits = np.flatnonzero(~coboundary_u(coc, c).reshape(len(c), -1).any(axis=1))
        if hits.size:
            return Neutrality.NEUTRAL, c[hits[0]].copy()
    return Neutrality.NOT_NEUTRAL, None


def neutrality_via_delta(datum: BKDatum, H2z: CohomologyGroup, work_bound: int = 1 << 26) -> dict:
    """The image of Delta: H^1(Q, M + M) -> H^2(Q, Z), in one pass over H^1.

    Returns ``{class coords of Delta(alpha): alpha}``, where each alpha is the
    first class representative in ``H1.classes()`` order with that image.  A
    class of `H2z` is neutral exactly when its coords are a key; the dict is
    exhaustive over all classes of H^1, not a search that may give up.
    """
    Z, M = datum.Zmod, H2z.module
    if H2z.degree != 2 or M.group is not Z.group or M.ab != Z.ab or not np.array_equal(M.act, Z.act):
        raise ValueError("H2z must be H^2(Q, Z) of the datum")
    H1 = cohomology(datum.Msum, 1, work_bound=work_bound)
    tf = TwistedForm(datum)  # zero twist: Delta([x,y]) = phi_*[x u y]
    image: dict = {}
    for cls in H1.classes():
        image.setdefault(H2z.class_of(delta_twisted_formula(tf, cls.rep)).coords, cls.rep)
    return image
