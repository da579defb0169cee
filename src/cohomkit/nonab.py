"""Nonabelian 2-cocycles (rho, u) over a finite quotient, with brute search.

A cocycle is a pair of tables rho: Q -> Aut(F), u: Q x Q -> F subject to
rho_{st} = int(u_{s,t}) . rho_s . rho_t  and the twisted associativity
u_{s,tv} rho_s(u_{t,v}) = u_{st,v} u_{s,t}.  Automorphisms are stored as
permutation arrays over a table-group materialization of F, so everything
here is bounded to |F| <= 2^9.

Neutrality (being cohomologous to some (rho', 1)) is decided by exhaustive
search over maps c: Q -> F with an explicit budget; exceeding the budget is
reported as undecided, never as a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cochain import Cochain
from .cohomology import cohomology
from .crossed import BKDatum, CPIndex, TwistedForm, delta_twisted_formula
from .groups import FiniteGroup


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
        Q, F = self.Q, self.F
        for s in Q.elements():
            perm = self.rho[s]
            if sorted(perm) != list(range(F.size)):
                return False
            # automorphism check
            if (F.mul[perm][:, perm] != perm[F.mul]).any():
                return False
        for s in Q.elements():
            for t in Q.elements():
                st = Q.op(s, t)
                inner = int(self.u[s, t])
                comp = self.rho[s][self.rho[t]]
                # int(u_{s,t}) . rho_s . rho_t
                lhs = F.mul[F.mul[inner, comp], int(F.inv[inner])]
                if (self.rho[st] != lhs).any():
                    return False
        for s in Q.elements():
            for t in Q.elements():
                for v in Q.elements():
                    lhs = F.op(int(self.u[s, Q.op(t, v)]), int(self.rho[s][self.u[t, v]]))
                    rhs = F.op(int(self.u[Q.op(s, t), v]), int(self.u[s, t]))
                    if lhs != rhs:
                        return False
        return True

    def transformed(self, c: np.ndarray) -> "NonabTwoCocycle":
        """The cohomologous cocycle along c: Q -> F."""
        Q, F = self.Q, self.F
        rho2 = np.zeros_like(self.rho)
        u2 = np.zeros_like(self.u)
        for s in Q.elements():
            cs = int(c[s])
            rho2[s] = np.array(
                [F.op(F.op(cs, int(self.rho[s][x])), int(F.inv[cs])) for x in range(F.size)]
            )
        for s in Q.elements():
            for t in Q.elements():
                st = Q.op(s, t)
                val = F.op(int(c[st]), int(self.u[s, t]))
                val = F.op(val, int(F.inv[int(self.rho[s][c[t]])]))
                val = F.op(val, int(F.inv[int(c[s])]))
                u2[s, t] = val
        return NonabTwoCocycle(Q, F, rho2, u2)


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
    Q, F = coc.Q, coc.F
    u2 = coc.u.copy()
    for s in Q.elements():
        for t in Q.elements():
            zidx = idx.index_of(beta.table[s, t], np.zeros(idx.cp.ka, dtype=np.int64))
            u2[s, t] = F.op(zidx, int(coc.u[s, t]))
    return NonabTwoCocycle(Q, F, coc.rho, u2)


def is_neutral_bruteforce(coc: NonabTwoCocycle, budget: int = 1 << 16):
    """Search maps c: Q -> F trivializing u; three-valued outcome."""
    Q, F = coc.Q, coc.F
    total = F.size ** Q.size
    if total > budget:
        return Neutrality.UNDECIDED, None
    from itertools import product as iproduct

    for cand in iproduct(range(F.size), repeat=Q.size):
        c = np.array(cand, dtype=np.int64)
        ok = True
        for s in Q.elements():
            for t in Q.elements():
                st = Q.op(s, t)
                val = F.op(int(c[st]), int(coc.u[s, t]))
                val = F.op(val, int(F.inv[int(coc.rho[s][c[t]])]))
                val = F.op(val, int(F.inv[int(c[s])]))
                if val != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Neutrality.NEUTRAL, c
    return Neutrality.NOT_NEUTRAL, None


def neutrality_via_delta(datum: BKDatum, beta: Cochain, work_bound: int = 1 << 26):
    """Search H^1(Q, M + M) for alpha with Delta(alpha) = [beta].

    Returns a representative cocycle alpha or None; None is an exhaustive
    verdict over all classes, not a search failure.
    """
    H1 = cohomology(datum.Msum, 1, work_bound=work_bound)
    H2z = cohomology(datum.Zmod, 2, work_bound=work_bound)
    if not H2z.is_cocycle(beta):
        raise ValueError("beta must be a 2-cocycle valued in Z")
    tf = TwistedForm(datum)  # zero twist: Delta([x,y]) = phi_*[x u y]
    for cls in H1.classes():
        img = delta_twisted_formula(tf, cls.rep)
        if H2z.classes_equal(img, beta):
            return cls.rep
    return None
