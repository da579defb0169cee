"""Machine verification of the Shapiro compatibility squares.

Six commuting diagrams are checked on classes, exhaustively where the class
count permits and on presentation generators otherwise (every path involved
is additive, so generators suffice):

* cup            -- tensor-side Shapiro of a cup product vs conjugated cups;
* j              -- constant-function inclusion vs plain restriction;
* cup-local      -- the cup square after restricting to a decomposition
                    subgroup and splitting along the transversal;
* j-local        -- the inclusion square, local form;
* loc-H1         -- localization of degree-1 classes vs conjugated restriction;
* loc-H2         -- localization of tensor-side degree-2 families.

No index arithmetic on M (x) M is done here: its coordinates belong to
the omega decomposition of ``groups``.  sh' and sh_v are one Shapiro
evaluation each over all components, and loc-H2 places a family at one
coset by omega^-1.  Each of H, H_D and D becomes a group once.

Each failed comparison carries a witness (class coordinates and component
indices); exceeding a work bound yields 'skipped', never a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import AbHom, FinAbGroup
from .cochain import (
    Cochain,
    conjugation_action,
    cup,
    shapiro_components,
    shapiro_inverse_1,
    shapiro_inverse_2,
    sh_prime,
)
from .cohomology import BoundExceeded, CohomologyGroup, cohomology
from .groups import (
    CosetSection,
    FiniteGroup,
    GModule,
    LocalizationContext,
    OmegaDecomposition,
    Subgroup,
    VarsigmaDecomposition,
    constant_inclusion,
    induced_module,
    pullback_module,
    trivial_module,
)

SQUARE_NAMES = ("cup", "j", "cup-local", "j-local", "loc-H1", "loc-H2")
LOCAL_SQUARES = ("cup-local", "j-local", "loc-H1", "loc-H2")
CLASS_CAP = 81  # squares run over every class up to this many, else over generators


@dataclass
class SquareResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    checked: int = 0
    detail: str = ""
    witness: dict | None = None


def _class_sample(H: CohomologyGroup):
    """All classes when few, presentation generators otherwise (paths are additive)."""
    from .cohomology import CohomologyClass

    if H.size <= CLASS_CAP:
        return H.classes(), "all-classes"
    return [CohomologyClass(H, c, H.rep(c)) for c in H.group.generators()], "generators"


class ShapiroSquares:
    """All compatibility-square checks for one (G, H, A) datum.

    Each ``square_*`` method yields its comparisons as
    ``(detail, witness, H, left, right)``: the square commutes on that input
    when ``left`` is a cocycle of ``H`` in the class of ``right``.
    """

    def __init__(
        self,
        G: FiniteGroup,
        H: Subgroup,
        A: FinAbGroup,
        ctx: LocalizationContext | None = None,
        work_bound: int = 1 << 26,
    ):
        self.G, self.H, self.A = G, H, A
        self.ctx = ctx
        self.work_bound = work_bound
        self.section = CosetSection(G, H)
        self.omega = OmegaDecomposition(induced_module(G, H, A))
        self.M = self.omega.M
        self.MM = self.omega.MM
        self.tensorMM = self.omega.tensor
        self.AA = self.omega.AA
        self.Hgrp, self.embed = self.section.Hgroup, self.section.Hembed
        self.trivH_A = trivial_module(self.Hgrp, A)
        self.trivH_AA = trivial_module(self.Hgrp, self.AA.group)
        self.trivG_AA = trivial_module(G, self.AA.group)
        self._groups: dict = {}
        self.j_hom = constant_inclusion(self.M, self.tensorMM)
        if ctx is not None:
            self.vs = VarsigmaDecomposition(ctx, self.M)
            self.Dgrp = ctx.Dgroup
            self.M_res = self.vs.M_res
            self.M_local = self.vs.M_local
            self.local_section = CosetSection(self.Dgrp, ctx.H_D_in_D)
            self.local_omega = OmegaDecomposition(self.M_local)
            self.HDgrp, self.HDembed = self.local_section.Hgroup, self.local_section.Hembed
            self.trivHD_A = trivial_module(self.HDgrp, A)
            self.trivHD_AA = trivial_module(self.HDgrp, self.AA.group)
            self.trivD_AA = trivial_module(self.Dgrp, self.AA.group)
            self.MM_res = pullback_module(self.MM, self.Dgrp, ctx.Dembed)
            # positions in H of the members of H_D
            self.hd_in_H = H.positions[ctx.Dembed[self.HDembed]]
            # sh'_v at the transversal pair (s, t) reads the kron of their varsigma components
            mat, local_ab = self.vs.blocks(), self.local_omega.MM.ab
            pairs = np.ndindex(ctx.e, ctx.e)
            self.vv_homs = {(s, t): AbHom(self.MM.ab, local_ab, np.kron(mat[s], mat[t])) for s, t in pairs}

    # -- caches ---------------------------------------------------------------

    def coh(self, module: GModule, r: int) -> CohomologyGroup:
        """H^r(group, module), built once per group table, orders, action and r.

        So H^r(G, .) serves as H^r(D, .) when D = G, and H^r(H, .) as
        H^r(H_D, .) when H_D = H.  A shared group's classes keep the module
        it was built with; the squares read only their tables.
        """
        key = (module.group.mul.tobytes(), tuple(module.ab.orders), module.act.tobytes(), r)
        if key not in self._groups:
            self._groups[key] = cohomology(module, r, work_bound=self.work_bound)
        return self._groups[key]

    # -- helpers ----------------------------------------------------------------

    def conj_H(self, sigma: int, c: Cochain) -> Cochain:
        return conjugation_action(self.G, self.H, self.embed, sigma, c)

    def sh_v_components(self, z: Cochain) -> list[Cochain]:
        """sh_v of a cochain over D valued in M: one H_D-cochain per transversal rep."""
        return shapiro_components(z, self.vs, self.trivHD_A, self.HDembed)

    def sh_v_prime_components(self, z: Cochain) -> dict:
        """sh'_v of a cochain over D valued in M (x) M, keyed by (h, s, t)."""
        out = {}
        local_MM = self.local_omega.MM
        for (si, ti), hom in self.vv_homs.items():
            parts = sh_prime(z.mapped(hom, local_MM), self.local_omega, self.trivHD_AA, self.HDembed)
            for c_local, part in enumerate(parts):
                out[(int(self.vs.gv_of_local_coset[c_local]), si, ti)] = part
        return out

    # -- the six squares -------------------------------------------------------

    def square_cup(self):
        H1 = self.coh(self.trivH_A, 1)
        H2AA = self.coh(self.trivH_AA, 2)
        classes, detail = _class_sample(H1)
        for ca in classes:
            x = shapiro_inverse_1(ca.rep, self.section, self.M)
            for cb in classes:
                y = shapiro_inverse_1(cb.rep, self.section, self.M)
                comps = sh_prime(cup(x, y, self.tensorMM, self.MM), self.omega, self.trivH_AA, self.embed)
                for g, left in enumerate(comps):
                    sigma = int(self.G.inv[int(self.section.u[g])])
                    rhs = cup(self.conj_H(sigma, ca.rep), cb.rep, self.AA, self.trivH_AA)
                    yield detail, {"a": ca.coords.coords, "b": cb.coords.coords, "coset": g}, H2AA, left, rhs

    def square_j(self):
        for r in (1, 2):
            HG = self.coh(self.trivG_AA, r)
            HH = self.coh(self.trivH_AA, r)
            classes, detail = _class_sample(HG)
            for cx in classes:
                comps = sh_prime(cx.rep.mapped(self.j_hom, self.MM), self.omega, self.trivH_AA, self.embed)
                res = Cochain(self.trivH_AA, r, cx.rep.restricted_table(self.embed))
                for g, left in enumerate(comps):
                    yield detail, {"r": r, "x": cx.coords.coords, "coset": g}, HH, left, res

    def square_cup_local(self):
        H1D = self.coh(self.M_res, 1)
        H2HD = self.coh(self.trivHD_AA, 2)
        classes, detail = _class_sample(H1D)
        for cx in classes:
            a_comps = self.sh_v_components(cx.rep)
            for cy in classes:
                lhs = self.sh_v_prime_components(cup(cx.rep, cy.rep, self.tensorMM, self.MM_res))
                b_comps = self.sh_v_components(cy.rep)
                for (h, si, ti), left in lhs.items():
                    # the inverse of the local section's lift of h
                    sigma = int(self.Dgrp.inv[self.local_section.u[self.vs.local_coset_of_gv[h]]])
                    conj = conjugation_action(self.Dgrp, self.ctx.H_D_in_D, self.HDembed, sigma, a_comps[si])
                    rhs = cup(conj, b_comps[ti], self.AA, self.trivHD_AA)
                    witness = {"x": cx.coords.coords, "y": cy.coords.coords, "hst": (h, si, ti)}
                    yield detail, witness, H2HD, left, rhs

    def square_j_local(self):
        for r in (1, 2):
            HD = self.coh(self.trivD_AA, r)
            HHD = self.coh(self.trivHD_AA, r)
            classes, detail = _class_sample(HD)
            for cx in classes:
                lhs = self.sh_v_prime_components(cx.rep.mapped(self.j_hom, self.MM_res))
                res = Cochain(self.trivHD_AA, r, cx.rep.restricted_table(self.HDembed))
                for key, left in lhs.items():
                    yield detail, {"r": r, "x": cx.coords.coords, "hst": key}, HHD, left, res

    def square_loc_h1(self):
        H1 = self.coh(self.trivH_A, 1)
        H1HD = self.coh(self.trivHD_A, 1)
        classes, detail = _class_sample(H1)
        for ca in classes:
            x = shapiro_inverse_1(ca.rep, self.section, self.M)
            lhs = self.sh_v_components(Cochain(self.M_res, 1, x.restricted_table(self.ctx.Dembed)))
            for si, s in enumerate(self.ctx.transversal):
                # s is its own global coset; its lowest-index section lift in G
                sigma = int(self.G.inv[int(self.section.u[s])])
                rhs = Cochain(self.trivHD_A, 1, self.conj_H(sigma, ca.rep).restricted_table(self.hd_in_H))
                yield detail, {"a": ca.coords.coords, "s": int(s)}, H1HD, lhs[si], rhs

    def square_loc_h2(self):
        H2H = self.coh(self.trivH_AA, 2)
        H2HD = self.coh(self.trivHD_AA, 2)
        # both paths are additive in the family (alpha_g): presentation
        # generators placed at a single position g0 span everything
        gens = [H2H.rep(coords) for coords in H2H.group.generators()]
        kaa = self.AA.group.rank
        qq = self.ctx.quotient
        zero = Cochain(self.trivHD_AA, 2, np.zeros((len(self.hd_in_H),) * 2 + (kaa,), dtype=np.int64))
        for g0 in range(self.M.n_cosets):
            place = self.omega.place(g0)
            for alpha in gens:
                x = shapiro_inverse_2(alpha, self.section, self.omega.ind_AA)
                # y = omega^-1 of the family that is x at g0 and zero elsewhere:
                # y(s,t)(c1,c2) = x(s,t)(c2) when c1 c2^-1 = g0
                y = x.mapped(place, self.MM)
                yv = Cochain(self.MM_res, 2, y.restricted_table(self.ctx.Dembed))
                alpha_table = alpha.table.tolist()
                for (h, si, ti), left in self.sh_v_prime_components(yv).items():
                    s = self.ctx.transversal[si]
                    t_ = self.ctx.transversal[ti]
                    sht = qq.op(qq.op(s, h), int(qq.inv[t_]))
                    # family is zero except at position g0; elements of G/H
                    # are their own coset indices
                    rhs = zero
                    if sht == g0:
                        conj = self.conj_H(int(self.G.inv[int(self.section.u[t_])]), alpha)
                        rhs = Cochain(self.trivHD_AA, 2, conj.restricted_table(self.hd_in_H))
                    yield "generators", {"g0": g0, "alpha": alpha_table, "hst": (h, si, ti)}, H2HD, left, rhs

    # -- the comparison loop ---------------------------------------------------

    def _check(self, name: str) -> SquareResult:
        """Run one square: the first comparison that does not commute fails it."""
        if self.ctx is None and name in LOCAL_SQUARES:
            return SquareResult(name, "skipped", detail="no localization context")
        square = getattr(self, "square_" + name.lower().replace("-", "_"))
        checked = 0
        detail = ""
        try:
            for detail, witness, H, left, right in square():
                checked += 1
                if not H.is_cocycle(left) or not H.classes_equal(left, right):
                    return SquareResult(name, "fail", checked, detail, witness)
        except BoundExceeded as e:
            return SquareResult(name, "skipped", detail=str(e))
        return SquareResult(name, "pass", checked, detail)

    def run(self, names=SQUARE_NAMES) -> list[SquareResult]:
        return [self._check(name) for name in names]


def verify_shapiro_squares(
    G: FiniteGroup,
    H: Subgroup,
    A: FinAbGroup,
    ctx: LocalizationContext | None = None,
    work_bound: int = 1 << 26,
) -> list[SquareResult]:
    return ShapiroSquares(G, H, A, ctx=ctx, work_bound=work_bound).run()
