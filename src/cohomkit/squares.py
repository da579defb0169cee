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
    shapiro_forward,
    shapiro_inverse_1,
    shapiro_inverse_2,
    sh_prime,
)
from .cohomology import BoundExceeded, CohomologyGroup, cohomology
from .groups import (
    CosetSection,
    FiniteGroup,
    LocalizationContext,
    OmegaDecomposition,
    Subgroup,
    VarsigmaDecomposition,
    constant_inclusion,
    induced_module,
    restrict_module,
    subgroup_group,
    tensor_module,
    trivial_module,
)

SQUARE_NAMES = ("cup", "j", "cup-local", "j-local", "loc-H1", "loc-H2")


@dataclass
class SquareResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    checked: int = 0
    detail: str = ""
    witness: dict | None = None


def _class_sample(H: CohomologyGroup, cap: int):
    """All classes when few, presentation generators otherwise (paths are additive)."""
    from .cohomology import CohomologyClass

    if H.size <= cap:
        return H.classes(), "all-classes"
    return [CohomologyClass(H, c, H.rep(c)) for c in H.group.generators()], "generators"


class ShapiroSquares:
    """All compatibility-square checks for one (G, H, A) datum."""

    def __init__(
        self,
        G: FiniteGroup,
        H: Subgroup,
        A: FinAbGroup,
        ctx: LocalizationContext | None = None,
        cup_fn=cup,
        class_cap: int = 81,
        work_bound: int = 1 << 26,
    ):
        self.G, self.H, self.A = G, H, A
        self.ctx = ctx
        self.cup_fn = cup_fn
        self.class_cap = class_cap
        self.work_bound = work_bound
        self.section = CosetSection(G, H)
        self.omega = OmegaDecomposition(induced_module(G, H, A))
        self.omega.verify()
        self.M = self.omega.M
        self.MM = self.omega.MM
        self.tensorMM = self.omega.tensor
        self.AA = self.omega.AA
        self.Hgrp, self.embed = subgroup_group(H)
        self.trivH_A = trivial_module(self.Hgrp, A)
        self.trivH_AA = trivial_module(self.Hgrp, self.AA.group)
        self.trivG_AA = trivial_module(G, self.AA.group)
        self._cache: dict = {}
        self.j_hom = constant_inclusion(self.M, self.tensorMM)
        if ctx is not None:
            self.vs = VarsigmaDecomposition(ctx, self.M)
            self.vs.verify()
            self.Dgrp = ctx.Dgroup
            self.M_res = self.vs.M_res
            self.M_local = self.vs.M_local
            self.local_section = CosetSection(self.Dgrp, ctx.H_D_in_D)
            self.local_omega = OmegaDecomposition(self.M_local)
            self.local_omega.verify()
            self.HDgrp, self.HDembed = subgroup_group(ctx.H_D_in_D)
            self.trivHD_A = trivial_module(self.HDgrp, A)
            self.trivHD_AA = trivial_module(self.HDgrp, self.AA.group)
            self.trivD_AA = trivial_module(self.Dgrp, self.AA.group)
            self.MM_res, _ = restrict_module(self.MM, ctx.D)
            # positions in H of the members of H_D
            self.hd_in_H = H.positions[self.vs.Dembed[self.HDembed]]

    # -- caches ---------------------------------------------------------------

    def coh(self, key, module, r) -> CohomologyGroup:
        if key not in self._cache:
            self._cache[key] = cohomology(module, r, work_bound=self.work_bound)
        return self._cache[key]

    # -- helpers ----------------------------------------------------------------

    def conj_H(self, sigma: int, c: Cochain) -> Cochain:
        return conjugation_action(self.G, self.H, self.embed, sigma, c)

    def conj_HD(self, sigma_local: int, c: Cochain) -> Cochain:
        return conjugation_action(self.Dgrp, self.ctx.H_D_in_D, self.HDembed, sigma_local, c)

    def sh_v_components(self, z: Cochain) -> list[Cochain]:
        """sh_v of a cochain over D valued in M: one H_D-cochain per transversal rep."""
        out = []
        for idx in range(self.ctx.e):
            comp = z.mapped(self.vs.components[idx], self.M_local)
            out.append(shapiro_forward(comp, self.trivHD_A, self.HDembed))
        return out

    def sh_v_prime_components(self, z: Cochain) -> dict:
        """sh'_v of a cochain over D valued in M (x) M, keyed by (h, s, t)."""
        out = {}
        for si in range(self.ctx.e):
            for ti in range(self.ctx.e):
                mat = np.kron(self.vs.components[si].matrix, self.vs.components[ti].matrix)
                # reindex into the local tensor module
                loc_tensor = self.local_tensor
                hom = AbHom(self.MM.ab, loc_tensor[0].ab, mat)
                comp = z.mapped(hom, loc_tensor[0])
                parts = sh_prime(comp, self.local_omega, self.trivHD_AA, self.HDembed)
                for c_local, part in enumerate(parts):
                    h = int(self.vs.gv_of_local_coset[c_local])
                    out[(h, si, ti)] = part
        return out

    @property
    def local_tensor(self):
        if "local_tensor" not in self._cache:
            self._cache["local_tensor"] = tensor_module(self.M_local, self.M_local)
        return self._cache["local_tensor"]

    # -- the six squares -------------------------------------------------------

    def square_cup(self) -> SquareResult:
        try:
            H1 = self.coh(("H", "A", 1), self.trivH_A, 1)
            H2AA = self.coh(("H", "AA", 2), self.trivH_AA, 2)
            classes, detail = _class_sample(H1, self.class_cap)
        except BoundExceeded as e:
            return SquareResult("cup", "skipped", detail=str(e))
        checked = 0
        for ca in classes:
            for cb in classes:
                x = shapiro_inverse_1(ca.rep, self.section, self.M)
                y = shapiro_inverse_1(cb.rep, self.section, self.M)
                xy = self.cup_fn(x, y, self.tensorMM, self.MM)
                comps = sh_prime(xy, self.omega, self.trivH_AA, self.embed)
                for g in range(self.M.n_cosets):
                    sigma = int(self.G.inv[int(self.section.u[g])])
                    rhs = self.cup_fn(self.conj_H(sigma, ca.rep), cb.rep, self.AA, self.trivH_AA)
                    checked += 1
                    if not H2AA.is_cocycle(comps[g]) or not H2AA.classes_equal(comps[g], rhs):
                        return SquareResult(
                            "cup",
                            "fail",
                            checked,
                            detail,
                            {"a": ca.coords.coords, "b": cb.coords.coords, "coset": g},
                        )
        return SquareResult("cup", "pass", checked, detail)

    def square_j(self) -> SquareResult:
        checked = 0
        for r in (1, 2):
            try:
                HG = self.coh(("G", "AA", r), self.trivG_AA, r)
                HH = self.coh(("H", "AA", r), self.trivH_AA, r)
                classes, detail = _class_sample(HG, self.class_cap)
            except BoundExceeded as e:
                return SquareResult("j", "skipped", detail=str(e))
            for cx in classes:
                jx = cx.rep.mapped(self.j_hom, self.MM)
                comps = sh_prime(jx, self.omega, self.trivH_AA, self.embed)
                idx = tuple(self.embed for _ in range(r))
                res = Cochain(self.trivH_AA, r, cx.rep.table[np.ix_(*idx)])
                for g in range(self.M.n_cosets):
                    checked += 1
                    if not HH.classes_equal(comps[g], res):
                        return SquareResult(
                            "j", "fail", checked, detail, {"r": r, "x": cx.coords.coords, "coset": g}
                        )
        return SquareResult("j", "pass", checked, detail)

    def square_cup_local(self) -> SquareResult:
        if self.ctx is None:
            return SquareResult("cup-local", "skipped", detail="no localization context")
        try:
            H1D = self.coh(("D", "M", 1), self.M_res, 1)
            H2HD = self.coh(("HD", "AA", 2), self.trivHD_AA, 2)
            classes, detail = _class_sample(H1D, self.class_cap)
        except BoundExceeded as e:
            return SquareResult("cup-local", "skipped", detail=str(e))
        checked = 0
        MMres = self.MM_res
        for cx in classes:
            for cy in classes:
                xy = self.cup_fn(cx.rep, cy.rep, self.tensorMM, MMres)
                lhs = self.sh_v_prime_components(xy)
                a_comps = self.sh_v_components(cx.rep)
                b_comps = self.sh_v_components(cy.rep)
                for (h, si, ti), left in lhs.items():
                    hloc = self.local_section_index(h)
                    rhs = self.cup_fn(
                        self.conj_HD(int(self.Dgrp.inv[hloc]), a_comps[si]),
                        b_comps[ti],
                        self.AA,
                        self.trivHD_AA,
                    )
                    checked += 1
                    if not H2HD.is_cocycle(left) or not H2HD.classes_equal(left, rhs):
                        return SquareResult(
                            "cup-local",
                            "fail",
                            checked,
                            detail,
                            {"x": cx.coords.coords, "y": cy.coords.coords, "hst": (h, si, ti)},
                        )
        return SquareResult("cup-local", "pass", checked, detail)

    def local_section_index(self, h_gv: int) -> int:
        """Lift of a decomposition-quotient element through the local section."""
        c_local = self.vs.local_coset_of_gv[h_gv]
        return int(self.local_section.u[c_local])

    def square_j_local(self) -> SquareResult:
        if self.ctx is None:
            return SquareResult("j-local", "skipped", detail="no localization context")
        checked = 0
        for r in (1, 2):
            try:
                HD = self.coh(("D", "AA", r), self.trivD_AA, r)
                HHD = self.coh(("HD", "AA", r), self.trivHD_AA, r)
                classes, detail = _class_sample(HD, self.class_cap)
            except BoundExceeded as e:
                return SquareResult("j-local", "skipped", detail=str(e))
            for cx in classes:
                jx = cx.rep.mapped(self.j_hom, self.MM_res)
                lhs = self.sh_v_prime_components(jx)
                take = tuple(self.HDembed for _ in range(r))
                res = Cochain(self.trivHD_AA, r, cx.rep.table[np.ix_(*take)])
                for key, left in lhs.items():
                    checked += 1
                    if not HHD.classes_equal(left, res):
                        return SquareResult(
                            "j-local", "fail", checked, detail, {"r": r, "x": cx.coords.coords, "hst": key}
                        )
        return SquareResult("j-local", "pass", checked, detail)

    def square_loc_h1(self) -> SquareResult:
        if self.ctx is None:
            return SquareResult("loc-H1", "skipped", detail="no localization context")
        try:
            H1 = self.coh(("H", "A", 1), self.trivH_A, 1)
            H1HD = self.coh(("HD", "A", 1), self.trivHD_A, 1)
            classes, detail = _class_sample(H1, self.class_cap)
        except BoundExceeded as e:
            return SquareResult("loc-H1", "skipped", detail=str(e))
        checked = 0
        for ca in classes:
            x = shapiro_inverse_1(ca.rep, self.section, self.M)
            xv = Cochain(self.M_res, 1, x.table[self.vs.Dembed])
            lhs = self.sh_v_components(xv)
            for si, s in enumerate(self.ctx.transversal):
                # s is its own global coset; its lowest-index section lift in G
                sigma = int(self.G.inv[int(self.section.u[s])])
                conj = self.conj_H(sigma, ca.rep)
                rhs = Cochain(self.trivHD_A, 1, conj.table[self.hd_in_H])
                checked += 1
                if not H1HD.classes_equal(lhs[si], rhs):
                    return SquareResult(
                        "loc-H1", "fail", checked, detail, {"a": ca.coords.coords, "s": int(s)}
                    )
        return SquareResult("loc-H1", "pass", checked, detail)

    def square_loc_h2(self) -> SquareResult:
        if self.ctx is None:
            return SquareResult("loc-H2", "skipped", detail="no localization context")
        try:
            H2H = self.coh(("H", "AA", 2), self.trivH_AA, 2)
            H2HD = self.coh(("HD", "AA", 2), self.trivHD_AA, 2)
        except BoundExceeded as e:
            return SquareResult("loc-H2", "skipped", detail=str(e))
        # both paths are additive in the family (alpha_g): presentation
        # generators placed at a single position g0 span everything
        gens = [H2H.rep(coords) for coords in H2H.group.generators()]
        checked = 0
        ka = self.A.rank
        kaa = self.AA.group.rank
        m = self.M.n_cosets
        hd_in_H = self.hd_in_H
        qq = self.ctx.quotient
        for g0 in range(m):
            for alpha in gens:
                x = shapiro_inverse_2(alpha, self.section, self.omega.ind_AA)
                # assemble y in Z^2(G, M (x) M): y(s,t)(c1,c2) = x_{c1 c2^-1}(c2)
                n = self.G.size
                ytab = np.zeros((n, n, self.MM.ab.rank), dtype=np.int64)
                for c1 in range(m):
                    for c2 in range(m):
                        if self.M.coset_mul(c1, self.M.coset_inv(c2)) != g0:
                            continue
                        for t in range(kaa):
                            i, j = divmod(t, ka)
                            dst = self.tensorMM.index(c1 * ka + i, c2 * ka + j)
                            ytab[:, :, dst] = x.table[:, :, c2 * kaa + t]
                y = Cochain(self.MM, 2, ytab)
                yv = Cochain(self.MM_res, 2, y.table[np.ix_(self.vs.Dembed, self.vs.Dembed)])
                lhs = self.sh_v_prime_components(yv)
                for (h, si, ti), left in lhs.items():
                    s = self.ctx.transversal[si]
                    t_ = self.ctx.transversal[ti]
                    sht = qq.op(qq.op(s, h), int(qq.inv[t_]))
                    # family is zero except at position g0; elements of G/H
                    # are their own coset indices
                    if sht == g0:
                        sigma = int(self.G.inv[int(self.section.u[t_])])
                        conj = self.conj_H(sigma, alpha)
                        rhs = Cochain(self.trivHD_AA, 2, conj.table[np.ix_(hd_in_H, hd_in_H)])
                    else:
                        rhs = Cochain(
                            self.trivHD_AA, 2, np.zeros((len(hd_in_H),) * 2 + (kaa,), dtype=np.int64)
                        )
                    checked += 1
                    if not H2HD.classes_equal(left, rhs):
                        return SquareResult(
                            "loc-H2",
                            "fail",
                            checked,
                            "generators",
                            {"g0": g0, "alpha": alpha.table.tolist(), "hst": (h, si, ti)},
                        )
        return SquareResult("loc-H2", "pass", checked, "generators")

    def run(self, names=SQUARE_NAMES) -> list[SquareResult]:
        dispatch = {
            "cup": self.square_cup,
            "j": self.square_j,
            "cup-local": self.square_cup_local,
            "j-local": self.square_j_local,
            "loc-H1": self.square_loc_h1,
            "loc-H2": self.square_loc_h2,
        }
        return [dispatch[n]() for n in names]


def verify_shapiro_squares(
    G: FiniteGroup,
    H: Subgroup,
    A: FinAbGroup,
    ctx: LocalizationContext | None = None,
    cup_fn=cup,
    class_cap: int = 81,
) -> list[SquareResult]:
    return ShapiroSquares(G, H, A, ctx=ctx, cup_fn=cup_fn, class_cap=class_cap).run()
