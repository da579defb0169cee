"""The shared fixture battery: named groups, datum families, scenarios."""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FinAbGroup
from .groups import (
    FiniteGroup,
    Subgroup,
    alternating_subgroup_s3,
    class_two_group,
    cyclic_group,
    generated_subgroup,
    named_abelian,
    named_group,
)


@dataclass
class ShapiroFixture:
    name: str
    G: FiniteGroup
    H: Subgroup
    A: FinAbGroup
    decompositions: list[Subgroup]


def shapiro_fixtures(coefficients=("C2", "C3", "C2xC2")) -> list[ShapiroFixture]:
    """The (G, H) family of the verification battery, with chosen coefficients."""
    out = []
    pairs = []
    C2 = cyclic_group(2)
    pairs.append(("C2/1", C2, Subgroup.make(C2, [0]), [Subgroup.make(C2, [0, 1]), Subgroup.make(C2, [0])]))
    C4 = cyclic_group(4)
    pairs.append(
        ("C4/2C4", C4, Subgroup.make(C4, [0, 2]), [Subgroup.make(C4, list(range(4))), Subgroup.make(C4, [0, 2])])
    )
    K4 = named_group("C2xC2")
    diag = Subgroup.make(K4, [0, 3])
    pairs.append(("C2xC2/diag", K4, diag, [Subgroup.make(K4, [0, 1]), Subgroup.make(K4, [0])]))
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    transposition = [g for g in S3.elements() if S3.order_of(g) == 2][0]
    pairs.append(
        ("S3/A3", S3, A3, [generated_subgroup(S3, [transposition]), Subgroup.make(S3, list(S3.elements()))])
    )
    C3 = cyclic_group(3)
    pairs.append(("C3/1", C3, Subgroup.make(C3, [0]), [Subgroup.make(C3, [0, 1, 2]), Subgroup.make(C3, [0])]))
    for cname in coefficients:
        A = named_abelian(cname)
        for pname, G, H, Ds in pairs:
            out.append(ShapiroFixture(f"{pname}:A={cname}", G, H, A, Ds))
    return out


BK_FAMILY = (
    ("bk-C2-1", (2,), "1"),
    ("bk-C2-C2", (2,), "C2"),
    ("bk-C2-C3", (2,), "C3"),
    ("bk-C3-C2", (3,), "C2"),
)


B0_EXTRA_GROUPS = ("D8", "Q8", "Heis8", "Heis27")


SUITE_SCENARIOS = """\
# consolidated verification battery

scenario bk-smallest
seed 0
base C2
galois C2
check bk-build
check verify-bk
check b0
check br-nr
check q-relevable q=3
check neutrality

scenario bk-cubic
seed 0
base C2
galois C3
check bk-build
check verify-bk
check br-nr
check q-relevable q=3

scenario bk-odd
seed 0
base C3
galois C2
check bk-build
check verify-bk
check br-nr

scenario shapiro-s3
seed 0
group S3
subgroup gen:3
base C3
decomposition gen:1
check cohomology degree=1
check cohomology degree=2
check verify-shapiro

scenario shapiro-klein
seed 0
group C2xC2
subgroup 0,3
base C2
decomposition 0,1
check cohomology degree=1
check verify-shapiro

scenario sha-dual-induced
seed 0
galois S3
base C2
check sha degree=1
"""
