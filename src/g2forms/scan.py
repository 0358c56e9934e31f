"""The scan of a linear family of 3-forms for definite and indefinite members.

`scan_family` is the one scan of a linear family of 3-forms: `isotropy`'s
`invariant_form_types` runs it on the invariant family of an isotropy
module, and `homogeneous` on the closed invariant 3-forms.  B of the family
is expanded once into integer cubics in the family coordinates
(`stable_forms.family_hitchin_map`).  The scan classifies each sample exactly,
and a negative is exact when a certificate excludes the class.  Every
certificate is a frozen value that names the classes it `excludes`,
rechecks itself exactly (`recheck`) and writes its own record (`to_json`);
its class docstring states its argument.  The scan tries a
`KernelCertificate` and an `IsotropicCertificate` of the family Hitchin
map, and one the caller passes in, such as the `SchurCertificate` of
`isotropy.schur_exclusion`.  The scan only looks for witnesses of the
classes left; a miss there reads "undecided", never False.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations, count, islice, product

from .stable_forms import DIM, classify_hitchin, family_hitchin_map


@dataclass
class ScanConfig:
    """The samples of a family scan: the first `grid` rays of `_ray_grid`,
    then `random` draws from [-9, 9]^d seeded with `seed`.  The rays come
    in one order in every dimension, so a witness among them does not
    depend on `seed`; a grid of 0 gives no rays."""

    grid: int = 10_000
    random: int = 1_000
    seed: int = 0


def _ray_grid(d, budget):
    """The first `budget` rays of one deterministic walk of the primitive
    integer vectors of length d, lazily.

    A ray and its negative have the same class, so each ray is taken with
    its last nonzero coordinate positive.  The walk visits the height
    shells max |coeff| = h = 1, 2, ... in turn.  Inside a shell the rays go
    by support size, from d down to 1, so the full-support sign vectors
    come first; inside one support size the supports come in `combinations`
    order and the entries in `product` order over the nonzero values of
    [-h, h], the last entry running over 1..h and varying fastest.  A shell
    with no ray ends the walk, which for d = 1 leaves the one ray (1,).
    """
    def walk():
        for h in count(1):
            nonzero = [x for x in range(-h, h + 1) if x]
            empty = True
            for size in range(d, 0, -1):
                for support in combinations(range(d), size):
                    for head in product(nonzero, repeat=size - 1):
                        # below height h the last entry must be h itself
                        high = h in map(abs, head)
                        for last in range(1, h + 1) if high else (h,):
                            if math.gcd(*head, last) != 1:
                                continue
                            v = [0] * d
                            for i, x in zip(support, (*head, last)):
                                v[i] = x
                            empty = False
                            yield tuple(v)
            if empty:
                return
    return islice(walk(), budget)


def _scan_samples(d, config):
    """The grid rays, then `config.random` seeded draws from [-9, 9]^d."""
    yield from _ray_grid(d, config.grid)
    rng = random.Random(config.seed)
    for _ in range(config.random):
        yield tuple(rng.randint(-9, 9) for _ in range(d))


@dataclass(frozen=True)
class KernelCertificate:
    """Every member of a family is degenerate.

    A nonzero v with M v = 0 for every monomial matrix M of the family
    Hitchin map has B(x) v = 0 for every x.  `kernel_vector` is v, the
    first vector of the joint kernel of the M, and `kernel_dim` the
    dimension of that kernel.
    """

    kernel_vector: tuple
    kernel_dim: int
    excludes = ("definite", "indefinite")

    def recheck(self, hitchin):
        """v != 0 and the exact products M v (`FamilyHitchinMap.kills`)."""
        return any(self.kernel_vector) and hitchin.kills(self.kernel_vector)

    def to_json(self):
        return {"kind": "common kernel",
                "kernel_vector": list(self.kernel_vector),
                "kernel_dim": self.kernel_dim}


@dataclass(frozen=True)
class IsotropicCertificate:
    """No member of a family is definite, and none stable once dim W >= 4.

    If w^T M w' = 0 for every monomial matrix M of the family Hitchin map
    and all w, w' in a subspace W, then B(x) vanishes on W x W for every x.
    A nondegenerate B of signature (p, q) has isotropic subspaces of
    dimension at most min(p, q) <= 3, so dim W >= 1 excludes definite
    members and dim W >= 4 excludes every stable member.  W is spanned by
    the 0-based coordinates `indices`, and `monomials` counts the M.
    """

    indices: tuple
    monomials: int

    @property
    def excludes(self):
        stable = len(self.indices) >= 4
        return ("definite", "indefinite") if stable else ("definite",)

    def recheck(self, hitchin):
        """Distinct coordinates, every monomial, `FamilyHitchinMap.isotropic`."""
        units = [[int(i == j) for j in range(DIM)] for i in self.indices]
        coords = set(self.indices) & set(range(DIM))
        return (0 < len(self.indices) == len(coords)
                and self.monomials == len(hitchin.monomials)
                and hitchin.isotropic(units))

    def to_json(self):
        return {"kind": "isotropic subspace", "indices": list(self.indices),
                "monomials": self.monomials}


@dataclass(frozen=True)
class SchurCertificate:
    """No invariant 3-form of a module is indefinite.

    For an invariant t and a definite invariant gram, B(t) is h-invariant
    (the action is gram-skew, so traceless, and Lambda^7 is trivial), so
    S = gram^-1 B(t) commutes with the action and is gram-self-adjoint.
    Its positive eigenspace is then invariant, a sum of irreducibles, and
    B(t) has signature (p, 7 - p) with p a sub-multiset sum of the
    certified `irreducible_dims`.  An indefinite t needs p = 3 or 4.
    """

    irreducible_dims: tuple
    excludes = ("indefinite",)

    def recheck(self):
        """Positive dims adding up to 7, no sub-multiset summing to 3 or 4."""
        sums = {0}
        for k in self.irreducible_dims:
            sums |= {s + k for s in sums}
        return (all(k > 0 for k in self.irreducible_dims)
                and sum(self.irreducible_dims) == DIM and not sums & {3, 4})

    def to_json(self):
        return {"kind": "schur",
                "irreducible_dims": list(self.irreducible_dims)}


def kernel_exclusion(hitchin):
    """The `KernelCertificate` on the first vector of the joint kernel
    (`FamilyHitchinMap.common_kernel`), or None when the kernel is zero or
    the recheck refuses the vector."""
    kernel = hitchin.common_kernel()
    if not kernel:
        return None
    cert = KernelCertificate(tuple(kernel[0]), len(kernel))
    return cert if cert.recheck(hitchin) else None


def isotropic_exclusion(hitchin):
    """The `IsotropicCertificate` on `FamilyHitchinMap.isotropic_coordinates`,
    or None.  The search is a heuristic: what it finds is accepted only
    after the recheck, and a miss only means "no certificate"."""
    cert = IsotropicCertificate(hitchin.isotropic_coordinates(),
                                len(hitchin.monomials))
    return cert if cert.recheck(hitchin) else None


def scan_family(bvecs, config: ScanConfig = None, exclude_indefinite=None):
    """Decide which stable classes a linear family of 3-forms holds.

    `bvecs` are the family's basis vectors, integer 35-vectors.  The empty
    family and the whole space (d = 35, where PHI and PHITILDE are
    witnesses) are decided at once, before the family's `FamilyHitchinMap`
    is built.  Otherwise the exact exclusions are tried in turn: a
    `KernelCertificate`; when there is none (a zero joint kernel, or a
    kernel vector its recheck refuses), an `IsotropicCertificate`, which
    rechecks itself too; and, when indefinite members are still open,
    `exclude_indefinite`, a zero-argument callable that returns a
    certificate or None (`invariant_form_types` passes the
    `SchurCertificate` of its module).  `certificate` maps each class a
    certificate `excludes` to that certificate.  The scan then classifies
    the samples of `config` exactly and stops once each class is witnessed
    or excluded, without a sample when both are excluded.  `has_<class>`
    is True with a witness, False with a certificate (or in the empty
    family), and "undecided", "not found at this resolution", with
    neither.  Returns a report dict; `samples` counts the samples
    classified.
    """
    config = config or ScanConfig()
    d = len(bvecs)
    report = {"dim": d, "has_definite": False, "has_indefinite": False,
              "samples": 0, "definite_witness": None, "indefinite_witness": None,
              "certificate": {}}
    if d == 0:
        return report
    if d == 35:
        # the whole space: the two reference forms decide immediately
        report.update(has_definite=True, has_indefinite=True, samples=2,
                      note="full family; reference forms are witnesses")
        return report
    hitchin = family_hitchin_map(bvecs)
    certificate = report["certificate"]
    found = kernel_exclusion(hitchin) or isotropic_exclusion(hitchin)
    if found is not None:
        certificate.update(dict.fromkeys(found.excludes, found))
    if "indefinite" not in certificate and exclude_indefinite is not None:
        found = exclude_indefinite()
        if found is not None:
            certificate.update(dict.fromkeys(found.excludes, found))
    done = set(certificate)
    seen = 0
    for coeffs in _scan_samples(d, config):
        if len(done) == 2:
            break
        if not any(coeffs):
            continue
        seen += 1
        cls = classify_hitchin(hitchin(coeffs)).value
        if cls != "degenerate" and cls not in done:
            done.add(cls)
            report[f"has_{cls}"] = True
            report[f"{cls}_witness"] = list(coeffs)
    report.update({f"has_{cls}": "undecided"
                   for cls in ("definite", "indefinite") if cls not in done})
    report["samples"] = seen
    return report
