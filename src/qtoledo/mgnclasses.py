"""Second cohomology of the compactified moduli spaces, symbolically.

Classes are rational combinations of psi_i, kappa_1, the reduced
kappa-tilde, lambda_1, delta_irr and the separating divisors delta_{a,A}.
Relations and intersection pairings are stored only for the (g, n) the
computations actually use; everything else rejects loudly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ._record import Record
from .cyclotomic import frac_to_json

Label = tuple

PSI = "psi"
KAPPA1 = "kappa1"
KAPPA1T = "kappa1_tilde"
LAMBDA1 = "lambda1"
DELTA_IRR = "delta_irr"
DELTA_SEP = "delta"
PSI_TOTAL = "psi_total"     # reduced coordinate on symmetric cases
POINT = "point"             # integral-one generator where H^2 is a line

REDUCIBLE = {(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)}


def _stable_side(genus: int, points: int) -> bool:
    """Whether one side of a separating node, with its marked points and the node, is stable."""
    return 2 * genus - 2 + points >= 0


@lru_cache(maxsize=None)
def _separating_labels(g: int, n: int) -> tuple[Label, ...]:
    return tuple(sorted({canonical_separating_label(g, n, a, subset)
                         for a in range(g + 1) for size in range(n + 1)
                         for subset in combinations(range(1, n + 1), size)
                         if _stable_side(a, size) and _stable_side(g - a, n - size)}))


def separating_labels(g: int, n: int) -> list[Label]:
    """Canonical (a, A) labels of separating boundary divisors, sorted; a fresh list."""
    return list(_separating_labels(g, n))


def canonical_separating_label(g: int, n: int, a: int, subset) -> Label:
    subset = tuple(sorted(subset))
    rest = tuple(p for p in range(1, n + 1) if p not in subset)
    b = g - a
    if not (_stable_side(a, len(subset)) and _stable_side(b, len(rest))):
        raise ValueError(f"unstable boundary label ({a},{subset}) on moduli ({g},{n})")
    key = min((a, subset), (b, rest), key=lambda t: (t[0], len(t[1]), t[1]))
    return (DELTA_SEP, key[0], key[1])


def standard_labels(g: int, n: int) -> list[Label]:
    labels = [(PSI, i) for i in range(1, n + 1)]
    labels += [(KAPPA1,), (KAPPA1T,), (LAMBDA1,)]
    if g >= 1:
        labels.append((DELTA_IRR,))
    labels += _separating_labels(g, n)
    return labels


@lru_cache(maxsize=None)
def _allowed_labels(g: int, n: int) -> frozenset:
    """Every label an H2Class on moduli (g, n) may carry."""
    return frozenset(standard_labels(g, n)) | {(PSI_TOTAL,), (POINT,)}


class H2Class(Record):
    """A formal rational combination of degree-two tautological classes."""

    g: int
    n: int
    coeffs: dict = None     # label -> value; None gives the zero class

    __hash__ = None         # equal by value, and a dict field cannot be hashed

    def __post_init__(self):
        allowed = _allowed_labels(self.g, self.n)
        clean = {}
        for label, value in (self.coeffs or {}).items():
            label = tuple(label)
            if label not in allowed:
                raise ValueError(f"label {label} not valid on moduli ({self.g},{self.n})")
            value = Fraction(value)
            if value:
                clean[label] = value
        object.__setattr__(self, "coeffs", clean)

    def __add__(self, other: "H2Class") -> "H2Class":
        self._same_space(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return H2Class(self.g, self.n, out)

    def __sub__(self, other: "H2Class") -> "H2Class":
        return self + other.scale(-1)

    def scale(self, c) -> "H2Class":
        return H2Class(self.g, self.n, {k: v * Fraction(c) for k, v in self.coeffs.items()})

    def coefficient(self, *label) -> Fraction:
        return self.coeffs.get(tuple(label), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _same_space(self, other: "H2Class"):
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError("classes live on different moduli spaces")

    def in_kappa_tilde_basis(self) -> "H2Class":
        out = {k: v for k, v in self.coeffs.items() if k != (KAPPA1,)}
        t = self.coefficient(KAPPA1)
        if t:
            out[(KAPPA1T,)] = out.get((KAPPA1T,), Fraction(0)) + t
            for i in range(1, self.n + 1):
                out[(PSI, i)] = out.get((PSI, i), Fraction(0)) + t
        return H2Class(self.g, self.n, out)

    def to_json(self) -> dict:
        def name(label):
            if label[0] == PSI:
                return f"psi_{label[1]}"
            if label[0] == DELTA_SEP:
                return f"delta_{label[1]}_{{{','.join(map(str, label[2]))}}}"
            return label[0]

        return {
            "g": self.g,
            "n": self.n,
            "coeffs": {name(k): frac_to_json(v) for k, v in sorted(self.coeffs.items())},
        }


def class_from_json(data: dict) -> H2Class:
    g, n = int(data["g"]), int(data["n"])
    coeffs = {}
    for name, value in data["coeffs"].items():
        if name.startswith("psi_total"):
            label: Label = (PSI_TOTAL,)
        elif name.startswith("psi_"):
            label = (PSI, int(name.split("_")[1]))
        elif name.startswith("delta_irr"):
            label = (DELTA_IRR,)
        elif name.startswith("delta_"):
            body = name[len("delta_"):]
            a, subset = body.split("_", 1)
            subset = subset.strip("{}")
            pts = tuple(int(x) for x in subset.split(",") if x)
            label = canonical_separating_label(g, n, int(a), pts)
        else:
            label = (name,)
        coeffs[label] = Fraction(value)
    return H2Class(g, n, coeffs)


# -- named classes -------------------------------------------------------------


def delta_total(g: int, n: int) -> H2Class:
    coeffs = {}
    if g >= 1:
        coeffs[(DELTA_IRR,)] = Fraction(1)
    for label in separating_labels(g, n):
        coeffs[label] = Fraction(1)
    return H2Class(g, n, coeffs)


def psi_sum(g: int, n: int) -> H2Class:
    return H2Class(g, n, {(PSI, i): Fraction(1) for i in range(1, n + 1)})


def canonical_class(level: int, g: int, n: int) -> H2Class:
    """First Chern class of the canonical bundle of the level-twisted space."""
    if 2 * g - 2 + n <= 0:
        raise ValueError("unstable moduli space")
    out = H2Class(g, n, {(KAPPA1T,): Fraction(13, 12)})
    out = out + delta_total(g, n).scale(Fraction(1, 12) - Fraction(1, level))
    out = out + psi_sum(g, n)
    return out


def elliptic_pullback(g: int, n: int) -> H2Class:
    """Pullback of the canonical class of the elliptic-tail contraction (level 5)."""
    if (g, n) == (2, 0):
        raise ValueError("the (2,0) contraction is excluded")
    tail = canonical_separating_label(g, n, 1, ())
    base = canonical_class(5, g, n)
    return base - H2Class(g, n, {tail: Fraction(1, 5)})


# -- reduction -----------------------------------------------------------------


def _symmetric_coefficient(cls: H2Class, labels: list[Label], what: str) -> Fraction:
    vals = {cls.coeffs.get(label, Fraction(0)) for label in labels}
    if len(vals) > 1:
        raise ValueError(f"reduction needs symmetric {what} coefficients")
    return vals.pop() if vals else Fraction(0)


def reduce_class(cls: H2Class) -> H2Class:
    """Canonical reduced coordinates on the supported (g, n); idempotent."""
    g, n = cls.g, cls.n
    if (g, n) not in REDUCIBLE:
        raise ValueError(f"no relation table for moduli ({g},{n})")
    c = cls.in_kappa_tilde_basis()
    kt = c.coefficient(KAPPA1T)
    lt = c.coefficient(LAMBDA1)
    pt = c.coefficient(PSI_TOTAL)

    if (g, n) == (0, 4):
        # every psi_i, kappa_1 and boundary class integrates to one;
        # kappa_tilde to 1 - 4 = -3 and lambda_1 to zero
        total = c.coefficient(POINT) + kt * (-3)
        for label, v in c.coeffs.items():
            if label[0] in (PSI, DELTA_SEP):
                total += v
        total += 4 * pt
        return H2Class(0, 4, {(POINT,): total})

    if (g, n) == (1, 1):
        # kappa_1 = psi, so kappa_tilde = 0; delta_irr = 12 psi; lambda_1 = psi
        val = (c.coefficient(PSI, 1) + pt
               + c.coefficient(DELTA_IRR) * 12
               + lt)
        return H2Class(1, 1, {(PSI, 1): val})

    if (g, n) == (0, 5):
        # kappa_1 = delta/2 and delta = (2/3) psi, hence kappa_tilde = -(2/3) psi,
        # each boundary divisor is psi/15, and lambda_1 = (kappa_tilde + delta)/12 = 0
        p = _symmetric_coefficient(c, [(PSI, i) for i in range(1, 6)], "psi")
        d = _symmetric_coefficient(c, separating_labels(0, 5), "boundary")
        total = p + pt + kt * Fraction(-2, 3) + 10 * d * Fraction(1, 15)
        return H2Class(0, 5, {(PSI_TOTAL,): total})

    if (g, n) == (1, 2):
        tail = canonical_separating_label(1, 2, 1, ())
        out = {(DELTA_IRR,): c.coefficient(DELTA_IRR), tail: c.coeffs.get(tail, Fraction(0))}
        for i in (1, 2):
            p = c.coefficient(PSI, i)  # psi_i = delta_irr/12 + delta_{1,0}
            out[(DELTA_IRR,)] += p * Fraction(1, 12)
            out[tail] += p
        out[(DELTA_IRR,)] += pt * Fraction(1, 12)
        out[tail] += pt
        out[tail] += -kt  # kappa_tilde = -delta_{1,0}
        out[(DELTA_IRR,)] += lt * Fraction(1, 12)  # lambda_1 = delta_irr/12
        return H2Class(1, 2, out)

    if (g, n) == (1, 3):
        tail = canonical_separating_label(1, 3, 1, ())
        one_point = [canonical_separating_label(1, 3, 1, (i,)) for i in (1, 2, 3)]
        two_point = [canonical_separating_label(1, 3, 0, pair)
                     for pair in ((1, 2), (1, 3), (2, 3))]
        p = _symmetric_coefficient(c, [(PSI, i) for i in (1, 2, 3)], "psi")
        d1 = _symmetric_coefficient(c, one_point, "delta_{1,{i}}")
        d0 = _symmetric_coefficient(c, two_point, "delta_{0,{i,j}}")
        psi_content = p + pt  # multiple of the psi sum carried by the class
        out = {(DELTA_IRR,): c.coefficient(DELTA_IRR), tail: c.coeffs.get(tail, Fraction(0))}
        for lab in one_point:
            out[lab] = d1
        for lab in two_point:
            out[lab] = d0
        # sum(psi) = delta_irr/4 + 3 delta_{1,0} + 2 sum(delta_{1,{i}})
        out[(DELTA_IRR,)] += psi_content * Fraction(1, 4)
        out[tail] += psi_content * 3
        for lab in one_point:
            out[lab] += psi_content * 2
        # kappa_tilde = -delta_{1,0} - sum(delta_{1,{i}})
        out[tail] += -kt
        for lab in one_point:
            out[lab] += -kt
        # lambda_1 = (kappa_tilde + delta)/12 = (delta_irr + sum(delta_0))/12
        out[(DELTA_IRR,)] += lt * Fraction(1, 12)
        for lab in two_point:
            out[lab] += lt * Fraction(1, 12)
        return H2Class(1, 3, out)

    # (2, 1): kappa_tilde = delta_irr/5 + (7/5) delta_{1,0}
    tail = canonical_separating_label(2, 1, 1, ())
    out = {
        (PSI, 1): c.coefficient(PSI, 1) + pt,
        (DELTA_IRR,): c.coefficient(DELTA_IRR) + kt * Fraction(1, 5) + lt * Fraction(1, 10),
        tail: c.coeffs.get(tail, Fraction(0)) + kt * Fraction(7, 5) + lt * Fraction(1, 5),
    }
    return H2Class(2, 1, out)


# -- uniformization identities ---------------------------------------------------


def uniformization_check(case: tuple[int, int]) -> dict:
    """Level-5 proportionality between the Toledo class and the canonical class.

    Verifies tau = 2/(q+1) * c1(K) exactly after reduction (with the
    conjugation sign on (1,3)), plus the boundary-restriction data: the
    intersection numbers of the canonical classes, the integral of the
    four-point class, and the delta_irr restriction on (1,2).
    """
    from .cyclotomic import Embedding
    from .rmatrix import degree2_class, solve_level, tau_from_r1_04

    if tuple(case) not in {(0, 5), (1, 2), (1, 3), (2, 1)}:
        raise ValueError(f"no uniformization statement for {case}")
    g, n = case
    r1 = solve_level(5, Embedding(5, 1))
    v = r1.algebra
    tau = reduce_class(degree2_class(r1, g, n, [1] * n))
    checks = []

    def record(name, lhs, rhs):
        checks.append({"name": name, "lhs": str(lhs), "rhs": str(rhs), "ok": lhs == rhs})

    if case == (0, 5):
        k = reduce_class(canonical_class(5, 0, 5))
        record("tau = 2/3 c1(K)", tau, k.scale(Fraction(2, 3)))
        record("c1(K)^2 = 9/5", intersect(k, k), Fraction(9, 5))
        tau04 = tau_from_r1_04(v, r1, 1, 1, 1, 1)
        record("integral tau_04 = -2/5", tau04, Fraction(-2, 5))
        # pullback to a boundary divisor: only the nontrivial middle color survives
        pullback = sum(v.eps[m] * v.tft_value(0, [1, 1, m]) *
                       tau_from_r1_04(v, r1, 1, 1, 1, m) for m in range(v.rank))
        record("boundary restriction = 2/5 > 0", pullback, Fraction(2, 5))
    else:
        ratio = {(1, 2): Fraction(2, 3), (1, 3): Fraction(-1, 2), (2, 1): Fraction(2, 5)}[case]
        k = reduce_class(elliptic_pullback(g, n))
        record(f"tau = {ratio} c*c1(K^E)", tau, k.scale(ratio))
        if case == (1, 2):
            record("c*c1(K^E)^2 = 3/200", intersect(k, k), Fraction(3, 200))
            restriction = Fraction(1, 2) * sum(
                v.eps[m] * tau_from_r1_04(v, r1, 1, 1, m, m) for m in range(v.rank)
            )
            record("integral over delta_irr = 1/5", restriction, Fraction(1, 5))
    return {"case": list(case), "checks": checks, "passed": all(c["ok"] for c in checks)}


# -- intersection numbers -------------------------------------------------------


def intersect(c1: H2Class, c2: H2Class) -> Fraction:
    """Intersection number on the dimension-two cases (0,5) and (1,2)."""
    c1._same_space(c2)
    g, n = c1.g, c1.n
    if (g, n) == (0, 5):
        a = reduce_class(c1).coefficient(PSI_TOTAL)
        b = reduce_class(c2).coefficient(PSI_TOTAL)
        return a * b * 45  # psi_i . psi_j = 2 - delta_ij off 1 on: 5 + 2*20
    if (g, n) == (1, 2):
        r1, r2 = reduce_class(c1), reduce_class(c2)
        tail = canonical_separating_label(1, 2, 1, ())
        pairing = {
            ((DELTA_IRR,), (DELTA_IRR,)): Fraction(0),
            ((DELTA_IRR,), tail): Fraction(1, 2),
            (tail, (DELTA_IRR,)): Fraction(1, 2),
            (tail, tail): Fraction(-1, 24),
        }
        total = Fraction(0)
        for ka, va in r1.coeffs.items():
            for kb, vb in r2.coeffs.items():
                total += va * vb * pairing[(ka, kb)]
        return total
    raise ValueError(f"no intersection table for moduli ({g},{n})")
