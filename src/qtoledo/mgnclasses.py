"""Second cohomology of the compactified moduli spaces, symbolically.

Classes are rational combinations of psi_i, kappa_1, the reduced
kappa-tilde = kappa_1 - sum(psi_i), lambda_1, delta_irr, the separating
divisors delta_{a,A} and psi_total = sum(psi_i).  A space of dimension one,
(0,4) or (1,1), is a curve, so H^2 is a line and the class `point` of
integral one exists there; every other space refuses the label.

`RELATIONS` holds the relations in H^2 (Arbarello-Cornalba, Publ. IHES 88,
1998) for the six (g, n) the computations use, one entry per space: the
image of every label the space admits over its reduced coordinates, the
label groups whose coefficients must agree, and the intersection pairing
of the reduced coordinates where one is needed.  `reduce_class` rewrites
kappa_1 in the kappa-tilde basis, refuses a class that is not symmetric on
a group, and sums coefficient times image; a label of a group maps to its
share of the group's sum, which is exact once the check has passed.
`intersect` reduces both classes and reads the entry's pairing.  Any other
(g, n) is refused by name.  A reduced class lists its coordinates in the
entry's fixed order, because the `uniformization` golden table prints
reduced classes by `repr`, which shows the order of their keys.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ._record import Record
from .embedding import _check_moduli, _is_stable, frac_to_json

Label = tuple

PSI = "psi"
KAPPA1 = "kappa1"
KAPPA1T = "kappa1_tilde"
LAMBDA1 = "lambda1"
DELTA_IRR = "delta_irr"
DELTA_SEP = "delta"
PSI_TOTAL = "psi_total"     # reduced coordinate on symmetric cases
POINT = "point"             # integral-one generator where H^2 is a line


@lru_cache(maxsize=None)
def _separating_labels(g: int, n: int) -> tuple[Label, ...]:
    return tuple(sorted({canonical_separating_label(g, n, a, subset)
                         for a in range(g + 1) for size in range(n + 1)
                         for subset in combinations(range(1, n + 1), size)
                         if _is_stable(a, size + 1) and _is_stable(g - a, n - size + 1)}))


def separating_labels(g: int, n: int) -> list[Label]:
    """Canonical (a, A) labels of separating boundary divisors, sorted; a fresh list."""
    return list(_separating_labels(g, n))


def canonical_separating_label(g: int, n: int, a: int, subset) -> Label:
    subset = tuple(sorted(subset))
    rest = tuple(p for p in range(1, n + 1) if p not in subset)
    b = g - a
    if not (_is_stable(a, len(subset) + 1) and _is_stable(b, len(rest) + 1)):  # each side has the node
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
    """Every label an H2Class on moduli (g, n) may carry; `point` only on a curve."""
    extra = {(PSI_TOTAL,), (POINT,)} if 3 * g - 3 + n == 1 else {(PSI_TOTAL,)}
    return frozenset(standard_labels(g, n)) | extra


class H2Class(Record):
    """A formal rational combination of degree-two tautological classes."""

    g: int
    n: int
    coeffs: dict = None     # label -> value; None gives the zero class

    __hash__ = None         # equal by value, and a dict field cannot be hashed

    def __post_init__(self):
        _check_moduli(self.g, self.n)
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
    """Read the names `H2Class.to_json` writes; any other name is a label H2Class refuses."""
    g, n = int(data["g"]), int(data["n"])
    _check_moduli(g, n)  # before a boundary name is read on the space
    coeffs, names = {}, {}
    for name, value in data["coeffs"].items():
        if psi := re.fullmatch(r"psi_([1-9][0-9]*)", name):
            label: Label = (PSI, int(psi[1]))
        elif sep := re.fullmatch(r"delta_(0|[1-9][0-9]*)_\{((?:[1-9][0-9]*,)*[1-9][0-9]*)?\}", name):
            pts = tuple(int(x) for x in sep[2].split(",")) if sep[2] else ()
            label = canonical_separating_label(g, n, int(sep[1]), pts)
        else:
            label = (name,)
        if (first := names.setdefault(label, name)) != name:
            raise ValueError(f"names {first} and {name} give one label on moduli ({g},{n})")
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
    out = H2Class(g, n, {(KAPPA1T,): Fraction(13, 12)})
    out = out + delta_total(g, n).scale(Fraction(1, 12) - Fraction(1, level))
    out = out + psi_sum(g, n)
    return out


def elliptic_pullback(g: int, n: int) -> H2Class:
    """Pullback of the canonical class of the elliptic-tail contraction (level 5)."""
    if (g, n) == (2, 0):
        raise ValueError("the (2,0) contraction is excluded")
    base = canonical_class(5, g, n)  # refuses an unstable (g, n) before the tail label does
    tail = canonical_separating_label(g, n, 1, ())
    return base - H2Class(g, n, {tail: Fraction(1, 5)})


# -- reduction -----------------------------------------------------------------


class Relations(Record):
    """The relations of H^2 on one moduli space, over its reduced coordinates."""

    coords: tuple           # reduced coordinates, in the order a reduced class lists them
    images: dict            # label -> {reduced coordinate: weight}
    symmetric: tuple = ()   # (name, labels): groups whose coefficients must agree
    pairing: tuple = None   # intersection matrix over coords, where one is needed


def _relations() -> dict:
    """One entry per supported (g, n); each reduced coordinate is its own image."""
    F = Fraction
    kt, lam, irr = (KAPPA1T,), (LAMBDA1,), (DELTA_IRR,)
    total, point, psi1 = (PSI_TOTAL,), (POINT,), (PSI, 1)
    table = {}

    def put(g, n, coords, images, symmetric=(), pairing=None):
        table[g, n] = Relations(coords, {c: {c: 1} for c in coords} | images, symmetric, pairing)

    def psi(n):
        return [(PSI, i) for i in range(1, n + 1)]

    each = dict.fromkeys
    # (0,4): every psi_i, kappa_1 and boundary divisor integrates to one, so
    # kappa_tilde integrates to 1 - 4 = -3, and lambda_1 to zero
    put(0, 4, (point,), each(psi(4) + separating_labels(0, 4), {point: 1})
        | {total: {point: 4}, kt: {point: -3}, lam: {}})
    # (1,1): kappa_1 = lambda_1 = psi_1 and delta_irr = 12 psi_1; psi_1 integrates to 1/24
    put(1, 1, (psi1,), {total: {psi1: 1}, kt: {}, lam: {psi1: 1}, irr: {psi1: 12}, point: {psi1: 24}})
    # (0,5): kappa_1 = delta/2 and delta = (2/3) psi_total, hence kappa_tilde =
    # -(2/3) psi_total, each boundary divisor is psi_total/15, and lambda_1 =
    # (kappa_tilde + delta)/12 = 0
    boundary = separating_labels(0, 5)
    put(0, 5, (total,), each(psi(5), {total: F(1, 5)}) | each(boundary, {total: F(1, 15)})
        | {kt: {total: F(-2, 3)}, lam: {}},
        (("psi", psi(5)), ("boundary", boundary)), ((45,),))
    # (1,2): psi_i = delta_irr/12 + delta_{1,0}, kappa_tilde = -delta_{1,0}, lambda_1 = delta_irr/12
    tail = canonical_separating_label(1, 2, 1, ())
    put(1, 2, (irr, tail), each(psi(2) + [total], {irr: F(1, 12), tail: 1})
        | {kt: {tail: -1}, lam: {irr: F(1, 12)}},
        pairing=((0, F(1, 2)), (F(1, 2), F(-1, 24))))
    # (1,3): psi_total = delta_irr/4 + 3 delta_{1,0} + 2 sum(delta_{1,{i}}), a
    # third of it for each psi_i; kappa_tilde = -delta_{1,0} - sum(delta_{1,{i}});
    # lambda_1 = (kappa_tilde + delta)/12 = (delta_irr + sum(delta_{1,{i}}))/12.
    # delta_{1,{i}} is the divisor delta_{0,{j,k}}, listed once
    tail = canonical_separating_label(1, 3, 1, ())
    one_point = [canonical_separating_label(1, 3, 1, (i,)) for i in (1, 2, 3)]
    sum_psi = {irr: F(1, 4), tail: 3} | each(one_point, 2)
    images = each(psi(3), {k: F(w, 3) for k, w in sum_psi.items()}) | {
        total: sum_psi,
        kt: {tail: -1} | each(one_point, -1),
        lam: {irr: F(1, 12)} | each(one_point, F(1, 12)),
    }
    put(1, 3, (irr, tail, *one_point), images, (("psi", psi(3)), ("delta_{1,{i}}", one_point)))
    # (2,1): kappa_tilde = delta_irr/5 + (7/5) delta_{1,0}, lambda_1 = delta_irr/10 + delta_{1,0}/5
    tail = canonical_separating_label(2, 1, 1, ())
    put(2, 1, (psi1, irr, tail), {total: {psi1: 1}, kt: {irr: F(1, 5), tail: F(7, 5)},
                                  lam: {irr: F(1, 10), tail: F(1, 5)}})
    return table


RELATIONS = _relations()


def reduce_class(cls: H2Class) -> H2Class:
    """Canonical reduced coordinates on the supported (g, n); idempotent."""
    g, n = cls.g, cls.n
    if (g, n) not in RELATIONS:
        raise ValueError(f"no relation table for moduli ({g},{n})")
    rel = RELATIONS[g, n]
    c = cls.in_kappa_tilde_basis()
    for what, labels in rel.symmetric:
        if len({c.coefficient(*label) for label in labels}) > 1:
            raise ValueError(f"reduction needs symmetric {what} coefficients")
    out = dict.fromkeys(rel.coords, Fraction(0))
    for label, value in c.coeffs.items():
        for coord, weight in rel.images[label].items():
            out[coord] += value * weight
    return H2Class(g, n, out)


# -- uniformization identities ---------------------------------------------------

# c in tau = c c1(K) on (0,5) and tau = c c*c1(K^E) on the others, in the golden's order
UNIFORMIZATION = {(0, 5): Fraction(2, 3), (1, 2): Fraction(2, 3), (1, 3): Fraction(-1, 2),
                  (2, 1): Fraction(2, 5)}


def uniformization_check(case: tuple[int, int]) -> dict:
    """Level-5 proportionality between the Toledo class and the canonical class.

    Verifies tau = 2/(q+1) * c1(K) exactly after reduction (with the
    conjugation sign on (1,3)), plus the boundary-restriction data: the
    intersection numbers of the canonical classes, the integral of the
    four-point class, and the delta_irr restriction on (1,2).
    """
    from .embedding import Embedding
    from .rmatrix import degree2_class, solve_level, tau_from_r1_04

    ratio = UNIFORMIZATION.get(tuple(case))
    if ratio is None:
        raise ValueError(f"no uniformization statement for {case}")
    g, n = case
    r1 = solve_level(5, Embedding(5, 1))
    v = r1.algebra
    tau = reduce_class(degree2_class(r1, g, n, [1] * n))
    checks = []

    def record(name, lhs, rhs):
        checks.append({"name": name, "lhs": str(lhs), "rhs": str(rhs), "ok": lhs == rhs})

    if (g, n) == (0, 5):
        k = reduce_class(canonical_class(5, 0, 5))
        record(f"tau = {ratio} c1(K)", tau, k.scale(ratio))
        record("c1(K)^2 = 9/5", intersect(k, k), Fraction(9, 5))
        tau04 = tau_from_r1_04(v, r1, 1, 1, 1, 1)
        record("integral tau_04 = -2/5", tau04, Fraction(-2, 5))
        # pullback to a boundary divisor: only the nontrivial middle color survives
        pullback = sum(v.eps[m] * v.tft_value(0, [1, 1, m]) *
                       tau_from_r1_04(v, r1, 1, 1, 1, m) for m in range(v.rank))
        record("boundary restriction = 2/5 > 0", pullback, Fraction(2, 5))
    else:
        k = reduce_class(elliptic_pullback(g, n))
        record(f"tau = {ratio} c*c1(K^E)", tau, k.scale(ratio))
        if (g, n) == (1, 2):
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
    rel = RELATIONS.get((c1.g, c1.n))
    if rel is None or rel.pairing is None:
        raise ValueError(f"no intersection table for moduli ({c1.g},{c1.n})")
    x, y = ([reduce_class(c).coefficient(*k) for k in rel.coords] for c in (c1, c2))
    return sum((a * w * b for a, row in zip(x, rel.pairing) for w, b in zip(row, y)), Fraction(0))
