"""Degree-2 reconstruction: the first-order R-matrix and Toledo classes.

Solves one rational system for the traceless part of R_1 on the
eta-self-adjoint matrices (`solve_r1`, by `elimination.solve`), recovers
the trace part from the one-holed-torus invariants, and expands the
resulting degree-2 class of any (g, n, colors) over the tautological basis.
A presentation-based coefficient pipeline cross-checks the level-5 closed
formulas.

tau_{0,4}(v1, v2, x, y) from R_1 is bilinear in (x, y): one integer form
T(v1, v2) over one denominator (`_tau04_form`), which `tau_from_r1_04`
contracts and `solve_r1`'s exact round trip reads once, at v1 = v2 = w.

Solving R_1 loads no moduli-space layer: the two class builders import the
`mgnclasses` labels inside the function.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .elimination import determinant, solve
from .embedding import Embedding, _check_moduli, _is_stable, frac_to_json
from .fusion import FrobeniusAlgebra, apply_scaled, scaled_matrix, so3_algebra
from .linalg import conj_transpose, diagonal, lin_comb, mat_add, mat_mul
from .qrep import pivot_tau04_table, tau11_table

Mat = tuple[tuple[Fraction, ...], ...]


def _trace_of_product(a: Mat, b: Mat) -> Fraction:
    """tr(a b) from the r^2 products a_ij b_ji, without forming a b."""
    return sum((x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col) if x and y),
               Fraction(0))


class R1Matrix(Record):
    """First-order R-matrix with its trace/traceless decomposition."""

    algebra: FrobeniusAlgebra
    matrix: Mat
    trace_part: tuple[Fraction, ...]       # r_1 as an algebra element
    perp_part: Mat                         # R_1' with tr(R_1' M_v) = 0 for all v

    def __post_init__(self):
        v = self.algebra
        m = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        eta = diagonal(v.eps)
        if m != mat_mul(eta, mat_mul(conj_transpose(m), eta)):
            raise ValueError("R_1 is not eta-self-adjoint")
        if m != mat_add(v.mult_matrix(self.trace_part), self.perp_part):
            raise ValueError("decomposition does not sum to R_1")
        if any(_trace_of_product(self.perp_part, v.mult_matrix(k)) for k in range(v.rank)):
            raise ValueError("perp part is not trace-orthogonal to multiplications")

    def denominator(self) -> int:
        return math.lcm(*[x.denominator for row in self.matrix for x in row])

    def to_json(self) -> dict:
        return {
            "level": self.algebra.level,
            "embedding": self.algebra.embedding.exponent,
            "matrix": [[frac_to_json(x) for x in row] for row in self.matrix],
            "trace_part": [frac_to_json(x) for x in self.trace_part],
        }


# -- tau from R_1 ---------------------------------------------------------------


def _tau04_form(v: FrobeniusAlgebra, r1: R1Matrix | Mat, v1, v2) -> tuple[list[list[int]], int]:
    """T with tau_{0,4}(v1, v2, x, y) = x^T T y, as integer rows over one denominator.

    With u = v2 R v1 + v1 R v2 - v1 v2 R 1 - R(v1 v2), the terms of
    tau_from_r1_04 in which x and y meet only in eta(., x y) give
    C_ij = eta(u e_i, e_j); eta(R x, v1 v2 y) and eta(R(v1 x), v2 y), with
    their transposes, give N + N^T for N_ij = eta(v1 v2 R e_i - v2 R(v1 e_i), e_j).
    Every product runs on the integer kernel over den(R) den(v1) den(v2).
    """
    m = scaled_matrix(r1.matrix if isinstance(r1, R1Matrix) else r1)
    mul, eps = v.multiply_scaled, v.eps
    x1, x2 = v.scaled(v1), v.scaled(v2)
    p = mul(x1, x2)
    terms = (mul(x2, apply_scaled(m, x1)), mul(x1, apply_scaled(m, x2)),
             mul(p, apply_scaled(m, v.scaled(0))), apply_scaled(m, p))
    u = ([a + b - c - d for a, b, c, d in zip(*(t[0] for t in terms))], 1)
    c_rows, n_rows = [], []
    for i, r_col in enumerate(zip(*m[0])):
        e = v.scaled(i)
        c_rows.append(mul(u, e)[0])
        left, right = mul(p, (r_col, 1))[0], mul(x2, apply_scaled(m, mul(x1, e)))[0]
        n_rows.append([a - b for a, b in zip(left, right)])
    form = [[eps[j] * (c + n) + eps[i] * n_rows[j][i] for j, (c, n) in enumerate(zip(cr, nr))]
            for i, (cr, nr) in enumerate(zip(c_rows, n_rows))]
    return form, m[1] * x1[1] * x2[1]


def tau_from_r1_04(v: FrobeniusAlgebra, r1: R1Matrix | Mat, v1, v2, v3, v4) -> Fraction:
    """Degree-2 four-point invariant integrated over the moduli of spheres: v3^T T(v1, v2) v4."""
    form, den = _tau04_form(v, r1, v1, v2)
    (xs, xd), (ys, yd) = v.scaled(v3), v.scaled(v4)
    return Fraction(sum(x * sum(map(operator.mul, row, ys)) for x, row in zip(xs, form) if x),
                    den * xd * yd)


def tau_from_r1_11(v: FrobeniusAlgebra, r1: R1Matrix | Mat, vec) -> Fraction:
    """Degree-2 one-holed-torus invariant integrated over the moduli."""
    matrix = r1.matrix if isinstance(r1, R1Matrix) else r1
    m = scaled_matrix(matrix)
    x = v.scaled(vec)
    omega = v.scaled(v.omega_element)
    term_psi = v.eta_scaled(omega, apply_scaled(m, x))
    term_kappa = v.eta_scaled(omega, v.multiply_scaled(x, apply_scaled(m, v.scaled(0))))
    tr = _trace_of_product(matrix, v.mult_matrix(vec))
    return Fraction(1, 24) * (term_psi - term_kappa) - Fraction(1, 2) * tr


# -- solving for R_1 --------------------------------------------------------------


def _symmetric_basis(v: FrobeniusAlgebra) -> list[Mat]:
    """The eta-self-adjoint integer matrices E_ii, then E_ji + eps_i eps_j E_ij for i < j."""
    r = v.rank
    pairs = [(i, i) for i in range(r)] + [(i, j) for i in range(r) for j in range(i + 1, r)]
    return [tuple(tuple(1 if (a, b) == (j, i) else v.eps[i] * v.eps[j] if (a, b) == (i, j) else 0
                        for b in range(r)) for a in range(r)) for i, j in pairs]


def _system_column(m, m2, mults, s) -> list[int]:
    """The column of S in solve_r1's system: D(S) - M_(D(S) e_0) row by row, then tr(S M_k).

    D(S) = [[S, M], M] = S M^2 - 2 M S M + M^2 S for the integer matrices
    M = m of the pivot, m2 = M^2 and mults[k] = M_k.  Each of the one or
    two nonzero entries of S adds a row, a column and an outer product.
    """
    r = len(m)
    entries = [(a, b, x) for a, row in enumerate(s) for b, x in enumerate(row) if x]
    d = [[0] * r for _ in range(r)]
    for a, b, x in entries:
        for i in range(r):
            d[a][i] += x * m2[b][i]
            d[i][b] += x * m2[i][a]
            if m[i][a]:
                f = 2 * x * m[i][a]
                d[i] = [y - f * z for y, z in zip(d[i], m[b])]
    for c, mc in zip([row[0] for row in d], mults):
        if c:
            d = [[y - c * z for y, z in zip(row, mrow)] for row, mrow in zip(d, mc)]
    return [y for row in d for y in row] + [sum(x * mk[b][a] for a, b, x in entries) for mk in mults]


def _discriminant(v: FrobeniusAlgebra, x: int) -> Fraction:
    """The discriminant of the characteristic polynomial of M_x, for the basis vector x.

    It is det[tr(x^(i+j))] for i, j < rank: M_(x^k) = M_x^k, so the entries
    are the power sums of the eigenvalues of M_x, and the matrix is V^T V
    for their Vandermonde matrix V.  The powers run on the integer kernel.
    """
    r = v.rank
    x = v.scaled(x)
    power = v.scaled(0)
    sums = [v.trace_scaled(power)]
    for _ in range(2 * r - 2):
        power = v.multiply_scaled(power, x)
        sums.append(v.trace_scaled(power))
    return determinant([sums[i:i + r] for i in range(r)])


def solve_r1(v: FrobeniusAlgebra, tau04: dict, tau11: list) -> R1Matrix:
    """Solve for R_1 from the pivot four-point table and the torus table.

    tau04 maps (i, j) to tau_{0,4}(w, w, e_i, e_j) for the pivot w = e_{r-1};
    tau11[i] is tau_{1,1}(e_i).  One system on the r(r+1)/2 coordinates
    of `_symmetric_basis` gives the traceless part R_1': D(R_1') -
    M_(D(R_1') e_0) = A_w and tr(R_1' M_k) = 0 (`_system_column`), unique
    when M_w has simple spectrum.  The trace part then solves the Gram
    system of tau11.  The output satisfies the self-adjointness,
    decomposition, and round-trip identities exactly (`_round_trip`).  Both
    discriminants, of the characteristic polynomials of M_w and of M_(e_1),
    come from the trace form (`_discriminant`): the first must be nonzero,
    and the denominator bound 2*3*level*disc^2 of the second is asserted
    entry by entry.
    """
    r = v.rank
    if _discriminant(v, r - 1) == 0:  # a repeated root
        raise ArithmeticError("pivot multiplication does not have simple spectrum")

    mults = [scaled_matrix(v.mult_matrix(k))[0] for k in range(r)]  # integer structure constants
    m2 = scaled_matrix(v.mult_matrix(v.multiply(r - 1, r - 1)))[0]
    sym = _symmetric_basis(v)
    columns = [_system_column(mults[-1], m2, mults, s) for s in sym]
    # A_w(e_i) = sum_j tau04[(i,j)] eps_j e_j, row by row, then the r trace rows
    rhs = [Fraction(tau04.get((j, i), 0)) * v.eps[i] for i in range(r) for j in range(r)] + [Fraction(0)] * r
    try:
        coeffs = solve(list(zip(*columns)), rhs)
    except ArithmeticError as e:
        hint = {"underdetermined system": "pivot spectrum not simple?",
                "inconsistent system": "tau tables are not realizable"}.get(str(e))
        if hint is None:
            raise
        raise ArithmeticError(f"{e}: {hint}") from None
    perp = lin_comb(coeffs, sym)

    # recover the trace part from tau_{1,1}
    cols = list(zip(*perp))
    rhs2 = [-2 * (Fraction(tau11[i]) - Fraction(1, 24) * (v.trace(cols[i]) - v.trace(v.multiply(cols[0], i))))
            for i in range(r)]
    r1_vec = tuple(solve(v.gram(), rhs2))

    out = R1Matrix(v, mat_add(v.mult_matrix(r1_vec), perp), r1_vec, perp)

    _round_trip(v, out, tau04, tau11)

    if r > 1:
        disc = _discriminant(v, 1)
        bound = 6 * v.level * disc.numerator * disc.numerator
        for row in out.matrix:
            for x in row:
                if bound % x.denominator:
                    raise ArithmeticError(f"denominator of {x} exceeds the bound {bound}")
    return out


def _round_trip(v: FrobeniusAlgebra, r1: R1Matrix | Mat, tau04: dict, tau11: list):
    """Raise unless r1 gives back both tables: tau04 from one form T(w, w), then tau11."""
    r = v.rank
    form, den = _tau04_form(v, r1, r - 1, r - 1)
    for i, row in enumerate(form):
        for j, x in enumerate(row):
            got = Fraction(x, den)
            if got != Fraction(tau04.get((i, j), 0)):
                raise ArithmeticError(f"tau04 round trip fails at {(i, j)}: {got}")
    for i in range(r):
        if tau_from_r1_11(v, r1, i) != Fraction(tau11[i]):
            raise ArithmeticError(f"tau11 round trip fails at {i}")


@lru_cache(maxsize=None)
def solve_level(level: int, emb: Embedding) -> R1Matrix:
    """Build the fusion algebra at (level, embedding) and solve for R_1.

    Each (level, embedding) is solved once per process: ``reproduce --all``
    asks for (5, 1) six times and for each level-7 embedding twice.  The
    cache is safe to share.  ``R1Matrix`` and ``FrobeniusAlgebra`` are
    frozen, and the only attributes they fill lazily (``alpha`` and
    ``omega_element``) are deterministic.  A refusal, an invalid level or
    embedding or a failed certificate, is raised again on every call,
    because ``lru_cache`` stores no exceptions.  A CLI call
    other than ``reproduce`` solves one pair, so it neither gains nor loses.

    tau_{1,1} of a color whose torus form is definite at the embedding is 0,
    and that of an indefinite form on two gluing colors is a triangle area;
    both are read from exact residues with no exact pass, so a solve runs
    that pass only for its indefinite colors of three or more gluing
    colors.  At (9, 2), (9, 4), (11, 3) and (11, 5) every color is
    definite; at (9, 1) only color 1 runs an exact pass, since color 2 has
    two gluing colors.  The embeddings of one level share the rest: the
    exact pass of tau_{1,1} (the torus representation, its eigen-data and
    its Meyer kernel and pivots) is cached per (level, color) in ``torus``,
    so solving a second embedding of a level reads only signs and turns for
    tau_{1,1}.  The fusion algebra, tau_{0,4} and the R_1 solve run per
    embedding.
    """
    return solve_r1(so3_algebra(level, emb), pivot_tau04_table(level, emb), tau11_table(level, emb))


# -- degree-2 classes -------------------------------------------------------------


def degree2_class(r1: R1Matrix, g: int, n: int, colors) -> H2Class:
    """The Toledo class tau_{g,n}(colors) over the kappa-tilde basis, in r1's algebra.

    Each coefficient is a sum of TFT values of products of the colors, with
    one color moved by R_1 or with the node colors contracted against
    R eta^{-1}.  The products stay on the integer kernel and each value is
    read by ``FrobeniusAlgebra.tft_scaled``; no Fraction vector is formed.
    The colors and R_1 are scaled once.  The product of all colors but the
    i-th is a prefix times a suffix product.  With rho_mu the row mu of
    R eta^{-1} as an algebra element, delta_irr reads one value at the node
    element sum_mu e_mu rho_mu, and a separating label multiplies each
    side's colors once and sums sigma(left e_mu) sigma(right rho_mu).
    """
    from .mgnclasses import DELTA_IRR, KAPPA1T, PSI, H2Class, separating_labels

    v = r1.algebra
    _check_moduli(g, n)
    x = [v.scaled(c) for c in colors]
    if len(x) != n:
        raise ValueError("need one color per marked point")
    mul, tft = v.multiply_scaled, v.tft_scaled
    m = scaled_matrix(r1.matrix)
    one = v.scaled(0)
    # prefix[i] = x_1 ... x_i and suffix[i] = x_(i+1) ... x_n
    prefix, suffix = [one], [one]
    for a in x:
        prefix.append(mul(prefix[-1], a))
    for a in reversed(x):
        suffix.append(mul(a, suffix[-1]))
    suffix.reverse()
    coeffs: dict = {}
    kappa_term = tft(g, mul(prefix[n], apply_scaled(m, one)))
    coeffs[(KAPPA1T,)] = -kappa_term
    for i in range(n):
        others = mul(prefix[i], suffix[i + 1])
        coeffs[(PSI, i + 1)] = tft(g, mul(others, apply_scaled(m, x[i]))) - kappa_term
    # rho_mu = sum_nu R_mu,nu eps_nu e_nu, the row mu of R eta^{-1}, over m's denominator
    rows, rden = m
    rho = [([c * e for c, e in zip(row, v.eps)], rden) for row in rows]
    basis = [v.scaled(mu) for mu in range(v.rank)]
    if g >= 1:
        # the node element sum_mu e_mu rho_mu
        node = [sum(col) for col in zip(*[mul(e, p)[0] for e, p in zip(basis, rho)])]
        coeffs[(DELTA_IRR,)] = -tft(g - 1, mul(prefix[n], (node, rden)))
    for label in separating_labels(g, n):
        _tag, g1, subset = label
        left, right = one, one
        for i in range(n):
            if i + 1 in subset:
                left = mul(left, x[i])
            else:
                right = mul(right, x[i])
        coeffs[label] = -sum((tft(g1, mul(left, e)) * tft(g - g1, mul(right, p))
                              for e, p in zip(basis, rho)), Fraction(0))
    return H2Class(g, n, coeffs)


# -- presentation-based cross-check ------------------------------------------------


def presentation_class(v: FrobeniusAlgebra, g: int, n: int) -> H2Class:
    """Level-5 Toledo class from the mapping-class-group presentation pipeline.

    All marked points carry the nontrivial color.  Coefficients over
    (lambda_1, boundary, psi) come from the lantern/chain/power relation
    values; the output is converted to the kappa-tilde basis by
    kappa_tilde = 12 lambda_1 - delta.
    """
    from .mgnclasses import DELTA_IRR, KAPPA1T, PSI, H2Class, separating_labels

    if v.level != 5:
        raise ValueError("the presentation table is tabulated at level 5")
    _check_moduli(g, n)
    # powers[k] = e_1^k, so tft(h, powers[k]) is sigma_h with k points of color e_1
    tft = v.tft_scaled
    powers = [v.scaled(0)]
    for _ in range(n + 2):
        powers.append(v.multiply_scaled(powers[-1], v.scaled(1)))
    sigma = tft(g, powers[n])
    sigma_next = tft(g, powers[n + 1])
    a = Fraction(-46, 45) * sigma - Fraction(4, 9) * sigma_next
    c = Fraction(-2, 15) * sigma
    coeffs: dict = {}
    # lambda_1 = (kappa_tilde + delta)/12
    coeffs[(KAPPA1T,)] = a / 12
    for i in range(1, n + 1):
        coeffs[(PSI, i)] = c
    if g >= 1:
        sig_irr = tft(g - 1, powers[n + 2])
        coeffs[(DELTA_IRR,)] = a / 12 + Fraction(-2, 15) * sig_irr
    for label in separating_labels(g, n):
        _tag, g1, subset = label
        sig_split = tft(g1, powers[len(subset) + 1]) * tft(g - g1, powers[n - len(subset) + 1])
        coeffs[label] = a / 12 + Fraction(-2, 15) * sig_split
    return H2Class(g, n, coeffs)


def appendixB_crosscheck(g_max: int = 4, n_max: int = 4) -> dict:
    """Compare the closed level-5 class with the presentation pipeline."""
    r1 = solve_level(5, Embedding(5, 1))
    v = r1.algebra
    report = {"cases": [], "all_equal": True}
    for g in range(g_max + 1):
        for n in range(n_max + 1):
            if not _is_stable(g, n):
                continue
            direct = degree2_class(r1, g, n, [1] * n)
            viaB = presentation_class(v, g, n)
            equal = direct == viaB
            report["cases"].append({
                "g": g, "n": n, "equal": equal,
                "closed": direct.to_json()["coeffs"],
                "presentation": viaB.to_json()["coeffs"],
            })
            if not equal:
                report["all_equal"] = False
    return report
