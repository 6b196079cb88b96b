"""Small-surface SO3 quantum representations: tau_{0,4} and tau_{1,1} at an embedding.

tau_{0,4} comes from the hyperbolic-triangle formula on the rotation
numbers in [0, 1) of the three four-point twists (`toledo_triangle_pu11`),
which answers in either orientation of the triangle.

Per embedding only signs are read.  The sign of every norm of the torus
form is a product of the exact residue signs of `embedding`
(`so3_structure_sign` and `quantum_int_sign`; `_form_sign`, `_norm_signs`),
so whether the form is definite is decided from integer residues before
anything is built, and so are the rotation numbers of tau_{0,4}.
tau_{1,1} of a color then takes one of three routes:

- a definite form gives 0: the representation lies in the compact U(n);
- an indefinite form on two gluing colors is a PU(1,1) representation of a
  (2, 3, m) triangle group, and tau_{1,1} is the same triangle formula
  on three rotation numbers read from residues (`_two_color_toledo`);
- an indefinite form on three or more gluing colors runs the exact pass:
  the Meyer signature of the punctured-torus twists plus G-function
  corrections.

Both triangle readers share `_triangle_toledo`, which names the block
whose turns close no triangle.

The module imports only `embedding`, which also holds the torus's gluing
window and first-norm sign.  The exact torus representation
(`torus.punctured_torus_rep`) and the exact part of tau_{1,1}, both built
once per (level, color), are in `torus`; the exact route of `tau_11`
imports it, and `hermitian` to read that part, inside the function.  So a
solve whose torus blocks are all definite or two-colored compiles no field
arithmetic, and a torus call no `qrep`.  `PuncturedTorusRep`,
`punctured_torus_rep` and `mat_mul`, bound here before the torus builder
moved, still resolve here and import `torus` on first use (perfbench's
self-test reads `qrep.mat_mul`).
"""

from __future__ import annotations

from fractions import Fraction

from .embedding import (
    Embedding,
    _check_color,
    _form_sign,
    _rank,
    _window,
    check_so3_level,
    quantum_int_sign,
)

#: names that moved to `torus`, resolved there when read from this module
_TORUS_NAMES = ("PuncturedTorusRep", "mat_mul", "punctured_torus_rep")


def __getattr__(name):
    if name in _TORUS_NAMES:
        from . import torus

        return getattr(torus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def toledo_triangle_pu11(turn_a: Fraction, turn_b: Fraction, turn_c: Fraction) -> Fraction:
    """Toledo invariant of a PU(1,1) triangle representation from its rotation numbers.

    Each turn is taken mod 1, as a rotation number t in [0, 1): an elliptic
    element turning by 2 pi t about its fixed point.  Three elliptics with
    product 1 turn about the vertices of a geodesic triangle.  If the
    triangle is positively oriented its interior angles are pi t, so the
    sum s of the turns is at most 1 and tau = 1 - s, its area over pi.  If
    it is negatively oriented its angles are pi (1 - t), so s >= 2 and tau
    is minus that area, 2 - s.  No triple with 1 < s < 2 has product 1
    (Jankins-Neumann, Math. Ann. 271, 1985), and a zero turn is no
    elliptic; both raise ValueError.
    """
    turns = [Fraction(t) % 1 for t in (turn_a, turn_b, turn_c)]
    if not all(turns):
        raise ValueError(f"zero turn among the rotation numbers {turns}")
    s = sum(turns)
    if s <= 1:
        return 1 - s
    if s >= 2:
        return 2 - s
    raise ValueError(f"rotation numbers sum to {s}, strictly between 1 and 2: no triangle")


def _triangle_toledo(level: int, emb: Embedding, color: int, *turns: Fraction) -> Fraction:
    """toledo_triangle_pu11 of a block's turns; turns that close no triangle raise ArithmeticError.

    Each turn's denominator divides 6 level and tau = 1 - s or 2 - s for their
    sum s, so |tau| < 1 and 6 level tau is an integer.
    """
    try:
        return toledo_triangle_pu11(*turns)
    except ValueError:
        shown = ", ".join(str(t % 1) for t in turns)
        raise ArithmeticError(f"turns {shown} of color {color} at level {level}, "
                              f"embedding {emb.exponent}, close no triangle") from None


def four_point_toledo(level: int, emb: Embedding, i: int, j: int) -> Fraction:
    """tau_{0,4}(w, w, e_i, e_j) with w the top color e_{r-1}.

    Zero off the diagonal and when the form is definite, which covers i = 0
    (a one-dimensional, unitary block), since [0] = 0.  Otherwise the block
    is two-dimensional of signature (1, 1), and the twists about the three
    curves that split the four points in pairs act on the disc as
    elliptics with product 1.  Each turns by the ratio of its two
    eigenvalues, in the direction set by the sign of its eigenspaces: the
    two twists pairing w with e_i by q^(4(r-i) s_lo), the twist between the
    pairs by q^(-4 s_gamma).  At q = exp(2 pi i k / level) a power q^m has
    the rotation number m k / level mod 1, and the triangle formula
    toledo_triangle_pu11 takes the three, whichever the orientation of the
    triangle (_triangle_toledo).
    """
    check_so3_level(level, emb)
    _check_color(level, i)
    _check_color(level, j)
    if i != j:
        return Fraction(0)
    s_lo = quantum_int_sign(2 * i, emb)
    s_hi = quantum_int_sign(2 * i + 2, emb)
    if s_lo * s_hi >= 0:
        return Fraction(0)  # definite form, or the one-dimensional block i = 0
    theta_alpha = Fraction(4 * (_rank(level) - i) * s_lo * emb.exponent, level)
    s_gamma = quantum_int_sign(2, emb) * quantum_int_sign(2 * i + 1, emb)
    theta_gamma = Fraction(-4 * s_gamma * emb.exponent, level)
    return _triangle_toledo(level, emb, i, theta_alpha, theta_alpha, theta_gamma)


# -- tau_{1,1} ------------------------------------------------------------------


def _norm_signs(level: int, emb: Embedding, i: int) -> tuple[int, ...]:
    """The signs of the torus form's norms at the embedding, from exact residues alone.

    The first is _form_sign.  Each next norm is the previous one times
    u_{2j+2} u_{2j+1} (see torus._torus_exact), and the sign of
    u_m = [i+m+1][m-i] / ([m][m+1]) is the product of four quantum_int_signs.
    """
    window = _window(level, i)
    signs = [_form_sign(emb, window, i)]
    for j in window[:-1]:
        sign = signs[-1]
        for m in (2 * j + 1, 2 * j + 2):
            sign *= (quantum_int_sign(i + m + 1, emb) * quantum_int_sign(m - i, emb)
                     * quantum_int_sign(m, emb) * quantum_int_sign(m + 1, emb))
        if sign == 0:
            raise ArithmeticError("degenerate torus norm")
        signs.append(sign)
    return tuple(signs)


def _two_color_toledo(level: int, emb: Embedding, j0: int, s0: int) -> Fraction:
    """tau_{1,1} of an indefinite form on the gluing colors (j0, j0 + 1), color r - 2.

    The form has signature (1, 1) and s0 is the sign of its first norm, so
    the representation lies in PU(1,1), where the projective relations
    (T_gamma T_delta)^3 and (T_gamma T_delta T_gamma)^2 make it a
    (2, 3, m) triangle group, m the projective order of T_gamma.  Its
    Toledo invariant is the signed area of the triangle that
    toledo_triangle_pu11 reads off three rotation numbers:
    T_gamma = diag(q^(-2 j (j+1))) turns by the ratio q^(-4 (j0+1)) of its
    eigenvalues, in the direction of s0, so by t = -4 (j0+1) k s0 / level
    mod 1; T_gamma T_delta T_gamma, of projective order 2, by 1/2; and
    T_delta T_gamma, of projective order 3, by 1/3 if t < 1/2 and else 2/3:
    the turns then sum to t + 5/6 or t + 7/6, a triangle exactly when
    t <= 1/6 or t >= 5/6, which holds for every indefinite block.
    """
    turn_gamma = Fraction(-4 * (j0 + 1) * emb.exponent * s0, level) % 1
    turn_3 = Fraction(1, 3) if turn_gamma < Fraction(1, 2) else Fraction(2, 3)
    return _triangle_toledo(level, emb, _rank(level) - 2, turn_gamma, turn_3, Fraction(1, 2))


def tau_11(level: int, emb: Embedding, i: int) -> Fraction:
    """tau_{1,1}(e_i): the triangle-group Toledo pairing of T_gamma and T_delta T_gamma.

    The signs of the torus form's norms are read from exact residues
    (_norm_signs), and the value takes one of three routes:

    - definite: 0, because the representation then lies in the compact
      group U(n), where the Kaehler class pulls back to 0; color 0 is
      definite at every unit, since its u_m are all 1;
    - two colors, indefinite: the signed area of the (2, 3, m)
      triangle of the PU(1,1) representation, from three rotation numbers
      read off residues (_two_color_toledo), with nothing exact built;
    - three or more colors, indefinite: the Meyer signature of the twist
      pair plus G-corrections (see toledo_triangle_meyer).  Its exact part
      runs once per (level, i) (torus._tau11_exact); at the embedding only
      signs and turns are read, and the value takes the sign of the form,
      because negating the form negates the Meyer cocycle and every
      eigenspace signature.
    """
    check_so3_level(level, emb)
    _check_color(level, i)
    signs = _norm_signs(level, emb, i)
    if all(s == signs[0] for s in signs):
        return Fraction(0)  # definite form
    if len(signs) == 2:
        return _two_color_toledo(level, emb, _window(level, i)[0], signs[0])
    from .hermitian import _read_toledo
    from .torus import _tau11_exact

    return signs[0] * _read_toledo(_tau11_exact(level, i), emb)


def pivot_tau04_table(level: int, emb: Embedding) -> dict[tuple[int, int], Fraction]:
    r = _rank(level)
    return {(i, j): four_point_toledo(level, emb, i, j) for i in range(r) for j in range(r)}


def tau11_table(level: int, emb: Embedding) -> list[Fraction]:
    r = _rank(level)
    return [tau_11(level, emb, i) for i in range(r)]
