import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import level5_sigma_recursion_checks

from qtoledo import rmatrix, torus
from qtoledo.cli import main
from qtoledo.cyclotomic import Embedding
from qtoledo.eulerchi import chi_bar, harer_zagier
from qtoledo.fusion import so3_algebra
from qtoledo.mgnclasses import H2Class, canonical_class, elliptic_pullback
from qtoledo.qrep import pivot_tau04_table, tau11_table
from qtoledo.rmatrix import (
    R1Matrix,
    appendixB_crosscheck,
    _discriminant,
    degree2_class,
    presentation_class,
    solve_level,
    solve_r1,
    tau_from_r1_04,
    tau_from_r1_11,
)

F = Fraction
EMB5 = Embedding(5, 1)


@pytest.fixture(scope="module")
def level5():
    v = so3_algebra(5, EMB5)
    return v, solve_level(5, EMB5)


@pytest.fixture(scope="module")
def level7_q1():
    emb = Embedding(7, 1)
    return so3_algebra(7, emb), solve_level(7, emb)


def test_level5_r1_matrix(level5):
    _v, r1 = level5
    assert r1.matrix == ((F(23, 270), F(-10, 270)), (F(10, 270), F(-23, 270)))
    assert r1.denominator() == 270


def test_level7_q1_r1_matrix(level7_q1):
    _v, r1 = level7_q1
    expected = [[1373, 1425, -1635], [1425, 59, -1722], [1635, 1722, -1432]]
    assert r1.matrix == tuple(tuple(F(x, 22218) for x in row) for row in expected)
    assert r1.denominator() == 22218


def test_level7_q2_matrix_consistent_with_table():
    # the solved matrix reproduces the printed sigma/tau table; the matrix
    # printed in the source derivation corresponds to the opposite sign of
    # the (1,1) pivot entry and contradicts that table
    emb = Embedding(7, 2)
    v = so3_algebra(7, emb)
    r1 = solve_level(7, emb)
    table = {
        (1, 1, 1, 1): F(2, 7),
        (1, 1, 1, 2): F(0),
        (1, 1, 2, 2): F(-2, 7),
        (1, 2, 2, 2): F(0),
        (2, 2, 2, 2): F(4, 7),
    }
    for colors, want in table.items():
        assert tau_from_r1_04(v, r1, *colors) == want
    for i in range(3):
        assert tau_from_r1_11(v, r1, i) == 0
    # reverse engineering of the stale printed matrix
    flipped = dict(pivot_tau04_table(7, emb))
    flipped[(1, 1)] = -flipped[(1, 1)]
    stale = solve_r1(v, flipped, tau11_table(7, emb))
    printed = [[-3615, 1027, 1973], [-1027, 3719, -36], [1973, 36, -104]]
    assert stale.matrix == tuple(tuple(F(x, 22218) for x in row) for row in printed)
    assert tau_from_r1_04(v, stale, 1, 1, 2, 2) != table[(1, 1, 2, 2)]



def test_solve_r1_names_an_underdetermined_system(monkeypatch):
    # every column of the system built from one symmetric basis element:
    # the columns are dependent, which is what a repeated pivot eigenvalue
    # does, and the hint is looked up by the text of solve's error
    emb = Embedding(7, 1)
    v = so3_algebra(7, emb)
    column = rmatrix._system_column
    first = rmatrix._symmetric_basis(v)[0]
    monkeypatch.setattr(rmatrix, "_system_column", lambda m, m2, mults, s: column(m, m2, mults, first))
    with pytest.raises(ArithmeticError) as err:
        solve_r1(v, pivot_tau04_table(7, emb), tau11_table(7, emb))
    assert str(err.value) == "underdetermined system: pivot spectrum not simple?"


def test_solve_r1_passes_an_unknown_solve_error_through(monkeypatch):
    # an error text with no hint is raised as it is, not as a KeyError
    emb = Embedding(7, 1)

    def boom(a, b):
        raise ArithmeticError("boom")

    monkeypatch.setattr(rmatrix, "solve", boom)
    with pytest.raises(ArithmeticError, match="^boom$"):
        solve_r1(so3_algebra(7, emb), pivot_tau04_table(7, emb), tau11_table(7, emb))


def test_r1_system_is_the_tau04_form_and_the_torus_formula(monkeypatch):
    # solve_r1 hands `solve` two systems.  Column S of the first, built from
    # commutators, is the map S -> tau_{0,4}(w, w, ., .) of the gluing
    # formula, row i*r + j being eps_i T_S(w, w)[j][i]; the right side of the
    # second is -2 (tau_{1,1}(e_i) - tau_{1,1}(e_i) of R_1') for R_1' the perp part
    calls = []
    real = rmatrix.solve

    def spy(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(rmatrix, "solve", spy)
    for level, k in _level_units((5, 7, 9, 11, 13)) + [(21, 2), (29, 3)]:
        emb = Embedding(level, k)
        v = so3_algebra(level, emb)
        tau11 = tau11_table(level, emb)
        calls.clear()
        r1 = solve_r1(v, pivot_tau04_table(level, emb), tau11)
        (system, _rhs), (gram, trace_rhs) = calls
        r, eps = v.rank, v.eps
        basis = rmatrix._symmetric_basis(v)
        assert len(system[0]) == len(basis) and gram == v.gram(), (level, k)
        for s, column in zip(basis, zip(*system)):
            form, den = rmatrix._tau04_form(v, s, r - 1, r - 1)
            assert [F(x) for x in column[:r * r]] == [eps[i] * F(form[j][i], den)
                                                      for i in range(r) for j in range(r)], (level, k, s)
        assert trace_rhs == [-2 * (F(tau11[i]) - tau_from_r1_11(v, r1.perp_part, i))
                             for i in range(r)], (level, k)


def _perturbed_tau04(level, k, entry):
    table = dict(pivot_tau04_table(level, Embedding(level, k)))
    table[entry] += F(1, level)
    return table


def test_solve_r1_refuses_unrealizable_tables():
    emb = Embedding(7, 1)
    v = so3_algebra(7, emb)
    tau11 = tau11_table(7, emb)
    # an off-diagonal entry breaks the symmetry the perp space can realize
    with pytest.raises(ArithmeticError) as err:
        solve_r1(v, _perturbed_tau04(7, 1, (0, 1)), tau11)
    assert str(err.value) == "inconsistent system: tau tables are not realizable"
    # a realizable table whose R_1 leaves the 6*level*disc^2 lattice
    with pytest.raises(ArithmeticError, match="exceeds the bound 22218$"):
        solve_r1(v, _perturbed_tau04(7, 1, (1, 1)), tau11)


def test_level3_rank1_r1_is_zero():
    # rank 1: the trace row tr(S M_0) = 1 forces the one symmetric coordinate to 0
    r1 = solve_level(3, Embedding(3, 1))
    assert r1.matrix == ((0,),)
    assert r1.perp_part == ((0,),)


def test_level7_q3_r1_vanishes():
    emb = Embedding(7, 3)
    r1 = solve_level(7, emb)
    assert all(x == 0 for row in r1.matrix for x in row)


def test_level5_tau_values(level5):
    v, r1 = level5
    assert tau_from_r1_04(v, r1, 1, 1, 1, 1) == F(-2, 5)
    assert tau_from_r1_11(v, r1, 1) == 0
    assert tau_from_r1_11(v, r1, 0) == 0
    zero = tuple((F(0), F(0)) for _ in range(2))
    assert tau_from_r1_04(v, zero, 1, 1, 1, 1) == 0


def test_level7_q1_table_roundtrip(level7_q1):
    v, r1 = level7_q1
    table = {
        (1, 1, 1, 1): F(2, 7),
        (1, 1, 1, 2): F(-4, 7),
        (1, 1, 2, 2): F(2, 7),
        (1, 2, 2, 2): F(0),
        (2, 2, 2, 2): F(0),
    }
    for colors, want in table.items():
        assert tau_from_r1_04(v, r1, *colors) == want
    assert [tau_from_r1_11(v, r1, i) for i in range(3)] == [0, F(-1, 42), 0]


def test_trace_part_invisible_in_tau04(level5):
    v, r1 = level5
    rng = random.Random(5)
    for _ in range(10):
        vec = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(v.rank))
        shifted = v.mult_matrix(vec)
        perturbed = tuple(
            tuple(r1.matrix[i][j] + shifted[i][j] for j in range(v.rank)) for i in range(v.rank)
        )
        for colors in ((1, 1, 1, 1), (1, 1, 1, 0), (1, 0, 1, 1)):
            assert tau_from_r1_04(v, perturbed, *colors) == tau_from_r1_04(v, r1, *colors)
        # but tau_{1,1} does see the trace part
    vec = (F(1), F(0))
    shifted = v.mult_matrix(vec)
    perturbed = tuple(
        tuple(r1.matrix[i][j] + shifted[i][j] for j in range(v.rank)) for i in range(v.rank)
    )
    assert tau_from_r1_11(v, perturbed, 1) != tau_from_r1_11(v, r1, 1)


def test_r1_invariants_checked():
    v = so3_algebra(5, EMB5)
    bad = ((F(1), F(1)), (F(1), F(1)))  # not eta-self-adjoint
    with pytest.raises(ValueError, match="^R_1 is not eta-self-adjoint$"):
        R1Matrix(v, bad, (F(0), F(0)), bad)


def test_equal_embeddings_share_one_cached_solve():
    r1 = solve_level(5, EMB5)
    hits = solve_level.cache_info().hits
    # Embedding(5, 6) reduces to Embedding(5, 1), so it is the same cache key
    assert solve_level(5, Embedding(5, 6)) is r1
    assert solve_level(5, Embedding(order=5, exponent=1)) is r1
    assert solve_level.cache_info().hits == hits + 2


def test_perp_part_zero_diagonal_in_idempotent_basis(level5):
    v, r1 = level5
    m1 = np.array([[float(x) for x in row] for row in v.mult_matrix(v.rank - 1)])
    _vals, vecs = np.linalg.eig(m1)
    perp = np.array([[float(x) for x in row] for row in r1.perp_part])
    diag = np.diagonal(np.linalg.inv(vecs) @ perp @ vecs)
    assert np.allclose(diag, 0, atol=1e-10)


def _units(level: int) -> list[int]:
    return [k for k in range(1, level) if math.gcd(k, level) == 1]


def test_r1_of_levels_5_to_13_is_pinned():
    # one SHA-256 over the sorted JSON of R_1 at every unit of levels 5-13, in order
    digest = hashlib.sha256()
    for level in (5, 7, 9, 11, 13):
        for k in _units(level):
            digest.update(json.dumps(solve_level(level, Embedding(level, k)).to_json(),
                                     sort_keys=True).encode())
    assert digest.hexdigest() == "dc026151341f0762be8181f289d3cdfc94373d08f1d14c6009cbb8f01cead8c2"


@pytest.mark.parametrize("level", [5, 7, 9, 11, 13])
def test_perp_part_matches_the_eigenbasis_closed_form(level):
    # R_1' against X_ab = A_ab / (lambda_a - lambda_b)^2 in M_w's eigenbasis, in mpmath
    for k in _units(level):
        emb = Embedding(level, k)
        r1 = solve_level(level, emb)
        closed = oracles.r1_perp_closed_form(r1.algebra, pivot_tau04_table(level, emb))
        exact = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                               for row in r1.perp_part])
        scale = mpmath.mnorm(exact, 1)
        assert mpmath.mnorm(closed - exact, 1) <= 1e-12 * scale, (level, k)


def test_degree2_class_level5_closed_formulas(level5):
    v, r1 = level5
    for g in range(3):
        for n in range(5):
            if 2 * g - 2 + n <= 0:
                continue
            cls = degree2_class(r1, g, n, [1] * n)
            sigma = v.tft_value(g, [1] * n)
            sigma_next = v.tft_value(g, [1] * (n + 1))
            a = F(-23, 270) * sigma - F(1, 27) * sigma_next
            b = F(-2, 15) * sigma
            assert cls.coefficient("kappa1_tilde") == a, (g, n)
            for i in range(1, n + 1):
                assert cls.coefficient("psi", i) == b
            if g >= 1:
                c = F(1, 90) * v.tft_value(g - 1, [1] * (n + 1))
                assert cls.coefficient("delta_irr") == c


def test_degree2_class_integral_matches_tau04():
    # the reduced degree-2 class integrates to the tau read off R_1: on (0,4) at
    # every basis quadruple, and on (1,1), where psi_1 integrates to 1/24, at
    # every color; at every unit of levels 5, 7 and 9
    from qtoledo.mgnclasses import reduce_class

    units = 0
    for level in (5, 7, 9):
        for k in range(1, level):
            if math.gcd(k, level) != 1:
                continue
            r1 = solve_level(level, Embedding(level, k))
            v = r1.algebra
            units += 1
            for quad in itertools.product(range(v.rank), repeat=4):
                point = reduce_class(degree2_class(r1, 0, 4, list(quad))).coefficient("point")
                assert point == tau_from_r1_04(v, r1, *quad), (level, k, quad)
            for i in range(v.rank):
                psi = reduce_class(degree2_class(r1, 1, 1, [i])).coefficient("psi", 1)
                assert psi / 24 == tau_from_r1_11(v, r1, i), (level, k, i)
    assert units == 16


def test_degree2_class_unitary_is_zero():
    emb = Embedding(7, 3)
    v = so3_algebra(7, emb)
    r1 = solve_level(7, emb)
    for g, n, colors in ((0, 4, [1, 2, 1, 2]), (1, 2, [1, 1]), (2, 1, [2])):
        assert degree2_class(r1, g, n, colors).is_zero()


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as err:
        return str(err)


def test_degree2_class_matches_the_fraction_gluing_formula():
    # the integer route against one Fraction TFT value per term, at every
    # embedding of levels 5, 7 and 9 that solve_level answers
    rng = random.Random(20713)
    solved = 0
    for level in (5, 7, 9):
        for k in range(1, level):
            if math.gcd(k, level) != 1:
                continue
            try:
                r1 = solve_level(level, Embedding(level, k))
            except ValueError:
                continue
            solved += 1
            r = r1.algebra.rank
            for g in range(3):
                for n in range(5):
                    ints = [rng.randrange(r) for _ in range(n)]
                    vectors = [tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r))
                               for _ in range(n)]
                    # unstable (g, n), a missing color, an extra color and a bad color are refused alike
                    for colors in (ints, vectors, ints[1:], vectors + [0], ints + [r], [(F(1),) * (r + 1)] * n):
                        got = _outcome(degree2_class, r1, g, n, colors)
                        assert got == _outcome(oracles.degree2_class, r1, g, n, colors), (level, k, g, n, colors)
    assert solved >= 12


@pytest.mark.parametrize("g, n, message", [
    (-1, 5, "genus and number of points must be nonnegative, got (-1,5)"),
    (2, -1, "genus and number of points must be nonnegative, got (2,-1)"),
    (0, 2, "unstable moduli space (0,2)"),
    (1, 0, "unstable moduli space (1,0)"),
])
def test_every_moduli_entry_point_refuses_a_bad_space_in_the_same_words(level5, g, n, message):
    v, r1 = level5
    colors = [1] * max(n, 0)
    builds = {
        "H2Class": lambda: H2Class(g, n),
        "canonical_class": lambda: canonical_class(5, g, n),
        "elliptic_pullback": lambda: elliptic_pullback(g, n),
        "chi_bar": lambda: chi_bar(g, n),
        "harer_zagier": lambda: harer_zagier(g, n),
        "degree2_class": lambda: degree2_class(r1, g, n, colors),
        "presentation_class": lambda: presentation_class(v, g, n),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message, name


def test_appendix_b_crosscheck():
    report = appendixB_crosscheck(4, 4)
    assert report["all_equal"], [c for c in report["cases"] if not c["equal"]][:1]
    assert level5_sigma_recursion_checks()["passed"]


def test_presentation_psi_equals_closed_psi(level5):
    v, r1 = level5
    for g in range(1, 4):
        direct = degree2_class(r1, g, 2, [1, 1])
        via_b = presentation_class(v, g, 2)
        assert direct.coefficient("psi", 1) == via_b.coefficient("psi", 1)


def test_trace_form_discriminant_matches_sympy():
    # det[tr(x^(i+j))] against the discriminant of sympy's characteristic
    # polynomial of M_x, at every embedding of levels 3-15 and x = 1, r - 1
    t = sympy.Symbol("t")
    for level in range(3, 16, 2):
        for k in range(1, level):
            if math.gcd(k, level) != 1:
                continue
            v = so3_algebra(level, Embedding(level, k))
            for x in {1, v.rank - 1} & set(range(v.rank)):
                m = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                                  for row in v.mult_matrix(x)])
                want = sympy.discriminant(m.charpoly(t).as_expr(), t)
                assert _discriminant(v, x) == want, (level, k, x)


def test_denominator_bound(level7_q1):
    v, r1 = level7_q1
    disc = -23  # the discriminant of t^3 - t - 1
    bound = 6 * 7 * disc * disc
    for row in r1.matrix:
        for x in row:
            assert bound % x.denominator == 0


def test_conjugate_embeddings_negate_r1():
    # k and level - k are complex-conjugate embeddings: the torus values and
    # R_1 change sign, and every embedding solves
    for level in (5, 7, 9, 11, 13):
        for k in range(1, (level - 1) // 2 + 1):
            if math.gcd(k, level) != 1:
                continue
            emb, conj = Embedding(level, k), Embedding(level, level - k)
            assert tau11_table(level, conj) == [-x for x in tau11_table(level, emb)]
            r1 = solve_level(level, emb)
            assert solve_level(level, conj).matrix == tuple(tuple(-x for x in row)
                                                            for row in r1.matrix), (level, k)


def test_tau04_is_symmetric_in_its_four_colors():
    # the product tree inside tau_from_r1_04 is not symmetric; its value must be
    for level in (5, 7):
        for k in range(1, level):
            if math.gcd(k, level) != 1:
                continue
            r1 = solve_level(level, Embedding(level, k))
            v = r1.algebra
            colors = list(range(v.rank)) + [(F(1, 2), F(-3)) + (F(2, 7),) * (v.rank - 2)]
            for quad in itertools.combinations_with_replacement(colors, 4):
                values = {tau_from_r1_04(v, r1, *p) for p in itertools.permutations(quad)}
                assert len(values) == 1, (level, k, quad)


def _level_units(levels):
    return [(level, k) for level in levels for k in _units(level)]


def test_tau04_form_matches_the_term_by_term_oracle_on_basis_quadruples():
    for level, k in _level_units((5, 7, 9, 11)):
        r1 = solve_level(level, Embedding(level, k))
        v = r1.algebra
        for quad in itertools.product(range(v.rank), repeat=4):
            assert tau_from_r1_04(v, r1, *quad) == oracles.tau_from_r1_04(v, r1, *quad), (level, k, quad)


@st.composite
def _unit_and_vectors(draw):
    level, k = draw(st.sampled_from(_level_units((7, 9))))
    rank = (level - 1) // 2
    entry = st.fractions(min_value=-40, max_value=40, max_denominator=30)
    return level, k, [tuple(draw(st.lists(entry, min_size=rank, max_size=rank))) for _ in range(4)]


@settings(max_examples=40, deadline=None)
@given(_unit_and_vectors())
def test_tau04_form_matches_the_term_by_term_oracle_on_rational_vectors(case):
    level, k, vecs = case
    r1 = solve_level(level, Embedding(level, k))
    assert tau_from_r1_04(r1.algebra, r1, *vecs) == oracles.tau_from_r1_04(r1.algebra, r1, *vecs)


def test_round_trip_names_the_first_entry_the_oracle_loop_misses():
    # perturb one entry of R_1: the one form T(w, w) must name the same first
    # (i, j), in row order, as r^2 term-by-term evaluations
    for level, k in ((7, 1), (9, 2), (9, 4), (11, 3)):
        emb = Embedding(level, k)
        r1, tau04, tau11 = solve_level(level, emb), pivot_tau04_table(level, emb), tau11_table(level, emb)
        v, r = r1.algebra, r1.algebra.rank
        for a, b in itertools.product(range(r), repeat=2):
            perturbed = tuple(tuple(x + F(1, 3) * ((i, j) == (a, b)) for j, x in enumerate(row))
                              for i, row in enumerate(r1.matrix))
            want = next((f"tau04 round trip fails at {(i, j)}: {got}"
                         for i in range(r) for j in range(r)
                         for got in [oracles.tau_from_r1_04(v, perturbed, r - 1, r - 1, i, j)]
                         if got != tau04.get((i, j), 0)), None)
            if want is None:
                want = next((f"tau11 round trip fails at {i}" for i in range(r)
                             if tau_from_r1_11(v, perturbed, i) != tau11[i]), None)
            try:
                rmatrix._round_trip(v, perturbed, tau04, tau11)
                got = None
            except ArithmeticError as e:
                got = str(e)
            assert got == want, (level, k, a, b)
            assert want is not None and want.startswith("tau04"), (level, k, a, b)


def test_solve_level_is_cached():
    emb = Embedding(7, 2)
    assert solve_level(7, emb) is solve_level(7, emb)
    assert solve_level(7, Embedding(7, 9)) is solve_level(7, emb)  # the same embedding


def test_refusals_are_raised_on_every_call(monkeypatch):
    def refuse(level, emb):
        raise ValueError("refused")

    monkeypatch.setattr(rmatrix, "pivot_tau04_table", refuse)
    solve_level.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="refused"):
            solve_level(9, Embedding(9, 1))
    assert solve_level.cache_info().currsize == 0


def test_reproduce_all_solves_each_r1_once(monkeypatch, capsys):
    solved = []

    def counting_solve_r1(v, tau04, tau11):
        solved.append((v.level, v.embedding.exponent))
        return solve_r1(v, tau04, tau11)

    solve_level.cache_clear()
    monkeypatch.setattr(rmatrix, "solve_r1", counting_solve_r1)
    assert main(["reproduce", "--all"]) == 0
    assert capsys.readouterr().out.count(": ok") == 6
    assert sorted(solved) == [(5, 1), (7, 1), (7, 2), (7, 3)]


def _cold():
    """Forget every solved level: the torus exact passes and solve_level."""
    torus._torus_exact.cache_clear()
    torus._tau11_exact.cache_clear()
    solve_level.cache_clear()


def _r1_or_refusal(solve):
    try:
        return solve().to_json()
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


def _check_against_the_per_embedding_route(level: int, k: int):
    emb = Embedding(level, k)
    want = oracles.embedding_tau11_table(level, emb)
    assert tau11_table(level, emb) == want, (level, k)
    oracle_r1 = _r1_or_refusal(lambda: solve_r1(so3_algebra(level, emb),
                                                pivot_tau04_table(level, emb), want))
    assert _r1_or_refusal(lambda: solve_level(level, emb)) == oracle_r1, (level, k)


@pytest.mark.parametrize("level", [5, 7, 9, 11, 13])
def test_shared_exact_pass_matches_the_per_embedding_route(level):
    # the trust gate of the shared exact pass: at every unit k, tau_{1,1} and
    # R_1 (or its refusal) equal those of the route that builds and solves
    # everything at the one embedding
    for k in _units(level):
        _check_against_the_per_embedding_route(level, k)


def test_shared_exact_pass_does_not_depend_on_the_first_embedding():
    # a global sign taken from the embedding that fills the cache would show
    # at the embeddings solved after it
    _cold()
    for level, k in ((7, 3), (7, 1), (9, 8), (9, 2)):
        _check_against_the_per_embedding_route(level, k)


def test_a_level_runs_one_exact_pass_per_color(monkeypatch):
    from qtoledo import hermitian

    passes = []

    def counting(a, b, h, emb_order):
        passes.append(emb_order)
        return toledo_data(a, b, h, emb_order)

    toledo_data = hermitian._toledo_data
    monkeypatch.setattr(hermitian, "_toledo_data", counting)
    _cold()
    for k in _units(9):
        tau11_table(9, Embedding(9, k))
    # color 1 of rank 4; colors 0 and 3 are definite at every unit, and color 2
    # has two gluing colors, so it is a triangle area read from residues
    assert passes == [9]
    assert torus._tau11_exact.cache_info().currsize == 1


def test_a_definite_solve_runs_no_exact_pass(monkeypatch):
    # every color of (11, 5) has a definite form, so tau_{1,1} is 0 throughout
    # and is read from residues alone
    from qtoledo import hermitian

    def refuse(*args):
        raise AssertionError("an exact pass ran for a definite form")

    monkeypatch.setattr(torus, "_torus_exact", refuse)
    monkeypatch.setattr(hermitian, "_toledo_data", refuse)
    solve_level.cache_clear()
    assert tau11_table(11, Embedding(11, 5)) == [0] * 5
    solve_level(11, Embedding(11, 5))
