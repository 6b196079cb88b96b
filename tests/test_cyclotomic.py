import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import embed_complex

from qtoledo.cyclotomic import (
    MAX_SIGN_BITS,
    CycloNum,
    Embedding,
    conjugate,
    cyclo_from_json,
    cyclo_to_json,
    cyclotomic_polynomial,
    euler_phi,
    galois,
    quantum_int,
    sign_real,
)
from qtoledo.embedding import _qfact_sign, quantum_int_sign
from qtoledo.realbounds import _cos_fixed, _real_bounds


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(20) == 8


def test_root_of_unity_identities():
    z5 = CycloNum.zeta(5)
    assert z5 * z5 ** 4 == 1
    z3 = CycloNum.zeta(3)
    assert (1 + z3) + (1 + z3 ** 2) == 1


def test_inverse_verified_by_multiplication():
    z3 = CycloNum.zeta(3)
    a = 2 + z3
    inv = a.inverse()
    assert a * inv == 1
    # closed form (2 + z3^2)/3
    assert inv == (2 + z3 ** 2) * Fraction(1, 3)


def test_inversion_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloNum.rational(0).inverse()


def test_mixed_order_arithmetic():
    z4 = CycloNum.zeta(4)
    z3 = CycloNum.zeta(3)
    v = z4 * z3
    assert v.order == 12
    assert v ** 12 == 1
    assert v ** 6 == -1


def test_conjugation_involution():
    z5 = CycloNum.zeta(5)
    assert conjugate(z5) == z5 ** 4
    q = CycloNum.zeta(5)
    fixed = q + q.inverse()
    assert conjugate(fixed) == fixed
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randrange(2, 24)
        a = CycloNum(n, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(euler_phi(n))])
        assert conjugate(conjugate(a)) == a


def test_galois_composition():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.choice([5, 7, 9, 12, 15])
        units = [k for k in range(1, n) if math.gcd(k, n) == 1]
        k1, k2 = rng.choice(units), rng.choice(units)
        a = CycloNum(n, [Fraction(rng.randrange(-3, 4)) for _ in range(euler_phi(n))])
        assert galois(galois(a, k2), k1) == galois(a, (k1 * k2) % n)
    z5 = CycloNum.zeta(5)
    assert galois(z5, 2) == z5 ** 2
    assert galois(z5 + z5.inverse(), 2) == z5 ** 2 + z5 ** -2
    assert galois(z5, 1) == z5


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        galois(CycloNum.zeta(6), 2)


def test_quantum_integers():
    q = CycloNum.zeta(5)
    assert quantum_int(1, q) == 1
    assert quantum_int(2, q) == q + q.inverse()
    assert quantum_int(-3, q) == -quantum_int(3, q)
    for n in range(1, 6):
        assert conjugate(quantum_int(n, q)) == quantum_int(n, q)
    # direct ratio definition
    assert quantum_int(3, q) * (q - q.inverse()) == q ** 3 - q ** -3


def test_sign_real_examples():
    emb = Embedding(5, 1)
    q = CycloNum.zeta(5)
    assert sign_real(CycloNum.rational(0), emb) == 0
    assert sign_real(quantum_int(2, q), emb) == 1
    assert sign_real(quantum_int(3, q), emb) == -1  # 1 + 2cos(4pi/5) < 0
    assert sign_real(quantum_int(4, q), emb) == -1


def test_sign_real_rejects_non_real():
    with pytest.raises(ValueError):
        sign_real(CycloNum.zeta(5), Embedding(5, 1))


def test_quantum_factorial_signs_match_the_product():
    # the prefix table behind _qfact_sign against the product of the quantum integer signs
    for order in range(1, 30):
        for k in range(1, order + 1):
            if math.gcd(k, order) != 1:
                continue
            emb = Embedding(order, k)
            for n in range(-2, order + 3):
                want = math.prod(quantum_int_sign(m, emb) for m in range(1, n + 1))
                assert _qfact_sign(n, emb) == want, (order, k, n)


def test_sign_real_against_float_oracle():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randrange(3, 51)  # orders 1, 2 make q = +-1, excluded by precondition
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        emb = Embedding(n, rng.choice(units))
        m = rng.randrange(-12, 13)
        q = CycloNum.zeta(n)
        val = quantum_int(m, q)
        got = sign_real(val, emb)
        assert got == quantum_int_sign(m, emb)
        numeric = embed_complex(val, emb).real
        if abs(numeric) > 1e-7:
            assert got == (1 if numeric > 0 else -1)
        else:
            assert got == 0 or abs(numeric) > 0


def _convergents_near(x, bound):
    """The first two consecutive continued-fraction convergents p/q of x within bound."""
    import mpmath

    (p0, q0), (p1, q1) = (1, 0), (int(mpmath.floor(x)), 1)
    rest = x - p1
    out = []
    while len(out) < 2:
        rest = 1 / rest
        a = int(mpmath.floor(rest))
        rest -= a
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        out = out + [(p1, q1)] if abs(x - mpmath.mpf(p1) / q1) < bound else []
    return out


def test_sign_real_beyond_64_bits():
    # zeta_7 + 1/zeta_7 - p/q for two consecutive convergents p/q of 2cos(2 pi/7):
    # they lie on either side of it, closer than 2^-80, which 64-bit bounds
    # cannot resolve; mpmath at 300 bits is the oracle
    import mpmath

    emb = Embedding(7, 1)
    z = CycloNum.zeta(7)
    with mpmath.workprec(300):
        x = 2 * mpmath.cos(2 * mpmath.pi / 7)
        bound = mpmath.mpf(2) ** -80
        signs = []
        for p, q in _convergents_near(x, bound):
            error = x - mpmath.mpf(p) / q
            a = z + z.inverse() - Fraction(p, q)
            lo, hi = _real_bounds(a, emb.exponent, 64)
            assert lo <= 0 <= hi
            signs.append(sign_real(a, emb))
            assert signs[-1] == (1 if error > 0 else -1)
    assert sorted(signs) == [-1, 1]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_cos_bounds_enclose_the_cosines(bits):
    # every angle 2 pi j / n of every order n <= 132 (levels up to 33 lift to
    # order 4 * 33), against mpmath at 300 bits, whose error is far below the
    # 2^-40 slack; the bounds are at most 4 apart
    import mpmath

    slack = mpmath.mpf(2) ** -40
    with mpmath.workprec(300):
        scale = mpmath.mpf(2) ** bits
        for n in range(1, 133):
            for j in range(n):
                lo, hi = _cos_fixed(j, n, bits)
                value = mpmath.cos(2 * mpmath.pi * j / n) * scale
                assert lo - slack <= value <= hi + slack, (n, j, bits)
                assert hi - lo <= 4, (n, j, bits)


def test_cos_bounds_follow_the_embedding():
    # the image of zeta^j under zeta -> exp(2 pi i k / n) is the cosine at j k mod n
    for n, k in ((7, 3), (60, 7), (132, 5)):
        for j in range(euler_phi(n)):
            assert _real_bounds(CycloNum.zeta(n, j), k, 64) == _cos_fixed(j * k % n, n, 64)


def test_real_bounds_build_only_the_cosines_they_need():
    # 2 cos(2 pi 5 / 132) has three nonzero coefficients in the power basis of
    # Q(zeta_132), so its bound at the top of the precision ladder builds at
    # most three of the 67 cosines of that order
    z = CycloNum.zeta(132, 5)
    _cos_fixed.cache_clear()
    _real_bounds(z + z.inverse(), 1, MAX_SIGN_BITS)
    assert _cos_fixed.cache_info().currsize <= 3


def test_sign_real_zero_is_exact():
    # an element that is zero exactly must report 0, never a sign
    z = CycloNum.zeta(3)
    val = 1 + z + z ** 2
    assert val.is_zero()
    assert sign_real(val, Embedding(3, 1)) == 0


def test_embedding_extension():
    emb = Embedding(5, 2)
    big = emb.extend(20)
    assert big.order == 20 and big.exponent % 5 == 2 and math.gcd(big.exponent, 20) == 1
    with pytest.raises(ValueError, match="^exponent 2 not coprime to 6$"):
        Embedding(6, 2)
    # the exponent is named as given, not reduced mod the order
    with pytest.raises(ValueError, match="^exponent 7 not coprime to 7$"):
        Embedding(7, 7)
    with pytest.raises(ValueError, match="^exponent 15 not coprime to 6$"):
        Embedding(6, 15)


def test_embedding_is_a_frozen_value():
    emb = Embedding(5, 6)
    assert emb == Embedding(5, 1) == Embedding(order=5, exponent=11) == Embedding(5, exponent=1)
    assert hash(emb) == hash(Embedding(5, 1))
    assert repr(emb) == "Embedding(order=5, exponent=1)"
    # only an Embedding equals an Embedding: not its field tuple, not a subclass
    assert emb != (5, 1)
    assert emb != type("Wider", (Embedding,), {})(5, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'order'"):
        emb.order = 7
    with pytest.raises(AttributeError, match="cannot delete field 'exponent'"):
        del emb.exponent
    assert emb == Embedding(5, 1)
    for args, kwargs in (((5,), {}), ((5, 1, 2), {}), ((5,), {"order": 5}), ((5, 1), {"k": 1})):
        with pytest.raises(TypeError):
            Embedding(*args, **kwargs)


def test_json_round_trip():
    a = CycloNum(5, [Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(7, 2)])
    data = cyclo_to_json(a)
    assert data["order"] == 5 and data["coeffs"][0] == "1/3"
    assert cyclo_from_json(data) == a


def _exact(a):
    return a.order, a.nums, a.den


def _power_by_products(x, m):
    """x^m by |m| multiplications, starting from the rational 1."""
    result = CycloNum.rational(1)
    for _ in range(abs(m)):
        result = result * x
    return result if m >= 0 else result.inverse()


def _quantum_int_by_products(n, q):
    """[n] as the sum of q^(n-1-2k), k < n, the powers multiplied out by q^-2 in turn."""
    if n < 0:
        return -_quantum_int_by_products(-n, q)
    total, power, step = CycloNum.rational(0), _power_by_products(q, n - 1), _power_by_products(q, -2)
    for _ in range(n):
        total, power = total + power, power * step
    return total


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12, 13, 66])
def test_table_read_powers_match_products(order):
    # powers of zeta^j and quantum integers at q = zeta^j are read from the
    # power table; they equal the multiplied-out values, field order included
    for j in (1, 5, order - 1):
        if math.gcd(j, order) != 1 and order > 1:
            continue
        q = CycloNum.zeta(order, j)
        for m in range(-order - 2, order + 3):
            assert _exact(q ** m) == _exact(_power_by_products(q, m)), (order, j, m)
            assert _exact(quantum_int(m, q)) == _exact(_quantum_int_by_products(m, q)), (order, j, m)
    assert _exact(CycloNum.zeta(order) ** 0) == (1, (1,), 1)
    w = CycloNum.zeta(order) * 2 + 1  # not a root of unity: the products path
    for m in range(-3, 4):
        assert _exact(w ** m) == _exact(_power_by_products(w, m)), (order, m)
        assert _exact(quantum_int(m, w)) == _exact(_quantum_int_by_products(m, w)), (order, m)


def _run_python(code: str, *flags: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    return out.stdout


def test_runtime_never_imports_mpmath():
    # signs are decided in integer arithmetic, so the package runs with mpmath
    # blocked: reproduce --all matches every golden and a level-11 solve
    # prints its frozen output
    manifest = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "manifest.json"
    frozen = json.loads(manifest.read_text())["ops"]["rmatrix_solve_level_11_embedding_3"]
    out = _run_python(
        "import contextlib, hashlib, io, sys\n"
        "sys.modules['mpmath'] = None\n"
        "import qtoledo.cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = qtoledo.cli.main(['reproduce', '--all'])\n"
        "print(code, buf.getvalue().split().count('ok'))\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = qtoledo.cli.main(['rmatrix', 'solve', '--level', '11', '--embedding', '3'])\n"
        "print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())\n")
    assert out == f"0 6\n0 {frozen['stdout_sha256']}\n"


def test_cli_starts_on_only_the_standard_library_it_uses():
    # importing qtoledo.cli loads every layer; none of them may pull in these
    # modules, each of which costs start-up time, and the last three are not
    # dependencies of the package.  -S keeps site hooks that
    # import some of them from hiding a regression.
    heavy = ("dataclasses", "inspect", "typing", "pathlib", "importlib.resources", "mpmath", "sympy",
             "numpy")
    layers = ("embedding", "cyclotomic", "realbounds", "linalg", "elimination", "hermitian", "fusion",
              "qrep", "torus", "rmatrix", "mgnclasses", "eulerchi", "tables", "cli")
    out = _run_python(
        "import qtoledo.cli, sys\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
        f"print([m for m in {layers!r} if 'qtoledo.' + m not in sys.modules])\n",
        "-S")
    assert out == "[]\n[]\n"


LAYERS = ("embedding", "cyclotomic", "realbounds", "linalg", "elimination", "hermitian", "fusion",
          "qrep", "torus", "rmatrix", "mgnclasses", "eulerchi")


def _imports_of_cli_run(*argv: str) -> tuple[list, list]:
    """(layers and ``tables``, heavy modules) loaded by ``python -S -m qtoledo.cli argv``."""
    out = _run_python(
        "import contextlib, io, json, runpy, sys\n"
        f"sys.argv = ['qtoledo', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('qtoledo.cli', run_name='__main__')\n"
        "    except SystemExit as e:\n"
        "        assert not e.code, e.code\n"
        f"print(json.dumps([m for m in {LAYERS + ('tables',)!r} if 'qtoledo.' + m in sys.modules]))\n"
        "print(json.dumps([m for m in ('fractions', 'decimal', 'random') if m in sys.modules]))\n",
        "-S")
    layers, heavy = out.splitlines()
    return json.loads(layers), json.loads(heavy)


def test_each_cli_call_imports_only_the_layers_it_uses(tmp_path):
    # run as a script, a subcommand imports its layers inside its function
    assert _imports_of_cli_run("--help") == ([], [])
    # a torus representation needs no qrep, no elimination and no cosine bounds
    torus = ["embedding", "cyclotomic", "linalg", "torus"]
    layers, heavy = _imports_of_cli_run("qrep", "torus", "--level", "5", "--i", "1")
    assert layers == torus and "random" not in heavy
    assert _imports_of_cli_run("qrep", "torus", "--level", "13", "--embedding", "1", "--i", "0")[0] == torus
    layers, _ = _imports_of_cli_run("rmatrix", "solve", "--level", "5")
    assert not {"mgnclasses", "eulerchi", "tables"} & set(layers)
    # every block of (9, 2) and (11, 5) is definite, so tau_{0,4} and tau_{1,1}
    # are read from residues and no field arithmetic is loaded
    definite = ["embedding", "linalg", "elimination", "fusion", "qrep", "rmatrix"]
    assert _imports_of_cli_run("rmatrix", "solve", "--level", "9", "--embedding", "2")[0] == definite
    assert _imports_of_cli_run("rmatrix", "solve", "--level", "11", "--embedding", "5")[0] == definite
    # (9, 1) has indefinite torus blocks, whose exact pass needs the field and
    # certified signs of irrational pivots
    exact = ["embedding", "cyclotomic", "realbounds", "linalg", "elimination", "hermitian"]
    assert _imports_of_cli_run("rmatrix", "solve", "--level", "9", "--embedding", "1")[0] == [
        *exact, "fusion", "qrep", "torus", "rmatrix"]
    # every torus block reproduce touches is definite or two-colored, read from residues
    assert _imports_of_cli_run("reproduce", "--all")[0] == [
        "embedding", "linalg", "elimination", "fusion", "qrep", "rmatrix", "mgnclasses", "eulerchi",
        "tables"]
    # a two-color indefinite block is a triangle area: no field module either
    assert _imports_of_cli_run("qrep", "tau11", "--level", "7", "--embedding", "1", "--i", "1")[0] == [
        "embedding", "qrep"]
    # a block of three gluing colors runs the exact pass
    assert _imports_of_cli_run("qrep", "tau11", "--level", "9", "--embedding", "1", "--i", "1")[0] == [
        *exact, "qrep", "torus"]
    # the moduli-space calls: Euler characteristics and a class from a file need no algebra
    assert _imports_of_cli_run("euler", "chibar", "--g", "1", "--n", "2")[0] == ["embedding", "eulerchi"]
    path = tmp_path / "class13.json"
    path.write_text('{"g": 1, "n": 3, "coeffs": {"psi_1": "1", "psi_2": "1", "psi_3": "1"}}')
    assert _imports_of_cli_run("classes", "reduce", "--class", str(path))[0] == ["embedding", "mgnclasses"]
    classes = [*definite, "mgnclasses"]
    assert _imports_of_cli_run("classes", "check", "--case", "1,3")[0] == classes
    assert _imports_of_cli_run("rmatrix", "class", "--level", "5", "--g", "1", "--n", "3")[0] == classes


def test_rational_linear_algebra_loads_no_field():
    # Fraction matrices stay on linalg's own integer and Bareiss paths
    out = _run_python(
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from qtoledo import elimination, linalg\n"
        "a = ((F(1, 2), F(3)), (F(-2, 3), F(5, 7)))\n"
        "print(elimination.solve(a, (F(1), F(2))))\n"
        "print(linalg.mat_mul(a, a))\n"
        "print(repr(elimination.determinant(a)), elimination.kernel_basis(((F(1), F(2)),)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('qtoledo.')))\n",
        "-S")
    assert out.splitlines() == [
        "[Fraction(-74, 33), Fraction(70, 99)]",
        "((Fraction(-7, 4), Fraction(51, 14)), (Fraction(-17, 21), Fraction(-73, 49)))",
        "Fraction(33, 14) [(Fraction(-2, 1), Fraction(1, 1))]",
        "['qtoledo._record', 'qtoledo.elimination', 'qtoledo.embedding', 'qtoledo.linalg']",
    ]


# the public names of the package, each with the layer that defines it
PUBLIC = {
    "cyclotomic": ("CycloNum", "conjugate", "cyclotomic_polynomial", "galois", "quantum_int",
                   "sign_real"),
    "embedding": ("Embedding",),
    "eulerchi": ("ChiPoly", "chi_bar", "chi_twisted", "harer_zagier"),
    "fusion": ("FrobeniusAlgebra", "gluing_checks", "signature_table", "so3_algebra",
               "su2_algebra", "unitary_partner"),
    "hermitian": ("HermMatrix", "IsometryWithForm", "Signature", "eigen_split", "g_function",
                  "meyer_cocycle", "signature", "toledo_triangle_meyer"),
    "mgnclasses": ("H2Class", "canonical_class", "elliptic_pullback", "intersect", "reduce_class",
                   "uniformization_check"),
    "qrep": ("four_point_toledo", "tau_11", "toledo_triangle_pu11"),
    "rmatrix": ("R1Matrix", "appendixB_crosscheck", "degree2_class", "solve_level", "solve_r1",
                "tau_from_r1_04", "tau_from_r1_11"),
    "torus": ("PuncturedTorusRep", "punctured_torus_rep"),
}


def test_package_resolves_each_public_name_in_its_layer():
    import importlib

    import qtoledo

    names = {name for layer_names in PUBLIC.values() for name in layer_names}
    for layer, layer_names in PUBLIC.items():
        module = importlib.import_module(f"qtoledo.{layer}")
        for name in layer_names:
            assert getattr(qtoledo, name) is getattr(module, name), (layer, name)
    assert qtoledo.signature is qtoledo.hermitian.signature
    assert qtoledo.HermMatrix is qtoledo.linalg.HermMatrix is qtoledo.hermitian.HermMatrix
    # names that moved out of a layer are still bound there, as the same objects
    assert qtoledo.Embedding is qtoledo.cyclotomic.Embedding
    assert qtoledo.PuncturedTorusRep is qtoledo.qrep.PuncturedTorusRep
    assert qtoledo.qrep.punctured_torus_rep is qtoledo.torus.punctured_torus_rep
    assert qtoledo.qrep.mat_mul is qtoledo.torus.mat_mul is qtoledo.linalg.mat_mul
    star = {}
    exec("from qtoledo import *", star)
    del star["__builtins__"]
    assert set(star) == set(qtoledo.__all__) == names
    assert names <= set(dir(qtoledo))
    with pytest.raises(AttributeError, match="no_such_name"):
        qtoledo.no_such_name
    # a bare import loads no layer; reading a name, or a layer as an attribute,
    # loads that layer and what it imports
    out = _run_python(
        "import sys, qtoledo\n"
        "print(sorted(m for m in sys.modules if m.startswith('qtoledo.')))\n"
        "qtoledo.signature\n"
        "print(sorted(m for m in sys.modules if m.startswith('qtoledo.')))\n"
        "print(qtoledo.eulerchi.chi_bar is qtoledo.chi_bar)\n",
        "-S")
    assert out == ("[]\n['qtoledo._record', 'qtoledo.cyclotomic', 'qtoledo.elimination', 'qtoledo.embedding',"
                   " 'qtoledo.hermitian', 'qtoledo.linalg']\nTrue\n")
