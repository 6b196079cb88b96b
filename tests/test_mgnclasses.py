import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles

from qtoledo.mgnclasses import (
    KAPPA1,
    POINT,
    RELATIONS,
    H2Class,
    _allowed_labels,
    canonical_class,
    canonical_separating_label,
    class_from_json,
    delta_total,
    elliptic_pullback,
    intersect,
    psi_sum,
    reduce_class,
    separating_labels,
    uniformization_check,
)

F = Fraction

SPACES = [(0, 4), (1, 1), (0, 5), (1, 2), (1, 3), (2, 1)]


def test_separating_labels():
    assert separating_labels(0, 4) == [("delta", 0, (1, 2)), ("delta", 0, (1, 3)), ("delta", 0, (1, 4))]
    assert separating_labels(1, 1) == []
    assert ("delta", 1, ()) in separating_labels(2, 1)
    assert len(separating_labels(0, 5)) == 10


def test_canonical_label_identifies_complements():
    a = canonical_separating_label(2, 0, 1, ())
    b = canonical_separating_label(2, 0, 1, ())
    assert a == b
    assert canonical_separating_label(1, 2, 1, ()) == canonical_separating_label(1, 2, 0, (1, 2))
    with pytest.raises(ValueError):
        canonical_separating_label(1, 2, 0, (1,))


def test_invalid_label_rejected():
    with pytest.raises(ValueError):
        H2Class(1, 1, {("delta", 1, ()): F(1)})


def test_label_caches_hand_out_fresh_lists_and_keep_every_check():
    first = separating_labels(0, 5)
    want = list(first)
    first.clear()
    first.append(("delta", 9, (9,)))
    assert separating_labels(0, 5) == want
    assert separating_labels(0, 5) is not separating_labels(0, 5)
    # every cache warm: the labels and the allowed set of (1, 1) and (0, 4)
    H2Class(1, 1, {("psi", 1): F(1)})
    H2Class(0, 4, {("delta", 0, (1, 2)): F(1)})
    for g, n, label in ((1, 1, ("delta", 1, ())), (0, 4, ("delta", 0, (1,))),
                        (0, 4, ("delta", 0, (2, 1))), (0, 4, ("psi", 5)), (1, 1, ("lambda2",))):
        with pytest.raises(ValueError, match="not valid on moduli"):
            H2Class(g, n, {label: F(1)})
    with pytest.raises(ValueError, match="not valid on moduli"):
        H2Class(0, 5, {("delta", 9, (9,)): F(1)})


@pytest.mark.parametrize("g, n, coeffs", [(-3, -1, {("kappa1",): F(1)}),
                                          (0, 2, {("psi", 1): F(1)}),
                                          (1, 0, None)])
def test_unstable_moduli_are_refused_before_any_label_is_cached(g, n, coeffs):
    cached = _allowed_labels.cache_info().currsize
    want = (f"genus and number of points must be nonnegative, got ({g},{n})" if min(g, n) < 0
            else f"unstable moduli space ({g},{n})")
    with pytest.raises(ValueError) as err:
        H2Class(g, n, coeffs)
    assert str(err.value) == want
    assert _allowed_labels.cache_info().currsize == cached


def test_classes_compare_unequal_to_other_types():
    x = H2Class(0, 4)
    assert (x == None) is False and (x != None) is True  # noqa: E711
    assert x != 0 and x != "delta" and x != {}
    assert x == H2Class(0, 4, {("psi", 1): F(0)})
    assert x != H2Class(1, 2) and x != H2Class(0, 4, {("psi", 1): F(1)})
    with pytest.raises(TypeError, match="unhashable type: 'H2Class'"):
        hash(x)


def test_linear_structure():
    x = H2Class(1, 2, {("psi", 1): F(1, 2)})
    y = H2Class(1, 2, {("psi", 1): F(1, 2), ("delta_irr",): F(3)})
    assert (x + y).coefficient("psi", 1) == 1
    assert (x - x).is_zero()
    assert H2Class(1, 2).is_zero() and H2Class(1, 2) == x - x
    assert x.scale(4).coefficient("psi", 1) == 2


def test_kappa_basis_round_trip():
    # kappa_1 = kappa_tilde + sum(psi_i), so 5 kappa_1 - 4 psi_1 = 5 kappa_tilde + psi_1
    x = H2Class(2, 1, {("kappa1_tilde",): F(5), ("psi", 1): F(1)})
    y = H2Class(2, 1, {("kappa1",): F(5), ("psi", 1): F(-4)})
    assert y.in_kappa_tilde_basis() == x


def test_canonical_class_values():
    # level 1 reduces to (13/12) kt - (11/12) delta + psi
    k1 = canonical_class(1, 2, 1)
    assert k1.coefficient("kappa1_tilde") == F(13, 12)
    assert k1.coefficient("delta_irr") == F(-11, 12)
    # the level-5 twist shifts every boundary coefficient by 4/5
    k5 = canonical_class(5, 2, 1)
    diff = k5 - k1
    assert diff.coefficient("delta_irr") == F(4, 5)
    assert diff.coefficient("delta", 1, ()) == F(4, 5)
    assert diff.coefficient("psi", 1) == 0
    # large level: boundary coefficient approaches 1/12
    k_large = canonical_class(12000, 2, 1)
    assert abs(k_large.coefficient("delta_irr") - F(1, 12)) == F(1, 12000)


def test_canonical_class_0_5():
    reduced = reduce_class(canonical_class(5, 0, 5))
    assert reduced.coefficient("psi_total") == F(1, 5)


def test_elliptic_pullback_values():
    assert reduce_class(elliptic_pullback(1, 2)).coeffs == {
        ("delta_irr",): F(1, 20),
        canonical_separating_label(1, 2, 1, ()): F(3, 5),
    }
    e13 = reduce_class(elliptic_pullback(1, 3))
    assert e13.coefficient("delta_irr") == F(2, 15)
    assert e13.coeffs[canonical_separating_label(1, 3, 1, ())] == F(8, 5)
    for i in (1, 2, 3):
        assert e13.coeffs[canonical_separating_label(1, 3, 1, (i,))] == F(4, 5)
    e21 = reduce_class(elliptic_pullback(2, 1))
    assert e21.coefficient("psi", 1) == 1
    assert e21.coefficient("delta_irr") == F(1, 10)
    assert e21.coeffs[canonical_separating_label(2, 1, 1, ())] == F(6, 5)
    with pytest.raises(ValueError):
        elliptic_pullback(2, 0)


def test_reduce_is_linear_and_idempotent():
    x = canonical_class(5, 1, 2)
    y = H2Class(1, 2, {("psi", 1): F(1), ("psi", 2): F(2)})
    rx, ry = reduce_class(x), reduce_class(y)
    assert reduce_class(x + y) == rx + ry
    assert reduce_class(rx) == rx
    assert reduce_class(reduce_class(y)) == reduce_class(y)


def test_reduce_0_5_relation_consistency():
    # expanding kappa1 via kappa1 = delta/2 and delta = (2/3) psi agree
    kappa = H2Class(0, 5, {("kappa1",): F(1)})
    via_delta = delta_total(0, 5).scale(F(1, 2))
    assert reduce_class(kappa) == reduce_class(via_delta)
    psi = psi_sum(0, 5)
    assert reduce_class(delta_total(0, 5)) == reduce_class(psi.scale(F(2, 3)))


def test_reduce_1_1():
    cls = H2Class(1, 1, {("kappa1",): F(1)})
    assert reduce_class(cls).coefficient("psi", 1) == 1
    assert reduce_class(H2Class(1, 1, {("delta_irr",): F(1)})).coefficient("psi", 1) == 12
    assert reduce_class(H2Class(1, 1, {("kappa1_tilde",): F(7)})).is_zero()


def test_reduce_unsupported():
    with pytest.raises(ValueError):
        reduce_class(H2Class(3, 2, {("psi", 1): F(1)}))


def test_intersections():
    psi = psi_sum(0, 5)
    assert intersect(psi, psi) == 45
    tail = H2Class(1, 2, {canonical_separating_label(1, 2, 1, ()): F(1)})
    irr = H2Class(1, 2, {("delta_irr",): F(1)})
    assert intersect(tail, tail) == F(-1, 24)
    assert intersect(tail, irr) == F(1, 2)
    assert intersect(irr, irr) == 0
    with pytest.raises(ValueError):
        intersect(psi_sum(1, 3), psi_sum(1, 3))


def test_json_round_trip():
    cls = H2Class(1, 2, {("psi", 1): F(2, 3), ("delta_irr",): F(-1, 5),
                         canonical_separating_label(1, 2, 1, ()): F(7)})
    assert class_from_json(cls.to_json()) == cls


@pytest.mark.parametrize("case", [(0, 5), (1, 2), (1, 3), (2, 1)])
def test_uniformization_checks(case):
    report = uniformization_check(case)
    assert report["passed"], report["checks"]


def test_relation_table_has_an_image_for_every_admitted_label():
    assert set(RELATIONS) == set(SPACES)
    for g, n in SPACES:
        # kappa_1 is rewritten in the kappa-tilde basis before the table is read
        assert set(RELATIONS[g, n].images) == _allowed_labels(g, n) - {(KAPPA1,)}, (g, n)
        assert ((POINT,) in _allowed_labels(g, n)) == ((g, n) in {(0, 4), (1, 1)})


def _symmetric_groups(g, n):
    psi = [("psi", i) for i in range(1, n + 1)]
    if (g, n) == (0, 5):
        return [psi, separating_labels(0, 5)]
    if (g, n) == (1, 3):
        return [psi, [label for label in separating_labels(1, 3) if len(label[2]) == 2]]
    return []


@st.composite
def _classes_on(draw, space):
    g, n = space
    # the reference drops `point` on every space but (0,4); only (1,1) still admits it
    labels = sorted(_allowed_labels(g, n) - ({(POINT,)} if space != (0, 4) else set()))
    values = st.one_of(st.just(F(0)), st.builds(F, st.integers(-20, 20), st.integers(1, 12)))
    coeffs = {label: draw(values) for label in labels}
    for group in _symmetric_groups(g, n):
        if draw(st.booleans()):
            coeffs.update(dict.fromkeys(group, coeffs[group[0]]))
    return H2Class(g, n, coeffs)


def _outcome(func, *args):
    try:
        return repr(func(*args))
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPACES).flatmap(lambda space: st.tuples(_classes_on(space), _classes_on(space))))
def test_reduction_and_pairing_agree_with_the_branch_by_branch_reference(pair):
    x, y = pair
    # repr shows the order of the reduced coordinates, which the uniformization golden prints
    assert _outcome(reduce_class, x) == _outcome(oracles.reduce_class, x)
    assert _outcome(intersect, x, y) == _outcome(oracles.intersect, x, y)


@pytest.mark.parametrize("g, n, group, what", [
    (0, 5, [("psi", 1)], "psi"),
    (0, 5, [("delta", 0, (1, 2))], "boundary"),
    (1, 3, [("psi", 2)], "psi"),
    (1, 3, [("delta", 0, (1, 3))], "delta_{1,{i}}"),
])
def test_reduction_refuses_an_asymmetric_group(g, n, group, what):
    cls = H2Class(g, n, dict.fromkeys(group, F(1)))
    with pytest.raises(ValueError, match=rf"^reduction needs symmetric {re.escape(what)} coefficients$"):
        reduce_class(cls)
    # the psi group is checked first, so an asymmetric psi hides an asymmetric boundary
    both = cls + H2Class(g, n, {("psi", 1): F(1), ("delta", 0, (1, 2)): F(1)})
    with pytest.raises(ValueError, match=r"^reduction needs symmetric psi coefficients$"):
        reduce_class(both)


def test_point_is_the_class_of_integral_one_on_a_curve():
    # on (1,1) psi_1 integrates to 1/24, so the point class is 24 psi_1
    assert reduce_class(H2Class(1, 1, {("point",): F(1)})) == H2Class(1, 1, {("psi", 1): F(24)})
    assert reduce_class(H2Class(0, 4, {("point",): F(3, 7)})).coefficient("point") == F(3, 7)
    for g, n in SPACES[2:]:
        with pytest.raises(ValueError, match=rf"^label \('point',\) not valid on moduli \({g},{n}\)$"):
            H2Class(g, n, {("point",): F(1)})


@pytest.mark.parametrize("g, n", SPACES)
def test_json_round_trips_every_admitted_label(g, n):
    labels = sorted(_allowed_labels(g, n))
    for k, label in enumerate(labels):
        cls = H2Class(g, n, {label: F(k + 1, 7)})
        assert class_from_json(cls.to_json()) == cls, label
    every = H2Class(g, n, {label: F(-k - 1, 3) for k, label in enumerate(labels)})
    assert class_from_json(every.to_json()) == every


@pytest.mark.parametrize("g, n, first, second", [(1, 2, "delta_1_{}", "delta_0_{1,2}"),
                                                 (1, 3, "delta_1_{1}", "delta_0_{2,3}")])
def test_json_refuses_two_names_of_one_divisor(g, n, first, second):
    # both name one divisor: keeping the last value would drop the first
    assert class_from_json({"g": g, "n": n, "coeffs": {first: "1"}}) == \
        class_from_json({"g": g, "n": n, "coeffs": {second: "1"}})
    with pytest.raises(ValueError) as err:
        class_from_json({"g": g, "n": n, "coeffs": {first: "1", second: "1"}})
    assert str(err.value) == f"names {first} and {second} give one label on moduli ({g},{n})"


@pytest.mark.parametrize("name, subset", [("delta_1_{1,1}", "(1, 1)"), ("delta_1_{7}", "(7,)")])
def test_json_refuses_a_boundary_name_with_a_repeated_or_missing_point(name, subset):
    # read as points, (1,1) would leave the complement (2,3) and (7) the tail delta_{0,{1,2,3}}
    with pytest.raises(ValueError) as err:
        class_from_json({"g": 1, "n": 3, "coeffs": {name: "1"}})
    assert str(err.value) == f"boundary label (1,{subset}) names no distinct points of 1..3 on moduli (1,3)"


@pytest.mark.parametrize("case", [(0, 4), [0, 4]])
def test_uniformization_check_names_the_space_whatever_its_type(case):
    with pytest.raises(ValueError) as err:
        uniformization_check(case)
    assert str(err.value) == "no uniformization statement for (0,4)"


def test_json_refuses_an_unstable_space_before_reading_a_boundary_name():
    with pytest.raises(ValueError) as err:
        class_from_json({"g": 0, "n": 2, "coeffs": {"delta_0_{1}": "1"}})
    assert str(err.value) == "unstable moduli space (0,2)"


@pytest.mark.parametrize("name", ["psi_totally", "delta_irrational", "psi_1x", "psi_01", "delta_0_{1,2}x",
                                  "delta_0_1,2", "kappa", "point"])
def test_json_names_are_read_exactly(name):
    with pytest.raises(ValueError, match=r"not valid on moduli \(1,2\)$"):
        class_from_json({"g": 1, "n": 2, "coeffs": {name: "1/1"}})
