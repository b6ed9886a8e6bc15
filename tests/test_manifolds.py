import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from supersdet import manifolds as mf
from supersdet import terms


# ---------------------------------------------------------------------------
# builtins and the signature check
# ---------------------------------------------------------------------------

EXPECTED = {
    "cp2": 1,
    "cp4": 1,
    "hp2": 1,
    "k3": -16,
    "cp2xcp2": 1,
    "k3xcp2": -16,
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_builtin_l_genus_equals_signature(name):
    manifold = mf.builtin(name)
    genus = mf.l_genus(manifold)
    assert genus == EXPECTED[name]
    assert genus == manifold.signature


def test_builtin_ring_models_validate():
    for name in ("cp2", "cp4", "hp2", "k3", "cp2xcp2"):
        model = mf.builtin(name)
        assert isinstance(model, mf.CohomologyModel)
        model.validate()
        # every builtin document records its oracle computation
        assert json.loads(resources.files("supersdet.data").joinpath(f"{name}.json")
                          .read_text())["provenance"]


def test_specific_pontryagin_numbers():
    cp2 = mf.builtin("cp2")
    assert cp2.numbers == {(1,): Fraction(3)}
    hp2 = mf.builtin("hp2")
    assert hp2.numbers == {(2,): Fraction(7), (1, 1): Fraction(4)}
    assert mf.l_genus(hp2) == Fraction(7 * 7 - 4, 45)


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_examples():
    model = mf.builtin("cp2")
    assert mf.pushforward(model.one(), model) == 1
    assert mf.pushforward(model.element("h2"), model) == 1
    assert mf.pushforward(model.element("h"), model) == 0
    assert mf.pushforward({}, model) == 0


@pytest.mark.parametrize("name", ["cp2", "cp4", "hp2", "k3", "cp2xcp2"])
def test_pushforward_of_one_is_the_genus(name):
    model = mf.builtin(name)
    assert mf.pushforward(model.one(), model) == mf.l_genus(model)


def test_pushforward_lowers_degree():
    # only the complementary-degree part of the signature class can pair:
    # for a degree-2 class on a 4-manifold nothing survives
    model = mf.builtin("cp4")
    assert mf.pushforward(model.element("h"), model) == 0
    assert mf.pushforward(model.element("h3"), model) == 0
    # degree 4 pairs with the weight-1 part: <h^2 (1 + p1/3 + ...)> = <h^2 * 5h^2/3>
    assert mf.pushforward(model.element("h2"), model) == Fraction(5, 3)


def _hand_written_l_class(model):
    """The weight parts L_0 = 1, L_1 = p1/3, L_2 = (7 p2 - p1^2)/45 in the ring."""
    p1 = model.pontryagin_classes.get(1, {})
    p2 = model.pontryagin_classes.get(2, {})
    return [model.one(), terms.scale(p1, Fraction(1, 3)),
            terms.add(terms.scale(p2, Fraction(7, 45)),
                      terms.scale(model.multiply(p1, p1), Fraction(-1, 45)))]


@pytest.mark.parametrize("name", ["cp2", "cp4", "hp2", "k3", "cp2xcp2"])
def test_pushforward_pairs_each_degree_with_its_l_weight(name):
    # <s . L, [M]> = sum over w of <s_{dim - 4w} . L_w, [M]>, with L written by hand
    model = mf.builtin(name)
    L = _hand_written_l_class(model)
    rng = random.Random(f"pushforward-{name}")

    def random_class():
        return {b: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for b, _d in model.basis}

    for trial in range(10):
        s, t = random_class(), random_class()
        expected = sum(model.integrate(model.multiply(
            {b: c for b, c in s.items() if model.degree[b] == model.dimension - 4 * w}, L[w]))
            for w in range(model.dimension // 4 + 1))
        assert mf.pushforward(s, model) == expected, (name, trial)
        a, b = Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5)
        combination = terms.add(terms.scale(s, a), terms.scale(t, b))
        assert mf.pushforward(combination, model) == \
            a * mf.pushforward(s, model) + b * mf.pushforward(t, model), (name, trial)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

FACTORS = {"k3xcp2": ("k3", "cp2"), "cp2xcp2": ("cp2", "cp2")}


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_product_numbers_follow_whitney(name):
    # for 4-manifolds p(M x N) = (1 + p1(M))(1 + p1(N)), so p1 = p1(M) + p1(N)
    # and p2 = p1(M) p1(N); only the cross term of p1^2 reaches [M] x [N]:
    # <p1^2> = 2 p1[M] p1[N] and <p2> = p1[M] p1[N]
    M, N = (mf.builtin(factor) for factor in FACTORS[name])
    a, b = M.numbers[(1,)], N.numbers[(1,)]
    product = mf.builtin(name)  # shipped numbers, or a ring's own
    assert product.numbers == {(1, 1): 2 * a * b, (2,): a * b}
    assert product.signature == M.signature * N.signature
    assert mf.l_genus(product) == mf.l_genus(M) * mf.l_genus(N) == product.signature


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_load_rejects_bad_dimension():
    with pytest.raises(mf.ManifoldParseError):
        mf.load_manifold({"name": "x", "dimension": 6, "kind": "pontryagin_numbers",
                          "signature": 0, "pontryagin_numbers": {}})


def test_load_rejects_malformed_degree():
    document = {
        "name": "bad", "dimension": 4, "kind": "cohomology_model", "signature": 0,
        "basis": [{"name": "1", "degree": 0}, {"name": "v", "degree": "four"}],
        "fundamental": "v", "pontryagin_classes": {},
    }
    with pytest.raises(mf.ManifoldParseError) as err:
        mf.load_manifold(document)
    assert "degree" in str(err.value)


def test_load_rejects_nonassociative_products():
    document = {
        "name": "bad", "dimension": 8, "kind": "cohomology_model", "signature": 0,
        "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 2},
                  {"name": "y", "degree": 4}, {"name": "t", "degree": 8}],
        "products": [
            {"left": "x", "right": "x", "result": [{"basis": "y", "coeff": 1}]},
            {"left": "x", "right": "y", "result": []},
            {"left": "y", "right": "y", "result": [{"basis": "t", "coeff": 1}]},
        ],
        "fundamental": "t", "pontryagin_classes": {},
    }
    # (x x) y = y y = t but x (x y) = 0: associativity must fail
    with pytest.raises(mf.ManifoldValidationError) as err:
        mf.load_manifold(document)
    assert "associativity" in str(err.value)


def test_graded_commutativity_enforced():
    document = {
        "name": "bad", "dimension": 4, "kind": "cohomology_model", "signature": 0,
        "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 2},
                  {"name": "t", "degree": 4}],
        "products": [
            {"left": "x", "right": "x", "result": [{"basis": "t", "coeff": 1}]},
            # explicit inconsistent transpose entry
        ],
        "fundamental": "t", "pontryagin_classes": {},
    }
    model = mf.load_manifold(document)  # consistent: symmetric closure
    document["products"].append(
        {"left": "x", "right": "t", "result": []})
    document["products"].append(
        {"left": "t", "right": "x", "result": []})
    mf.load_manifold(document)  # still fine


def test_missing_partition_is_rejected():
    # a missing number would otherwise enter l_genus as 0 and give a wrong genus
    with pytest.raises(mf.ManifoldParseError, match="missing p1\\^2"):
        mf.PontryaginData("stub", 8, {(2,): Fraction(45, 7)}, Fraction(1))
    with pytest.raises(mf.ManifoldParseError, match="missing 1"):
        mf.PontryaginData("point", 0, {}, Fraction(1))


@pytest.mark.parametrize("degree", [-2, 6])
def test_basis_degree_outside_the_ring_is_rejected(degree):
    # a class outside degrees 0..dimension would pair with the fundamental class
    # through products that no manifold has
    document = _cp2_document()
    document["basis"].append({"name": "a", "degree": degree})
    with pytest.raises(mf.ManifoldValidationError,
                       match=f"cp2: basis class 'a' has degree {degree} outside 0\\.\\.4"):
        mf.load_manifold(document)


def test_shipped_numbers_must_match_ring():
    raw = json.loads(
        '{"name": "cp2", "dimension": 4, "kind": "cohomology_model", "signature": 1,'
        '"basis": [{"name": "1", "degree": 0}, {"name": "h", "degree": 2},'
        '{"name": "h2", "degree": 4}],'
        '"products": [{"left": "h", "right": "h", "result": [{"basis": "h2", "coeff": 1}]}],'
        '"fundamental": "h2",'
        '"pontryagin_classes": {"p1": [{"basis": "h2", "coeff": 3}]},'
        '"pontryagin_numbers": {"p1": 4}}')
    with pytest.raises(mf.ManifoldValidationError, match="shipped Pontryagin numbers"):
        mf.load_manifold(raw)


@pytest.mark.parametrize("basis, products", [
    ([("1", 0), ("h", 2), ("h", 2), ("h2", 4)], {("h", "h"): {"h2": Fraction(1)}}),
    ([("1", 0), ("h", 2), ("h2", 4)],
     {("h", "h"): {"h2": Fraction(1)}, ("1", "1"): {"1": Fraction(3)}}),
    ([("1", 0), ("h", 2), ("h2", 4)],
     {("h", "h"): {"h2": Fraction(1)}, ("h", "1"): {"h": Fraction(1)}}),
], ids=["basis-name-repeated", "unit-times-unit", "unit-on-the-right"])
def test_directly_built_model_keeps_the_ring_rules(basis, products):
    with pytest.raises(mf.ManifoldParseError):
        mf.CohomologyModel("cp2", 4, basis, products, "h2", {1: {"h2": Fraction(3)}}, 1)


def test_partitions_of():
    assert mf.partitions_of(0) == [()]
    assert mf.partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_key_parsing():
    assert mf.parse_partition_key("p1") == (1,)
    assert mf.parse_partition_key("p1^2") == (1, 1)
    assert mf.parse_partition_key("p1*p2") == (2, 1)
    assert mf.partition_key((2, 1, 1)) == "p1^2*p2"
    with pytest.raises(mf.ManifoldParseError):
        mf.parse_partition_key("q3")


def test_parse_class_expressions():
    model = mf.builtin("cp2")
    assert mf.parse_class("1", model) == model.one()
    assert mf.parse_class("h^2", model) == model.element("h2")
    combo = mf.parse_class("1 + 2*h^2", model)
    assert combo == terms.add(model.one(), terms.scale(model.element("h2"), Fraction(2)))
    assert mf.parse_class("1/2 * h", model) == terms.scale(model.element("h"), Fraction(1, 2))
    with pytest.raises(mf.ManifoldParseError):
        mf.parse_class("nope", model)


def test_power_stops_at_the_first_zero_power(monkeypatch):
    model = mf.builtin("cp2")
    calls = []
    original = mf.CohomologyModel.multiply

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(mf.CohomologyModel, "multiply", counting)
    assert mf.parse_class("h^1000", model) == {}
    assert len(calls) <= 3


def test_l_genus_of_the_point():
    point = mf.PontryaginData("pt", 0, {(): Fraction(1)}, Fraction(1))
    assert mf.l_genus(point) == 1


def _cp2_document():
    return json.loads(resources.files("supersdet.data").joinpath("cp2.json").read_text())


def test_listed_zero_coefficient_is_dropped():
    document = _cp2_document()
    document["products"][0]["result"].append({"basis": "h", "coeff": 0})
    model = mf.load_manifold(document)  # h*h and its transpose agree
    assert model.multiply(model.element("h"), model.element("h")) == model.element("h2")


def test_repeated_basis_coefficients_add():
    document = _cp2_document()
    document["pontryagin_classes"]["p1"] = [{"basis": "h2", "coeff": 1},
                                            {"basis": "h2", "coeff": 2}]
    data = mf.load_manifold(document)
    assert data.numbers[(1,)] == 3
    assert mf.l_genus(data) == 1
