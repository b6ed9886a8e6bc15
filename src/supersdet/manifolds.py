"""Cohomological manifold models: Pontryagin numbers, finite ring models with
a fundamental-class functional, the signature genus, and the pushforward that
integrates a class against the total signature class.

Manifolds enter as cohomological data only; builtin examples ship as JSON
documents under data/ together with a provenance note naming the classical
computation that produced their characteristic numbers.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import terms
from .series import GradedPolynomial, l_class

Partition = Tuple[int, ...]  # parts sorted descending


class ManifoldParseError(ValueError):
    """Schema violation in a manifold document; the message carries the path."""


class ManifoldValidationError(ValueError):
    """Structural invariant violation (grading, commutativity, associativity)."""


_PART_KEY = re.compile(r"^p(\d+)(?:\^(\d+))?$")


def parse_partition_key(key: str) -> Partition:
    """Keys like "p1", "p1^2", "p1*p2" name monomials in Pontryagin classes;
    the partition collects the indices with multiplicity."""
    parts: List[int] = []
    for factor in key.split("*"):
        m = _PART_KEY.match(factor.strip())
        if not m:
            raise ManifoldParseError(f"pontryagin_numbers key {key!r}: bad factor {factor!r}")
        idx = int(m.group(1))
        mult = int(m.group(2) or 1)
        if idx == 0 or mult == 0:
            raise ManifoldParseError(f"pontryagin_numbers key {key!r}: zero in factor {factor!r}")
        parts.extend([idx] * mult)
    return tuple(sorted(parts, reverse=True))


def partition_key(partition: Partition) -> str:
    counts: Dict[int, int] = {}
    for p in partition:
        counts[p] = counts.get(p, 0) + 1
    bits = []
    for idx in sorted(counts):
        mult = counts[idx]
        bits.append(f"p{idx}" + (f"^{mult}" if mult > 1 else ""))
    return "*".join(bits)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce_number(value, path: str) -> Fraction:
    if _is_integer(value):
        return Fraction(value)
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        num, den = value["num"], value["den"]
        if not (_is_integer(num) and _is_integer(den)) or den == 0:
            raise ManifoldParseError(f"{path}: num and den must be integers, den nonzero")
        return Fraction(num, den)
    raise ManifoldParseError(f"{path}: expected an integer or {{num, den}}")


def _weight(name: str, dimension: int) -> int:
    if dimension % 4 != 0 or dimension < 0:
        raise ManifoldParseError(f"{name}: dimension must be a nonnegative multiple of 4")
    return dimension // 4


class PontryaginData(terms.Record):
    """Pontryagin numbers of a closed oriented 4k-manifold: one for every
    partition of dimension/4, as the pontryagin_numbers of its document."""

    __slots__ = ("name", "dimension", "numbers", "signature")

    def __init__(self, name: str, dimension: int, numbers: Dict[Partition, Fraction],
                 signature: Fraction):
        self.name, self.dimension, self.numbers, self.signature = \
            name, dimension, numbers, signature
        w = _weight(self.name, self.dimension)
        for partition in self.numbers:
            if sum(partition) != w:
                raise ManifoldParseError(
                    f"{self.name}: partition {partition} does not have weight {w}")
        for partition in partitions_of(w):
            if partition not in self.numbers:
                raise ManifoldParseError("document.pontryagin_numbers: "
                                         f"missing {partition_key(partition) or '1'}")


def _pair(poly: GradedPolynomial, number: Callable[[Partition], Fraction]) -> Fraction:
    """The sum of c * number(lambda) over the monomials c p^e of a polynomial
    in the Pontryagin classes, lambda the partition of e."""
    total = Fraction(0)
    for exps, coeff in poly.coeffs.items():
        partition = tuple(j for j in range(len(exps), 0, -1) for _ in range(exps[j - 1]))
        total += coeff * number(partition)
    return total


def l_genus(M: ManifoldLike) -> Fraction:
    """Pair the signature polynomial L_k with the Pontryagin numbers of a 4k-manifold."""
    k = _weight(M.name, M.dimension)
    return _pair(l_class(max(1, k)).weight_component(k), M.numbers.__getitem__)


def partitions_of(w: int) -> List[Partition]:
    out: List[Partition] = []

    def rec(remaining: int, cap: int, acc: List[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(w, w, [])
    return out


# ---------------------------------------------------------------------------
# ring models
# ---------------------------------------------------------------------------

Element = Dict[str, Fraction]  # basis name -> coefficient


class CohomologyModel:
    """A finite graded-commutative ring with a top-degree functional and
    distinguished Pontryagin classes.  Validation checks grading of the
    structure constants, graded commutativity, associativity on all basis
    triples, and that the functional is supported in the top degree.  Then
    `numbers` holds the ring's Pontryagin numbers, which shipped ones must
    equal, or None in a dimension not divisible by 4."""

    def __init__(self, name: str, dimension: int,
                 basis: Sequence[Tuple[str, int]],
                 products: Dict[Tuple[str, str], Element],
                 fundamental: str,
                 pontryagin_classes: Dict[int, Element],
                 signature: Fraction,
                 numbers: Optional[Dict[Partition, Fraction]] = None):
        self.name = name
        self.dimension = dimension
        self.basis = list(basis)
        self.degree = dict(basis)
        self.products = products
        self.fundamental = fundamental
        self.pontryagin_classes = pontryagin_classes
        self.signature = Fraction(signature)
        self.numbers = numbers
        self.unit = self._find_unit()
        self.validate()

    def _find_unit(self) -> str:
        units = [n for n, d in self.basis if d == 0]
        if len(units) != 1:
            raise ManifoldParseError(f"{self.name}: need exactly one degree-0 basis element")
        return units[0]

    # -- elements

    def element(self, name: str) -> Element:
        if name not in self.degree:
            raise ManifoldParseError(f"{self.name}: unknown basis element {name!r}")
        return {name: Fraction(1)}

    def one(self) -> Element:
        return self.element(self.unit)

    def _basis_product(self, x: str, y: str) -> Element:
        if x == self.unit:
            return {y: Fraction(1)}
        if y == self.unit:
            return {x: Fraction(1)}
        if (x, y) in self.products:
            return self.products[(x, y)]
        if (y, x) in self.products:
            sign = (-1) ** (self.degree[x] * self.degree[y])
            return terms.scale(self.products[(y, x)], Fraction(sign))
        # unspecified products of positive-degree classes vanish (above top degree)
        return {}

    def multiply(self, a: Element, b: Element) -> Element:
        out: Element = {}
        for x, cx in a.items():
            for y, cy in b.items():
                for z, cz in self._basis_product(x, y).items():
                    terms.accumulate(out, z, cx * cy * cz)
        return out

    def power(self, a: Element, k: int) -> Element:
        """a^k by repeated squaring, which stops at the first square that
        vanishes: every later power is zero too."""
        out = self.one()
        while k:
            if k & 1:
                out = self.multiply(out, a)
            k >>= 1
            if k:
                a = self.multiply(a, a)
                if not a:
                    return {}
        return out

    def integrate(self, a: Element) -> Fraction:
        """Pairing with the fundamental class: the top-degree coefficient."""
        return a.get(self.fundamental, Fraction(0))

    def pontryagin_monomial(self, partition: Partition) -> Element:
        """p_lambda: the product of the Pontryagin classes p_j, j in lambda."""
        out = self.one()
        for part in partition:
            out = self.multiply(out, self.pontryagin_classes.get(part, {}))
        return out

    # -- validation

    def validate(self):
        names = [n for n, _d in self.basis]
        if len(set(names)) != len(names):
            raise ManifoldParseError(f"{self.name}: a basis name repeats")
        for name, degree in self.basis:
            if not 0 <= degree <= self.dimension:
                raise ManifoldValidationError(f"{self.name}: basis class {name!r} has "
                                              f"degree {degree} outside 0..{self.dimension}")
        top = self.degree.get(self.fundamental)
        if top != self.dimension:
            raise ManifoldValidationError(
                f"{self.name}: fundamental element must have degree {self.dimension}")
        for (x, y), result in self.products.items():
            dx, dy = self.degree.get(x), self.degree.get(y)
            if dx is None or dy is None:
                raise ManifoldParseError(f"{self.name}: product of unknown basis {x!r},{y!r}")
            if self.unit in (x, y):
                raise ManifoldParseError(f"{self.name}: product {x}*{y} lists the unit")
            for z, c in result.items():
                if self.degree.get(z) is None:
                    raise ManifoldParseError(f"{self.name}: product target {z!r} unknown")
                if c and self.degree[z] != dx + dy:
                    raise ManifoldValidationError(
                        f"{self.name}: product {x}*{y} lands in wrong degree at {z}")
        for x in names:
            for y in names:
                left = self._basis_product(x, y)
                sign = (-1) ** (self.degree[x] * self.degree[y])
                right = terms.scale(self._basis_product(y, x), Fraction(sign))
                if left != right:
                    raise ManifoldValidationError(
                        f"{self.name}: graded commutativity fails on ({x}, {y})")
        for x in names:
            for y in names:
                for z in names:
                    lhs = self.multiply(self._basis_product(x, y), {z: Fraction(1)})
                    rhs = self.multiply({x: Fraction(1)}, self._basis_product(y, z))
                    if lhs != rhs:
                        raise ManifoldValidationError(
                            f"{self.name}: associativity fails on ({x}, {y}, {z})")
        for k, cls in self.pontryagin_classes.items():
            for z, c in cls.items():
                if c and self.degree.get(z) != 4 * k:
                    raise ManifoldValidationError(
                        f"{self.name}: p{k} has a component of wrong degree at {z}")
        if self.numbers is not None or self.dimension % 4 == 0:
            numbers = {partition: self.integrate(self.pontryagin_monomial(partition))
                       for partition in partitions_of(_weight(self.name, self.dimension))}
            if self.numbers is not None and self.numbers != numbers:
                raise ManifoldValidationError(
                    f"{self.name}: shipped Pontryagin numbers disagree with the ring")
            self.numbers = numbers


def pushforward(s: Element, M: CohomologyModel) -> Fraction:
    """Integration against the signature-class-corrected volume:
    < s . L(TX), [X] >.  On the unit it returns the signature genus."""
    return _pair(l_class(max(1, M.dimension // 4)),
                 lambda partition: M.integrate(M.multiply(s, M.pontryagin_monomial(partition))))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

ManifoldLike = Union[PontryaginData, CohomologyModel]


def load_manifold(document: dict) -> ManifoldLike:
    """Validate and build a manifold from its JSON document."""
    if not isinstance(document, dict):
        raise ManifoldParseError("document: expected an object")
    for key in ("name", "dimension", "kind", "signature"):
        if key not in document:
            raise ManifoldParseError(f"document.{key}: missing")
    name = document["name"]
    if not isinstance(name, str):
        raise ManifoldParseError("document.name: expected a string")
    dimension = document["dimension"]
    if not _is_integer(dimension):
        raise ManifoldParseError("document.dimension: expected an integer")
    kind = document["kind"]
    signature = _coerce_number(document["signature"], "document.signature")

    numbers: Optional[Dict[Partition, Fraction]] = None
    if "pontryagin_numbers" in document:
        raw = document["pontryagin_numbers"]
        if not isinstance(raw, dict):
            raise ManifoldParseError("document.pontryagin_numbers: expected an object")
        numbers = {}
        for key, value in raw.items():
            partition = parse_partition_key(key)
            if partition in numbers:
                raise ManifoldParseError(f"document.pontryagin_numbers.{key}: "
                                         f"repeats {partition_key(partition)}")
            numbers[partition] = _coerce_number(value, f"document.pontryagin_numbers.{key}")

    if kind == "pontryagin_numbers":
        if numbers is None:
            raise ManifoldParseError("document.pontryagin_numbers: missing")
        return PontryaginData(name, dimension, numbers, signature)

    if kind != "cohomology_model":
        raise ManifoldParseError(f"document.kind: unknown kind {kind!r}")

    raw_basis = document.get("basis")
    if not isinstance(raw_basis, list) or not raw_basis:
        raise ManifoldParseError("document.basis: expected a nonempty list")
    basis: List[Tuple[str, int]] = []
    for i, entry in enumerate(raw_basis):
        if not isinstance(entry, dict) or "name" not in entry or "degree" not in entry:
            raise ManifoldParseError(f"document.basis[{i}]: expected {{name, degree}}")
        if not isinstance(entry["name"], str):
            raise ManifoldParseError(f"document.basis[{i}].name: expected a string")
        if not _is_integer(entry["degree"]):
            raise ManifoldParseError(f"document.basis[{i}].degree: expected an integer")
        if any(entry["name"] == name for name, _d in basis):
            raise ManifoldParseError(f"document.basis[{i}].name: repeats {entry['name']!r}")
        basis.append((entry["name"], entry["degree"]))

    def parse_element(raw, path: str) -> Element:
        if not isinstance(raw, list):
            raise ManifoldParseError(f"{path}: expected a list of {{basis, coeff}}")
        out: Element = {}
        for i, item in enumerate(raw):
            if not isinstance(item, dict) or "basis" not in item or "coeff" not in item:
                raise ManifoldParseError(f"{path}[{i}]: expected {{basis, coeff}}")
            if not isinstance(item["basis"], str):
                raise ManifoldParseError(f"{path}[{i}].basis: expected a string")
            terms.accumulate(out, item["basis"],
                             _coerce_number(item["coeff"], f"{path}[{i}].coeff"))
        return out

    raw_products = document.get("products", [])
    if not isinstance(raw_products, list):
        raise ManifoldParseError("document.products: expected a list")
    products: Dict[Tuple[str, str], Element] = {}
    for i, entry in enumerate(raw_products):
        if not isinstance(entry, dict) or not {"left", "right", "result"} <= set(entry):
            raise ManifoldParseError(f"document.products[{i}]: expected {{left, right, result}}")
        if not (isinstance(entry["left"], str) and isinstance(entry["right"], str)):
            raise ManifoldParseError(f"document.products[{i}]: left and right must be strings")
        pair = (entry["left"], entry["right"])
        if pair in products:
            raise ManifoldParseError(f"document.products[{i}]: repeats {pair[0]}*{pair[1]}")
        if (pair[0], 0) in basis or (pair[1], 0) in basis:
            raise ManifoldParseError(f"document.products[{i}]: lists a product with the unit")
        products[pair] = parse_element(entry["result"], f"document.products[{i}].result")

    fundamental = document.get("fundamental")
    if not isinstance(fundamental, str):
        raise ManifoldParseError("document.fundamental: missing or not a string")

    raw_classes = document.get("pontryagin_classes", {})
    if not isinstance(raw_classes, dict):
        raise ManifoldParseError("document.pontryagin_classes: expected an object")
    pclasses: Dict[int, Element] = {}
    for key, raw in raw_classes.items():
        m = _PART_KEY.match(key)
        if not m or m.group(2) or int(m.group(1)) == 0:
            raise ManifoldParseError(f"document.pontryagin_classes: bad key {key!r}")
        pclasses[int(m.group(1))] = parse_element(raw, f"document.pontryagin_classes.{key}")

    return CohomologyModel(name=name, dimension=dimension, basis=basis, products=products,
                           fundamental=fundamental, pontryagin_classes=pclasses,
                           signature=signature, numbers=numbers)


BUILTIN_NAMES = ("cp2", "cp4", "hp2", "k3", "cp2xcp2", "k3xcp2")


def builtin(name: str) -> ManifoldLike:
    if name not in BUILTIN_NAMES:
        raise ManifoldParseError(f"unknown builtin manifold {name!r}; "
                                 f"available: {', '.join(BUILTIN_NAMES)}")
    text = resources.files("supersdet.data").joinpath(f"{name}.json").read_text()
    return load_manifold(json.loads(text))


def load_manifold_file(path: str) -> ManifoldLike:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except ValueError as exc:
            # not UTF-8, not JSON, or an integer literal longer than Python
            # converts from text (sys.get_int_max_str_digits)
            raise ManifoldParseError(str(exc)) from None
    return load_manifold(document)


# ---------------------------------------------------------------------------
# class expressions for the CLI
# ---------------------------------------------------------------------------

def parse_class(expr: str, M: CohomologyModel) -> Element:
    """A linear combination of basis powers: terms joined by '+', each a '*'
    product of rational constants and basis names with optional ^k."""
    out: Element = {}
    for raw_term in expr.split("+"):
        term = raw_term.strip()
        if not term:
            raise ManifoldParseError(f"class expression: empty term in {expr!r}")
        coeff = Fraction(1)
        element = M.one()
        for factor in term.split("*"):
            factor = factor.strip()
            m = re.match(r"^([A-Za-z_]\w*)(?:\^(\d+))?$", factor)
            if m and m.group(1) in M.degree:
                element = M.multiply(element, M.power(M.element(m.group(1)),
                                                      int(m.group(2) or 1)))
                continue
            try:
                coeff *= Fraction(factor)
            except ValueError:
                raise ManifoldParseError(
                    f"class expression: {factor!r} is neither a rational nor a basis name")
            except ZeroDivisionError:
                raise ManifoldParseError(f"class expression: {factor!r} has a zero denominator")
        out = terms.add(out, terms.scale(element, coeff))
    return out
