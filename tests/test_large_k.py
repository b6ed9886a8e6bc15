"""Byte pins for the sizes the benchmark digests do not reach: the canonical
JSON of the L-class oracle at K = 14, 15 and 16, and `lpoly --k 16`.  The
digests come from an all-Fraction exp and Newton substitution of the p-basis
class, so they hold the integer work format of GradedPolynomial.exp, and the
oracle's own exp in the ph basis, to the same bytes; at K = 16 the Newton
route, the p-basis class evaluated at the images e_i(ph), is checked against
its pin too."""

import hashlib
import json

import pytest

from supersdet import cli
from supersdet import series as cs
from supersdet import zeta as zs

L_CLASS_IN_PH = {
    14: "4c338ffa10d389d70ffafdeea71d416b9b9afe65d22b6017048f5d264685bbc7",
    15: "b9ca14166d4ebcfea79ce3212cd4d07361e7578ff3600cc94709dc9400957d96",
    16: "db3b5b05ba42dc9bff108c6bdc3e129b9e069027b59035463c37f68dc2c3678d",
}
LPOLY_16_JSON = "2f668e9d7886244b6a8151f9792ddfac849aae0e05a0dc5cbd570baab06355d5"


def _canonical(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _digest(poly) -> str:
    return hashlib.sha256(_canonical(poly.to_json())).hexdigest()


@pytest.mark.parametrize("K", sorted(L_CLASS_IN_PH))
def test_l_class_in_ph_digest(K):
    assert _digest(cs.l_class_in_ph(K)) == L_CLASS_IN_PH[K]


def test_newton_route_digest_at_k_16():
    assert _digest(cs.pontryagin_to_powersums(cs.l_class(16))) == L_CLASS_IN_PH[16]


def test_lpoly_16_digest(capsys):
    assert cli.main(["lpoly", "--k", "16", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LPOLY_16_JSON


def test_sdet_is_the_signature_class_at_k_16():
    assert zs.sdet_formal(1, 16) == cs.l_class_in_ph(16)
