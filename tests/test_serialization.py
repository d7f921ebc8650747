import json
import random
from fractions import Fraction

import pytest

from fatflats.bounds import attach_lower, star_core_lower, upper_bounds
from fatflats.classify import classify
from fatflats.divisors import ComponentClass, DivisorClass, NefCertificate
from fatflats.errors import ValidationError
from fatflats.interpolation import alpha_symbolic, form_product
from fatflats.projective import (
    LinForm,
    hyperplane_subspace,
    point_subspace,
    random_general_hyperplanes,
    random_point_on,
)
from fatflats.schemes import (
    FatPointsP2,
    build_theorem_a,
    build_theorem_b_family,
)
from fatflats.serialization import (
    alpha_record_to_dict,
    certificate_from_dict,
    certificate_to_dict,
    classification_to_dict,
    dump_json,
    form_from_dict,
    form_to_dict,
    load_any_scheme,
    points_from_dict,
    points_to_dict,
    report_to_dict,
    scheme_from_dict,
    scheme_to_dict,
)


def test_scheme_roundtrip(star25):
    scheme = star25
    data = json.loads(dump_json(scheme_to_dict(scheme)))
    back = scheme_from_dict(data)
    assert back == scheme
    assert back.star == scheme.star


def test_scheme_roundtrip_with_fractional_forms():
    from fatflats.schemes import FatComponent, FatFlatScheme
    from fatflats.projective import Subspace
    sub = Subspace(2, [LinForm([1, Fraction(2, 3), 0])])
    # a hyperplane alone is codim 1; add a disjoint point for a legal scheme
    from fatflats.projective import point_subspace
    scheme = FatFlatScheme(2, (FatComponent(sub, 2),
                               FatComponent(point_subspace((1, 0, 1)), 1)))
    assert scheme_from_dict(scheme_to_dict(scheme)) == scheme


def test_theorem_a_roundtrip_with_extra():
    """W_2 = {a point on H_1} + 2*S_3(2,4) comes back with its star."""
    hyperplanes = random_general_hyperplanes(3, 4, 1)
    avoid = [hyperplane_subspace(h) for h in hyperplanes[1:]]
    pt = random_point_on(hyperplane_subspace(hyperplanes[0]),
                         random.Random(3), avoid=avoid)
    w = build_theorem_a(3, 4, 1, 2, extras=((point_subspace(pt), 1),),
                        hyperplanes=hyperplanes)
    assert len(w.components) == 7 and w.star_core == (2, 4, 2)
    assert scheme_from_dict(json.loads(dump_json(scheme_to_dict(w)))) == w


def test_points_roundtrip():
    config = build_theorem_b_family("c")
    assert points_from_dict(points_to_dict(config)) == config


def test_load_any_scheme_dispatch(star25):
    scheme = star25
    assert load_any_scheme(scheme_to_dict(scheme)) == scheme
    config = build_theorem_b_family("c")
    assert load_any_scheme(points_to_dict(config)) == config
    with pytest.raises(ValidationError):
        load_any_scheme({"foo": 1})


def test_malformed_inputs_raise_validation(star25):
    with pytest.raises(ValidationError):
        scheme_from_dict({"ambient_dim": 2})
    data = scheme_to_dict(star25)
    hyps = data["star_core"]["hyperplanes"]
    for e, m, rows in ((0, 1, hyps), (3, 1, hyps), (2, 1, hyps[:1]),
                       (2, 0, hyps)):
        core = {"e": e, "m": m, "hyperplanes": rows}
        with pytest.raises(ValidationError, match="star_core"):
            scheme_from_dict(dict(data, star_core=core))
    with pytest.raises(ValidationError, match="malformed scheme JSON"):
        scheme_from_dict(dict(data, star_core={"e": 2, "s": 5, "m": 1}))
    with pytest.raises(ValidationError):
        points_from_dict({"points": [[1, 0, 1]]})
    with pytest.raises(ValidationError):
        form_from_dict({"ambient_dim": 2, "degree": 1})
    with pytest.raises(ValidationError):
        form_from_dict({"ambient_dim": 2, "degree": 1.9,
                        "coeffs": {"1,0,0": 1}})
    with pytest.raises(ValidationError):
        certificate_from_dict({"t": 1})
    for coeffs in ([], "x"):
        with pytest.raises(ValidationError):
            form_from_dict({"ambient_dim": 2, "degree": 1, "coeffs": coeffs})
    with pytest.raises(ValidationError, match=r"\(-1, 3, 0\)"):
        form_from_dict({"ambient_dim": 2, "degree": 2,
                        "coeffs": {"-1,3,0": "1"}})


def test_form_roundtrip():
    form = form_product([(LinForm([1, 2, 3]), 2), (LinForm([0, 1, -1]), 1)])
    data = json.loads(dump_json(form_to_dict(form)))
    assert form_from_dict(data) == form
    # Non-integral coefficients: numerators over the denominator 6.
    form = form_product([((Fraction(1, 2), 1, 0), 1),
                         ((0, Fraction(-1, 3), 1), 1)])
    assert form.denominator == 6
    data = json.loads(dump_json(form_to_dict(form)))
    assert data["coeffs"]["1,1,0"] == "-1/6"
    assert form_from_dict(data) == form


def test_product_witness_roundtrip(star25):
    """A star product is written as its factors and read back as one."""
    record = alpha_symbolic(star25, 3)
    data = json.loads(dump_json(form_to_dict(record.witness)))
    assert data == {"ambient_dim": 2, "degree": 9, "factors": [
        [list(coeffs), a] for coeffs, a in record.witness.factors]}
    assert [a for _, a in data["factors"]] == [2, 2, 2, 2, 1]
    assert form_from_dict(data) == record.witness
    assert alpha_record_to_dict(record)["witness"] == data


def test_modp_forms_are_not_serialized():
    # Five points with no three collinear: no line product reaches their
    # conic's degree 2, so the mod-p lane answers with a witness mod p1.
    scheme = FatPointsP2([(0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 1, 1),
                          (1, 3, 1)], [1] * 5).to_scheme()
    record = alpha_symbolic(scheme, 1)
    assert record.alpha == 2
    assert record.witness.field != "rational"
    with pytest.raises(ValidationError):
        form_to_dict(record.witness)
    # The alpha record encoder simply omits the witness instead.
    assert "witness" not in alpha_record_to_dict(record)


def test_certificate_roundtrip():
    cert = NefCertificate(
        divisor=DivisorClass(3, (2, 1, 1, 1)),
        decomposition=((ComponentClass("line", (0, 1)), 1),
                       (ComponentClass("line", (0, 2)), 1),
                       (ComponentClass("line", (0, 3)), 1),
                       (ComponentClass("E", (0,)), 1)))
    assert certificate_from_dict(certificate_to_dict(cert)) == cert


def test_report_dict_shape(star25):
    scheme = star25
    report = attach_lower(upper_bounds(scheme, 2), star_core_lower(scheme))
    data = report_to_dict(report)
    assert data["verdict"] == "exact"
    assert data["upper"] == {"value": "5/2", "k": 2}
    assert data["lower"]["certificate"] == "closed-form"
    json.dumps(data)  # JSON-safe


def test_classification_dict_shape():
    data = classification_to_dict(classify(build_theorem_b_family("zprime")))
    assert data["case"] == "not_below"
    assert data["lower"]["value"] == "5/2"
    assert "certificate" in data and "subscheme_indices" in data
    json.dumps(data)

    data = classification_to_dict(classify(build_theorem_b_family("c")))
    assert data["case"] == "c" and data["alpha_hat"] == "7/3"


def test_dump_json_deterministic(tmp_path, star25):
    scheme = star25
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    dump_json(scheme_to_dict(scheme), p1)
    dump_json(scheme_to_dict(scheme), p2)
    assert p1.read_bytes() == p2.read_bytes()
