"""JSON encodings of every externally visible type.

Scalars are encoded as ints or "num/den" strings; exponent tuples as
comma-joined strings.  Every encoder round-trips through its decoder.
"""

import json

from .bounds import BoundReport, LowerBound
from .classify import Classification
from .divisors import ComponentClass, DivisorClass, NefCertificate
from .errors import ValidationError
from .interpolation import AlphaRecord, Form, ProductWitness
from .projective import LinForm, Subspace
from .scalars import encode_scalar, parse_scalar, require_int
from .schemes import FatComponent, FatFlatScheme, FatPointsP2, StarData


def require_list(value, what):
    """A coordinate list of an input file: a string is an error, not a
    sequence of one-character coordinates."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, not {value!r}")
    return value


# -- schemes -------------------------------------------------------------------

def _form_to_list(form: LinForm) -> list:
    return [encode_scalar(c) for c in form.coeffs]


def _form_from_list(row) -> LinForm:
    return LinForm([parse_scalar(c) for c in require_list(row, "form")])


def scheme_to_dict(scheme: FatFlatScheme) -> dict:
    out = {
        "ambient_dim": scheme.ambient_dim,
        "components": [
            {"forms": [_form_to_list(f) for f in comp.subspace.forms],
             "multiplicity": comp.multiplicity,
             "label": comp.label}
            for comp in scheme.components],
    }
    if scheme.star is not None:
        out["star_core"] = {
            "e": scheme.star.e, "m": scheme.star.m,
            "hyperplanes": [_form_to_list(h) for h in scheme.star.hyperplanes]}
    return out


def scheme_from_dict(data: dict) -> FatFlatScheme:
    try:
        n = require_int(data["ambient_dim"], "ambient_dim")
        comps = []
        for entry in data["components"]:
            forms = [_form_from_list(row) for row in entry["forms"]]
            comps.append(FatComponent(Subspace(n, forms),
                                      entry["multiplicity"],
                                      entry.get("label", "")))
        core = data.get("star_core")
        star = None if core is None else StarData(
            [_form_from_list(row) for row in core["hyperplanes"]],
            require_int(core["e"], "star_core e"),
            require_int(core["m"], "star_core m"))
        return FatFlatScheme(n, tuple(comps), star)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed scheme JSON: {exc}") from exc


def points_to_dict(config: FatPointsP2) -> dict:
    return {
        "points": [[encode_scalar(x) for x in p] for p in config.points],
        "multiplicities": list(config.multiplicities),
    }


def points_from_dict(data: dict) -> FatPointsP2:
    try:
        pts = [[parse_scalar(x) for x in require_list(p, "point")]
               for p in data["points"]]
        return FatPointsP2(pts, data["multiplicities"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed points JSON: {exc}") from exc


def load_any_scheme(data: dict):
    """Scheme or points file, by shape."""
    if isinstance(data, dict) and "components" in data:
        return scheme_from_dict(data)
    if isinstance(data, dict) and "points" in data:
        return points_from_dict(data)
    raise ValidationError("file is neither a scheme nor a points configuration")


# -- forms ---------------------------------------------------------------------

def form_to_dict(form) -> dict:
    """A Form as its nonzero terms; a ProductWitness as its factors,
    ``[[coefficients, exponent], ...]``, unexpanded."""
    if isinstance(form, ProductWitness):
        return {"ambient_dim": form.ambient_dim, "degree": form.degree,
                "factors": [[list(coeffs), a] for coeffs, a in form.factors]}
    if form.field != "rational":
        raise ValidationError("only rational forms are serialized")
    return {
        "ambient_dim": form.ambient_dim,
        "degree": form.degree,
        "coeffs": {",".join(map(str, exps)): encode_scalar(c)
                   for exps, c in form.terms()},
    }


def _product_from_dict(n, d, factors) -> ProductWitness:
    product = ProductWitness(n, tuple(
        (tuple(require_int(c, "factor coefficient")
               for c in require_list(coeffs, "factor coefficients")),
         require_int(a, "factor exponent"))
        for coeffs, a in require_list(factors, "factors")))
    if product.degree != d:
        raise ValidationError(f"degree {d} is not the sum of the factor "
                              f"exponents, {product.degree}")
    return product


def form_from_dict(data: dict):
    """The inverse of :func:`form_to_dict`: a ProductWitness when the
    data has ``factors``, else a Form."""
    try:
        n = require_int(data["ambient_dim"], "ambient_dim")
        d = require_int(data["degree"], "degree")
        if "factors" in data:
            return _product_from_dict(n, d, data["factors"])
        if not isinstance(data["coeffs"], dict):
            raise TypeError(f"coeffs must be an object, not {data['coeffs']!r}")
        coeffs = {tuple(int(x) for x in key.split(",")): parse_scalar(val)
                  for key, val in data["coeffs"].items()}
        return Form.from_dict(n, d, coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed form JSON: {exc}") from exc


# -- certificates --------------------------------------------------------------

def certificate_to_dict(cert: NefCertificate) -> dict:
    return {
        "t": cert.divisor.t,
        "drops": list(cert.divisor.drops),
        "decomposition": [
            {"kind": comp.kind, "points": list(comp.points), "coeff": coeff}
            for comp, coeff in cert.decomposition],
    }


def certificate_from_dict(data: dict) -> NefCertificate:
    try:
        divisor = DivisorClass(require_int(data["t"], "t"),
                               [require_int(x, "drop") for x in data["drops"]])
        decomposition = tuple(
            (ComponentClass(entry["kind"],
                            [require_int(i, "component point")
                             for i in entry["points"]]),
             require_int(entry["coeff"], "coeff"))
            for entry in data["decomposition"])
        return NefCertificate(divisor=divisor, decomposition=decomposition)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed certificate JSON: {exc}") from exc


# -- reports -------------------------------------------------------------------

def alpha_record_to_dict(record: AlphaRecord) -> dict:
    out = {
        "k": record.k,
        "alpha": record.alpha,
        "field_mode": record.field_mode,
        "degree_cap": record.degree_cap,
        "degree_cap_hit": record.degree_cap_hit,
        "escalated": record.escalated,
    }
    if record.primes:
        out["primes"] = list(record.primes)
    if record.witness is not None and record.witness.field == "rational":
        out["witness"] = form_to_dict(record.witness)
    return out


def lower_bound_to_dict(lb: LowerBound) -> dict:
    return {"value": encode_scalar(lb.value), "certificate": lb.kind,
            "detail": lb.detail}


def report_to_dict(report: BoundReport) -> dict:
    return {
        "label": report.label,
        "table": [alpha_record_to_dict(r) for r in report.table],
        "upper": None if report.upper is None else
            {"value": encode_scalar(report.upper), "k": report.upper_k},
        "lower": None if report.lower is None else
            lower_bound_to_dict(report.lower),
        "verdict": report.verdict,
    }


def classification_to_dict(c: Classification) -> dict:
    out = {
        "case": c.case,
        "alpha_hat": None if c.alpha_hat is None else encode_scalar(c.alpha_hat),
        "reason": c.reason,
        "detail": c.detail,
    }
    if c.lower is not None:
        out["lower"] = lower_bound_to_dict(c.lower)
    if c.certificate is not None:
        out["certificate"] = certificate_to_dict(c.certificate)
    if c.subscheme_indices is not None:
        out["subscheme_indices"] = list(c.subscheme_indices)
    return out


def dump_json(data: dict, path=None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"{path}: malformed JSON: {exc}") from exc
