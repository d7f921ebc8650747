import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from fatflats import cli, verification
from fatflats.cli import main
from fatflats.interpolation import form_product
from fatflats.scalars import DEFAULT_PRIMES
from fatflats.serialization import dump_json, form_to_dict
from fatflats.projective import LinForm

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def _invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


@pytest.fixture
def star_file(tmp_path, runner):
    path = tmp_path / "star.json"
    result = _invoke(runner, ["build", "star", "--n", "2", "--e", "2",
                              "--s", "4", "--seed", "1", "-o", str(path)])
    assert result.exit_code == 0
    return path


def test_build_writes_valid_scheme(star_file):
    data = json.loads(star_file.read_text())
    assert data["ambient_dim"] == 2
    assert len(data["components"]) == 6
    core = data["star_core"]
    assert (core["e"], len(core["hyperplanes"]), core["m"]) == (2, 4, 1)


def test_build_stdout_and_kinds(runner):
    result = _invoke(runner, ["build", "star"])
    assert result.exit_code == 0
    json.loads(result.output)

    result = _invoke(runner, ["build", "thmb-family", "--case", "c"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["multiplicities"] == [2, 1, 1, 1]

    result = _invoke(runner, ["build", "rational-target", "--a", "2",
                              "--b", "6"])
    core = json.loads(result.output)["star_core"]
    assert (core["e"], len(core["hyperplanes"]), core["m"]) == (2, 2, 3)


def test_build_invalid_parameters_exit_2(runner):
    result = runner.invoke(main, ["build", "star", "--n", "2", "--e", "3",
                                  "--s", "4"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args,option", [
    (["star", "--t", "7"], "--t"),
    (["star", "--n", "2", "--s", "5", "--case", "z"], "--case"),
    (["thmb-family", "--case", "c", "--seed", "5"], "--seed"),
    (["thmb-family", "--case", "c", "--r", "3"], "r"),
], ids=["star-t", "star-case", "thmb-seed", "thmb-c-r"])
def test_build_refuses_options_the_kind_does_not_read(runner, args, option):
    """Before, each of these wrote the same bytes as without the option."""
    result = runner.invoke(main, ["build", *args])
    assert result.exit_code == 2
    assert "does not read" in result.output and option in result.output


def test_alpha_table(runner, star_file, tmp_path):
    out = tmp_path / "alpha.json"
    result = _invoke(runner, ["alpha", str(star_file), "--k-min", "1",
                              "--k-max", "2", "-o", str(out)])
    assert result.exit_code == 0
    table = json.loads(out.read_text())["table"]
    # Six points from four general lines: a cubic through all six, and in
    # k = 2 the product of the four lines (degree 4) is optimal.
    assert [row["alpha"] for row in table] == [3, 4]
    assert table[1]["alpha_over_k"] == 2


def test_alpha_cap_exit_3(runner, star_file):
    result = runner.invoke(main, ["alpha", str(star_file), "--cap", "2"])
    assert result.exit_code == 3


def test_alpha_missing_file_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"neither\": 1}")
    result = runner.invoke(main, ["alpha", str(bad)])
    assert result.exit_code == 2


def _scheme_json(multiplicity=1, **top):
    """Two fat points of P^2, with some fields replaced."""
    data = {"ambient_dim": 2, "components": [
        {"forms": [[1, 0, 0], [0, 1, 0]], "multiplicity": multiplicity},
        {"forms": [[0, 1, 0], [0, 0, 1]], "multiplicity": 1}]}
    data.update(top)
    return json.dumps(data)


# x = 0 and y = 0; with e = 2 they cut out the first point of _scheme_json.
_LINES = [[1, 0, 0], [0, 1, 0]]

# The three coordinate points of P^2 (Waldschmidt constant 3/2) claiming
# the star of x = 0 and y = 0 with e = 1, whose closed form would be 2.
_FALSE_STAR = json.dumps({
    "ambient_dim": 2,
    "components": [{"forms": forms, "multiplicity": 1} for forms in (
        [[0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1]], _LINES)],
    "star_core": {"e": 1, "m": 1, "hyperplanes": _LINES}})


def _product_json(degree, factors):
    return json.dumps({"ambient_dim": 2, "degree": degree,
                       "factors": factors})


def _points_json(multiplicities, points=([1, 0, 0], [0, 1, 0])):
    return json.dumps({"points": list(points),
                       "multiplicities": multiplicities})


@pytest.mark.parametrize("command,content,extra", [
    ("alpha", "{\"components\": [", []),
    ("alpha", "5", []),
    ("sweep", json.dumps({"N": [2], "k_max": "x"}), []),
    ("sweep", "[2]", []),
    ("sweep", json.dumps({"N": 2}), []),
    ("sweep", json.dumps({"N": ["x"]}), []),
    ("sweep", json.dumps({"e": [True]}), []),
    ("sweep", json.dumps({"k_max": True}), []),
    ("sweep", json.dumps({"k_max": 2.7}), []),
    ("alpha", _scheme_json(ambient_dim="x"), []),
    ("alpha", _scheme_json(multiplicity=True), []),
    ("alpha", _scheme_json(multiplicity=1.9), []),
    ("bounds", _scheme_json(star_core={"e": "2", "m": 1,
                                       "hyperplanes": _LINES}), []),
    ("alpha", _scheme_json(star_core={"e": 0, "m": 1,
                                      "hyperplanes": _LINES}), []),
    ("alpha", _scheme_json(star_core={"e": 2, "s": 2, "m": 1}), []),
    ("bounds", _FALSE_STAR, []),
    ("alpha", _FALSE_STAR, []),
    ("sweep", json.dumps({"m": [0]}), []),
    ("sweep", json.dumps({"m": [-1]}), []),
    ("sweep", json.dumps({"k_max": 0}), []),
    ("sweep", json.dumps({"N": [2], "e": [3], "s": [3]}), []),
    ("sweep", json.dumps({"N": [2], "e": [3], "s": [3], "m": [0]}), []),
    ("classify", _points_json(multiplicities=["two", 1]), []),
    ("classify", _points_json(multiplicities=[2.7, 1]), []),
    ("alpha", None, ["--k-min", "3", "--k-max", "1"]),
    ("sweep", json.dumps({"k_max": None}), []),
    ("classify", _points_json([2, 2, 1], points=([1, 0], [0, 1], [1, 1])),
     []),
    ("classify", _points_json([2, 1], points=([1, 0, 0, 0], [0, 1, 0, 1])),
     []),
    ("classify", _points_json([2, 2, 1], points=("100", [0, 1, 0],
                                                 [0, 0, 1])), []),
    ("alpha", json.dumps({"ambient_dim": 2, "components": [
        {"forms": ["100", "010"], "multiplicity": 1}]}), []),
    ("member", json.dumps({"ambient_dim": 2, "degree": 2,
                           "coeffs": {"-1,3,0": "1"}}), []),
    ("member", _product_json(3, [[[1, 0, 0], 2]]), []),
    ("member", _product_json(1, [[[1, 0], 1]]), []),
    ("member", _product_json(1, [[[0, 0, 0], 1]]), []),
    ("member", _product_json(0, [[[1, 0, 0], 0]]), []),
    ("member", _product_json(0, [[[1, 0, 0], 1], [[0, 1, 0], -1]]), []),
    ("member", _product_json(1, [[["1/2", 0, 1], 1]]), []),
    ("member", _product_json(1, [[[1.5, 0, 1], 1]]), []),
], ids=["malformed-json", "top-level-not-object", "sweep-k-max-not-integer",
        "sweep-grid-not-object", "sweep-grid-value-not-list",
        "sweep-grid-entry-not-integer", "sweep-grid-entry-boolean",
        "sweep-k-max-boolean", "sweep-k-max-float", "ambient-dim-string", "multiplicity-boolean",
        "multiplicity-float", "star-core-string", "star-core-e-zero",
        "star-core-no-hyperplanes", "false-star-bounds", "false-star-alpha",
        "sweep-m-zero", "sweep-m-negative", "sweep-k-max-zero",
        "sweep-no-valid-star", "sweep-no-valid-star-m-zero",
        "points-multiplicity-string", "points-multiplicity-float",
        "alpha-empty-k-range", "sweep-k-max-null", "points-two-coordinates",
        "points-four-coordinates", "points-coordinates-string",
        "forms-row-string", "form-negative-exponent",
        "product-degree-not-sum", "product-factor-length",
        "product-zero-factor", "product-exponent-zero",
        "product-exponent-negative", "product-coefficient-fraction",
        "product-coefficient-float"])
def test_bad_input_exit_2(runner, star_file, tmp_path, command, content,
                          extra):
    path = star_file
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(content)
    args = [command, str(path), *extra]
    if command == "sweep":
        args += ["-o", str(tmp_path / "sweep")]
    if command == "member":
        args.insert(2, str(star_file))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert any(line.startswith("error: ")
               for line in result.output.splitlines())


def test_checked_star_gives_the_closed_form(runner, tmp_path):
    """The star of x = 0 and y = 0 with e = 2 is the point (0:0:1), a
    component of _scheme_json: the file loads and the closed form 1 meets
    alpha(I) = 1.  With e = 1 (_FALSE_STAR) it is refused above."""
    path = tmp_path / "star.json"
    path.write_text(_scheme_json(star_core={"e": 2, "m": 1,
                                            "hyperplanes": _LINES}))
    out = tmp_path / "report.json"
    result = _invoke(runner, ["bounds", str(path), "--k-max", "1",
                              "-o", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "exact"
    assert report["lower"]["value"] == 1


def test_internal_key_error_is_not_bad_input(runner, star_file, monkeypatch):
    """Only documented input errors exit 2: a KeyError raised inside a
    command body is a bug and surfaces as itself."""
    def broken(*args, **kwargs):
        raise KeyError("internal lookup")

    monkeypatch.setattr(cli, "alpha_table", broken)
    result = runner.invoke(main, ["alpha", str(star_file)])
    assert isinstance(result.exception, KeyError)
    assert result.exit_code != 2


@pytest.mark.parametrize("field,value", [
    ("t", "x"), ("drops", [1, 1.5]), ("coeff", True), ("points", ["0", 1]),
], ids=["t-string", "drop-float", "coeff-boolean", "point-string"])
def test_bad_certificate_exit_2(runner, tmp_path, field, value):
    """The line through two points, L - E_1 - E_2, with one field made
    non-integral; nef-check also needs the points file."""
    cert = {"t": 1, "drops": [1, 1],
            "decomposition": [{"kind": "line", "points": [0, 1],
                               "coeff": 1}]}
    if field in cert:
        cert[field] = value
    else:
        cert["decomposition"][0][field] = value
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    points_path = tmp_path / "points.json"
    points_path.write_text(_points_json([1, 1]))
    result = runner.invoke(main, ["nef-check", str(cert_path),
                                  str(points_path)])
    assert result.exit_code == 2
    assert "must be an integer" in result.output


@pytest.mark.parametrize("kind,option", [("star", "--n"), ("fatflat", "--m")])
def test_build_explicit_zero_exit_2(runner, kind, option):
    """0 is not replaced by the option's default."""
    result = runner.invoke(main, ["build", kind, option, "0"])
    assert result.exit_code == 2


def test_bounds_star_core_exact(runner, tmp_path):
    path = tmp_path / "star25.json"
    _invoke(runner, ["build", "star", "--n", "2", "--e", "2", "--s", "5",
                     "--seed", "1", "-o", str(path)])
    out = tmp_path / "report.json"
    result = _invoke(runner, ["bounds", str(path), "--k-max", "2",
                              "-o", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "exact"
    assert report["upper"]["value"] == "5/2"
    # Each k is closed by its star product: the record prints that
    # rational witness as its factors, names no primes, and `member`
    # accepts it, but not the product with its last exponent lowered.
    for row in report["table"]:
        assert "primes" not in row and row["field_mode"] == "modp"
        witness = row["witness"]
        assert "coeffs" not in witness and witness["degree"] == row["alpha"]
        assert len(witness["factors"]) in (4, 5)
        lowered = json.loads(json.dumps(witness))
        lowered["degree"] -= 1
        lowered["factors"][-1][1] -= 1
        if lowered["factors"][-1][1] == 0:
            lowered["factors"].pop()
        for form, verdict in ((witness, "member"), (lowered, "not a member")):
            form_path = tmp_path / f"witness{row['k']}.json"
            form_path.write_text(json.dumps(form))
            result = _invoke(runner, ["member", str(form_path), str(path),
                                      "--k", str(row["k"])])
            assert result.output.strip() == verdict


# 3L - 2E_1 - E_2 - E_3 - E_4 on case c (the double point first): 7/3.
_CASE_C_CERT = {"t": 3, "drops": [2, 1, 1, 1], "decomposition": [
    {"kind": "line", "points": [0, 1], "coeff": 1},
    {"kind": "line", "points": [0, 2], "coeff": 1},
    {"kind": "line", "points": [0, 3], "coeff": 1},
    {"kind": "E", "points": [0], "coeff": 1}]}
# L - E_1 on one point of multiplicity 4: nef, bound 4.
_LINE_CERT = {"t": 1, "drops": [1], "decomposition": [
    {"kind": "line", "points": [0], "coeff": 1}]}


def test_bounds_with_certificate(runner, tmp_path):
    points = tmp_path / "points.json"
    _invoke(runner, ["build", "thmb-family", "--case", "c",
                     "-o", str(points)])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_CASE_C_CERT))
    out = tmp_path / "report.json"
    result = _invoke(runner, ["bounds", str(points), "--k-max", "3",
                              "--certificate-file", str(cert),
                              "-o", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "exact"
    assert report["upper"]["value"] == "7/3"
    assert report["lower"]["certificate"] == "nef"


@pytest.mark.parametrize("scheme,cert", [
    (str(DATA / "star_2_2_5.json"), _CASE_C_CERT),
    (str(DATA / "star_2_2_5.json"), _LINE_CERT),
    ("theorem-a", _LINE_CERT),
], ids=["case-c-cert-on-star", "line-cert-on-star", "line-cert-on-theorem-a"])
def test_bounds_certificate_must_be_on_the_scheme_file(runner, tmp_path,
                                                       scheme, cert):
    """A certificate is checked against the scheme file's own points, so
    it cannot bound an unrelated configuration: before, the line
    certificate on a quadruple point read "exact 4" for S_2(2, 5), whose
    Waldschmidt constant is 5/2.  A scheme file that is not planar points
    carries no nef certificate."""
    if scheme == "theorem-a":
        scheme = str(tmp_path / "theorem_a.json")
        _invoke(runner, ["build", "theorem-a", "-o", scheme])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    result = runner.invoke(main, ["bounds", scheme, "--k-max", "1",
                                  "--certificate-file", str(cert_path)])
    assert result.exit_code == 2
    assert "needs a planar points file" in result.output
    assert "verdict" not in result.output


@pytest.mark.parametrize("t", [1, 2])
def test_build_theorem_a_constant_is_s_times_t(runner, tmp_path, t):
    """Theorem A fixes the scheme by s and t; its constant is s*t."""
    path = tmp_path / "w.json"
    _invoke(runner, ["build", "theorem-a", "--n", "3", "--e", "2",
                     "--s", "4", "--t", str(t), "-o", str(path)])
    out = tmp_path / "report.json"
    result = _invoke(runner, ["bounds", str(path), "--k-max", "1",
                              "-o", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "exact"
    assert report["upper"]["value"] == report["lower"]["value"] == 4 * t


def test_member(runner, tmp_path):
    scheme_path = tmp_path / "star.json"
    _invoke(runner, ["build", "star", "--n", "2", "--e", "2", "--s", "4",
                     "--seed", "1", "-o", str(scheme_path)])
    data = json.loads(scheme_path.read_text())
    from fatflats.serialization import scheme_from_dict
    scheme = scheme_from_dict(data)
    # Witness: product of 3 of the 4 construction lines is in I; recover
    # the lines from the components' pairwise form intersections is
    # overkill here, so use a product of defining forms of one component.
    comp = scheme.components[0]
    form = form_product([(comp.subspace.forms[0], 1),
                         (comp.subspace.forms[1], 1)])
    form_path = tmp_path / "form.json"
    dump_json(form_to_dict(form), form_path)
    result = _invoke(runner, ["member", str(form_path), str(scheme_path),
                              "--k", "1"])
    # The quadric through one star point need not pass through the rest.
    assert result.exit_code == 0
    assert result.output.strip() in ("member", "not a member")

    # A form that vanishes nowhere relevant is definitely not a member.
    off = form_product([(LinForm([1, 1, 1]), 1)])
    off_path = tmp_path / "off.json"
    dump_json(form_to_dict(off), off_path)
    result = _invoke(runner, ["member", str(off_path), str(scheme_path)])
    assert result.output.strip() == "not a member"


def test_nef_check(runner, tmp_path):
    points = tmp_path / "points.json"
    _invoke(runner, ["build", "thmb-family", "--case", "zprime",
                     "-o", str(points)])
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "t": 1, "drops": [1, 0, 0],
        "decomposition": [{"kind": "line", "points": [0], "coeff": 1}]}))
    result = _invoke(runner, ["nef-check", str(good), str(points)])
    assert result.exit_code == 0
    assert "lower bound 2" in result.output

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "t": 1, "drops": [1, 1, 0],
        "decomposition": [{"kind": "line", "points": [0, 1], "coeff": 1}]}))
    result = runner.invoke(main, ["nef-check", str(bad), str(points)])
    assert result.exit_code == 4


@pytest.mark.parametrize("kind,named,drops,status,message", [
    ("line", [0, 0], [1, 0, 0], 4, "duplicate points"),
    ("line", [1, 1, 2], [0, 1, 1], 4, "duplicate points"),
    ("conic", [0, 0, 1], [1, 1, 0], 4, "duplicate points"),
    ("conic", [0, 0], [1, 0, 0], 4, "duplicate points"),
    ("line", [], [0, 0, 0], 4, "at least one point"),
    ("conic", [], [0, 0, 0], 0, "lower bound 0"),
], ids=["line-twice", "line-twice-and-one", "conic-twice-and-one",
        "conic-twice", "line-no-point", "conic-no-point"])
def test_nef_check_component_edge_cases(runner, tmp_path, kind, named, drops,
                                        status, message):
    """A line or conic naming one point twice is refused, as is a line
    naming no point; a conic naming no point is some conic, so
    tL - (that conic) is accepted.  Each certificate is the one curve,
    which its divisor meets non-negatively, so only the curve decides."""
    points = tmp_path / "points.json"
    _invoke(runner, ["build", "thmb-family", "--case", "zprime",
                     "-o", str(points)])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "t": 1 if kind == "line" else 2, "drops": drops,
        "decomposition": [{"kind": kind, "points": named, "coeff": 1}]}))
    result = runner.invoke(main, ["nef-check", str(cert), str(points)])
    assert result.exit_code == status
    assert message in result.output


# 5L - 2E_0 - ... - 2E_4 - E_5 on six double points of the conic
# y^2 = xz, as twice the conic through points 0-4 plus a line through
# point 5: it read "certified nef; lower bound 22/5" although the constant
# is at most 4, because the conic also passes through point 5.
_SIX_ON_CONIC = {"points": [[1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 9],
                            [1, 4, 16], [0, 0, 1]],
                 "multiplicities": [2] * 6}
_FIVE_OF_SIX_CERT = {"t": 5, "drops": [2, 2, 2, 2, 2, 1], "decomposition": [
    {"kind": "conic", "points": [0, 1, 2, 3, 4], "coeff": 2},
    {"kind": "line", "points": [5], "coeff": 1}]}


@pytest.fixture
def six_on_conic(tmp_path):
    points = tmp_path / "six.json"
    points.write_text(json.dumps(_SIX_ON_CONIC))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_FIVE_OF_SIX_CERT))
    return points, cert


def test_nef_check_refuses_conic_missing_a_point_on_it(runner, six_on_conic):
    points, cert = six_on_conic
    result = runner.invoke(main, ["nef-check", str(cert), str(points)])
    assert result.exit_code == 4
    assert "every configuration point" in result.output


def test_bounds_checks_certificate_before_alpha_search(runner, six_on_conic,
                                                      monkeypatch):
    points, cert = six_on_conic

    def no_search(*args, **kwargs):
        raise AssertionError("upper_bounds ran before the certificate check")

    monkeypatch.setattr(cli, "upper_bounds", no_search)
    result = runner.invoke(main, ["bounds", str(points), "--k-max", "2",
                                  "--certificate-file", str(cert)])
    assert result.exit_code == 4
    assert "verdict" not in result.output


def test_classify_command(runner, tmp_path):
    points = tmp_path / "points.json"
    _invoke(runner, ["build", "thmb-family", "--case", "c",
                     "-o", str(points)])
    out = tmp_path / "classification.json"
    result = _invoke(runner, ["classify", str(points), "-o", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["case"] == "c" and data["alpha_hat"] == "7/3"

    reduced = tmp_path / "reduced.json"
    reduced.write_text(json.dumps({"points": [[0, 0, 1], [1, 0, 1]],
                                   "multiplicities": [1, 1]}))
    result = runner.invoke(main, ["classify", str(reduced)])
    assert result.exit_code == 2


def test_zero_point_is_refused_as_a_point(runner, tmp_path):
    """A points file with the zero point exits 2 saying that a point
    needs a nonzero coordinate; a zero form in a scheme file keeps the
    linear form's message."""
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 1]],
                                  "multiplicities": [2, 1]}))
    result = runner.invoke(main, ["classify", str(points)])
    assert result.exit_code == 2
    assert "error: a point needs a nonzero coordinate" in result.output
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"ambient_dim": 2, "components": [
        {"forms": [[0, 0, 0], [0, 1, 0]], "multiplicity": 1}]}))
    result = runner.invoke(main, ["alpha", str(scheme)])
    assert result.exit_code == 2
    assert "linear form must have a nonzero coefficient" in result.output


def test_verify_paper_filter(runner):
    result = _invoke(runner, ["verify-paper", "--only", "criterion-11"])
    assert result.exit_code == 0
    assert "[PASS] criterion-11" in result.output

    result = runner.invoke(main, ["verify-paper", "--only", "no-such-check"])
    assert result.exit_code == 2


def test_verify_paper_reports_known_failure(runner, monkeypatch):
    # A failing criterion is reported as a [FAIL] line with its detail
    # and exit code 1, not as a crash.
    def check_broken():
        raise AssertionError("stated table [2, 4, 6, 8] is false")

    monkeypatch.setattr(verification, "CHECKS",
                        (("criterion-99-broken", check_broken, None),))
    result = runner.invoke(main, ["verify-paper"])
    assert result.exit_code == 1
    assert "[FAIL] criterion-99-broken" in result.output
    assert "stated table [2, 4, 6, 8] is false" in result.output

    monkeypatch.undo()
    result = runner.invoke(main, ["verify-paper", "--only", "criterion-01"])
    assert result.exit_code == 0
    assert "[PASS] criterion-01" in result.output
    assert "[3, 4, 7, 8]" in result.output


def test_sweep_deterministic_modulo_millis(runner, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"N": [2], "e": [2], "s": [3, 4],
                                "m": [1, 2], "k_max": 2}))
    outputs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        result = _invoke(runner, ["sweep", str(grid), "--seed", "1",
                                  "-o", str(outdir)])
        assert result.exit_code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("millis")
        outputs.append(rows)
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 8
    # Spot value: alpha(S_2(2,3)) = 2 (the three coordinate-like lines'
    # intersections impose a conic).
    first = outputs[0][0]
    assert first["N"] == "2" and first["s"] == "3" and first["k"] == "1"
    assert first["alpha"] == "2"


def test_sweep_skips_invalid_stars(runner, tmp_path):
    """e = 3 > N = 2 is skipped while the grid has a valid (N, e, s).
    A row names the primes its record ran: none where the star product
    closed k, both where the mod-p scan ran (under cap 1, S_2(2,3) is
    unresolved)."""
    for cap, alphas, primes in ((None, [1, 2], [None, None]),
                                (1, [1, None], list(DEFAULT_PRIMES))):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"N": [2], "e": [2, 3], "s": [2, 3],
                                    "k_max": 1, "cap": cap}))
        outdir = tmp_path / "out"
        result = _invoke(runner, ["sweep", str(grid), "-o", str(outdir)])
        assert result.exit_code == 0
        data = json.loads((outdir / "sweep.json").read_text())
        assert [(r["e"], r["s"], r["alpha"]) for r in data["rows"]] == [
            (2, 2, alphas[0]), (2, 3, alphas[1])]
        assert data["primes"] == list(DEFAULT_PRIMES)
        assert [[r["prime1"], r["prime2"]] for r in data["rows"]] == [
            [None, None], primes]


def test_version(runner):
    result = _invoke(runner, ["--version"])
    assert result.exit_code == 0
