"""CLI outputs compared byte for byte with files recorded in ``tests/data``.

A change meant to keep every output identical keeps these files as they
are.  Each golden is stdout of the command run inside ``tests/data``, e.g.
``fatflats alpha star_2_2_5.json --k-max 4 > alpha_star_2_2_5_modp.json``;
the inputs came from ``fatflats build star --n 2 --e 2 --s 5 --seed 1``
and ``fatflats build thmb-family --case c``.  The two ``build`` goldens
pin the generated coordinates: the quasi-star draws a random point on
each of its lines.  The star bounds golden closes every k by a product of
the star's hyperplanes and holds each one's factors; the same report
with each witness expanded into its terms is kept as
``bounds_star_2_2_5_expanded.json``, the oracle for ``expand()``.  The
seven-point bounds golden is the one whose k are found by elimination mod
p: each closes by a first-prime kernel that the second prime confirms.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from fatflats.bounds import attach_lower, star_core_lower, upper_bounds
from fatflats.cli import main
from fatflats.scalars import DEFAULT_PRIMES
from fatflats.serialization import (
    dump_json,
    form_to_dict,
    load_json,
    points_from_dict,
    report_to_dict,
    scheme_from_dict,
)

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("args,golden", [
    (["alpha", "star_2_2_5.json", "--k-min", "1", "--k-max", "4"],
     "alpha_star_2_2_5_modp.json"),
    (["alpha", "star_2_2_5.json", "--k-min", "1", "--k-max", "2",
      "--mode", "rational"], "alpha_star_2_2_5_rational.json"),
    (["bounds", "thmb_c.json", "--mode", "rational", "--k-max", "3"],
     "bounds_thmb_c_rational.json"),
    (["bounds", "star_2_2_5.json", "--k-max", "4"], "bounds_star_2_2_5.json"),
    (["bounds", "seven_points.json", "--k-max", "3"],
     "bounds_seven_points_modp.json"),
    (["build", "quasi-star", "--s", "4", "--seed", "1"],
     "quasi_star_4_seed1.json"),
    (["build", "star", "--n", "4", "--e", "2", "--s", "5", "--seed", "3"],
     "star_4_2_5_seed3.json"),
], ids=["alpha-modp", "alpha-rational", "bounds-rational", "bounds-star",
        "bounds-seven-points-modp", "build-quasi-star", "build-star-p4"])
def test_cli_output_is_byte_identical(args, golden, monkeypatch):
    monkeypatch.chdir(DATA)  # the bounds report's label is the path given
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / golden).read_bytes()


def test_star_witnesses_expand_to_the_recorded_forms():
    """Each factored witness of the star bounds report expands, term for
    term, to the witness that the report printed when it expanded them."""
    scheme = scheme_from_dict(load_json(DATA / "star_2_2_5.json"))
    report = attach_lower(upper_bounds(scheme, 4, label="star_2_2_5.json"),
                          star_core_lower(scheme))
    data = report_to_dict(report)
    for row, record in zip(data["table"], report.table):
        row["witness"] = form_to_dict(record.witness.expand())
    assert dump_json(data).encode() == \
        (DATA / "bounds_star_2_2_5_expanded.json").read_bytes()


def test_seven_points_modp_witnesses_are_pinned():
    """The seven-point golden prints no witness, so the sha256 of each
    k's kernel form mod the first prime is pinned here.  The k = 3
    matrices are 57 x 55, wider than one panel of the F_p kernel."""
    points = points_from_dict(load_json(DATA / "seven_points.json"))
    report = upper_bounds(points.to_scheme(), 3, label="seven_points.json")
    expected = {
        1: "b40eb4a27b6d6d6c7ca51cbc036a925a88586f0aeb17a5965d68b9a853241325",
        2: "03493ba356d153467377f3705e4acade89cc504e6c5d1cad5f44ebb812dda070",
        3: "912ac442e0a1a8236f3877adca8ffc3ccc966668da3f307c8fbc121d4382c21a",
    }
    for record in report.table:
        witness = record.witness
        assert (record.alpha, witness.degree) == (3 * record.k, 3 * record.k)
        assert witness.field == DEFAULT_PRIMES[0]
        assert hashlib.sha256(witness.packed).hexdigest() == \
            expected[record.k], record.k
