"""CLI outputs compared byte for byte with files recorded in ``tests/data``.

A change meant to keep every output identical keeps these files as they
are.  Each golden is stdout of the command run inside ``tests/data``, e.g.
``fatflats alpha star_2_2_5.json --k-max 4 > alpha_star_2_2_5_modp.json``;
the inputs came from ``fatflats build star --n 2 --e 2 --s 5 --seed 1``
and ``fatflats build thmb-family --case c``.  The two ``build`` goldens
pin the generated coordinates: the quasi-star draws a random point on
each of its lines.  The star bounds golden closes every k by a product of
the star's hyperplanes and holds each one's integral witness.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from fatflats.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("args,golden", [
    (["alpha", "star_2_2_5.json", "--k-min", "1", "--k-max", "4"],
     "alpha_star_2_2_5_modp.json"),
    (["alpha", "star_2_2_5.json", "--k-min", "1", "--k-max", "2",
      "--mode", "rational"], "alpha_star_2_2_5_rational.json"),
    (["bounds", "thmb_c.json", "--mode", "rational", "--k-max", "3"],
     "bounds_thmb_c_rational.json"),
    (["bounds", "star_2_2_5.json", "--k-max", "4"], "bounds_star_2_2_5.json"),
    (["build", "quasi-star", "--s", "4", "--seed", "1"],
     "quasi_star_4_seed1.json"),
    (["build", "star", "--n", "4", "--e", "2", "--s", "5", "--seed", "3"],
     "star_4_2_5_seed3.json"),
], ids=["alpha-modp", "alpha-rational", "bounds-rational", "bounds-star",
        "build-quasi-star", "build-star-p4"])
def test_cli_output_is_byte_identical(args, golden, monkeypatch):
    monkeypatch.chdir(DATA)  # the bounds report's label is the path given
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / golden).read_bytes()
