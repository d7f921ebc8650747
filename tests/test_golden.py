"""CLI outputs compared byte for byte with files recorded in ``tests/data``.

A change meant to keep every output identical keeps these files as they
are.  Each golden is stdout of the command run inside ``tests/data``, e.g.
``fatflats alpha star_2_2_5.json --k-max 4 > alpha_star_2_2_5_modp.json``;
the inputs came from ``fatflats build star --n 2 --e 2 --s 5 --seed 1``
and ``fatflats build thmb-family --case c``.
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
], ids=["alpha-modp", "alpha-rational", "bounds-rational"])
def test_cli_output_is_byte_identical(args, golden, monkeypatch):
    monkeypatch.chdir(DATA)  # the bounds report's label is the path given
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / golden).read_bytes()
