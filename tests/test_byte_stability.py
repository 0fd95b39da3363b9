"""Byte-stability guard: SHA-256 digests of the CLI's outputs at full scale.

A change that is meant to leave every number as it is (a faster engine, a
leaner measurement) must leave these files byte for byte as they are.  The
JSON timeline prints every float with ``repr``, so it also guards the last
bit of each record; the figure manifest does the same for its ratios and
mean positions.  A digest that moves means an output moved: find out why
before taking a new one.
"""

import hashlib

import pytest
from click.testing import CliRunner

from twinwalk.cli import main

RUN_CSV_SHA256 = {
    "4a": "ab3b1bb60f641afa7de7dc126785b6286ed948c503a0ec1b09385fbbd1c78344",
    "4b": "f9e22afac0ff2c1021eac6281bbcce6210a457d01777594edc93536ed6e0a640",
    "4c": "aad43ef1730bd8f2c0f8020ba3951505b3d6322a6bcb1a8b90b6d75b100af5c9",
    "4d": "aad43ef1730bd8f2c0f8020ba3951505b3d6322a6bcb1a8b90b6d75b100af5c9",
    "4e": "7d261955ce4715513bfcbcce841fec1813567b7c282f859540cba3c7c68b3978",
}

RUN_JSON_4E_SHA256 = "dbe35d19ae68b5a30c9ad6e16e5ce0085ae7d809514f4f7cf5b424d4de03cd84"

FIGURES_SHA256 = {
    "fig01.csv": "f29bd9bca4820e6995aed62adc8c2e7b6d487e39cea0d9346c5fe1546c4a0f46",
    "fig02.csv": "1b023a18f4b07e83e331b9846e8ec764c0b5423476ecd3c9ae99ec61bfd3e4ca",
    "fig03.csv": "125b0ec5faad39e988796161ad7cac56db5e33111f6860ef671c1740fe9b5876",
    "fig04.csv": "1b023a18f4b07e83e331b9846e8ec764c0b5423476ecd3c9ae99ec61bfd3e4ca",
    "fig05.csv": "f29bd9bca4820e6995aed62adc8c2e7b6d487e39cea0d9346c5fe1546c4a0f46",
    "fig06.csv": "d61cd4c57dd6fa6f6220b9599a7ad43d53710d5e2ae50e370da3f5ae03717eb4",
    "fig07.csv": "7ad513b55ca29097c4f34f9da5913d0af078700b55021acee18fceff849b7ac1",
    "fig08.csv": "7ad513b55ca29097c4f34f9da5913d0af078700b55021acee18fceff849b7ac1",
    "fig09.csv": "7dbe7f40f36ec68b179325ec2c52fd85ca2f21614b8c5df560ee543b17de2788",
    "fig10.csv": "c8727284b2803f45f02ecaf56121ab6619cc709361e0208a5d17f002bbef7b1f",
    "fig11.csv": "fdeda1dd206d87898b6eb2946974c1a9b54009e1126f4c4114b6895f1e6b5ccd",
    "fig12.csv": "e9773cf3c397bc9f9ca434c2527e9d623d0dec6a6defd66c61ee580f61565155",
    "manifest.json": "9a6963a76965559f07e977c2e1cbc74e90df5aaa22f30d4fe5ce56c82241ede9",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def invoke(args) -> str:
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


@pytest.mark.parametrize("preset", sorted(RUN_CSV_SHA256))
def test_run_csv_bytes_are_pinned(tmp_path, preset):
    out = tmp_path / "timeline.csv"
    invoke(["run", "--preset", preset, "--steps", "2000", "--out", str(out)])
    assert sha256(out) == RUN_CSV_SHA256[preset]


def test_run_json_bytes_are_pinned():
    # on stdout, so that no output path enters the document's spec
    document = invoke(["run", "--preset", "4e", "--steps", "2000", "--format", "json"])
    assert hashlib.sha256(document.encode()).hexdigest() == RUN_JSON_4E_SHA256


def test_figure_bundle_bytes_are_pinned(tmp_path):
    invoke(["figures", "--steps", "1000", "--out-dir", str(tmp_path)])
    assert {path.name: sha256(path) for path in sorted(tmp_path.iterdir())} == FIGURES_SHA256
