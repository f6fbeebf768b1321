"""Frozen JSON output of a fixed command corpus.

Each entry is the SHA-256 of the bytes `picardkit <command> --format json`
prints.  A refactor that keeps behaviour keeps every digest; a change that
alters a document on purpose must say so and refreeze the digest.
"""

import hashlib

import pytest

from picardkit.cli import main

GOLDEN_SHA256 = {
    "cones blowup --rank 0":
        "d1df4ed81adca411a36d1b604bc709ba160b95dc2b31637b71732791a21b190b",
    "cones blowup --rank 1":
        "2eea2dd9b67b7ba4b7f5b100f3fde89214d0c5f760f8912e6ae6fdf44e320054",
    "cones blowup --rank 2":
        "523757f68bdb383c1ca65cad5e36ad77784a97006c552578b8110b75e7ce69b2",
    "cones blowup --rank 3":
        "e1c4697799ad2a428d2fcabdde2df28438732a1cf466847828be2a5a94ba63fb",
    "cones blowup --rank 4":
        "3cd2df4005126257cbfb7e820b5f20d8337d27fa25f6e1a7a8ff3e51105430c3",
    "cones blowup --rank 5":
        "0057c758c3741aa2c8fcd58ffa7320441014df4c0cf222046362f706aa147eb3",
    "cones blowup --rank 6":
        "50f96de44288ed322ab2d89906f1c62310569b19b5e4d3e0e59b6fbb30f646d9",
    "cones blowup --rank 7":
        "516a8f69142ce6ffea07e42c63238ba41a4a5767420935d936be5a43a5436b26",
    "cones blowup --rank 8":
        "49b8e2122e9bcf8e5bb0997ecaf88055d587716835221514a5ebcc1c5c079d1f",
    "cones product --rank 2":
        "7c5701f938cb22ef8cbe469a384fd9b037579ed83249a6c301e58441fca65839",
    "verify cone-dp":
        "888ff3007ecfe47ec168612be147f66904ce17679b4d50529d0bffe75afac094",
    "verify quadric-target":
        "2ecc33711f7d64716b625870c273e3b0c5f08b6d950c05fc72e947221cfaa620",
    "verify double-cover-k":
        "ec0a3280091899e5f47b5b641615c2b4c0127037c7ad3e5df5a9e09d0ee68a0d",
    "cover 1,1,1":
        "7d6d1e69cab9110bc52b5126ada021a4bbfa3dd4cd48bbcc634a88b51e7c5f5d",
    "cover 0,1,2,2":
        "e17db67a0b378c1bd8b7679da4dc1ee0c4a8a7133373c70a86529ba9a96c3518",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_json_output_matches_frozen_digest(capsys, command):
    assert main(command.split() + ["--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256[command]
