"""Golden token streams of the ten Olden sources.

Each entry is the token count and the sha256 of the JSON list of
``[kind, text, value, line, column]`` for every token (EOF included),
captured from the per-character scanner the regex lexer replaced.  Any
change to a token's kind, spelling, decoded value or location changes
the digest.
"""

import hashlib
import json

import pytest

from repro.frontend.lexer import tokenize
from repro.olden.loader import catalog

GOLDEN = {
    "bh": (1854, "0569bcc0706f283edfa584d143ecedbe1268ad8a4a2128debd4521495f433a02"),
    "bisort": (805, "530bce4e5dfdc7233cc97408762c70cbc5ed16188937e820ea1b51a1175fa6e4"),
    "em3d": (814, "d59d3411670e129ac63000ba6f0ef191340d13d44b6c7a197bf888cbdc1c7034"),
    "health": (1698, "9bd9b64e596f0daeaaa2dc2fb659fb7ff273925a758853beace6d60a4c24a870"),
    "mst": (936, "4ff1e218dce98bfbe4a86c695f3aa3a2f13dea70485ab90047ad99a14a1a9835"),
    "perimeter": (1880, "af3f8e303ba5c3eb99d6958dee33fe918ca432d9f56555b2550143b89fffb842"),
    "power": (1448, "c2d5a29014cf21d40e8c30b4dec32223c8af2b0e189cb335203f81d1271a4612"),
    "treeadd": (674, "c1eea6008af5c790f198e3dbe0813335b94b1bd21424e1e2b0cc6c708819137b"),
    "tsp": (931, "7bb079d5d08466d3e983143753a586441f539aad2a530612f25331756fc72ba9"),
    "voronoi": (788, "88ce31055596bc596140577e172d4d8543a7a0ab5f96ad3ea1c381dbbc908dac"),
}


def token_digest(source, filename):
    rows = [[t.kind, t.text, t.value, t.loc.line, t.loc.column]
            for t in tokenize(source, filename)]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return len(rows), hashlib.sha256(blob).hexdigest()


def test_golden_covers_the_catalog():
    assert sorted(GOLDEN) == sorted(spec.name for spec in catalog())


@pytest.mark.parametrize("spec", catalog(), ids=lambda spec: spec.name)
def test_olden_tokens_match_golden(spec):
    assert token_digest(spec.source(), spec.filename) == GOLDEN[spec.name]
