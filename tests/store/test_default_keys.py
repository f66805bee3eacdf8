"""Pinned store keys of 3_17 under each engine's default options.

The digests are literal: a change that alters what a default run is
addressed by (an option defaulted into the key, a payload field added
or renamed) fails here instead of silently orphaning every stored
entry.  Move them only with a deliberate change of the key format.
"""

import pytest

from repro.core.library import GateLibrary
from repro.functions import get_spec
from repro.store import SynthesisStore, derive_store_key, store_key
from repro.synth.driver import synthesize

#: engine -> (literal store_key, orbit-canonical key synthesize() uses)
PINNED_KEYS = {
    "bdd": ("d6d140f875c12c3b56bd8c00c042d417d4f5c7423898b049f7f77ef3b1d3b256",
            "38b212c721ce7a5ddaca881896b311766132a60d553f257a4f40342f02931540"),
    "sat": ("6c5c6ec6a17a06fa2408e6c47b835e372f3697a6e37ae40da23570610e721c5f",
            "849a935da0b32c107a9b68bf14de63e2f70f07b6f0d208b2c1c939442da60757"),
    "qbf": ("f6cff2da0d11de5c6aa7d1e98e987f9554010ed0b7c61cf689b010cf7833da02",
            "bfe8a39d82ddd0801f44869772cafc47335f973f9b956a59901793f191dacf89"),
    "sword": ("64391ad2a667000b5922f880636ef4bca5bd5a23a826baaa35f90aa6fa52a8c5",
              "dbfaa3e4f787df4025915f521a24ed79ac40fffe5026df668e4c35be0650db4f"),
}


@pytest.mark.parametrize("engine", sorted(PINNED_KEYS))
def test_default_keys_are_pinned(engine):
    spec = get_spec("3_17")
    library = GateLibrary.mct(3)
    literal, orbit = PINNED_KEYS[engine]
    assert store_key(spec, library, engine) == literal
    assert derive_store_key(spec, library, engine).key == orbit


@pytest.mark.parametrize("engine", sorted(PINNED_KEYS))
def test_default_run_commits_under_the_pinned_key(engine, tmp_path):
    result = synthesize(get_spec("3_17"), engine=engine, store=str(tmp_path))
    assert result.realized
    keys = [entry["key"] for entry in SynthesisStore(str(tmp_path)).entries()]
    assert keys == [PINNED_KEYS[engine][1]]
