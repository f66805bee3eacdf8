"""Store keys: content addressing, stability, deliberate exclusions."""

import os
import subprocess
import sys

import pytest

from repro.core.library import GateLibrary
from repro.core.spec import Specification
from repro.store import VOLATILE_OPTIONS, key_payload, store_key


def _spec(name=""):
    return Specification.from_permutation([7, 1, 4, 3, 0, 2, 6, 5], name=name)


def _lib(n=3, kinds=("mct",)):
    return GateLibrary.from_kinds(n, kinds)


def test_key_is_deterministic_and_hex():
    key = store_key(_spec(), _lib(), "bdd")
    assert key == store_key(_spec(), _lib(), "bdd")
    assert len(key) == 64
    int(key, 16)  # valid hex


def test_spec_name_is_not_part_of_the_address():
    assert store_key(_spec("alpha"), _lib(), "bdd") \
        == store_key(_spec("omega"), _lib(), "bdd")


def test_rows_and_dont_cares_are_part_of_the_address():
    complete = _spec()
    rows = [list(row) for row in complete.rows]
    rows[0][0] = None  # same function, one requirement relaxed
    relaxed = Specification(3, rows)
    assert store_key(complete, _lib(), "bdd") \
        != store_key(relaxed, _lib(), "bdd")


def test_engine_library_and_bounds_change_the_key():
    base = store_key(_spec(), _lib(), "bdd")
    assert store_key(_spec(), _lib(), "sat") != base
    assert store_key(_spec(), _lib(kinds=("mct", "mcf")), "bdd") != base
    assert store_key(_spec(), _lib(), "bdd", use_bounds=True) != base
    assert store_key(_spec(), _lib(), "bdd", max_gates=4) != base


def test_answer_affecting_options_change_the_key():
    base = store_key(_spec(), _lib(), "sat")
    warm = store_key(_spec(), _lib(), "sat",
                     engine_options={"incremental": False})
    assert warm != base


def test_volatile_options_do_not_change_the_key():
    assert "cancel_token" in VOLATILE_OPTIONS
    base = store_key(_spec(), _lib(), "sat")
    noisy = store_key(_spec(), _lib(), "sat",
                      engine_options={"cancel_token": object()})
    assert noisy == base
    # The BDD engine's memory options change node counts, not answers.
    bdd = store_key(_spec(), _lib(), "bdd")
    for options in ({"reorder": 512}, {"reorder": True},
                    {"gc_threshold": 1000}, {"cache_limit": 10_000},
                    {"compact_between_depths": False}):
        assert set(options) <= VOLATILE_OPTIONS
        assert store_key(_spec(), _lib(), "bdd",
                         engine_options=options) == bdd, options


def test_engine_instance_is_rejected():
    from repro.synth.bdd_engine import BddSynthesisEngine
    instance = BddSynthesisEngine(_spec(), _lib())
    with pytest.raises(ValueError, match="engine"):
        store_key(_spec(), _lib(), instance)


def test_key_payload_excludes_the_name_everywhere():
    payload = key_payload(_spec("secret-label"), _lib(), "bdd")
    assert "secret-label" not in repr(payload)


def test_spec_digest_agrees_with_equality():
    a, b = _spec("a"), _spec("b")
    assert a == b
    assert a.content_digest() == b.content_digest()
    rows = [list(row) for row in a.rows]
    rows[0][0] = None
    c = Specification(3, rows)
    assert a != c
    assert a.content_digest() != c.content_digest()


_DIGEST_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.core.spec import Specification
from repro.core.library import GateLibrary
from repro.store import store_key
spec = Specification.from_permutation([7, 1, 4, 3, 0, 2, 6, 5], name="x")
lib = GateLibrary.from_kinds(3, ("mct",))
print(spec.content_digest())
print(store_key(spec, lib, "bdd", engine_options={{"incremental": True}}))
"""


def test_digests_are_stable_across_hash_seeds():
    """Regression: keys must not depend on PYTHONHASHSEED.

    Python's builtin ``hash`` is salted per process; anything built on
    it would address the same configuration differently between runs
    and silently never hit.  The digest is explicit serialized bytes
    through SHA-256, so two interpreters with adversarially different
    seeds must print identical digests.
    """
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    snippet = _DIGEST_SNIPPET.format(src=src)
    outputs = []
    for seed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", snippet], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    # And the parent process (whatever its seed) agrees too.
    spec_digest, key = outputs[0].split()
    spec = Specification.from_permutation([7, 1, 4, 3, 0, 2, 6, 5], name="x")
    assert spec.content_digest() == spec_digest
    assert store_key(spec, GateLibrary.from_kinds(3, ("mct",)), "bdd",
                     engine_options={"incremental": True}) == key
