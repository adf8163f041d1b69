"""The benchmark tracer's hooks still find, and give back, what they patch.

``perfbench/run.py --trace 1`` wraps relsem entry points by name; a
renamed function or method would break it without any other test noticing.
"""

import importlib
import sys
from pathlib import Path

from relsem.generation import GeneratedSemigroup
from relsem.relations import BinaryRelation
from relsem.semigroups import AbstractSemigroup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PATCHED_CLASSES = (BinaryRelation, GeneratedSemigroup, AbstractSemigroup)
TRACED = {
    "search_d_transitive", "admissible_generator_counts",
    "_confirm_candidate", "verify_witness", "rgs_batches", "scan_candidates",
    "equal_on_pairs", "compose_mask", "from_partition", "generate",
    "find_isomorphism", "check_product_class", "product", "verify_smallest",
    "closure_pairs", "to_abstract", "__init__", "compose",
}


def _snapshot():
    """Every attribute of the relsem modules and of the patched classes."""
    owners = [mod for name, mod in sorted(sys.modules.items())
              if name == "relsem" or name.startswith("relsem.")]
    owners.extend(PATCHED_CLASSES)
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_tracer_install_patches_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in tracer._undo:
            assert vars(owner)[attr] is not original, (owner, attr)
        # every traced entry point was found under at least one binding
        wrapped = {attr for _, attr, _ in tracer._undo}
        assert TRACED <= wrapped, TRACED - wrapped
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        for attr, value in attrs.items():
            assert now[attr] is value, (owner, attr)
