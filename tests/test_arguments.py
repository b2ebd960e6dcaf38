"""The integer-argument contract of the library.

Every public function reads its integer arguments through one helper,
partition._integer: a float, a numeric string or a value below the bound
is a ValueError that names the argument, never truncated to another
integer or left to fail deep in the arithmetic.  The rows of hookstats,
PartFilter and the core streams sit with their modules' tests.
"""

import ast
import re
from collections.abc import Iterator
from pathlib import Path

import pytest

import corehooks
from corehooks.partition import Partition
from corehooks.qseries import (
    core_count_series,
    triangular_indicator_series,
    triple_triangular_series,
)
from corehooks.quadform import (
    check_triangular_4core_pair,
    is_dickson_excluded,
    odd_representation,
    representable_flags,
)
from corehooks.verify import (
    check_2core_ladder,
    check_restricted_4core_formula,
    region_theorem_scan,
    scan_conjecture_5core,
)

P31 = Partition([3, 1])

# (function, arguments, the whole message)
ARGUMENT_CONTRACT = [
    (region_theorem_scan, (5.5,), "n_max must be an integer, got 5.5"),
    (region_theorem_scan, ("8",), "n_max must be an integer, got '8'"),
    (region_theorem_scan, (8, [2.5]), "t must be an integer, got 2.5"),
    (region_theorem_scan, (8, ["3"]), "t must be an integer, got '3'"),
    (region_theorem_scan, (5, [0]), "t must be positive, got 0"),
    (check_2core_ladder, (3.0,), "ell_max must be an integer, got 3.0"),
    (check_2core_ladder, ("3",), "ell_max must be an integer, got '3'"),
    (check_restricted_4core_formula, (2.0,), "ell_max must be an integer, got 2.0"),
    (check_restricted_4core_formula, ("2",), "ell_max must be an integer, got '2'"),
    (scan_conjecture_5core, (10.0,), "n_max must be an integer, got 10.0"),
    (scan_conjecture_5core, ("10",), "n_max must be an integer, got '10'"),
    (core_count_series, (3.0, 10), "t must be an integer, got 3.0"),
    (core_count_series, ("3", 10), "t must be an integer, got '3'"),
    (core_count_series, (3, 10.0), "order must be an integer, got 10.0"),
    (core_count_series, (3, "10"), "order must be an integer, got '10'"),
    (triangular_indicator_series, (10.0,), "order must be an integer, got 10.0"),
    (triangular_indicator_series, ("10",), "order must be an integer, got '10'"),
    (triple_triangular_series, (10.0,), "order must be an integer, got 10.0"),
    (triple_triangular_series, ("10",), "order must be an integer, got '10'"),
    (is_dickson_excluded, (7.0,), "n must be an integer, got 7.0"),
    (is_dickson_excluded, ("7",), "n must be an integer, got '7'"),
    (representable_flags, (10.0,), "n_max must be an integer, got 10.0"),
    (representable_flags, ("10",), "n_max must be an integer, got '10'"),
    (odd_representation, (2.0,), "h must be an integer, got 2.0"),
    (odd_representation, ("2",), "h must be an integer, got '2'"),
    (check_triangular_4core_pair, (3.0,), "h_max must be an integer, got 3.0"),
    (check_triangular_4core_pair, ("3",), "h_max must be an integer, got '3'"),
    (Partition, ([2.5, 1],), "parts must be integers, got 2.5"),
    (Partition, (["3", 1],), "parts must be integers, got '3'"),
    (P31.is_t_core, (2.5,), "t must be an integer, got 2.5"),
    (P31.is_t_core, ("3",), "t must be an integer, got '3'"),
    (P31.has_exact_hook, (2.5,), "t must be an integer, got 2.5"),
    (P31.has_exact_hook, ("2",), "t must be an integer, got '2'"),
    (P31.has_exact_hook, (0,), "t must be positive, got 0"),
    (P31.is_valid_cell, ((1, 2.0),), "col must be an integer, got 2.0"),
    (P31.hook_length, ((1, 2.0),), "col must be an integer, got 2.0"),
    (P31.hook_length, ((1.0, 1),), "row must be an integer, got 1.0"),
    (P31.hook_length, (("1", 1),), "row must be an integer, got '1'"),
    (P31.region, ((1, 1.5),), "col must be an integer, got 1.5"),
    (P31.region, ((1.0, 1),), "row must be an integer, got 1.0"),
]


@pytest.mark.parametrize(
    "fn,args,message",
    ARGUMENT_CONTRACT,
    ids=[f"{fn.__qualname__}{args!r}" for fn, args, _ in ARGUMENT_CONTRACT],
)
def test_integer_arguments_are_read_by_name(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        out = fn(*args)
        if isinstance(out, Iterator):
            list(out)


# The wording of the argument policy, which only partition._integer spells.
POLICY_PHRASES = ("must be an integer", "must be integers", "must be non-negative", "must be at least")

# Raised messages that keep their own wording: (module, message text) -> why.
OWN_WORDING = {
    ("quadform.py", "h must be at least 2, got "): (
        "OddRepresentation.__new__ checks a record's field, not an argument"
    ),
}


def _policy_messages(path: Path) -> set[tuple[str, str]]:
    """(module, message text) for each raise in the module whose string
    constants spell a policy phrase, outside partition._integer."""
    tree = ast.parse(path.read_text())
    skipped = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_integer"
        and path.name == "partition.py"
    ]
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        if any(node.lineno in lines for lines in skipped):
            continue
        text = "".join(
            c.value for c in ast.walk(node.exc)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
        )
        if any(phrase in text for phrase in POLICY_PHRASES):
            found.add((path.name, text))
    return found


def test_argument_policy_is_spelled_only_by_the_reader():
    # cli.py names its own options and reads its own text
    modules = sorted(Path(corehooks.__file__).parent.glob("*.py"))
    found = set().union(*(_policy_messages(p) for p in modules if p.name != "cli.py"))
    assert found == set(OWN_WORDING)
