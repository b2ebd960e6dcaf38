"""The library example at the top of README.md runs, and its comments
state what it returns."""

import re
from collections import Counter
from pathlib import Path

from corehooks.verify import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs_and_its_comments_hold():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    p = ns["p"]
    assert p.hook_profile() == Counter({1: 4, 3: 3, 5: 2, 9: 1, 7: 1, 2: 1})
    assert f"# {p.hook_profile()!r}" in block
    assert p.is_t_core(4)
    assert [c.parts for c in ns["t_cores_of"](6, 4)] == [(4, 1, 1), (3, 2, 1), (3, 1, 1, 1)]
    assert ns["count_t_cores"](6, 4) == 3
    total_hook_count = ns["total_hook_count"]
    assert total_hook_count(6, 2, 1) == 3
    assert total_hook_count(9, 4, 1, ns["no_small"]) == 2


def test_readme_check_table_lists_every_check():
    table = re.search(r"### Verification checks\n\n(.*?)\n\n", README.read_text(), re.S).group(1)
    names = [line.split("|")[1].strip() for line in table.splitlines()[2:]]
    assert sorted(names) == sorted(CHECKS)
