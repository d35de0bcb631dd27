import doctest
from pathlib import Path

import ktower.cyclic
import ktower.fgab
import ktower.intlin
import ktower.ktwist
import ktower.towers


def test_doctests_pass():
    for module in (
        ktower.intlin,
        ktower.fgab,
        ktower.towers,
        ktower.ktwist,
        ktower.cyclic,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        assert result.attempted > 0, f"expected examples in {module.__name__}"


def test_readme_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0, "doctest failures in README.md"
    assert result.attempted > 0, "expected examples in README.md"
