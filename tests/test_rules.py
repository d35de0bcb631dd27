"""Every rule id cited in a comment under src/ has a section in
docs/rules.md, and every section there is cited under src/.

An id is lowercase, has one dot and at least one hyphen, for example
``su.order-closed-form``; a section is a ``## <id>`` heading.
"""

import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RULE_ID = re.compile(r"(?<![\w.-])[a-z0-9]+(?:-[a-z0-9]+)*\.[a-z0-9]+(?:-[a-z0-9]+)*(?![\w-]|\.\w)")
SECTION = re.compile(r"^## (\S+)$", re.MULTILINE)


def cited_ids(src: Path) -> set[str]:
    ids = set()
    for path in sorted(src.rglob("*.py")):
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.COMMENT:
                    ids.update(i for i in RULE_ID.findall(tok.string) if "-" in i)
    return ids


def documented_ids(rules: Path) -> set[str]:
    return set(SECTION.findall(rules.read_text(encoding="utf-8")))


def test_cited_ids_and_sections_agree():
    cited = cited_ids(ROOT / "src")
    documented = documented_ids(ROOT / "docs" / "rules.md")
    assert {"su.order-closed-form", "hp.exterior-halves"} <= documented
    assert sorted(cited - documented) == [], "cited in src/ without a section in docs/rules.md"
    assert sorted(documented - cited) == [], "a section in docs/rules.md that src/ never cites"

