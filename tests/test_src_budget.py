"""``src/anonauth`` stays below the seed's line count: a change that adds
code must pay for it with deletions elsewhere in the package."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anonauth"
SEED_LINES = 3387  # `wc -l src/anonauth/*.py` total of the seed


def test_package_is_below_the_seed_line_count():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines < SEED_LINES, f"src/anonauth/*.py holds {lines} lines, seed {SEED_LINES}"
