"""``src/anonauth`` stays below the seed's line count: a change that adds
code must pay for it with deletions elsewhere in the package, not by
packing more onto each line."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anonauth"
SEED_LINES = 3387  # `wc -l src/anonauth/*.py` total of the seed
MAX_LINE_CHARS = 99


def test_package_is_below_the_seed_line_count():
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines < SEED_LINES, f"src/anonauth/*.py holds {lines} lines, seed {SEED_LINES}"


def test_no_line_is_over_the_width_limit():
    long = [
        f"{p.name}:{number}"
        for p in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(p.read_text().splitlines(), 1)
        if len(line) > MAX_LINE_CHARS
    ]
    assert not long, f"lines over {MAX_LINE_CHARS} characters: {long}"
