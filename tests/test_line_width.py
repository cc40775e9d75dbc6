"""Every line of the Python sources under src/, tests/ and tools/ is at most 100 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_COLUMNS = 100


def test_no_line_is_wider_than_100_columns():
    wide = []
    for top in ("src", "tests", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            lines = path.read_text(encoding="utf-8").splitlines()
            wide += [f"{path.relative_to(ROOT)}:{number} ({len(line)} columns)"
                     for number, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert wide == []
