"""The suite tests this checkout's package, not an installed copy."""

from pathlib import Path

import caden


def test_caden_is_imported_from_the_checkout_src():
    src = Path(__file__).resolve().parents[1] / "src"
    assert src in Path(caden.__file__).resolve().parents
