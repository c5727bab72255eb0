"""Smoke test of ``tools/output_digest.py``, the script that shows two
source trees give byte-identical outputs."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_output_digest_on_two_seeds():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.digests(range(2))
    assert list(first) == [
        "subset profiles", "subset value functions", "solve --algo both --json",
        "trace --json", "trace --algo simple --json", "oracle --json",
        "feas --json at theta* and theta* - 1/2", "extract at theta*"]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in first.values())
    assert len(set(first.values())) == len(first)
    assert tool.digests(range(2)) == first
    assert tool.digests(range(1, 3)) != first
    # the k = 8 gen recipes, as generated and with zero supplies
    wide = tool.digests(range(0), tool.WIDE[:2])
    assert list(wide) == list(first) and not set(wide.values()) & set(first.values())
