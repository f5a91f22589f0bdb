"""The benchmark's trace sites exist in the library.

`perfbench/spans.py` wraps library functions by (path, attribute); a site
that a refactoring renames is skipped with a note and its layers report
zeros.  This checks every site resolves, without installing wrappers."""

import sys
from pathlib import Path

import pytest

import multiccs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

# `nets` takes its synchronizations through `lts.Moves.closure` and no
# longer imports `sync_outcomes`; the `lts` site covers the `sync` span
STALE = {("nets", "sync_outcomes")}

SITES = [(name, path, attr) for name, sites in spans.TRACED.items()
         for path, attr in sites]


@pytest.mark.parametrize("name,path,attr", SITES,
                         ids=["%s:%s.%s" % (n, p or "multiccs", a)
                              for n, p, a in SITES])
def test_trace_site_resolves(name, path, attr):
    owner = spans._resolve(multiccs, path)
    if (path, attr) in STALE:
        assert getattr(owner, attr, None) is None
        return
    assert owner is not None, "no %s in multiccs" % path
    fn = getattr(owner, attr, None)
    assert callable(fn), "%s.%s is gone" % (path or "multiccs", attr)
