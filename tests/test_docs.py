"""Documentation-site pins that run without Sphinx installed.

The site itself is built (warnings-as-errors) in the CI ``docs`` job;
these tests pin the properties most likely to rot locally:

* **autodoc coverage** — every name in ``repro.api.__all__`` has an
  explicit autodoc directive in ``docs/reference/api.rst`` (the
  acceptance bar: full coverage of the public surface);
* **toctree closure** — every ``.rst`` source is reachable from the
  root toctree (an orphaned document is a warning, and warnings are
  errors in CI);
* **docstring presence** — every pinned public symbol carries a
  NumPy-style docstring.
"""

from __future__ import annotations

import os
import re

import pytest

import repro.api as api

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs")


def _read(*parts: str) -> str:
    with open(os.path.join(DOCS, *parts), encoding="utf-8") as fh:
        return fh.read()


def test_docs_tree_exists():
    for name in ("conf.py", "index.rst", "quickstart.rst",
                 "architecture.rst", "transport.rst", "migration.rst"):
        assert os.path.exists(os.path.join(DOCS, name)), name


def test_api_reference_covers_public_surface():
    """Every ``repro.api.__all__`` name has an autodoc directive."""
    text = _read("reference", "api.rst")
    directives = set(
        re.findall(
            r"^\.\. auto(?:class|function|data):: *([A-Za-z_0-9]+)",
            text,
            flags=re.MULTILINE,
        )
    )
    missing = sorted(set(api.__all__) - directives)
    assert not missing, f"api.rst lacks autodoc entries for: {missing}"


def test_reference_pages_cover_required_packages():
    """The ISSUE's required reference scope: api, cbs, solvers, transport."""
    for page, modules in {
        "api.rst": ["repro.api"],
        "cbs.rst": ["repro.cbs.scan", "repro.cbs.orchestrator"],
        "solvers.rst": ["repro.solvers.registry", "repro.solvers.batched"],
        "transport.rst": [
            "repro.transport.selfenergy",
            "repro.transport.decimation",
            "repro.transport.device",
            "repro.transport.scan",
        ],
        "service.rst": [
            "repro.service.service",
            "repro.service.store",
            "repro.service.http",
            "repro.service.protocol",
        ],
        "maps.rst": ["repro.maps", "repro.maps.surrogate"],
    }.items():
        text = _read("reference", page)
        for module in modules:
            assert f".. automodule:: {module}" in text, (page, module)


def test_every_rst_is_in_a_toctree():
    """No orphan documents (a -W failure in the CI docs build)."""
    sources = set()
    for root, _dirs, files in os.walk(DOCS):
        if "_build" in root:
            continue
        for name in files:
            if name.endswith(".rst"):
                rel = os.path.relpath(os.path.join(root, name), DOCS)
                sources.add(rel.replace(os.sep, "/")[: -len(".rst")])
    sources.discard("index")

    referenced = set()
    for root, _dirs, files in os.walk(DOCS):
        if "_build" in root:
            continue
        for name in files:
            if not name.endswith(".rst"):
                continue
            text = _read(os.path.relpath(root, DOCS), name) if (
                os.path.relpath(root, DOCS) != "."
            ) else _read(name)
            in_toctree = False
            for line in text.splitlines():
                if re.match(r"^\.\. toctree::", line):
                    in_toctree = True
                    continue
                if in_toctree:
                    if line.strip() == "" or line.startswith("   :"):
                        continue
                    if line.startswith("   "):
                        referenced.add(line.strip())
                    else:
                        in_toctree = False
    orphans = sorted(sources - referenced)
    assert not orphans, f"rst files missing from every toctree: {orphans}"


PINNED_SYMBOLS = [
    api.CBSJob,
    api.SystemSpec,
    api.RingSpec,
    api.ScanSpec,
    api.ExecutionSpec,
    api.TransportSpec,
    api.MapSpec,
    api.compute,
    api.compute_iter,
    api.save_result,
    api.load_result,
]


@pytest.mark.parametrize(
    "symbol", PINNED_SYMBOLS, ids=lambda s: s.__name__
)
def test_pinned_symbols_have_numpy_docstrings(symbol):
    doc = symbol.__doc__
    assert doc and len(doc.strip()) > 80, f"{symbol.__name__} undocumented"
    # dataclasses may document their fields as Attributes instead
    assert "Parameters" in doc or "Attributes" in doc, (
        f"{symbol.__name__} docstring lacks a NumPy-style "
        f"Parameters/Attributes section"
    )
