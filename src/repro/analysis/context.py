"""Per-module analysis context handed to every rule."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .suppressions import Suppression, SuppressionProblem, scan_suppressions

#: Packages whose modules make (or directly shape) tuner decisions; the
#: determinism rules are strictest here because any nondeterminism in
#: these paths changes the fixed-seed decision sequence.
DECISION_PACKAGES = ("core", "gp", "ml", "tuners")


def repro_subpath(display: str) -> str | None:
    """Path relative to the ``repro`` package root, or ``None``.

    Recognizes the ``src/repro/`` layout anywhere in the path, so both
    in-repo paths (``src/repro/ml/tree.py``) and test fixtures under a
    tmpdir (``/tmp/x/src/repro/ml/tree.py``) resolve the same way.
    """
    parts = PurePosixPath(display.replace("\\", "/")).parts
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            rest = parts[i + 2:]
            return "/".join(rest) if rest else None
    return None


@dataclass
class ModuleContext:
    """One parsed module plus its suppression table.

    Rules read the AST (``tree``), the raw ``source``, and the
    path-derived scope helpers; the engine owns suppression matching.
    """

    path: Path
    display: str
    source: str
    tree: ast.Module
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    suppression_problems: list[SuppressionProblem] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, display: str | None = None) -> "ModuleContext":
        """Parse *path*; raises ``SyntaxError`` on unparsable source."""
        return cls.from_source(path, path.read_text(encoding="utf-8"),
                               display=display)

    @classmethod
    def from_source(cls, path: Path, source: str,
                    display: str | None = None) -> "ModuleContext":
        """Parse already-read *source* (the engine reads each file once)."""
        shown = display if display is not None else str(path)
        tree = ast.parse(source, filename=shown)
        suppressions, problems = scan_suppressions(source)
        return cls(path=path, display=shown, source=source, tree=tree,
                   suppressions=suppressions, suppression_problems=problems)

    # -- scope helpers --------------------------------------------------------
    @property
    def repro_subpath(self) -> str | None:
        """Module path relative to ``src/repro/`` (``None`` outside it)."""
        return repro_subpath(self.display)

    @property
    def in_repro_package(self) -> bool:
        return self.repro_subpath is not None

    @property
    def in_decision_path(self) -> bool:
        """Whether this module belongs to a decision-path package."""
        sub = self.repro_subpath
        if sub is None:
            return False
        return any(sub.startswith(pkg + "/") for pkg in DECISION_PACKAGES)

    def is_module(self, *subpaths: str) -> bool:
        """Whether this module is one of the given ``repro``-relative files."""
        return self.repro_subpath in subpaths
