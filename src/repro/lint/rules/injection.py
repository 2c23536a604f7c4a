"""``injection-discipline`` — chaos faults stay typed and statically visible.

The chaos harness makes two promises the rest of the repo relies on:

* **Typed failures only.**  An injected fault must raise (or provoke)
  an error from the owning layer's hierarchy — ``ArtifactError``,
  ``PoolError``, ``CrashError`` — so recovery code sees exactly what a
  real failure would look like.  A fault that raises a raw
  ``OSError``/``RuntimeError`` tests nothing but the harness's own
  sloppiness, and worse, trains recovery paths to catch untyped
  exceptions.  Flagged: ``raise <builtin>`` anywhere under
  ``repro/chaos/`` (the harness holds itself to the same standard it
  enforces — its own errors derive from ``ChaosError``).
* **A statically enumerable site catalog.**  ``inject("literal.name",
  ...)`` calls are the complete inventory of where the system can be
  made to fail; the catalog in ``docs/robustness.md`` and the
  ``--list`` output are trustworthy only if every call site names its
  site as a string literal.  Flagged: any ``inject(...)`` call whose
  first argument is not a string literal.  Every layer, the serve
  supervisor included, fires its sites through ``inject()``, so the
  rule sees every seam.
"""

from __future__ import annotations

import ast

from repro.lint.registry import Rule, register
from repro.lint.visitor import expr_text

#: Builtin exception types a chaos fault must never raise directly.
_BANNED_RAISES = {
    "ArithmeticError",
    "AssertionError",
    "AttributeError",
    "BaseException",
    "BufferError",
    "ConnectionError",
    "EOFError",
    "Exception",
    "FileExistsError",
    "FileNotFoundError",
    "IOError",
    "IndexError",
    "InterruptedError",
    "KeyError",
    "LookupError",
    "NotImplementedError",
    "OSError",
    "PermissionError",
    "RuntimeError",
    "StopIteration",
    "TimeoutError",
    "TypeError",
    "ValueError",
}


@register
class InjectionDiscipline(Rule):
    name = "injection-discipline"
    summary = (
        "chaos code raises typed errors only, and inject() sites are "
        "string literals (the catalog must be statically enumerable)"
    )
    rationale = (
        "A fault raising a raw builtin teaches recovery paths to catch "
        "untyped errors; a computed inject() site name makes the "
        "documented injection-site catalog silently incomplete."
    )
    scope = ("*",)

    def visit(self, node: ast.AST, ctx) -> None:
        if isinstance(node, ast.Raise):
            self._check_raise(node, ctx)
        elif isinstance(node, ast.Call):
            self._check_inject(node, ctx)

    def _check_raise(self, node: ast.Raise, ctx) -> None:
        if ctx.relpath is not None and not ctx.relpath.startswith("repro/chaos/"):
            return
        if node.exc is None:
            return
        exc = node.exc
        name = ""
        if isinstance(exc, ast.Call):
            name = expr_text(exc.func)
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BANNED_RAISES:
            self.emit(
                ctx,
                node,
                f"chaos code raises builtin {name}; injected and harness "
                "failures must be typed — raise from the owning layer's "
                "hierarchy (ArtifactError/PoolError/CrashError) or from "
                "repro.chaos.errors.ChaosError",
            )

    def _check_inject(self, node: ast.Call, ctx) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name != "inject" or not node.args:
            return
        site = node.args[0]
        if isinstance(site, ast.Constant) and isinstance(site.value, str):
            return
        self.emit(
            ctx,
            node,
            f"inject() called with a non-literal site ({expr_text(site)}); "
            "site names must be string literals so the injection-site "
            "catalog is statically enumerable",
        )
