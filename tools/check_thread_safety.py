#!/usr/bin/env python3
"""CI guard: worker code paths must justify every touch of shared state.

The threads backend (``repro/core/threads.py``) executes blocks on worker
threads **inside the engine's process**: any statement that reaches
through the live engine object can race the supervisor, the merge phase
or another worker.  Its safety argument is a short list of invariants
(one block per processor per stage, thread-local charge logs and
checkpoints, merge-in-block-order), and each touch of shared state must
say which invariant covers it.

This lint enforces that: inside the registered worker-path functions,
any statement whose expression tree reaches a *shared root* name (the
live engine, and anything else a registry entry lists) fails CI unless
the statement carries a ``# thread-safe: <reason>`` annotation on the
same line or in the contiguous comment block directly above it.  Reads
are flagged too -- a racy read of state another thread mutates is as
wrong as a racy write, and the annotation is where the "this is
read-only here" argument belongs.

shm worker functions are not scanned: they run post-fork in a child
address space where every object is private by construction.

Exits non-zero with a report on violation.  Run from the repo root::

    python tools/check_thread_safety.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: file -> (worker-path function names, shared-root variable names).
#: A function name matches both plain functions and methods.
WORKER_PATHS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "core/threads.py": (("_run_thread_task", "_worker_loop"), ("eng",)),
}

ANNOTATION = "thread-safe:"


def _annotated(source_lines: list[str], lineno: int) -> bool:
    """Whether the statement at 1-based ``lineno`` is justified: the
    annotation may sit on the statement's first line or anywhere in the
    contiguous comment block directly above it."""
    if ANNOTATION in source_lines[lineno - 1]:
        return True
    k = lineno - 2
    while k >= 0 and source_lines[k].lstrip().startswith("#"):
        if ANNOTATION in source_lines[k]:
            return True
        k -= 1
    return False


def _touches(node: ast.AST, roots: tuple[str, ...]) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in roots
        for sub in ast.walk(node)
    )


def _header_nodes(stmt: ast.stmt) -> list[ast.AST]:
    """The parts of a statement attributable to its own first line(s):
    for compound statements, the header expression only -- the body is
    visited statement by statement so each line needs its own
    justification."""
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.While, ast.If)):
        return [stmt.test]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def _body_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    blocks: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if block:
            blocks.append(block)
    for handler in getattr(stmt, "handlers", []):
        blocks.append(handler.body)
    return blocks


def check_function(
    path: pathlib.Path,
    fn: ast.FunctionDef,
    roots: tuple[str, ...],
    lines: list[str],
) -> list[str]:
    problems: list[str] = []

    def visit_block(block: list[ast.stmt]) -> None:
        for stmt in block:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_block(stmt.body)
                continue
            header = _header_nodes(stmt)
            if any(_touches(node, roots) for node in header) and not _annotated(
                lines, stmt.lineno
            ):
                problems.append(
                    f"{path.relative_to(ROOT)}:{stmt.lineno} [{fn.name}]: "
                    f"touches shared state ({'/'.join(roots)}) from a "
                    "worker code path"
                )
            for inner in _body_blocks(stmt):
                visit_block(inner)

    visit_block(fn.body)
    return problems


def check_file(
    path: pathlib.Path, functions: tuple[str, ...], roots: tuple[str, ...]
) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    problems: list[str] = []
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found.add(node.name)
            problems.extend(check_function(path, node, roots, lines))
    for missing in sorted(set(functions) - found):
        problems.append(
            f"{path.relative_to(ROOT)}: registered worker-path function "
            f"{missing!r} not found (update WORKER_PATHS in "
            "tools/check_thread_safety.py)"
        )
    return problems


def main() -> int:
    problems: list[str] = []
    for entry, (functions, roots) in sorted(WORKER_PATHS.items()):
        problems.extend(check_file(SRC / entry, functions, roots))
    for problem in problems:
        print(f"THREAD-SAFETY: {problem}", file=sys.stderr)
    if problems:
        print(
            f"\n{len(problems)} violation(s); worker threads share the "
            "engine's address space, so every statement that reaches the "
            "live engine must state its safety argument with "
            "'# thread-safe: <reason>' (exclusive per-proc state, "
            "thread-local log/checkpoint, read-only map, ...).",
            file=sys.stderr,
        )
        return 1
    print("thread-safety guard: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
