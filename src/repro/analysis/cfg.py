"""A try/finally-aware structured control-flow walk for lock tracking.

Python function bodies are *structured*: every control-flow graph a function
can have is expressible as nested ``if``/loops/``try`` blocks, so a recursive
walk over the statement tree that threads abstract states through each
construct **is** a CFG traversal — with the enormous practical advantage that
``try``/``finally`` edges (the part ad-hoc linters get wrong) fall out of the
recursion for free.

:class:`LockFlow` runs a may-analysis over *held lock keys* (the textual
receiver of ``<recv>.acquire(...)``):

* a statement's calls are scanned in evaluation order; ``acquire`` adds the
  key, ``release`` removes it, ``release_all`` clears everything;
* ``if``/``match`` branches fork the state and the exits union;
* loops use an asymmetric approximation: keys *acquired* in the body may be
  held afterwards (the zero-iteration path unions in), while keys *released*
  in the body are removed from every outgoing state.  The release side is
  deliberately "must": the discipline this repo enforces releases exactly the
  acquired set by iterating it (``for m in reversed(locked): release(m)``),
  and a path-insensitive walk cannot correlate the two loops' trip counts —
  treating loop releases as unconditional keeps the canonical pattern clean
  while still flagging an acquire loop with no release anywhere on the path;
* ``try`` routes the body's exception exits through the handlers (a handler
  naming ``Exception``/``BaseException`` — or a bare one — absorbs the
  body's raise paths) and *every* outgoing state through ``finally``;
* ``return``/``raise``/``break``/``continue`` produce abrupt states; loops
  absorb their own breaks/continues, the function exit collects the rest.

The result is the set of :class:`PathState` values describing every way
control can leave the body, each with the locks still held at that point.
Nested function/class definitions are opaque (they do not execute inline).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable

#: Exit kinds of a :class:`PathState`.
FALL, RETURN, RAISE, BREAK, CONTINUE = "fall", "return", "raise", "break", "continue"

#: Handler type names that absorb every exception raised in a ``try`` body.
_CATCH_ALL = {"Exception", "BaseException"}


@dataclass(frozen=True)
class PathState:
    """One way control leaves a block: the exit kind plus the held-lock set."""

    kind: str
    held: frozenset[str]


#: ``classify(call) -> ("acquire" | "release" | "release_all", key) | None``
CallClassifier = Callable[[ast.Call], "tuple[str, str] | None"]


class LockFlow:
    """Thread held-lock states through one function body."""

    def __init__(self, classify: CallClassifier) -> None:
        self._classify = classify

    # ------------------------------------------------------------------ entry

    def function_exits(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[PathState]:
        """Every exit state of ``node``'s body, starting with nothing held."""
        states, _released = self._walk_body(node.body, frozenset())
        # A fall-off-the-end is an implicit ``return``.
        return {PathState(RETURN, s.held) if s.kind == FALL else s for s in states}

    # ------------------------------------------------------------- statements

    def _walk_body(self, body: Iterable[ast.stmt],
                   held: frozenset[str]) -> tuple[set[PathState], set[str]]:
        """Walk a statement sequence; returns (exit states, keys released)."""
        released: set[str] = set()
        live: set[frozenset[str]] = {held}
        abrupt: set[PathState] = set()
        for stmt in body:
            if not live:
                break  # every path already left the block
            next_live: set[frozenset[str]] = set()
            for state in live:
                states, stmt_released = self._walk_stmt(stmt, state)
                released |= stmt_released
                for exit_state in states:
                    if exit_state.kind == FALL:
                        next_live.add(exit_state.held)
                    else:
                        abrupt.add(exit_state)
            live = next_live
        return {PathState(FALL, h) for h in live} | abrupt, released

    def _walk_stmt(self, stmt: ast.stmt,
                   held: frozenset[str]) -> tuple[set[PathState], set[str]]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return {PathState(FALL, held)}, set()
        if isinstance(stmt, ast.Return):
            held, released = self._apply_calls(stmt, held)
            return {PathState(RETURN, held)}, released
        if isinstance(stmt, ast.Raise):
            held, released = self._apply_calls(stmt, held)
            return {PathState(RAISE, held)}, released
        if isinstance(stmt, ast.Break):
            return {PathState(BREAK, held)}, set()
        if isinstance(stmt, ast.Continue):
            return {PathState(CONTINUE, held)}, set()
        if isinstance(stmt, ast.If):
            return self._walk_branches(stmt.test, [stmt.body, stmt.orelse], held)
        if isinstance(stmt, ast.Match):
            branches = [case.body for case in stmt.cases]
            branches.append([])  # no case may match
            return self._walk_branches(stmt.subject, branches, held)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._walk_loop(stmt.iter, stmt.body, stmt.orelse, held)
        if isinstance(stmt, ast.While):
            return self._walk_loop(stmt.test, stmt.body, stmt.orelse, held)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            item_released: set[str] = set()
            for item in stmt.items:
                held, one_released = self._apply_calls(item.context_expr, held)
                item_released |= one_released
            states, released = self._walk_body(stmt.body, held)
            return states, released | item_released
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, held)
        # Plain statement: apply its calls in evaluation order.
        held, released = self._apply_calls(stmt, held)
        return {PathState(FALL, held)}, released

    # ------------------------------------------------------------- constructs

    def _walk_branches(self, guard: ast.expr | None, branches: list[list[ast.stmt]],
                       held: frozenset[str]) -> tuple[set[PathState], set[str]]:
        released: set[str] = set()
        if guard is not None:
            held, released = self._apply_calls(guard, held)
        states: set[PathState] = set()
        for branch in branches:
            branch_states, branch_released = self._walk_body(branch, held)
            states |= branch_states
            released |= branch_released
        return states, released

    def _walk_loop(self, head: ast.expr, body: list[ast.stmt],
                   orelse: list[ast.stmt],
                   held: frozenset[str]) -> tuple[set[PathState], set[str]]:
        held, released = self._apply_calls(head, held)
        body_states, body_released = self._walk_body(body, held)
        released |= body_released
        # One unrolling pass: a second iteration starts from any fall/continue
        # exit of the first, so a break/raise there sees locks acquired one
        # pass earlier.
        second_entries = {s.held for s in body_states
                          if s.kind in (FALL, CONTINUE)} - {held}
        for entry in second_entries:
            more_states, more_released = self._walk_body(body, entry)
            body_states |= more_states
            body_released |= more_released
            released |= more_released
        # May-acquire / must-release approximation (see module docstring):
        after: set[frozenset[str]] = {held - body_released}
        exits: set[PathState] = set()
        for state in body_states:
            if state.kind in (FALL, CONTINUE):
                after.add(state.held - body_released)
            elif state.kind == BREAK:
                # A break keeps its exact per-path held set (a release later
                # in the body was *not* executed) and skips the else clause.
                exits.add(PathState(FALL, state.held))
            else:
                exits.add(state)
        for after_held in after:
            else_states, else_released = self._walk_body(orelse, after_held)
            released |= else_released
            exits |= else_states
        return exits, released

    def _walk_try(self, stmt: ast.Try,
                  held: frozenset[str]) -> tuple[set[PathState], set[str]]:
        body_states, released = self._walk_body(stmt.body, held)
        catch_all = any(self._is_catch_all(handler) for handler in stmt.handlers)

        before_finally: set[PathState] = set()
        for state in body_states:
            if state.kind == RAISE and catch_all:
                continue  # rerouted through a handler below
            if state.kind == FALL:
                else_states, else_released = self._walk_body(stmt.orelse, state.held)
                released |= else_released
                before_finally |= else_states
            else:
                before_finally.add(state)

        # A handler can be entered from *any* point of the body: approximate
        # its entry states by the try-entry state plus every body exit state.
        handler_entries = {held} | {s.held for s in body_states}
        for handler in stmt.handlers:
            for entry in handler_entries:
                handler_states, handler_released = self._walk_body(handler.body, entry)
                released |= handler_released
                before_finally |= handler_states

        if not stmt.finalbody:
            return before_finally, released

        exits: set[PathState] = set()
        for state in before_finally:
            final_states, final_released = self._walk_body(stmt.finalbody, state.held)
            released |= final_released
            for final_state in final_states:
                if final_state.kind == FALL:
                    # The finally block fell through: the original exit
                    # resumes, with the finally's lock effects applied.
                    exits.add(PathState(state.kind, final_state.held))
                else:
                    exits.add(final_state)  # finally replaced the exit
        return exits, released

    @staticmethod
    def _is_catch_all(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        names = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        return any(isinstance(n, ast.Name) and n.id in _CATCH_ALL for n in names)

    # ------------------------------------------------------------------ calls

    def _apply_calls(self, node: ast.stmt | ast.expr,
                     held: frozenset[str]) -> tuple[frozenset[str], set[str]]:
        """Apply every acquire/release call inside ``node``, in AST order."""
        released: set[str] = set()
        mutable = set(held)
        for call in self._calls_in(node):
            effect = self._classify(call)
            if effect is None:
                continue
            action, key = effect
            if action == "acquire":
                mutable.add(key)
            elif action == "release":
                mutable.discard(key)
                released.add(key)
            elif action == "release_all":
                released |= mutable
                mutable.clear()
        return frozenset(mutable), released

    @staticmethod
    def _calls_in(node: ast.stmt | ast.expr) -> list[ast.Call]:
        """Every call in ``node``, skipping nested function/class bodies."""
        calls: list[ast.Call] = []
        stack: list[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef, ast.Lambda)) and current is not node:
                continue
            if isinstance(current, ast.Call):
                calls.append(current)
            stack.extend(ast.iter_child_nodes(current))
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        return calls
