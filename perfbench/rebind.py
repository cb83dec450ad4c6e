"""Temporary rebinding of module attributes, shared by the clock and the tracer.

The benchmark never edits the package: it wraps functions where the package
looks them up (module globals, or attributes of an object) and puts the
originals back afterwards. A binding a later version of the package no
longer has is skipped, so a renamed import costs one checkpoint or one
layer's span, not the run.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def rebound(bindings, skipped: set | None = None):
    """Set ``owner.name = wrap(owner.name)`` for each (owner, name, wrap) and
    restore every original on exit. A missing binding is skipped and, when
    ``skipped`` is given, added to it as "owner.name"."""
    saved = []
    try:
        for owner, name, wrap in bindings:
            original = getattr(owner, name, None)
            if original is None:
                if skipped is not None:
                    skipped.add(f"{getattr(owner, '__name__', type(owner).__name__)}.{name}")
                continue
            had_own = name in getattr(owner, "__dict__", {})
            setattr(owner, name, wrap(original))
            saved.append((owner, name, original, had_own))
        yield
    finally:
        for owner, name, original, had_own in reversed(saved):
            if had_own:
                setattr(owner, name, original)
            else:  # an instance attribute shadowing a method: remove it
                delattr(owner, name)
