"""Shared utilities used across the SCFS reproduction.

This package deliberately contains only small, dependency-free helpers:
exception hierarchy, identifier helpers, byte-size constants and a couple of
value objects that several subsystems exchange (e.g. :class:`~repro.common.types.ObjectRef`).
"""
