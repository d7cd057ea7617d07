"""Reference implementations the production code is checked against.

An oracle here is the simplest correct form of a production mechanism:
slow, obviously right, and never imported by ``src/repro``.
"""
