"""Repository maintenance tooling (not part of the ``repro`` package).

:mod:`tools.reprolint`, the project-invariant static analyzer wired
into CI, and :mod:`tools.reach`, the audit of which ``src/repro``
functions the repository's own traffic enters.
"""
