"""Home-based Lazy Release Consistency (HLRC) software DSM substrate.

Implements the base protocol of Zhou/Iftode/Li that the paper extends
(§3): paged shared memory with per-page *homes*, multiple concurrent
writers detected through *twins* and propagated to homes as *diffs*,
coherence through *write notices* (page invalidations) ordered by
*vector timestamps*, distributed queue-based locks whose grant messages
carry write notices, and manager-based barriers.
"""
