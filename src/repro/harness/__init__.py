"""Experiment harness regenerating every table and figure of §5."""
