"""Text-mode visualization of experiment series (offline 'figures')."""

from repro.viz.ascii_chart import ascii_line_chart

__all__ = ["ascii_line_chart"]
