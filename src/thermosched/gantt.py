"""Deterministic SVG rendering of a windowed schedule.

One bar per task at its core row, offset by the start of its window and as
wide as its execution time. Window boundaries are drawn at the cumulative
end of every nonempty window. The output is plain text assembled with fixed
number formatting, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from html import escape

from .model import Assignment, Instance, derive_core_schedule

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_MARGIN_LEFT = 90.0
_MARGIN_TOP = 30.0
_MARGIN_RIGHT = 20.0
_MARGIN_BOTTOM = 25.0
_ROW_HEIGHT = 26.0
_BAR_PAD = 4.0
_CONTENT_WIDTH = 760.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_gantt_svg(instance: Instance, assignment: Assignment) -> str:
    """Render a feasible assignment; raises ValueError when infeasible."""
    schedule = derive_core_schedule(instance, assignment)
    h = instance.major_frame_ms
    scale = _CONTENT_WIDTH / h

    rows = []  # (cluster, slot index within cluster, global row index)
    row_of: dict[tuple[int, int], int] = {}
    for c in instance.platform.clusters:
        for r in range(c.core_count):
            row_of[(c.id, r)] = len(rows)
            rows.append((c, r))
    height = _MARGIN_TOP + len(rows) * _ROW_HEIGHT + _MARGIN_BOTTOM
    width = _MARGIN_LEFT + _CONTENT_WIDTH + _MARGIN_RIGHT

    window_start = [0] * (instance.max_windows + 1)
    for j in range(1, instance.max_windows + 1):
        window_start[j] = window_start[j - 1] + assignment.window_lengths_ms[j - 1]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<style>text{font-family:sans-serif;font-size:11px;}</style>',
    ]

    for c, r in rows:
        y = _MARGIN_TOP + row_of[(c.id, r)] * _ROW_HEIGHT
        label = escape(f"{c.label or 'cluster ' + str(c.id)} core {r}", quote=False)
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 6)}" y="{_fmt(y + _ROW_HEIGHT / 2 + 4)}" '
            f'text-anchor="end">{label}</text>'
        )

    # frame outline
    parts.append(
        f'<rect class="frame" x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(_CONTENT_WIDTH)}" height="{_fmt(len(rows) * _ROW_HEIGHT)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for j in range(1, instance.max_windows + 1):
        if assignment.window_lengths_ms[j - 1] == 0:
            continue
        x = _MARGIN_LEFT + window_start[j] * scale
        parts.append(
            f'<line class="window-boundary" x1="{_fmt(x)}" y1="{_fmt(_MARGIN_TOP)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(_MARGIN_TOP + len(rows) * _ROW_HEIGHT)}" '
            'stroke="#888888" stroke-dasharray="4 3" stroke-width="1"/>'
        )

    for j in range(1, instance.max_windows + 1):
        for ci, c in enumerate(instance.platform.clusters):
            for r, tid in enumerate(schedule[j - 1][ci]):
                if tid is None:
                    continue
                e = instance.task_by_id(tid).per_cluster[ci].exec_time_ms
                x = _MARGIN_LEFT + window_start[j - 1] * scale
                y = _MARGIN_TOP + row_of[(c.id, r)] * _ROW_HEIGHT + _BAR_PAD
                w = e * scale
                color = _PALETTE[(tid - 1) % len(_PALETTE)]
                parts.append(
                    f'<rect class="task-bar" x="{_fmt(x)}" y="{_fmt(y)}" '
                    f'width="{_fmt(w)}" height="{_fmt(_ROW_HEIGHT - 2 * _BAR_PAD)}" '
                    f'fill="{color}" stroke="#222222" stroke-width="0.5"/>'
                )
                parts.append(
                    f'<text x="{_fmt(x + 3)}" y="{_fmt(y + _ROW_HEIGHT / 2 - 1)}">'
                    f"T{tid}</text>"
                )

    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP - 8)}">0 ms</text>'
    )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + _CONTENT_WIDTH)}" y="{_fmt(_MARGIN_TOP - 8)}" '
        f'text-anchor="end">{h} ms</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
