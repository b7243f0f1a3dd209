"""Minimal deterministic SVG 1.1 output: one polyline per curve.

Every plot draws the x/y axes and the two light-cone diagonals, with the
window set to the data's bounding box padded by 10%.  Output is
byte-stable: fixed float formatting, no timestamps; a comment block
carries the caller-supplied configuration hash.
"""

from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_SIZE = 640.0


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def render(curves, labels=None, config_hash="", title="") -> str:
    """Render point arrays ((n, 2) each) as an SVG document string."""
    pts_all = np.vstack([np.asarray(c, dtype=float) for c in curves])
    lo = pts_all.min(axis=0)
    hi = pts_all.max(axis=0)
    pad = 0.1 * np.maximum(hi - lo, 1e-9)
    lo, hi = lo - pad, hi + pad
    span = np.maximum(hi - lo, 1e-12)
    scale = _SIZE / float(np.max(span))
    w_px, h_px = span[0] * scale, span[1] * scale

    def to_px(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xs = (pts[:, 0] - lo[0]) * scale
        ys = h_px - (pts[:, 1] - lo[1]) * scale
        return xs, ys

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<!-- minkflow plot; config-hash={config_hash} -->',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w_px)}" height="{_fmt(h_px)}" '
        f'viewBox="0 0 {_fmt(w_px)} {_fmt(h_px)}">',
    ]
    if title:
        out.append(f'<title>{title}</title>')

    # Axes and the two light-cone diagonals, clipped to the window.
    c = float(max(abs(lo).max(), abs(hi).max()))
    guides = [((0.0, lo[1]), (0.0, hi[1])), ((lo[0], 0.0), (hi[0], 0.0)),
              ((-c, -c), (c, c)), ((-c, c), (c, -c))]
    for (ax, ay), (bx, by) in guides:
        (x1,), (y1,) = to_px([(ax, ay)])
        (x2,), (y2,) = to_px([(bx, by)])
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="#bbbbbb" stroke-width="1" '
            f'stroke-dasharray="4 3"/>')

    labels = labels or ["" for _ in curves]
    for i, (pts, label) in enumerate(zip(curves, labels)):
        xs, ys = to_px(pts)
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        color = PALETTE[i % len(PALETTE)]
        if label:
            out.append(
                f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{coords}">'
                f'<title>{label}</title></polyline>')
        else:
            out.append(
                f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{coords}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
