"""Deterministic SVG output: arc diagrams for 1-page embeddings and
rectangle/lune diagrams for two-dimensional embeddings."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embedding import _forest_or_raise
from .errors import NotOnePageError
from .exact import format_ratio
from .outerplanar import span


@dataclass
class RenderSpec:
    style: str = "arc"  # arc | rect | disk
    scale: float = 40.0  # pixels per unit
    labels: bool = True
    weight_labels: bool = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")
        if self.style not in ("arc", "rect", "disk"):
            raise ValueError(f"unknown style {self.style!r}")


def _fmt(value):
    return f"{float(value):.6f}"


def _float(value):
    """``value`` as a float, or ValueError when it is beyond float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a coordinate is too large to draw") from None


def _svg(width, height, body):
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    return head + "".join(body) + "</svg>\n"


def _edge_name(g, eid):
    u, v = g.ends[eid]
    return f"{g.labels[u]}--{g.labels[v]}"


def render_arcs(g, embedding, spec=None):
    """Arc diagram: vertices equally spaced on a baseline, every edge a
    semicircular arc above it.  Byte-deterministic for fixed inputs."""
    spec = spec or RenderSpec()
    try:
        _forest_or_raise(g, embedding)
    except NotOnePageError as exc:
        raise NotOnePageError(_edge_name(g, exc.edge_a), _edge_name(g, exc.edge_b)) from None
    n = g.n
    gap = spec.scale
    margin = gap
    pos = embedding.position
    max_span = max(
        (abs(pos[u] - pos[v]) for u, v in g.ends), default=0
    )
    base_y = margin + max_span * gap / 2.0
    width = margin * 2 + gap * max(n - 1, 0)
    height = base_y + margin

    def vx(p):
        return margin + p * gap

    body = []
    body.append(
        f'<line x1="{_fmt(vx(0))}" y1="{_fmt(base_y)}" x2="{_fmt(vx(max(n - 1, 0)))}" '
        f'y2="{_fmt(base_y)}" stroke="#cccccc" stroke-width="1" />\n'
    )
    for (u, v), p, q in zip(g.ends, *g.ratios()):
        a, b = span(pos, u, v)
        r = (b - a) * gap / 2.0
        body.append(
            f'<path d="M {_fmt(vx(a))} {_fmt(base_y)} '
            f'A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(vx(b))} {_fmt(base_y)}" '
            f'fill="none" stroke="#1f4e79" stroke-width="1.5" />\n'
        )
        if spec.weight_labels:
            body.append(
                f'<text x="{_fmt(vx(a) + r)}" y="{_fmt(base_y - r - 3)}" '
                f'font-size="10" text-anchor="middle">{format_ratio(p, q)}</text>\n'
            )
    for p, v in enumerate(embedding.order):
        body.append(
            f'<circle cx="{_fmt(vx(p))}" cy="{_fmt(base_y)}" r="3" fill="#222222" />\n'
        )
        if spec.labels:
            body.append(
                f'<text x="{_fmt(vx(p))}" y="{_fmt(base_y + 14)}" '
                f'font-size="10" text-anchor="middle">{g.labels[v]}</text>\n'
            )
    return _svg(width, height, body)


def render_rects(g, emb2d, spec=None):
    """Rectangle diagram of a two-dimensional embedding; the ``disk`` style
    adds a circular frame whose chord is the baseline (the geometry is
    unchanged)."""
    spec = spec or RenderSpec(style="rect")
    scale = spec.scale
    xs = [_float(x) for x in emb2d.x.values()]
    x_lo = min(xs) if xs else 0.0
    x_hi = max(xs) if xs else 0.0
    for rect in emb2d.rects.values():
        x_lo = min(x_lo, _float(rect[0]))
        x_hi = max(x_hi, _float(rect[1]))
    top = max((_float(r[3]) for r in emb2d.rects.values()), default=1.0)
    margin = 20.0
    width = margin * 2 + (x_hi - x_lo) * scale
    height = margin * 2 + top * scale + (14 if spec.labels else 0)
    if not math.isfinite(width + height):
        raise ValueError("a coordinate is too large to draw")
    base_y = margin + top * scale

    def sx(x):
        return margin + (_float(x) - x_lo) * scale

    def sy(y):
        return base_y - _float(y) * scale

    ps, qs = g.ratios()
    body = []
    if spec.style == "disk":
        # the baseline is a chord of the disk outline; rectangles sit outside
        cx = (sx(x_lo) + sx(x_hi)) / 2.0
        half = (sx(x_hi) - sx(x_lo)) / 2.0 + 10.0
        sag = half / 2.0
        r = (sag * sag + half * half) ** 0.5
        body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(base_y + sag)}" r="{_fmt(r)}" '
            f'fill="none" stroke="#999999" stroke-width="1" />\n'
        )
    body.append(
        f'<line x1="{_fmt(sx(x_lo))}" y1="{_fmt(base_y)}" x2="{_fmt(sx(x_hi))}" '
        f'y2="{_fmt(base_y)}" stroke="#cccccc" stroke-width="1" />\n'
    )
    for eid in sorted(emb2d.rects):
        xmin, xmax, ymin, ymax = emb2d.rects[eid]
        body.append(
            f'<rect x="{_fmt(sx(xmin))}" y="{_fmt(sy(ymax))}" '
            f'width="{_fmt((_float(xmax) - _float(xmin)) * scale)}" '
            f'height="{_fmt((_float(ymax) - _float(ymin)) * scale)}" '
            f'fill="#9ec5e8" fill-opacity="0.8" stroke="#1f4e79" stroke-width="1" />\n'
        )
        # leader segments down to the baseline (provably clear of interiors)
        for cx_ in (xmin, xmax):
            if ymin > 0:
                body.append(
                    f'<line x1="{_fmt(sx(cx_))}" y1="{_fmt(sy(ymin))}" '
                    f'x2="{_fmt(sx(cx_))}" y2="{_fmt(base_y)}" '
                    f'stroke="#1f4e79" stroke-width="0.5" stroke-dasharray="2,2" />\n'
                )
        if spec.weight_labels:
            body.append(
                f'<text x="{_fmt((sx(xmin) + sx(xmax)) / 2)}" '
                f'y="{_fmt((sy(ymin) + sy(ymax)) / 2)}" '
                f'font-size="10" text-anchor="middle">{format_ratio(ps[eid], qs[eid])}</text>\n'
            )
    for v in emb2d.support.order:
        body.append(
            f'<circle cx="{_fmt(sx(emb2d.x[v]))}" cy="{_fmt(base_y)}" r="2.5" '
            f'fill="#222222" />\n'
        )
        if spec.labels:
            body.append(
                f'<text x="{_fmt(sx(emb2d.x[v]))}" y="{_fmt(base_y + 12)}" '
                f'font-size="10" text-anchor="middle">{g.labels[v]}</text>\n'
            )
    return _svg(width, height, body)
