"""Minimal SVG line plots (polyline and text primitives only)."""

import numpy as np

_PALETTE = ["#26b", "#b22", "#282", "#a2a", "#b71", "#177"]


def line_plot(path, series, title="", xlabel="", ylabel="", loglog=False):
    """Write a 640x480 plot of named (x, y) series to an SVG file.

    series: dict name -> (x array, y array).  With loglog=True both axes are
    log10-scaled and nonpositive entries are dropped.
    """
    w, h = 640, 480
    mleft, mright, mtop, mbot = 70, 20, 40, 50
    pts = {}
    for name, (xs, ys) in series.items():
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if loglog:
            keep = (xs > 0) & (ys > 0)
            xs, ys = np.log10(xs[keep]), np.log10(ys[keep])
        pts[name] = (xs, ys)
    allx = np.concatenate([p[0] for p in pts.values()]) if pts else np.array([0, 1])
    ally = np.concatenate([p[1] for p in pts.values()]) if pts else np.array([0, 1])
    x0, x1 = float(allx.min()), float(allx.max())
    y0, y1 = float(ally.min()), float(ally.max())
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def to_px(x, y):
        px = mleft + (x - x0) / (x1 - x0) * (w - mleft - mright)
        py = h - mbot - (y - y0) / (y1 - y0) * (h - mtop - mbot)
        return px, py

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
           f'<rect width="{w}" height="{h}" fill="white"/>']
    ax0, ay0 = to_px(x0, y0)
    ax1, ay1 = to_px(x1, y1)
    out.append(f'<polyline points="{ax0:.1f},{ay1:.1f} {ax0:.1f},{ay0:.1f} {ax1:.1f},{ay0:.1f}" '
               'fill="none" stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{w/2:.0f}" y="20" text-anchor="middle" font-size="15">{title}</text>')
    out.append(f'<text x="{w/2:.0f}" y="{h-12}" text-anchor="middle" font-size="12">'
               f'{xlabel}{" (log10)" if loglog else ""}</text>')
    out.append(f'<text x="16" y="{h/2:.0f}" text-anchor="middle" font-size="12" '
               f'transform="rotate(-90 16 {h/2:.0f})">{ylabel}{" (log10)" if loglog else ""}</text>')
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        px, _ = to_px(xv, y0)
        _, py = to_px(x0, yv)
        out.append(f'<text x="{px:.0f}" y="{h-mbot+16}" text-anchor="middle" '
                   f'font-size="10">{xv:.3g}</text>')
        out.append(f'<text x="{mleft-6}" y="{py:.0f}" text-anchor="end" '
                   f'font-size="10">{yv:.3g}</text>')
    for i, (name, (xs, ys)) in enumerate(pts.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join("{:.1f},{:.1f}".format(*to_px(x, y)) for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            px, py = to_px(x, y)
            out.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.5" fill="{color}"/>')
        out.append(f'<text x="{w-mright-8}" y="{mtop + 16*(i+1)}" text-anchor="end" '
                   f'font-size="12" fill="{color}">{name}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
