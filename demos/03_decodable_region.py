"""Decodable-region sweep in the (CB, SB) plane for the regular (3,6) code.

Feasible (CB, SB) pairs form the band CB^2 <= SB <= CB.  The two-dimensional
bound certifies a sub-region as decodable; the one-dimensional thresholds are
straight overlay lines (ub-cb vertical, ub-sb and ub-sb-star horizontal).
Writes the grid to region_demo.csv for plotting; prints an ASCII sketch.
"""

from bpbounds import region_sweep, regular_ensemble

e = regular_ensemble(3, 6)
# p_star: decodable BSC crossover; pass explicitly to skip a DE run here
grid = region_sweep(e, 21, 9, p_star=0.0837)

with open("region_demo.csv", "w") as fh:
    grid.to_csv(fh)
print("wrote region_demo.csv;", len(grid.points), "feasible grid points")
print("overlays:", {k: round(v, 4) for k, v in grid.overlays.items()}, "\n")

# ASCII sketch: rows = SB (top high), cols = CB; '#' certified, '.' not
cbs = sorted({round(p[0], 6) for p in grid.points})
rows = 18
canvas = [[" "] * len(cbs) for _ in range(rows + 1)]
for cb, sb, dec, *_ in grid.points:
    col = cbs.index(round(cb, 6))
    row = rows - int(round(sb * rows))
    canvas[row][col] = "#" if dec else "."
print("SB")
for r, line in enumerate(canvas):
    print(f"{(rows - r) / rows:4.2f} " + " ".join(line))
print("     " + " ".join(f"{c:.1f}"[-2:] for c in cbs) + "  CB")
print("\n'#' = certified decodable by ub-cbsb, '.' = not certified.")
print("The certified region reaches CB = %.4f on the SB = CB^2 (BSC) edge"
      % grid.overlays["ub_cb"])
print("and fills the whole band left of the ub-cb line.")
