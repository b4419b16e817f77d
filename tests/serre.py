"""Chevalley–Serre presentations of a Cartan matrix, written on the e_i and f_i only.

With h_i := [e_i, f_i] the relations are
    [h_i, e_j] = a_ij e_j and [h_i, f_j] = -a_ij f_j,
    [e_i, f_j] = 0 for i != j,
    ad(e_i)^(1 - a_ij) e_j = 0 and ad(f_i)^(1 - a_ij) f_j = 0 for i != j.
[h_i, h_j] = 0 follows: [h_i, [e_j, f_j]] = a_ij [e_j, f_j] - a_ij [e_j, f_j].
"""

# a_ij = alpha_j(h_i): the -2 of B3 is in the row of its short end root, and C3 is B3's transpose
CARTAN = {
    "A1xA1": ((2, 0), (0, 2)),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -1), (-3, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "A4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
}


def _times(c: int, x: str) -> str:
    return f"{c}*{x}" if c else "0"


def _ad_power(x: str, y: str, k: int) -> str:
    """ad(x)^k y as nested brackets."""
    for _ in range(k):
        y = f"[{x},{y}]"
    return y


def serre_text(a) -> str:
    """The presentation of the Cartan matrix a in the `.lp` format, on e1..en and f1..fn."""
    n = len(a)
    e = [f"e{i}" for i in range(1, n + 1)]
    f = [f"f{i}" for i in range(1, n + 1)]
    h = [f"[{e[i]},{f[i]}]" for i in range(n)]
    lines = ["generators: " + " ".join(e + f)]
    for i in range(n):
        for j in range(n):
            lines.append(f"relation: [{h[i]},{e[j]}] = {_times(a[i][j], e[j])}")
            lines.append(f"relation: [{h[i]},{f[j]}] = {_times(-a[i][j], f[j])}")
            if i != j:
                lines.append(f"relation: [{e[i]},{f[j]}] = 0")
                lines.append(f"relation: {_ad_power(e[i], e[j], 1 - a[i][j])} = 0")
                lines.append(f"relation: {_ad_power(f[i], f[j], 1 - a[i][j])} = 0")
    return "\n".join(lines) + "\n"
