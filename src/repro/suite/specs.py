"""DSL specifications of the 11 evaluation benchmarks (paper Table I).

Each builder returns DSL source text.  The kernels reproduce the
*structure* the paper reports — stencil order, per-point FLOPs, number
of I/O arrays, domain size, and iteration count — for:

* three HPGMG smoothers (7pt, 27pt, helmholtz);
* the CDSC denoise image-processing pipeline;
* the miniFlux CFD benchmark (two kernels);
* hypterm / diffterm from the ExpCNS compressible Navier-Stokes proxy;
* addsgd4 / addsgd6 / rhs4center / rhs4sgcurv from SW4lite.

The SW4lite originals are not redistributable as DSL text, so these are
re-derivations from the operators the paper describes (order, arrays,
derivative structure); FLOP counts are matched to Table I.  Lower-rank
stretching arrays (``strx``/``stry``) appear in the addsgd kernels and
rhs4sgcurv — the feature that makes STENCILGEN reject the SW4 kernels.
Table I's "# IO Arrays" counts full-rank (3-D) arrays.
"""

from __future__ import annotations

from typing import List

from .builders import (
    at,
    at_axis,
    box_ring,
    d1,
    d1_product,
    d2,
    neighbours,
    off,
    sum_of,
)


# ---------------------------------------------------------------------------
# iterative smoothers (512^3, T = 12)
# ---------------------------------------------------------------------------


def smoother_7pt() -> str:
    inner = sum_of(neighbours("A", 1) + [f"- 6.0*{at('A')}"])
    return f"""
parameter L=512, M=512, N=512;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b;
copyin in, a, b;
iterate 12;
#pragma stream k block (32,16)
stencil smooth7 (B, A, a, b) {{
  B[k][j][i] = a*{at('A')} - b*({inner});
}}
smooth7 (out, in, a, b);
copyout out;
"""


def smoother_27pt() -> str:
    faces7 = sum_of([at("A")] + box_ring("A", "faces"))
    edges = sum_of(box_ring("A", "edges"))
    corners = sum_of(box_ring("A", "corners"))
    return f"""
parameter L=512, M=512, N=512;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, h2inv, w1, w2, w3;
copyin in, a, h2inv, w1, w2, w3;
iterate 12;
#pragma stream k block (32,16)
stencil smooth27 (B, A, a, h2inv, w1, w2, w3) {{
  B[k][j][i] = a*{at('A')} - h2inv*(w1*({faces7})
    + w2*({edges}) + w3*({corners}));
}}
smooth27 (out, in, a, h2inv, w1, w2, w3);
copyout out;
"""


def helmholtz() -> str:
    n1 = sum_of(neighbours("A", 1))
    n2 = sum_of(neighbours("A", 2))
    return f"""
parameter L=512, M=512, N=512;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, c1, c2;
copyin in, a, b, c1, c2;
iterate 12;
#pragma stream k block (32,16)
stencil helm (B, A, a, b, c1, c2) {{
  B[k][j][i] = a*{at('A')} - b*({at('A')} + c1*({n1}) + c2*({n2}));
}}
helm (out, in, a, b, c1, c2);
copyout out;
"""


def denoise() -> str:
    """CDSC denoise: diffusion-coefficient kernel + update kernel.

    Kernel 1 evaluates the edge-stopping coefficient from one-sided
    gradients of the evolving image and the data term (the differences
    are staged in scalars, as the CDSC source does); kernel 2 applies
    one damped-diffusion update.
    """
    grad_lines: List[str] = []
    square_terms: List[str] = []
    for arr, tag in (("u", "du"), ("f", "df")):
        for axis, axis_name in enumerate("kji"):
            fwd = f"{tag}{axis_name}p"
            bwd = f"{tag}{axis_name}m"
            grad_lines.append(
                f"  {fwd} = {at_axis(arr, axis, +1)} - {at(arr)};"
            )
            grad_lines.append(
                f"  {bwd} = {at(arr)} - {at_axis(arr, axis, -1)};"
            )
            square_terms.append(f"{fwd}*{fwd}")
            square_terms.append(f"{bwd}*{bwd}")

    flow_terms = []
    for axis in range(3):
        for delta in (+1, -1):
            flow_terms.append(
                f"{at_axis('g', axis, delta)}*"
                f"({at_axis('u', axis, delta)} - {at('u')})"
            )
    flow = sum_of(flow_terms)
    return f"""
parameter L=512, M=512, N=512;
iterator k, j, i;
double uin[L,M,N], uout[L,M,N], f[L,M,N], coeff[L,M,N], eps, dt;
copyin uin, f, eps, dt;
iterate 12;
#pragma stream k block (32,16)
stencil diffusion_coefficient (g, u, f, eps) {{
{chr(10).join(grad_lines)}
  g[k][j][i] = 1.0 / sqrt(eps + {sum_of(square_terms)});
}}
#pragma stream k block (32,16)
stencil update (uo, u, g, dt) {{
  uo[k][j][i] = ({at('u')} + dt*({flow})) / (1.0 + 6.0*dt*{at('g')});
}}
diffusion_coefficient (coeff, uin, f, eps);
update (uout, uin, coeff, dt);
copyout uout;
"""


# ---------------------------------------------------------------------------
# spatial stencils (320^3, single sweep)
# ---------------------------------------------------------------------------


def miniflux() -> str:
    """Loop-chain CFD flux benchmark: interpolation + difference kernels.

    25 full-rank arrays: 5 state variables x (state, three directional
    fluxes, output).
    """
    lines_flux: List[str] = []
    flux_params: List[str] = []
    diff_params: List[str] = []
    lines_diff: List[str] = []
    for m in range(5):
        q = f"q{m}"
        for axis, tag in ((0, "fz"), (1, "fy"), (2, "fx")):
            flux = f"{tag}{m}"
            flux_params.append(flux)
            plus1 = at_axis(q, axis, +1)
            minus1 = at_axis(q, axis, -1)
            plus2 = at_axis(q, axis, +2)
            lines_flux.append(
                f"  {flux}[k][j][i] = vel*(c1*({at(q)} + {plus1}) "
                f"+ c2*({minus1} + {plus2}));"
            )
        diff_params.append(f"out{m}")
        parts = []
        for axis, tag in ((0, "fz"), (1, "fy"), (2, "fx")):
            flux = f"{tag}{m}"
            parts.append(
                f"dxinv*({at_axis(flux, axis, +1)} - "
                f"{at_axis(flux, axis, -1)})"
            )
        lines_diff.append(f"  out{m}[k][j][i] = dt*({sum_of(parts)});")

    arrays = (
        [f"q{m}[W,W,W]" for m in range(5)]
        + [f"{t}{m}[W,W,W]" for m in range(5) for t in ("fx", "fy", "fz")]
        + [f"out{m}[W,W,W]" for m in range(5)]
    )
    qs = ", ".join(f"q{m}" for m in range(5))
    fluxes = ", ".join(flux_params)
    outs = ", ".join(diff_params)
    return f"""
parameter W=320;
iterator k, j, i;
double {', '.join(arrays)}, vel, c1, c2, dxinv, dt;
copyin {qs}, vel, c1, c2, dxinv, dt;
#pragma stream k block (16,16)
stencil flux ({fluxes}, {qs}, vel, c1, c2) {{
{chr(10).join(lines_flux)}
}}
#pragma stream k block (16,16)
stencil diff ({outs}, {fluxes}, dxinv, dt) {{
{chr(10).join(lines_diff)}
}}
flux ({fluxes}, {qs}, vel, c1, c2);
diff ({outs}, {fluxes}, dxinv, dt);
copyout {outs};
"""


_D8 = ("a1", "a2", "a3", "a4")


def hypterm() -> str:
    """ExpCNS hyperbolic flux: 8th-order advective derivatives.

    13 full-rank arrays: 4 momenta/energy + 4 primitives + 5 fluxes.
    """
    body: List[str] = []
    body.append(f"  dxp = dxinv*{d1('p', 2, 4, _D8)};")
    body.append(f"  dyp = dxinv*{d1('p', 1, 4, _D8)};")
    body.append(f"  dzp = dxinv*{d1('p', 0, 4, _D8)};")
    body.append(
        f"  flux0[k][j][i] = -(dxinv*{d1('mx', 2, 4, _D8)} + "
        f"dxinv*{d1('my', 1, 4, _D8)} + dxinv*{d1('mz', 0, 4, _D8)});"
    )
    for index, mom in enumerate(("mx", "my", "mz")):
        terms = [
            f"dxinv*{d1_product(mom, 'vx', 2, 4, _D8)}",
            f"dxinv*{d1_product(mom, 'vy', 1, 4, _D8)}",
            f"dxinv*{d1_product(mom, 'vz', 0, 4, _D8)}",
        ]
        pressure = ("dxp", "dyp", "dzp")[index]
        body.append(
            f"  flux{index + 1}[k][j][i] = -({sum_of(terms)} + {pressure});"
        )
    energy_terms = []
    for axis, vel in ((2, "vx"), (1, "vy"), (0, "vz")):
        parts = []
        for distance in range(1, 5):
            plus = (
                f"({at_axis('E', axis, distance)} + "
                f"{at_axis('p', axis, distance)})*"
                f"{at_axis(vel, axis, distance)}"
            )
            minus = (
                f"({at_axis('E', axis, -distance)} + "
                f"{at_axis('p', axis, -distance)})*"
                f"{at_axis(vel, axis, -distance)}"
            )
            parts.append(f"{_D8[distance - 1]}*({plus} - {minus})")
        energy_terms.append("dxinv*(" + sum_of(parts) + ")")
    body.append(
        f"  flux4[k][j][i] = -({sum_of(energy_terms)}) "
        f"+ cv*({at('vx')}*dxp + {at('vy')}*dyp + {at('vz')}*dzp) "
        f"+ cw*{at('p')};"
    )
    return f"""
parameter W=320;
iterator k, j, i;
double mx[W,W,W], my[W,W,W], mz[W,W,W], E[W,W,W],
       vx[W,W,W], vy[W,W,W], vz[W,W,W], p[W,W,W],
       flux0[W,W,W], flux1[W,W,W], flux2[W,W,W], flux3[W,W,W],
       flux4[W,W,W], a1, a2, a3, a4, cv, cw, dxinv;
copyin mx, my, mz, E, vx, vy, vz, p, a1, a2, a3, a4, cv, cw, dxinv;
#pragma stream k block (16,16)
stencil hypterm (flux0, flux1, flux2, flux3, flux4,
                 mx, my, mz, E, vx, vy, vz, p, a1, a2, a3, a4, cv, cw,
                 dxinv) {{
{chr(10).join(body)}
}}
hypterm (flux0, flux1, flux2, flux3, flux4, mx, my, mz, E, vx, vy, vz, p,
         a1, a2, a3, a4, cv, cw, dxinv);
copyout flux0, flux1, flux2, flux3, flux4;
"""


_D2C = ("b1", "b2", "b3", "b4")


def diffterm() -> str:
    """ExpCNS diffusive terms: Laplacians then stress/energy assembly.

    11 full-rank arrays: 3 velocities + temperature + 3 Laplacians +
    4 outputs; two kernels as in Table III.
    """
    lap_lines: List[str] = []
    for index, vel in enumerate(("vx", "vy", "vz")):
        parts = [
            d2(vel, 2, 4, _D2C, "b0"),
            d2(vel, 1, 4, _D2C, "b0"),
            d2(vel, 0, 4, _D2C, "b0"),
        ]
        lap_lines.append(f"  lap{index}[k][j][i] = {sum_of(parts)};")

    out_lines: List[str] = []
    # Momentum diffusion: eta*(lap + third * grad(div v)) where the
    # divergence derivative is re-expanded with first derivatives.
    for index, (vel, axis) in enumerate(
        (("vx", 2), ("vy", 1), ("vz", 0))
    ):
        div_terms = [
            f"dxinv*{d1('vx', 2, 4, _D8)}",
            f"dxinv*{d1('vy', 1, 4, _D8)}",
            f"dxinv*{d1('vz', 0, 4, _D8)}",
        ]
        out_lines.append(
            f"  dm{index}[k][j][i] = eta*({at(f'lap{index}')} "
            f"+ third*({sum_of(div_terms)}));"
        )
    # Energy diffusion: conduction + viscous dissipation.
    phi_terms = []
    for vel_index, vel in enumerate(("vx", "vy", "vz")):
        for axis in range(3):
            term = d1(vel, axis, 2, ("g1", "g2"))
            phi_terms.append(f"dxinv*{term}*{term}")
    cond_terms = [
        f"dxinv*{d2('T', 2, 4, _D2C, 'b0')}",
        f"dxinv*{d2('T', 1, 4, _D2C, 'b0')}",
        f"dxinv*{d2('T', 0, 4, _D2C, 'b0')}",
    ]
    out_lines.append(
        f"  dE[k][j][i] = kap*({sum_of(cond_terms)}) "
        f"+ eta*({at('vx')}*{at('lap0')} + {at('vy')}*{at('lap1')} "
        f"+ {at('vz')}*{at('lap2')} + {sum_of(phi_terms)});"
    )
    return f"""
parameter W=320;
iterator k, j, i;
double vx[W,W,W], vy[W,W,W], vz[W,W,W], T[W,W,W],
       lap0[W,W,W], lap1[W,W,W], lap2[W,W,W],
       dm0[W,W,W], dm1[W,W,W], dm2[W,W,W], dE[W,W,W],
       b0, b1, b2, b3, b4, a1, a2, a3, a4, g1, g2, eta, third, kap, dxinv;
copyin vx, vy, vz, T, b0, b1, b2, b3, b4, a1, a2, a3, a4, g1, g2,
       eta, third, kap, dxinv;
#pragma stream k block (16,16)
stencil lap_kernel (lap0, lap1, lap2, vx, vy, vz,
                    b0, b1, b2, b3, b4) {{
{chr(10).join(lap_lines)}
}}
#pragma stream k block (16,16)
stencil assemble (dm0, dm1, dm2, dE, vx, vy, vz, T, lap0, lap1, lap2,
                  b0, b1, b2, b3, b4, a1, a2, a3, a4, g1, g2,
                  eta, third, kap, dxinv) {{
{chr(10).join(out_lines)}
}}
lap_kernel (lap0, lap1, lap2, vx, vy, vz, b0, b1, b2, b3, b4);
assemble (dm0, dm1, dm2, dE, vx, vy, vz, T, lap0, lap1, lap2,
          b0, b1, b2, b3, b4, a1, a2, a3, a4, g1, g2, eta, third, kap,
          dxinv);
copyout dm0, dm1, dm2, dE;
"""


def _addsgd(order: int) -> str:
    """SW4 super-grid dissipation, shared by addsgd4 (order 2) and
    addsgd6 (order 3).

    The operator applies, per displacement component and per direction,
    a "birch" difference: an outer sum over ``order + 1`` positions of
    (density x damping-coefficient x stretching) factors times an inner
    alternating difference of (u - um) over ``order + 1`` points.

    10 full-rank arrays: 3 predictors (up), 3 current (u), 3 previous
    (um), rho — plus 1-D stretchings/coefficients strx, stry, dcx, dcy
    (the mixed-rank feature STENCILGEN rejects).
    """
    width = order + 1
    half = width // 2
    # Outer positions, symmetric so the overall reach equals ``order``.
    positions = list(range(-((width - 1) // 2), width // 2 + 1))
    # Per-direction (damping-coefficient x stretching) products; the z
    # direction has no super-grid layer, so it uses the scalar czz with
    # the in-plane stretchings.
    dir_coeff = {
        2: lambda d: f"dcx[{off('i', d)}]*strx[{off('i', d)}]*stry[j]",
        1: lambda d: f"dcy[{off('j', d)}]*stry[{off('j', d)}]*strx[i]",
        0: lambda d: "czz*strx[i]*stry[j]",
    }

    body: List[str] = []
    body.append(f"  irho = 1.0 / {at('rho')};")
    if order >= 3:
        body.append("  zw = czz*wz;")
    for comp in range(3):
        u, um, up = f"u{comp}", f"um{comp}", f"up{comp}"
        dir_exprs: List[str] = []
        for axis in range(3):
            outer_terms: List[str] = []
            for position in positions:
                inner_terms: List[str] = []
                for tap in range(width):
                    delta = position + tap - half
                    diff = (
                        f"({at_axis(u, axis, delta)} - "
                        f"{at_axis(um, axis, delta)})"
                    )
                    inner_terms.append(f"w{tap}*{diff}")
                inner = "(" + sum_of(inner_terms) + ")"
                coeff = dir_coeff[axis](position)
                rho_c = at_axis("rho", axis, position)
                outer_terms.append(f"{rho_c}*{coeff}*{inner}")
            dir_exprs.append("(" + sum_of(outer_terms) + ")")
        body.append(f"  d{comp} = {sum_of(dir_exprs)};")
        # Centre correction: a damped restoring term toward the previous
        # time level, stretch-weighted (SW4's supergrid forcing).
        if order >= 3:
            corner = (
                f"cs*(({at(u)} - {at(um)}) "
                f"+ wz*(({at_axis(u, 0, 1)} - {at_axis(um, 0, 1)}) "
                f"+ ({at_axis(u, 0, -1)} - {at_axis(um, 0, -1)})))"
                f"*strx[i]*stry[j]"
                f" + zw*({at_axis(u, 1, 1)} - {at_axis(um, 1, 1)})*stry[j]"
            )
        else:
            corner = f"cs*({at(u)} - {at(um)})*strx[i]*stry[j]"
        body.append(
            f"  {up}[k][j][i] = {at(up)} - beta*irho*(d{comp} + {corner});"
        )
    arrays = (
        [f"up{c}[W,W,W]" for c in range(3)]
        + [f"u{c}[W,W,W]" for c in range(3)]
        + [f"um{c}[W,W,W]" for c in range(3)]
        + ["rho[W,W,W]", "strx[W]", "stry[W]", "dcx[W]", "dcy[W]"]
    )
    params = (
        [f"up{c}" for c in range(3)]
        + [f"u{c}" for c in range(3)]
        + [f"um{c}" for c in range(3)]
        + ["rho", "strx", "stry", "dcx", "dcy"]
    )
    weight_names = [f"w{t}" for t in range(width)] + ["beta", "czz", "cs"]
    if order >= 3:
        weight_names.append("wz")
    name = f"addsgd{2 * order}"
    return f"""
parameter W=320;
iterator k, j, i;
double {', '.join(arrays)}, {', '.join(weight_names)};
copyin {', '.join(params)}, {', '.join(weight_names)};
#pragma stream k block (16,16)
stencil {name} ({', '.join(params)}, {', '.join(weight_names)}) {{
  #assign gmem (strx, stry, dcx, dcy, rho)
{chr(10).join(body)}
}}
{name} ({', '.join(params)}, {', '.join(weight_names)});
copyout up0, up1, up2;
"""


def addsgd4() -> str:
    return _addsgd(2)


def addsgd6() -> str:
    return _addsgd(3)


def rhs4center() -> str:
    """SW4 rhs4center: order-2 elastic-wave RHS, Figure 3a's DAG shape.

    8 full-rank arrays: u0, u1, u2, mu, la in; uacc0..2 out.
    """
    body: List[str] = []
    # Variable-coefficient weights (Figure 3a's mux1..muz4 temporaries):
    # averaged (2*mu + la) products with a wider correction tap.
    for axis, tag in ((2, "mux"), (1, "muy"), (0, "muz")):
        for index, delta in enumerate((-2, -1, 1, 2), start=1):
            inner = at_axis("mu", axis, delta)
            la_c = at_axis("la", axis, delta)
            far = at_axis("mu", axis, 2 if delta > 0 else -2)
            far_la = at_axis("la", axis, 2 if delta > 0 else -2)
            body.append(
                f"  {tag}{index} = {inner}*{la_c} "
                f"- ha*({at('mu')}*{at('la')} + {inner}*{la_c}) "
                f"+ hb*({far} + {far_la});"
            )
    for comp in range(3):
        u = f"u{comp}"
        axis_parts: List[str] = []
        for axis, tag in ((2, "mux"), (1, "muy"), (0, "muz")):
            terms = []
            for index, delta in enumerate((-2, -1, 1, 2), start=1):
                terms.append(
                    f"{tag}{index}*({at_axis(u, axis, delta)} - {at(u)})"
                )
            axis_parts.append("h2*(" + sum_of(terms) + ")")
        cross_parts: List[str] = []
        for a1, a2 in ((2, 1), (2, 0), (1, 2), (1, 0), (0, 2), (0, 1)):
            terms = []
            for delta in (-2, -1, 1, 2):
                offsets = [0, 0, 0]
                offsets[a1] = delta
                plus = [0, 0, 0]
                plus[a1] = delta
                plus[a2] = 1
                minus = [0, 0, 0]
                minus[a1] = delta
                minus[a2] = -1
                terms.append(
                    f"hb*({at('la', *offsets)} + 2.0*{at('mu', *offsets)})*"
                    f"({at(u, *plus)} - {at(u, *minus)})"
                )
            cross_parts.append("(" + sum_of(terms) + ")")
        body.append(
            f"  r{comp} = {sum_of(axis_parts)} + hb2*({sum_of(cross_parts)});"
        )
        body.append(
            f"  uacc{comp}[k][j][i] = hc*r{comp} + hd*{at(u)};"
        )
    arrays = (
        [f"uacc{c}[W,W,W]" for c in range(3)]
        + [f"u{c}[W,W,W]" for c in range(3)]
        + ["mu[W,W,W]", "la[W,W,W]"]
    )
    params = (
        [f"uacc{c}" for c in range(3)]
        + [f"u{c}" for c in range(3)]
        + ["mu", "la"]
    )
    return f"""
parameter W=320;
iterator k, j, i;
double {', '.join(arrays)}, ha, hb, hc, hd, h2, hb2;
copyin u0, u1, u2, mu, la, ha, hb, hc, hd, h2, hb2;
#pragma stream k block (16,16)
stencil rhs4center ({', '.join(params)}, ha, hb, hc, hd, h2, hb2) {{
  #assign shmem (u0, u1, u2), gmem (mu, la)
{chr(10).join(body)}
}}
rhs4center ({', '.join(params)}, ha, hb, hc, hd, h2, hb2);
copyout uacc0, uacc1, uacc2;
"""


def rhs4sgcurv() -> str:
    """SW4 rhs4sgcurv: curvilinear elastic-wave RHS (the register-
    pressure monster of Section VIII-D).

    13 full-rank arrays: u0..2, mu, la, met1..4, jac, uacc0..2.
    """
    body: List[str] = []
    # Metric-weighted coefficient temporaries, per axis and offset — one
    # set for the (2mu+la) longitudinal terms, one for the mu shear
    # terms (the real kernel's cof1..cof5 families).
    for axis, tags in ((2, ("cx", "dx")), (1, ("cy", "dy")), (0, ("cz", "dz"))):
        for index, delta in enumerate((-2, -1, 1, 2), start=1):
            mu_c = at_axis("mu", axis, delta)
            la_c = at_axis("la", axis, delta)
            jac_c = at_axis("jac", axis, delta)
            far_mu = at_axis("mu", axis, 2 if delta > 0 else -2)
            body.append(
                f"  {tags[0]}{index} = ({mu_c} + la_s*{la_c})*"
                f"{at_axis('met1', axis, delta)}*"
                f"{at_axis('met2', axis, delta)}/{jac_c} + hb*{far_mu};"
            )
            body.append(
                f"  {tags[1]}{index} = ({mu_c} + la_s*{la_c})*"
                f"{at_axis('met3', axis, delta)}*"
                f"{at_axis('met4', axis, delta)}/{jac_c};"
            )
    body.append(f"  jinv = 1.0 / (h2*{at('jac')});")
    for comp in range(3):
        u = f"u{comp}"
        axis_parts: List[str] = []
        for axis, tags in (
            (2, ("cx", "dx")),
            (1, ("cy", "dy")),
            (0, ("cz", "dz")),
        ):
            terms = []
            for index, delta in enumerate((-2, -1, 1, 2), start=1):
                diff = f"({at_axis(u, axis, delta)} - {at(u)})"
                terms.append(f"{tags[0]}{index}*{diff}")
                terms.append(f"{tags[1]}{index}*{diff}")
            axis_parts.append("(" + sum_of(terms) + ")")
        cross_sets: List[str] = []
        for weight_arr, met_pair in (("la", ("met1", "met3")),
                                     ("mu", ("met2", "met4")),
                                     ("la", ("met1", "met4"))):
            cross_parts: List[str] = []
            for a1, a2 in ((2, 1), (2, 0), (1, 2), (1, 0), (0, 2), (0, 1)):
                terms = []
                for delta in (-2, -1, 1, 2):
                    offsets = [0, 0, 0]
                    offsets[a1] = delta
                    plus = [0, 0, 0]
                    plus[a1] = delta
                    plus[a2] = 1
                    minus = [0, 0, 0]
                    minus[a1] = delta
                    minus[a2] = -1
                    terms.append(
                        f"hb*{at(weight_arr, *offsets)}*"
                        f"{at(met_pair[0], *offsets)}*"
                        f"{at(met_pair[1], *offsets)}*"
                        f"({at(u, *plus)} - {at(u, *minus)})/"
                        f"{at('jac', *offsets)}"
                    )
                cross_parts.append("(" + sum_of(terms) + ")")
            cross_sets.append(sum_of(cross_parts))
        # Curvilinear correction: metric gradients against every
        # displacement component along every axis.
        corr_parts: List[str] = []
        for other in range(3):
            v = f"u{other}"
            for axis in range(3):
                corr_parts.append(
                    f"({at('met3')}*{at('met4')}*{at('met1')})*"
                    f"({at_axis(v, axis, 1)} - {at_axis(v, axis, -1)})*"
                    f"({at_axis('met2', axis, 1)} - "
                    f"{at_axis('met2', axis, -1)})*{at('met2')}"
                    f"/{at('jac')}"
                )
        body.append(
            f"  r{comp} = {sum_of(axis_parts)} + {sum_of(cross_sets)}"
            f" + hd*({sum_of(corr_parts)});"
        )
        body.append(
            f"  uacc{comp}[k][j][i] = (r{comp} + hd2*{at(u)})*jinv;"
        )
    arrays = (
        [f"uacc{c}[W,W,W]" for c in range(3)]
        + [f"u{c}[W,W,W]" for c in range(3)]
        + ["mu[W,W,W]", "la[W,W,W]", "met1[W,W,W]", "met2[W,W,W]",
           "met3[W,W,W]", "met4[W,W,W]", "jac[W,W,W]"]
    )
    params = (
        [f"uacc{c}" for c in range(3)]
        + [f"u{c}" for c in range(3)]
        + ["mu", "la", "met1", "met2", "met3", "met4", "jac"]
    )
    return f"""
parameter W=320;
iterator k, j, i;
double {', '.join(arrays)}, la_s, hb, hd, hd2, h2;
copyin u0, u1, u2, mu, la, met1, met2, met3, met4, jac, la_s, hb, hd, hd2, h2;
#pragma stream k block (16,16)
stencil rhs4sgcurv ({', '.join(params)}, la_s, hb, hd, hd2, h2) {{
  #assign shmem (u0, u1, u2), gmem (mu, la, met1, met2, met3, met4, jac)
{chr(10).join(body)}
}}
rhs4sgcurv ({', '.join(params)}, la_s, hb, hd, hd2, h2);
copyout uacc0, uacc1, uacc2;
"""
