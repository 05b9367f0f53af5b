"""Frozen high-precision values of F_Z(z) = P(X + Y <= z), and their generator.

X and Y are N(0, 1), coupled at Pearson rho = 0.9, 0.5 or 0.1 by the
Clayton, Gumbel, Frank or t (nu = 4) copula; the Archimedean thetas are the
doubles that ``spec_from_rho`` gives at each rho, written out as literals.
Each value is

    F_Z(z) = integral over x of phi(x) h(Phi(z - x) | Phi(x)),

with h(v | u) = dC(u, v)/du the conditional CDF of V given U = u.  The
generator shares no formula with sumdist:

* Clayton, Gumbel, Frank: h is mpmath's numerical derivative (``mp.diff``)
  of the closed-form C;
* t: h is the closed form T_{nu+1}((y - rho x) sqrt((nu + 1) / ((nu + x^2)
  (1 - rho^2)))) of Aas, Czado, Frigessi & Bakken (IME 2009), on mpmath's
  incomplete-beta t CDF and a ``findroot`` t quantile.

The quadrature runs at 50 working digits over x in [-12, 12] (the normal
mass outside is 3.6e-33), with breakpoints at -5, 0, z/2 and 5; the values
keep 25 significant digits.  The Gauss copula needs no frozen values: its
F_Z is Phi(z / sqrt(2 + 2 rho)) in closed form, which the tests take in
mpmath.  pytest does not collect this file (its name
does not start with ``test_``); the tests import ``POINTS``.  Regenerate
the literal below (about 150 s on one CPU, most of it the t points) and
diff it with::

    python tests/fz_oracle.py
"""

RHOS = (0.9, 0.5, 0.1)
NU = 4.0
# (family, rho) -> theta
THETAS = {
    ("clayton", 0.9): 4.965423277339248,
    ("gumbel", 0.9): 3.482711638669624,
    ("frank", 0.9): 12.025352559529379,
    ("clayton", 0.5): 1.0000000000000002,
    ("gumbel", 0.5): 1.5,
    ("frank", 0.5): 3.3057722827180953,
    ("clayton", 0.1): 0.13622392539390757,
    ("gumbel", 0.1): 1.0681119626969537,
    ("frank", 0.1): 0.575815545447638,
}
FAMILIES = ("clayton", "gumbel", "frank", "t")
ZS = (-3.0, 0.0, 3.0, 4.5)

# (family, rho, z) -> F_Z(z), 25 significant digits
POINTS = {
    ("clayton", 0.9, -3.0): "0.06562686555203670282387203",
    ("clayton", 0.9, 0.0): "0.4881914338772205543378123",
    ("clayton", 0.9, 3.0): "0.9476877180189531585838976",
    ("clayton", 0.9, 4.5): "0.9964841191207947661363005",
    ("gumbel", 0.9, -3.0): "0.05914384085893734571245034",
    ("gumbel", 0.9, 0.0): "0.5054956197241234928504613",
    ("gumbel", 0.9, 3.0): "0.9361031138671264338895901",
    ("gumbel", 0.9, 4.5): "0.9883406167123385388150305",
    ("frank", 0.9, -3.0): "0.0619790132949170820815639",
    ("frank", 0.9, 0.0): "0.5",
    ("frank", 0.9, 3.0): "0.9380209867050829179184361",
    ("frank", 0.9, 4.5): "0.994332447453861468746208",
    ("t", 0.9, -3.0): "0.06155786880094618913927721",
    ("t", 0.9, 0.0): "0.5",
    ("t", 0.9, 3.0): "0.9384421311990538108607228",
    ("t", 0.9, 4.5): "0.9891298315360529549702513",
    ("clayton", 0.5, -3.0): "0.05213157616840891974073324",
    ("clayton", 0.5, 0.0): "0.4727997174374301548788123",
    ("clayton", 0.5, 3.0): "0.9712968605443702441772458",
    ("clayton", 0.5, 4.5): "0.9986076632262700647998522",
    ("gumbel", 0.5, -3.0): "0.03571948407598722723158885",
    ("gumbel", 0.5, 0.0): "0.5135173850821541424972341",
    ("gumbel", 0.5, 3.0): "0.9524504438544163107531262",
    ("gumbel", 0.5, 4.5): "0.9918025421925244386448355",
    ("frank", 0.5, -3.0): "0.03730126636538037041931871",
    ("frank", 0.5, 0.0): "0.5",
    ("frank", 0.5, 3.0): "0.9626987336346196295806813",
    ("frank", 0.5, 4.5): "0.9978287291692266962031059",
    ("t", 0.5, -3.0): "0.04188901457583021373739616",
    ("t", 0.5, 0.0): "0.5",
    ("t", 0.5, 3.0): "0.9581109854241697862626038",
    ("t", 0.5, 4.5): "0.99363310725705916426547",
    ("clayton", 0.1, -3.0): "0.02539584029899393300540187",
    ("clayton", 0.1, 0.0): "0.4915391677646976702883826",
    ("clayton", 0.1, 3.0): "0.9812044219934713724172597",
    ("clayton", 0.1, 4.5): "0.9991747762799212742299429",
    ("gumbel", 0.1, -3.0): "0.01999293353253926852398462",
    ("gumbel", 0.1, 0.0): "0.5047952140151026193793638",
    ("gumbel", 0.1, 3.0): "0.9758689135850280818938429",
    ("gumbel", 0.1, 4.5): "0.9974122051516379083740794",
    ("frank", 0.1, -3.0): "0.02042908913272091545033698",
    ("frank", 0.1, 0.0): "0.5",
    ("frank", 0.1, 3.0): "0.979570910867279084549663",
    ("frank", 0.1, 4.5): "0.9990638526674633619488909",
    ("t", 0.1, -3.0): "0.02448633052618747622035997",
    ("t", 0.1, 0.0): "0.5",
    ("t", 0.1, 3.0): "0.97551366947381252377964",
    ("t", 0.1, 4.5): "0.9968595529200885566097061",
}


def _archimedean_cdf(mp, family, theta):
    theta = mp.mpf(theta)
    if family == "clayton":
        return lambda u, v: (u**-theta + v**-theta - 1) ** (-1 / theta)
    if family == "gumbel":
        return lambda u, v: mp.exp(-(((-mp.log(u)) ** theta + (-mp.log(v)) ** theta) ** (1 / theta)))
    return lambda u, v: -mp.log(1 + mp.expm1(-theta * u) * mp.expm1(-theta * v) / mp.expm1(-theta)) / theta


def _t_cdf(mp, x, nu):
    # T_nu(x) = I_{nu / (nu + x^2)}(nu/2, 1/2) / 2 for x <= 0, by symmetry above
    tail = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x), regularized=True) / 2
    return tail if x <= 0 else 1 - tail


def _t_quantile(mp, p, q, nu):
    """x with T_nu(x) = p, where q = 1 - p is given separately (each to full
    relative precision); solved on the smaller side."""
    if p > q:
        return -_t_quantile(mp, q, p, nu)
    # the lower-tail asymptote T_nu(x) ~ nu^(nu/2 - 1) |x|^-nu / B(nu/2, 1/2)
    start = -((nu * mp.beta(nu / 2, mp.mpf(1) / 2) * p) ** (-1 / nu)) * mp.sqrt(nu)
    return mp.findroot(lambda x: mp.log(_t_cdf(mp, x, nu)) - mp.log(p), start)


def _conditional(mp, family, rho):
    """h(s, x) = h(Phi(s) | Phi(x)), the conditional CDF on normal
    coordinates; the integrand takes s = z - x."""
    if family == "t":
        nu, rho = mp.mpf(NU), mp.mpf(rho)

        def h(s, x):
            tx = _t_quantile(mp, mp.ncdf(x), mp.ncdf(-x), nu)
            ty = _t_quantile(mp, mp.ncdf(s), mp.ncdf(-s), nu)
            arg = (ty - rho * tx) * mp.sqrt((nu + 1) / ((nu + tx * tx) * (1 - rho * rho)))
            return _t_cdf(mp, arg, nu + 1)

        return h
    cdf = _archimedean_cdf(mp, family, THETAS[(family, rho)])
    return lambda s, x: mp.diff(lambda w: cdf(w, mp.ncdf(s)), mp.ncdf(x))


def f_z(family, rho, z, dps=50):
    """F_Z(z) for one family at one of ``RHOS``, as an mpmath number."""
    import mpmath as mp

    with mp.workdps(dps):
        z = mp.mpf(z)
        h = _conditional(mp, family, rho)
        breaks = sorted({mp.mpf(-12), mp.mpf(-5), mp.mpf(0), z / 2, mp.mpf(5), mp.mpf(12)})
        return mp.quad(lambda x: mp.npdf(x) * h(z - x, x), breaks)


def main():
    import mpmath as mp

    print("POINTS = {")
    for rho in RHOS:
        for family in FAMILIES:
            for z in ZS:
                value = mp.nstr(f_z(family, rho, z), 25, min_fixed=-40, max_fixed=1)
                print(f'    ("{family}", {rho!r}, {z!r}): "{value}",')
    print("}")


if __name__ == "__main__":
    main()
