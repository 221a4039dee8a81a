"""Dev-only oracle: compute golden values for the Hilbert model tests via
sympy symbolic integration and dense solves, fully independent of qal's
Gram formula and LDL solver.  Run once; values are frozen into tests.
"""
import sympy
from sympy import Rational, Symbol, integrate, factorial, Matrix

x = Symbol('x')


def gram_oracle(mvals, D):
    # weights (j! M_j)^-2; inner = sum_j w_j int_{-1}^{1} u^(j) v^(j)
    w = [Rational(1) / (factorial(j) * mvals[j]) ** 2 for j in range(D + 1)]
    G = sympy.zeros(D + 1, D + 1)
    for a in range(D + 1):
        for b in range(D + 1):
            s = Rational(0)
            ua = x ** a
            ub = x ** b
            for j in range(D + 1):
                s += w[j] * integrate(sympy.diff(ua, x, j) * sympy.diff(ub, x, j),
                                      (x, -1, 1))
            G[a, b] = s
    return G


def analytic_mvals(D):
    return [Rational(1)] * (D + 1)


def gevrey1_mvals(D):
    return [factorial(j) for j in range(D + 1)]


print("== Analytic D=1 gram ==")
print(gram_oracle(analytic_mvals(1), 1))

print("== Analytic D=2 gram ==")
G2 = gram_oracle(analytic_mvals(2), 2)
print(G2)

# minimal interpolant for Analytic, D=2, k=1, b=(1):
# representers e_i solve G r = i! unit_i; interpolant g = xi e_0 with
# <e_0|e_0> xi = 1
r0 = G2.solve(Matrix([1, 0, 0]))
print("e_0 =", r0.T)
e00 = (r0.T * G2 * r0)[0, 0]
print("<e_0|e_0> =", e00)
xi = Rational(1) / e00
g1 = xi * r0
print("g_1 coefficients =", g1.T)

print("== Gevrey(1) D=8: omega column k=4 ==")
D = 8
G8 = gram_oracle(gevrey1_mvals(D), D)
reps = []
for i in range(4):
    rhs = sympy.zeros(D + 1, 1)
    rhs[i] = factorial(i)
    reps.append(G8.solve(rhs))
R = sympy.zeros(4, 4)
for i in range(4):
    for j in range(4):
        # <e_i|e_j> = e_j^(i)(0) = i! * coeff_i(e_j)
        R[i, j] = factorial(i) * reps[j][i]
omegas = []
for j in range(4):
    b = sympy.zeros(4, 1)
    b[j] = 1
    xi = R.solve(b)
    coeffs = sympy.zeros(D + 1, 1)
    for t in range(4):
        coeffs += xi[t] * reps[t]
    val1 = sum(coeffs)  # value at x=1
    omegas.append(sympy.nsimplify(factorial(j) * val1))
print("omega_{j,4} for j=0..3:", omegas)

print("== Gevrey(1) D=4: omega column k=2 (for the lacunary schedule p=1) ==")
D = 4
G4 = gram_oracle(gevrey1_mvals(D), D)


def omega_col(G, D, k, mvals):
    reps = []
    for i in range(k):
        rhs = sympy.zeros(D + 1, 1)
        rhs[i] = factorial(i)
        reps.append(G.solve(rhs))
    R = sympy.zeros(k, k)
    for i in range(k):
        for j in range(k):
            R[i, j] = factorial(i) * reps[j][i]
    out = []
    for j in range(k):
        b = sympy.zeros(k, 1)
        b[j] = 1
        xi = R.solve(b)
        coeffs = sympy.zeros(D + 1, 1)
        for t in range(k):
            coeffs += xi[t] * reps[t]
        out.append(factorial(j) * sum(coeffs))
    return out


col = omega_col(G4, 4, 2, gevrey1_mvals(4))
print("omega_{j,2} in model D=4:", col)

print("== lacunary schedule check: Gevrey(1), k_p = 2^p, D_p = 2 k_p, p <= 3 ==")
ks = [1, 2, 4, 8]
Ds = [2, 4, 8, 16]
print("pairs:", list(zip(Ds, ks)))
for p in range(1, 4):
    D_p, k_p = Ds[p], ks[p]
    G = gram_oracle(gevrey1_mvals(D_p), D_p)
    col = omega_col(G, D_p, k_p, gevrey1_mvals(D_p))
    k_prev = ks[p - 1]
    total = sum(abs(col[j] - 1) * factorial(j) for j in range(k_prev + 1))
    print(f"p={p}: sum = {total} = {float(total):.6g} -> {'ok' if total <= 1 else 'FAIL'}")

print("== lacunary schedule check: Gevrey(1), four levels ==")
schedule = [(1, 1), (4, 2), (5, 5), (16, 16)]
print("pairs:", schedule)
for p in range(1, len(schedule)):
    D_p, k_p = schedule[p]
    k_prev = schedule[p - 1][1]
    G = gram_oracle(gevrey1_mvals(D_p), D_p)
    col = omega_col(G, D_p, k_p, gevrey1_mvals(D_p))
    total = sum(abs(col[j] - 1) * factorial(j) for j in range(k_prev + 1))
    print(f"p={p}: sum = {total} = {float(total):.6g} -> {'ok' if total <= 1 else 'FAIL'}")

print("== divergence demo: Gevrey(1), a=1/2, k_q=q, T=10^6 ==")
total = Rational(0)
for q in range(0, 40):
    total += factorial(q) * Rational(1, 2) ** q
    if total > 10**6:
        print("crossing at p =", q, "partial sum =", float(total))
        break
