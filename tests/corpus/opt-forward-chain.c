// progen: case opt-forward-chain (progen corpus v1)
// progen:note redundant-load elimination forwarded `u` to `t`, then forwarded the reload of d1[0] to the already removed `u`: the optimized IR stored an undefined value and failed IR verification
double fz_entry(double* d0, double* d1, double* d2, double* d3, double* o0, double* o1, double* g0, double* go, double* m0, double* m1, double* mo, int* k0, int* bi, double* bf, double* cv, int* cr, int* cc, double* x0, double* y0, int n, int g, int dim, int rows, int nb) {
    double t = d0[0];
    double u = d0[0];
    d1[0] = u;
    d0[1] = d1[0];
    return t;
}
