// progen: case seed-23113 (progen corpus v1)
// progen:expect f1 Stencil2D
// progen:note planted Stencil2D in f1 was not detected
void f1(double* g0, double* go, int g) {
    for (int i0 = 1; (i0 < (g - 1)); i0 = (i0 + 1)) {
        for (int i1 = 1; (i1 < (g - 1)); i1 = (i1 + 1)) {
            go[((i0 * g) + i1)] = (1.0 * ((((((((g0[(((i0 - 1) * g) + (i1 - 1))] + g0[(((i0 - 1) * g) + i1)]) + g0[(((i0 - 1) * g) + (i1 + 1))]) + g0[((i0 * g) + (i1 - 1))]) + g0[((i0 * g) + i1)]) + g0[((i0 * g) + (i1 + 1))]) + g0[(((i0 + 1) * g) + (i1 - 1))]) + g0[(((i0 + 1) * g) + i1)]) + g0[(((i0 + 1) * g) + (i1 + 1))]));
        }
    }
}

double fz_entry(double* d0, double* d1, double* d2, double* d3, double* o0, double* o1, double* g0, double* go, double* m0, double* m1, double* mo, int* k0, int* bi, double* bf, double* cv, int* cr, int* cc, double* x0, double* y0, int n, int g, int dim, int rows, int nb) {
    double total = 0.0;
    f1(g0, go, g);
    return total;
}
