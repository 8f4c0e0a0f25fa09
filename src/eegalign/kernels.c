/* Compiled kernels for tensor._tap_sum and trainer.Adam.step.

   Each does the floating-point operations of the numpy code it stands in for, in the same order for every
   entry, so its results are numpy's bit for bit. kernels.py builds it with -ffp-contract=off, so no multiply
   and add are fused, and never with -ffast-math, which reorders operations and flushes subnormals. */
#include <math.h>
#include <stddef.h>

/* out[b, c, i, j] += 0.0 + padded[b, c, i + u, j + v] * k[b, c, u, v] for each tap (u, v) in row-major order.
   out is zeroed and C-contiguous (B, C, h, w); padded is C-contiguous (B, C, h + kh - 1, w + kw - 1); k is
   (B, C, kh, kw) with element strides k0..k3, which may be negative (a flipped view). The 0.0 + is the sum
   numpy's einsum writes each tap as. */
void tap_sum(const double *restrict padded, const double *restrict k, ptrdiff_t k0, ptrdiff_t k1, ptrdiff_t k2,
             ptrdiff_t k3, double *restrict out, ptrdiff_t bsz, ptrdiff_t ch, ptrdiff_t h, ptrdiff_t w,
             ptrdiff_t kh, ptrdiff_t kw)
{
    ptrdiff_t wp = w + kw - 1, plane = (h + kh - 1) * wp;
    for (ptrdiff_t b = 0; b < bsz; b++)
        for (ptrdiff_t c = 0; c < ch; c++) {
            const double *x = padded + (b * ch + c) * plane;
            double *o = out + (b * ch + c) * h * w;
            for (ptrdiff_t u = 0; u < kh; u++)
                for (ptrdiff_t v = 0; v < kw; v++) {
                    double kv = k[b * k0 + c * k1 + u * k2 + v * k3];
                    for (ptrdiff_t i = 0; i < h; i++)
                        for (ptrdiff_t j = 0; j < w; j++)
                            o[i * w + j] += 0.0 + x[(i + u) * wp + j + v] * kv;
                }
        }
}

/* Adam's update of n entries: the 14 numpy operations of Adam.step, one entry at a time, with c1 = 1 - b1 and
   c2 = 1 - b2 as Python computed them. */
void adam(double *restrict value, const double *restrict g, double *restrict m, double *restrict v, ptrdiff_t n,
          double b1, double c1, double b2, double c2, double m_scale, double v_scale, double lr, double eps)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        m[i] = m[i] * b1 + g[i] * c1;
        v[i] = v[i] * b2 + g[i] * c2 * g[i];
        double work = m[i] / m_scale * lr;
        double denom = sqrt(v[i] / v_scale) + eps;
        value[i] = value[i] - work / denom;
    }
}
