/* Compiled kernels for tensor._tap_sum, tensor.unfold's general path, trainer.Adam.step, tensor._gelu_parts and
   tensor.gelu's VJP, tensor.layer_norm and its VJP, and tensor._softmax.

   Each does the floating-point operations of the numpy code it stands in for, in the same order for every
   entry, so its results are numpy's bit for bit; im2col only moves values. kernels.py builds it with
   -ffp-contract=off, so no multiply and add are fused, and never with -ffast-math, which reorders operations and
   flushes subnormals. On x86-64, tap_sum, gelu and gelu_grad are also compiled for AVX2 and AVX-512 and picked at
   load time (CLONED): a vector lane per entry keeps each entry's operations in their order, so each clone gives
   the same bits.

   gelu's erf is scipy.special.erf's own: the Cephes erf and erfc of Stephen L. Moshier, as scipy (BSD-3)
   carries them in xsf, with their coefficients. libm's erf gives other bits. Its passes are branch-free on
   purpose, the |t| <= 1 form over every entry first: a port that branched per entry ran no faster than numpy.

   gelu's VJP keeps numpy's exp between numpy's product and the kernel's pass: numpy forms exp(-0.5 * x * x) in
   the buffer gelu_grad then finishes in place, since numpy's SIMD exp gives other bits than libm's, and gelu's own
   exp(-a * a) is of another argument.

   layer_norm's, layer_norm_grad's and row_divide's row sums are numpy's pairwise sum, the order np.add.reduce
   takes over a contiguous axis: eight accumulators over blocks of up to 128 entries, and halves split at a
   multiple of 8 above that.

   The softmax is two row passes with numpy's exp between them: row_shift subtracts each row's max, which is
   exact, and row_divide divides by the row's pairwise sum. The exp stays in numpy because numpy's SIMD exp
   gives other bits than libm's. */
#include <math.h>
#include <stddef.h>

#if defined(__x86_64__) && defined(__GNUC__) && defined(__ELF__) /* GCC or clang, and ifunc to pick a clone */
#define CLONED __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONED
#endif

/* out[b, c, i, j] = the sum over taps (u, v), in row-major order from +0.0, of 0.0 + x[b, c, i + u - kh / 2,
   j + v - kw / 2] * k[b, c, u, v], with x 0.0 outside its h x w image. Those zeros are multiplied too, as in the
   numpy path's padded copy, so that an infinite or NaN tap gives numpy's NaN. x is (B, C, h, w) and k
   (B, C, kh, kw), each read through its element strides, which may be negative (a flipped view); out is
   C-contiguous (B, C, h, w). Each (b, c) image goes into plane, a zeroed (h + kh - 1) x (w + kw - 1) buffer whose
   border stays zero, and each output row is summed in place while it is in L1. The 0.0 + is the sum numpy's
   einsum writes each tap as. */
CLONED
void tap_sum(const double *restrict x, ptrdiff_t x0, ptrdiff_t x1, ptrdiff_t x2, ptrdiff_t x3,
             const double *restrict k, ptrdiff_t k0, ptrdiff_t k1, ptrdiff_t k2, ptrdiff_t k3,
             double *restrict plane, double *restrict out, ptrdiff_t bsz, ptrdiff_t ch, ptrdiff_t h, ptrdiff_t w,
             ptrdiff_t kh, ptrdiff_t kw)
{
    ptrdiff_t wp = w + kw - 1;
    for (ptrdiff_t b = 0; b < bsz; b++)
        for (ptrdiff_t c = 0; c < ch; c++) {
            const double *xc = x + b * x0 + c * x1, *kc = k + b * k0 + c * k1;
            double *o = out + (b * ch + c) * h * w;
            for (ptrdiff_t i = 0; i < h; i++)
                for (ptrdiff_t j = 0; j < w; j++)
                    plane[(i + kh / 2) * wp + j + kw / 2] = xc[i * x2 + j * x3];
            for (ptrdiff_t i = 0; i < h; i++, o += w) {
                for (ptrdiff_t j = 0; j < w; j++)
                    o[j] = 0.0;
                for (ptrdiff_t u = 0; u < kh; u++)
                    for (ptrdiff_t v = 0; v < kw; v++) {
                        const double *row = plane + (i + u) * wp + v;
                        double kv = kc[u * k2 + v * k3];
                        for (ptrdiff_t j = 0; j < w; j++)
                            o[j] += 0.0 + row[j] * kv;
                    }
            }
        }
}

/* unfold's window buffer: cols[b, c, u, v, i, j] = x[b, c, i * s + u - ph, j * s + v - pw], or 0.0 where that
   falls outside the h x w image, as tensor.unfold's numpy path copies it out of the zero-padded image. x is read
   through its element strides x0..x3, which may be negative; cols is C-contiguous (B, C, kh, kw, oh, ow). */
void im2col(const double *restrict x, ptrdiff_t x0, ptrdiff_t x1, ptrdiff_t x2, ptrdiff_t x3,
            double *restrict cols, ptrdiff_t bsz, ptrdiff_t ch, ptrdiff_t h, ptrdiff_t w, ptrdiff_t kh, ptrdiff_t kw,
            ptrdiff_t oh, ptrdiff_t ow, ptrdiff_t s, ptrdiff_t ph, ptrdiff_t pw)
{
    for (ptrdiff_t b = 0; b < bsz; b++)
        for (ptrdiff_t c = 0; c < ch; c++)
            for (ptrdiff_t u = 0; u < kh; u++)
                for (ptrdiff_t v = 0; v < kw; v++)
                    for (ptrdiff_t i = 0; i < oh; i++) {
                        double *o = cols + ((((b * ch + c) * kh + u) * kw + v) * oh + i) * ow;
                        ptrdiff_t r = i * s + u - ph, j = 0;
                        if (r >= 0 && r < h) {
                            const double *row = x + b * x0 + c * x1 + r * x2;
                            for (; j < ow && j * s + v < pw; j++)
                                o[j] = 0.0;
                            for (; j < ow && j * s + v - pw < w; j++)
                                o[j] = row[(j * s + v - pw) * x3];
                        }
                        for (; j < ow; j++)
                            o[j] = 0.0;
                    }
}

/* unfold's VJP: gpad[b, c, i * s + u, j * s + v] += g[b, c, u, v, i, j] for each tap (u, v) in row-major order,
   as the numpy path adds each tap's strided slice. gpad is zeroed and C-contiguous (B, C, hp, wp); g is
   (B, C, kh, kw, oh, ow) with element strides g0..g5. */
void col2im(const double *restrict g, ptrdiff_t g0, ptrdiff_t g1, ptrdiff_t g2, ptrdiff_t g3, ptrdiff_t g4,
            ptrdiff_t g5, double *restrict gpad, ptrdiff_t bsz, ptrdiff_t ch, ptrdiff_t hp, ptrdiff_t wp,
            ptrdiff_t kh, ptrdiff_t kw, ptrdiff_t oh, ptrdiff_t ow, ptrdiff_t s)
{
    for (ptrdiff_t b = 0; b < bsz; b++)
        for (ptrdiff_t c = 0; c < ch; c++) {
            double *p = gpad + (b * ch + c) * hp * wp;
            for (ptrdiff_t u = 0; u < kh; u++)
                for (ptrdiff_t v = 0; v < kw; v++) {
                    const double *gt = g + b * g0 + c * g1 + u * g2 + v * g3;
                    for (ptrdiff_t i = 0; i < oh; i++)
                        for (ptrdiff_t j = 0; j < ow; j++)
                            p[(i * s + u) * wp + j * s + v] += gt[i * g4 + j * g5];
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

/* Cephes' polevl and p1evl: c[0] x^n + ... + c[n], and the same with a leading coefficient of 1 not stored. */
static inline double polevl(double x, const double *c, int n)
{
    double ans = c[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + c[i];
    return ans;
}

static inline double p1evl(double x, const double *c, int n)
{
    double ans = x + c[0];
    for (int i = 1; i < n; i++)
        ans = ans * x + c[i];
    return ans;
}

static const double P[] = {2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
                           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
                           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2};
static const double Q[] = {1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
                           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
                           1.65666309194161350182E3, 5.57535340817727675546E2};
static const double T[] = {9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
                           7.00332514112805075473E3, 5.55923013010394962768E4};
static const double U[] = {3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
                           2.26290000613890934246E4, 4.92673942608635921086E4};
static const double SQRT2 = 1.4142135623730951; /* math.sqrt(2.0), tensor._SQRT2 */
#define GELU_BLOCK 512

/* For each of n entries: t = x / sqrt(2), e = erf(t) and out = (0.5 * x) * (1 + e), as tensor._gelu_parts, in
   blocks that stay in L1. Cephes' erf(t) is t T(t^2) / U(t^2) for |t| <= 1 and +-(1 - erfc(a)) above, a = |t|,
   with erfc(a) = exp(-a * a) P(a) / Q(a) for a < 8. From 8 on Cephes' erfc turns to other coefficients and
   underflows to 0 past MAXLOG, but it is below 1e-28 there, and 1 - erfc rounds to 1 below 2^-54: so a >= 8 is
   taken as 8 with a factor 0 for exp, which gives 1 too. The passes are branch-free on purpose, so that the
   compiler vectorises the arithmetic and neither an entry's sign nor its side of |t| = 1 costs a mispredicted
   branch:
   1. the |t| <= 1 form and out for every entry, keeping a = |t|; for t < 0 it is Cephes' -erf(-t), since
      negation commutes with rounding;
   2. the list of the entries with a > 1 or a NaN;
   3. exp(-a * a) for those, by libm's scalar exp, as scipy calls it;
   4. 1 - erfc(a) for those;
   5. their e and out: the sign of t, or for a NaN the quiet NaN Cephes returns, out keeping x's NaN from pass 1. */
CLONED
void gelu(const double *restrict x, double *restrict e, double *restrict out, ptrdiff_t n)
{
    ptrdiff_t far[GELU_BLOCK];
    double abs_t[GELU_BLOCK], a[GELU_BLOCK], w[GELU_BLOCK];
    for (ptrdiff_t lo = 0; lo < n; lo += GELU_BLOCK) {
        ptrdiff_t len = n - lo < GELU_BLOCK ? n - lo : GELU_BLOCK, m = 0;
        const double *xb = x + lo;
        double *eb = e + lo, *ob = out + lo;
        for (ptrdiff_t i = 0; i < len; i++) {
            double t = xb[i] / SQRT2, z = t * t;
            abs_t[i] = fabs(t);
            eb[i] = t * polevl(z, T, 4) / p1evl(z, U, 5);
            ob[i] = (0.5 * xb[i]) * (1.0 + eb[i]);
        }
        for (ptrdiff_t i = 0; i < len; i++) {
            far[m] = i;
            m += !(abs_t[i] <= 1.0);
        }
        for (ptrdiff_t k = 0; k < m; k++) {
            double t = abs_t[far[k]];
            w[k] = t < 8.0 ? exp(-t * t) : 0.0;
            a[k] = t < 8.0 ? t : 8.0;
        }
        for (ptrdiff_t k = 0; k < m; k++)
            w[k] = 1.0 - (w[k] * polevl(a[k], P, 8)) / p1evl(a[k], Q, 8);
        for (ptrdiff_t k = 0; k < m; k++) {
            ptrdiff_t i = far[k];
            if (isnan(xb[i]))
                eb[i] = NAN;
            else {
                eb[i] = copysign(w[k], xb[i]);
                ob[i] = (0.5 * xb[i]) * (1.0 + eb[i]);
            }
        }
    }
}

/* tensor.gelu's VJP over n entries, after numpy has set w = exp((-0.5 * x) * x): w = g * (0.5 * (1 + e) +
   x * (w * inv)), with e the forward's erf(x / sqrt(2)) and inv = 1 / sqrt(2 pi), in the numpy line's order. */
CLONED
void gelu_grad(const double *restrict g, const double *restrict x, const double *restrict e, double *restrict w,
               ptrdiff_t n, double inv)
{
    for (ptrdiff_t i = 0; i < n; i++)
        w[i] = g[i] * (0.5 * (1.0 + e[i]) + x[i] * (w[i] * inv));
}

/* numpy's pairwise sum of a[0], ..., a[n - 1], n >= 1, without np.add.reduce's +0.0 start: a plain sum below 8
   entries; up to 128, eight accumulators taking every eighth entry, combined as ((r0 + r1) + (r2 + r3)) +
   ((r4 + r5) + (r6 + r7)), then the tail of fewer than 8 added one by one; above 128, the sum of the two halves,
   split at a multiple of 8. */
static double pairwise(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = a[0];
        for (ptrdiff_t i = 1; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ptrdiff_t half = n / 2 - n / 2 % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* tensor.layer_norm's forward over n C-contiguous rows of d >= 1 entries, with gain and bias of d entries: per
   row, mean = (0.0 + sum(x)) / d, std = sqrt((0.0 + sum((x - mean)^2)) / d + eps), xhat = (x - mean) / std and
   out = xhat * gain + bias in two roundings, each sum pairwise as numpy's mean takes it. The 0.0 + is
   np.add.reduce's start, which makes a sum of -0.0 entries +0.0. The xhat row holds the squares until std is
   known. std has one entry per row. */
void layer_norm(const double *restrict x, const double *restrict gain, const double *restrict bias,
                double *restrict xhat, double *restrict std, double *restrict out, ptrdiff_t n, ptrdiff_t d,
                double eps)
{
    for (ptrdiff_t r = 0; r < n; r++) {
        const double *xr = x + r * d;
        double *h = xhat + r * d, *o = out + r * d;
        double mean = (0.0 + pairwise(xr, d)) / (double)d;
        for (ptrdiff_t j = 0; j < d; j++)
            h[j] = (xr[j] - mean) * (xr[j] - mean);
        double s = sqrt((0.0 + pairwise(h, d)) / (double)d + eps);
        std[r] = s;
        for (ptrdiff_t j = 0; j < d; j++) {
            h[j] = (xr[j] - mean) / s;
            o[j] = h[j] * gain[j] + bias[j];
        }
    }
}

/* tensor.layer_norm's input gradient over n C-contiguous rows of d >= 1 entries, from the forward's xhat and std:
   per row, with gh = g * gain, gx = ((gh - mean(gh)) - xhat * mean(gh * xhat)) / std, each mean (0.0 + sum) / d
   with the sum pairwise as numpy's mean takes it. gh is recomputed in each pass, and the gx row holds gh, then
   gh * xhat, while they are summed. */
void layer_norm_grad(const double *restrict g, const double *restrict gain, const double *restrict xhat,
                     const double *restrict std, double *restrict gx, ptrdiff_t n, ptrdiff_t d)
{
    for (ptrdiff_t r = 0; r < n; r++) {
        const double *gr = g + r * d, *h = xhat + r * d;
        double *o = gx + r * d;
        for (ptrdiff_t j = 0; j < d; j++)
            o[j] = gr[j] * gain[j];
        double mean_gh = (0.0 + pairwise(o, d)) / (double)d;
        for (ptrdiff_t j = 0; j < d; j++)
            o[j] = gr[j] * gain[j] * h[j];
        double mean_ghx = (0.0 + pairwise(o, d)) / (double)d;
        for (ptrdiff_t j = 0; j < d; j++)
            o[j] = ((gr[j] * gain[j] - mean_gh) - h[j] * mean_ghx) / std[r];
    }
}

/* tensor._softmax's first pass over n C-contiguous rows of d >= 1 entries: e = z - max(row). A row with a NaN
   has the quiet NaN np.nan for its max, as np.max's vector loop returns it, so every entry of the row is NaN.
   (np.max's scalar tail returns the NaN it meets instead, so a NaN of another sign or payload in that tail can
   give the row's NaNs other bits than numpy's; they are NaN on both paths.) Which zero a tie of 0.0 and -0.0
   keeps does not matter, since exp maps both to 1. */
void row_shift(const double *restrict z, double *restrict e, ptrdiff_t n, ptrdiff_t d)
{
    for (ptrdiff_t r = 0; r < n; r++) {
        const double *zr = z + r * d;
        double *er = e + r * d, m = zr[0];
        int nan = 0;
        for (ptrdiff_t j = 0; j < d; j++) {
            m = zr[j] > m ? zr[j] : m;
            nan |= isnan(zr[j]);
        }
        m = nan ? NAN : m;
        for (ptrdiff_t j = 0; j < d; j++)
            er[j] = zr[j] - m;
    }
}

/* tensor._softmax's last pass, after numpy's exp, in place over n C-contiguous rows of d >= 1 entries:
   e = e / (0.0 + sum(row)), the sum pairwise as np.sum takes it and one division per entry. */
void row_divide(double *e, ptrdiff_t n, ptrdiff_t d)
{
    for (ptrdiff_t r = 0; r < n; r++) {
        double *er = e + r * d, s = 0.0 + pairwise(er, d);
        for (ptrdiff_t j = 0; j < d; j++)
            er[j] = er[j] / s;
    }
}
