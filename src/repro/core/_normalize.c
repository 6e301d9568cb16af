/*
 * Two float32 passes whose numpy bodies live in repro.core:
 *
 * normalize_windows — equation 2 of repro.core.correlation: one epoch's
 * windows gathered from the subject's BOLD, each mean-centred and
 * scaled by its root sum of squares (normalize_epoch_data).
 *
 * normalize_zscore — the z-score tail of
 * repro.core.normalization.fuse_normalize_tile: equation 5 over a tile
 * numpy has already clipped and arctanh'd.
 *
 * Every operation is the float32 operation the numpy body performs, in
 * the same order, with no contraction (built with -ffp-contract=off)
 * and no reassociation, so the result is the bits of the numpy body.
 *
 * The orders to match.  A sum along a row's contiguous axis is numpy's
 * add.reduce, which is 0 + pairwise(all t values) — not a[0] +
 * pairwise(a[1:]), which differs in the last bit: below 8 values a
 * sequential loop; from 8 to 128 (numpy's PW_BLOCKSIZE) eight
 * accumulators over the multiple-of-8 prefix, combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remaining values added
 * one at a time.  Longer rows numpy splits recursively; the caller
 * keeps them in its numpy body.  A sum across rows (the reduced axis
 * is not the contiguous one) is sequential over the population.  A
 * mean divides the float32 sum by the count (numpy divides in double
 * and rounds, which is the same float32).
 *
 * Built on first use by repro.native, into one library with
 * svm/_smo.c:
 *     gcc -O3 -fPIC -shared -ffp-contract=off -fno-math-errno -pthread \
 *         _smo.c _normalize.c -lm
 * -O3, because at -O2 these loops stay scalar and lose to numpy;
 * -fno-math-errno, so that sqrtf vectorizes too.  The clones pick the
 * widest vectors the running CPU has; the cached library does not
 * depend on the CPU that built it.
 */

#include <stdint.h>

/*
 * Z-score `tile`, C-contiguous float32 (groups, e, n), in place: each
 * (group, column) population of e values.  `mean` and `dev` are
 * n-float scratch rows.
 */
__attribute__((target_clones("avx512f", "avx2", "default")))
void normalize_zscore(float *restrict tile, int64_t groups, int64_t e,
                      int64_t n, float eps, float *restrict mean,
                      float *restrict dev)
{
    const float count = (float)e;
    for (int64_t g = 0; g < groups; ++g) {
        float *restrict x = tile + g * e * n;
        for (int64_t j = 0; j < n; ++j)
            mean[j] = 0.0f;
        for (int64_t k = 0; k < e; ++k)
            for (int64_t j = 0; j < n; ++j)
                mean[j] = mean[j] + x[k * n + j];
        for (int64_t j = 0; j < n; ++j) {
            mean[j] = mean[j] / count;
            dev[j] = 0.0f;
        }
        for (int64_t k = 0; k < e; ++k)
            for (int64_t j = 0; j < n; ++j) {
                float c = x[k * n + j] - mean[j];
                x[k * n + j] = c;
                dev[j] = dev[j] + c * c;
            }
        for (int64_t j = 0; j < n; ++j)
            dev[j] = __builtin_sqrtf(dev[j] / count);
        for (int64_t k = 0; k < e; ++k)
            for (int64_t j = 0; j < n; ++j)
                x[k * n + j] = x[k * n + j] / dev[j];
        for (int64_t j = 0; j < n; ++j)
            if (dev[j] <= eps)
                for (int64_t k = 0; k < e; ++k)
                    x[k * n + j] = 0.0f;
    }
}

/* Rows normalize_windows takes together, one per vector lane. */
#define LANES 16

/* numpy's add.reduce of every lane l of c[0..n)[l], n <= 128, the lanes
 * side by side. */
static inline __attribute__((always_inline)) void
pairwise_lanes(const float (*restrict c)[LANES], int64_t n,
               float *restrict out)
{
    float res[LANES], r[8][LANES];
    int64_t i = 0;
    for (int l = 0; l < LANES; ++l)
        res[l] = 0.0f;
    if (n >= 8) {
        for (int j = 0; j < 8; ++j)
            for (int l = 0; l < LANES; ++l)
                r[j][l] = c[j][l];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; ++j)
                for (int l = 0; l < LANES; ++l)
                    r[j][l] = r[j][l] + c[i + j][l];
        for (int l = 0; l < LANES; ++l)
            res[l] = ((r[0][l] + r[1][l]) + (r[2][l] + r[3][l]))
                   + ((r[4][l] + r[5][l]) + (r[6][l] + r[7][l]));
    }
    for (; i < n; ++i)
        for (int l = 0; l < LANES; ++l)
            res[l] = res[l] + c[i][l];
    for (int l = 0; l < LANES; ++l)
        out[l] = 0.0f + res[l];
}

/* One output row: zeros, the centred values divided by the norm, or
 * (a NaN norm, which numpy's masked divide skips) the centred values. */
static inline __attribute__((always_inline)) void
emit_row(const float *restrict x, int64_t t, float mean, float norm,
         int zero, int divide, float *restrict y)
{
    if (zero) {
        for (int64_t i = 0; i < t; ++i)
            y[i] = 0.0f;
    } else if (divide) {
        for (int64_t i = 0; i < t; ++i)
            y[i] = (x[i] - mean) / norm;
    } else {
        for (int64_t i = 0; i < t; ++i)
            y[i] = x[i] - mean;
    }
}

/*
 * Equation 2 over one epoch: row v of `src` is voxel v's t values (row
 * stride `ld` floats); row v of `dst` (C-contiguous (n, t)) becomes
 * them centred and divided by their root sum of squares.  A row whose
 * norm is <= eps, or whose t values are one finite value, becomes +0.
 * 1 <= t <= 128.
 *
 * Rows go LANES at a time: their values are transposed into a block
 * with one row per vector lane, where the sums run lane-wise in the
 * order above (a row alone has too short a sum to vectorize), and the
 * output is written row by row from the source.  A last block of fewer
 * rows fills its spare lanes with its last row and writes only its own.
 */
__attribute__((target_clones("avx512f", "avx2", "default")))
void normalize_windows(const float *restrict src, int64_t ld, int64_t n,
                       int64_t t, float eps, float *restrict dst)
{
    const float count = (float)t;
    float c[128][LANES], mean[LANES], norm[LANES];
    int zero[LANES], divide[LANES];
    int64_t row[LANES];
    for (int64_t v = 0; v < n; v += LANES) {
        const float *restrict x = src + v * ld;
        const int rows = n - v < LANES ? (int)(n - v) : LANES;
        for (int l = 0; l < LANES; ++l)
            row[l] = (l < rows ? l : rows - 1) * ld;
        for (int64_t i = 0; i < t; ++i)
            for (int l = 0; l < LANES; ++l)
                c[i][l] = x[row[l] + i];
        for (int l = 0; l < LANES; ++l)
            zero[l] = __builtin_isfinite(c[0][l]);
        for (int64_t i = 1; i < t; ++i)
            for (int l = 0; l < LANES; ++l)
                zero[l] &= c[i][l] == c[0][l];
        pairwise_lanes((const float (*)[LANES])c, t, mean);
        for (int l = 0; l < LANES; ++l)
            mean[l] = mean[l] / count;
        for (int64_t i = 0; i < t; ++i)
            for (int l = 0; l < LANES; ++l) {
                const float d = c[i][l] - mean[l];
                c[i][l] = d * d;
            }
        pairwise_lanes((const float (*)[LANES])c, t, norm);
        for (int l = 0; l < LANES; ++l) {
            norm[l] = __builtin_sqrtf(norm[l]);
            zero[l] |= norm[l] <= eps;
            divide[l] = norm[l] > eps;
        }
        for (int l = 0; l < rows; ++l)
            emit_row(x + l * ld, t, mean[l], norm[l], zero[l], divide[l],
                     dst + (v + l) * t);
    }
}
