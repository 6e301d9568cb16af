/*
 * The z-score tail of repro.core.normalization.fuse_normalize_tile:
 * equation 5 over a tile numpy has already clipped and arctanh'd.
 *
 * Every operation is the float32 operation the numpy body performs, in
 * the same order: per column, a sequential sum over the population
 * (numpy's order when the reduced axis is not the contiguous one), the
 * divide by its size, the centring, the sequential sum of squares, the
 * divide and the square root; then the divide by the deviation, and +0
 * over the columns whose deviation is <= eps.  No contraction (built
 * with -ffp-contract=off), and no reassociation: the loops vectorize
 * across columns, never along a sum.  The result is therefore the bits
 * of the numpy body.
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
