/*
 * One float32 C-SVC dual, solved the way repro.svm.smo.solve_smo solves
 * it (its iteration is the numpy body of solve_smo_batch).
 *
 *     min_a  (1/2) a^T Q a - e^T a,   0 <= a_i <= C,   y^T a = 0
 *
 * Every operation is the float32 operation the numpy body performs, in
 * the same order: no contraction (built with -ffp-contract=off), the
 * same argmax / argmin tie rule (first index) and NaN rule (the first
 * NaN wins), the same clipping sequence and the same adaptive
 * probe/commit machine (8 / 8 / 64 iterations).  A problem's result is
 * therefore the bits the numpy body gives it, whatever shares its batch.
 *
 * The working-set scans are PhiSVM's parallel reductions (after
 * Catanzaro et al.'s GPU SMO), vectorized: each selection is a value
 * pass, then a first-index pass, both branch-free over rows padded to
 * whole vector blocks.  The value pass maps every candidate to an int32
 * key that orders as the floats do (-0 and +0 one key, a NaN above or
 * below every number) and reduces to the extreme key; integer max / min
 * are exact and associative, so the lane order cannot matter.  The
 * index pass takes the least t whose key is that extreme: the first
 * NaN if there is one, else the first index equal to the extreme,
 * which is np.argmax / np.argmin's rule.  The winner's value is then
 * read back from its row, so even the sign of a zero is the one the
 * sequential scan keeps.  The arithmetic between the scans is
 * elementwise, the same float32 operation per element in any lane.
 *
 * smo_solve_batch deals a stack of problems to threads started here, in
 * C: they never call malloc (their scratch rows are the caller's), so
 * they take no malloc arena, and a batch leaves the process's heap as it
 * found it.
 *
 * Built on first use by repro.native, into one library with
 * core/_normalize.c (see its header for the build line).
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>

#define SELECT_FIRST 0
#define SELECT_SECOND 1
#define SELECT_ADAPTIVE 2

#define PROBE_ITERS 8
#define COMMIT_ITERS 64

enum phase { PROBE_FIRST, PROBE_SECOND, COMMIT };

/* LibSVM's TAU as float32: np.float32(1e-12). */
static const float TAU = 1e-12f;

/*
 * numpy's float32 log on x86-64 with AVX2 or AVX-512 (simd_log_FLOAT):
 * x = m 2^e with m in (sqrt(1/2), sqrt(2)], then a 5/5 rational
 * polynomial in m - 1 evaluated with fused multiply-adds.  glibc's logf
 * rounds differently in ~4 % of inputs, and an ulp can flip the
 * adaptive commit, so the solver carries numpy's own.  The loader checks
 * it against np.log before using the solver.
 */
static float log_f32(float x)
{
    if (x != x)
        return x;
    if (x < 0.0f)
        return -NAN;
    if (x == 0.0f)
        return -INFINITY;
    if (x == INFINITY)
        return INFINITY;
    int e;
    float m = frexpf(x, &e);  /* m in [0.5, 1) */
    float ex = (float)e;
    if (m <= 0x1.6a09e6p-1f) {
        m = m + m;
        ex = ex + -1.0f;
    }
    m = m + -1.0f;
    float num = fmaf(0x1.a8579ap-6f, m, 0x1.860666p-2f);
    num = fmaf(num, m, 0x1.7ae152p+0f);
    num = fmaf(num, m, 0x1.0e6c38p+1f);
    num = fmaf(num, m, 1.0f);
    num = fmaf(num, m, 0.0f);
    float den = fmaf(0x1.8107bep-8f, m, 0x1.3cb7e6p-3f);
    den = fmaf(den, m, 0x1.f915c8p-1f);
    den = fmaf(den, m, 0x1.39fc1ap+1f);
    den = fmaf(den, m, 0x1.4e6c38p+1f);
    den = fmaf(den, m, 1.0f);
    return fmaf(ex, 0x1.62e430p-1f, num / den);
}

/* The loader's self-test: log_f32 over x[0..n). */
void smo_log_f32(const float *x, float *out, int64_t n)
{
    for (int64_t t = 0; t < n; t++)
        out[t] = log_f32(x[t]);
}

/*
 * Convergence per unit cost of one probe phase, the float32 rule of
 * AdaptiveSelector._rate: log(start / end) / (probe * cost), and +inf
 * when either gap is not positive.
 */
static float probe_rate(float start, float end, float cost)
{
    if (start <= 0.0f || end <= 0.0f)
        return INFINITY;
    return log_f32(start / end) / ((float)PROBE_ITERS * cost);
}

/*
 * Every per-iteration pass runs over rows padded to a multiple of LANES
 * floats, as one loop of blocks * LANES iterations: a trip count gcc
 * knows to be a multiple of every vector width, so each clone
 * vectorizes it (a block is one AVX-512 register, two AVX2 or four SSE)
 * with no scalar tail and one horizontal reduction at the end.  A loop
 * nest over the blocks would reduce once per block.
 */
#define LANES 16

/* A thread's scratch: this many rows of n rounded up to LANES floats. */
#define SCRATCH_ROWS 10

/* The float32 whose bits are (mask & bits(a)) | (~mask & bits(b)).  A
 * select that stays a select: a conditional expression may become a
 * branch, and a loop with one does not vectorize. */
static inline __attribute__((always_inline)) float
select_bits(int32_t mask, float a, float b)
{
    int32_t ia, ib;
    memcpy(&ia, &a, sizeof ia);
    memcpy(&ib, &b, sizeof ib);
    ia = (mask & ia) | (~mask & ib);
    memcpy(&a, &ia, sizeof a);
    return a;
}

/*
 * An int32 key that orders float32s as < does: a negative float's
 * magnitude bits are flipped, -0 is read as +0 so that the two share a
 * key, and a NaN gets the key above (want_max) or below every number's.
 * No number's key is INT32_MAX or INT32_MIN: those bit patterns are
 * NaNs.
 */
static inline __attribute__((always_inline)) int32_t
order_key(float x, int want_max)
{
    int32_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits &= -(int32_t)(bits != INT32_MIN);
    const int32_t key = bits ^ ((bits >> 31) & INT32_MAX);
    const int32_t nan = -(int32_t)(x != x);
    return (nan & (want_max ? INT32_MAX : INT32_MIN)) | (~nan & key);
}

/* The least of t and first where hit (a -1 / 0 mask) is set. */
static inline __attribute__((always_inline)) int32_t
first_hit(int32_t hit, int32_t t, int32_t first)
{
    const int32_t at = (hit & t) | (~hit & INT32_MAX);
    return at < first ? at : first;
}

/*
 * -y G and its I_up / I_low values: -inf / +inf outside the set and in
 * the padding.  Returns the extreme keys, the greatest of up and the
 * least of low, through up_key and low_key.
 */
static inline __attribute__((always_inline)) void
bound_values(int32_t n, int32_t blocks, const float *restrict y,
             const float *restrict alpha, const float *restrict grad,
             float c, float *restrict minus_yg, float *restrict up,
             float *restrict low, int32_t *up_key, int32_t *low_key)
{
    int32_t best_up = INT32_MIN, best_low = INT32_MAX;
    for (int32_t t = 0; t < blocks * LANES; t++) {
        const float m = -(y[t] * grad[t]);
        const int pos = y[t] > 0.0f, neg = !pos;
        const int at_upper = alpha[t] >= c;
        const int at_lower = alpha[t] <= 0.0f;
        const int pad = t >= n;
        const float u = select_bits(
            -((pos & at_upper) | (neg & at_lower) | pad), -INFINITY, m);
        const float l = select_bits(
            -((pos & at_lower) | (neg & at_upper) | pad), INFINITY, m);
        minus_yg[t] = m;
        up[t] = u;
        low[t] = l;
        const int32_t ku = order_key(u, 1), kl = order_key(l, 0);
        best_up = ku > best_up ? ku : best_up;
        best_low = kl < best_low ? kl : best_low;
    }
    *up_key = best_up;
    *low_key = best_low;
}

/*
 * The first t whose order_key(v[t], want_max) is `key`.  With `key` the
 * extreme key of v, that is np.argmax / np.argmin's answer and the
 * sequential scan's: the first NaN, else the first index equal to the
 * extreme.  The caller reads the value back from v[t], so a -0 / +0 tie
 * keeps the zero the sequential scan keeps.
 */
static inline __attribute__((always_inline)) int64_t
first_key(int32_t blocks, const float *restrict v, int32_t key, int want_max)
{
    int32_t first = INT32_MAX;
    for (int32_t t = 0; t < blocks * LANES; t++)
        first = first_hit(-(order_key(v[t], want_max) == key), t, first);
    return first;
}

/*
 * The second-order gain b^2 / a of pairing each t with i, -inf where t
 * is not eligible (outside I_low, or -y_t G_t >= gmax; padding is
 * neither).  Returns the first t of the greatest gain, np.argmax's
 * answer, or -1 when no t is eligible.  The quotient is formed for
 * every t and taken by a bit select, so gcc cannot sink the division
 * into a branch, which it may not speculate (it can trap); an eligible
 * t gets the same float32 value either way.
 */
static inline __attribute__((always_inline)) int64_t
second_order(int32_t blocks, const float *restrict k_i, float di,
             const float *restrict diag, float gmax,
             const float *restrict minus_yg, const float *restrict low,
             float *restrict gain)
{
    int32_t any = 0, best = INT32_MIN;
    for (int32_t t = 0; t < blocks * LANES; t++) {
        const float d = (di + diag[t]) - 2.0f * k_i[t];
        const float a = select_bits(-(d <= 0.0f), TAU, d);
        const float b = gmax - minus_yg[t];
        const float q = (b * b) / a;
        const int32_t eligible = -(low[t] < gmax);
        const float g = select_bits(eligible, q, -INFINITY);
        gain[t] = g;
        any |= eligible;
        const int32_t key = order_key(g, 1);
        best = key > best ? key : best;
    }
    return any ? first_key(blocks, gain, best, 1) : -1;
}

/* grad += Q_i step_i + Q_j step_j, Q_ab = y_a y_b K_ab. */
static inline __attribute__((always_inline)) void
update_gradient(int32_t blocks, const float *restrict y,
                const float *restrict k_i, const float *restrict k_j,
                float ci, float cj, float *restrict grad)
{
    for (int32_t t = 0; t < blocks * LANES; t++)
        grad[t] = grad[t] + y[t] * (k_i[t] * ci + k_j[t] * cj);
}

/*
 * Solve one problem: k is its (n, n) kernel, y_in its labels (+-1 as
 * float32), c the box, tol the float32 threshold below which a gap
 * counts as converged (gap >= tol keeps iterating), max_iter the
 * iteration cap.  Writes alpha_out and grad_out (n each), the
 * iterations performed and the last KKT gap; returns 1 when the gap met
 * tol.  `rows` is the calling thread's scratch, SCRATCH_ROWS rows of
 * npad floats on a 64-byte boundary: the solve keeps y, alpha and G
 * there, padded, and copies kernel rows i and j in, so that every pass
 * reads whole blocks.  Padding lanes hold finite values and are masked
 * out of every selection.
 */
__attribute__((target_clones("avx512f", "avx2", "default")))
static int smo_solve(int64_t n, int64_t npad, const float *restrict k,
                     const float *restrict y_in, float c, float tol,
                     int64_t max_iter, int selection,
                     float *restrict alpha_out, float *restrict grad_out,
                     int64_t *iterations, float *gap_out,
                     float *restrict rows)
{
    float *restrict y = rows;
    float *restrict alpha = rows + npad;
    float *restrict grad = rows + 2 * npad;
    float *restrict diag = rows + 3 * npad;
    float *restrict minus_yg = rows + 4 * npad;
    float *restrict up = rows + 5 * npad;
    float *restrict low = rows + 6 * npad;
    float *restrict gain = rows + 7 * npad;
    float *restrict k_i = rows + 8 * npad;
    float *restrict k_j = rows + 9 * npad;
    const int32_t n32 = (int32_t)n, blocks = (int32_t)(npad / LANES);
    enum phase phase = PROBE_FIRST;
    int phase_left = PROBE_ITERS;
    int have_start = 0;
    int committed_second = 1;
    float gap_start = 0.0f, rate_first = 0.0f;
    float gap = 0.0f;
    int64_t it = 0;
    int converged = 0;

    for (int64_t t = 0; t < npad; t++) {
        const int real = t < n;
        y[t] = real ? y_in[t] : 1.0f;
        alpha[t] = 0.0f;
        grad[t] = -1.0f;  /* G = Q alpha - e at alpha = 0 */
        diag[t] = real ? k[t * n + t] : 0.0f;
        k_i[t] = 0.0f;
        k_j[t] = 0.0f;
    }

    while (it < max_iter) {
        /* --- working-set selection: i = argmax over I_up, j = argmin
         *     over I_low of -y G ---------------------------------------- */
        int32_t up_key, low_key;
        int64_t i, j;
        bound_values(n32, blocks, y, alpha, grad, c, minus_yg, up, low,
                     &up_key, &low_key);
        i = first_key(blocks, up, up_key, 1);
        j = first_key(blocks, low, low_key, 0);
        const float gmax = up[i], gmin = low[j];
        /* Degenerate problems (empty I_up or I_low) are optimal. */
        gap = (isfinite(gmax) && isfinite(gmin)) ? gmax - gmin : 0.0f;

        int use_second = selection == SELECT_SECOND;
        if (selection == SELECT_ADAPTIVE) {
            use_second = phase == PROBE_SECOND
                         || (phase == COMMIT && committed_second);
            if (!have_start) {
                gap_start = gap;
                have_start = 1;
            }
            if (--phase_left <= 0) {
                if (phase == PROBE_FIRST) {
                    rate_first = probe_rate(gap_start, gap, 1.0f);
                    phase = PROBE_SECOND;
                    phase_left = PROBE_ITERS;
                } else if (phase == PROBE_SECOND) {
                    /* First order wins only on a strictly greater rate. */
                    float rate_second = probe_rate(gap_start, gap, 2.0f);
                    committed_second = !(rate_first > rate_second);
                    phase = COMMIT;
                    phase_left = COMMIT_ITERS;
                } else {
                    phase = PROBE_FIRST;
                    phase_left = PROBE_ITERS;
                }
                gap_start = gap;
            }
        }

        if (!(gap >= tol)) {
            converged = 1;
            break;
        }
        it++;

        memcpy(k_i, k + i * n, n * sizeof *k_i);
        const float di = diag[i];
        if (use_second) {
            /* j maximizes b^2 / a over I_low & (-y G < gmax), if any. */
            const int64_t j_second = second_order(blocks, k_i, di, diag, gmax,
                                                  minus_yg, low, gain);
            if (j_second >= 0)
                j = j_second;
        }

        /* --- two-variable analytic update ------------------------------
         * s = y_i y_j = +-1, so one form serves both label cases:
         * quad = K_ii + K_jj - 2 K_ij and alpha_i + s alpha_j is held. */
        float yi = y[i], yj = y[j];
        float ai = alpha[i], aj = alpha[j];
        float s = yi * yj;
        float quad = (di + diag[j]) - 2.0f * k_i[j];
        if (quad <= 0.0f)
            quad = TAU;
        float delta = (s * grad[i] - grad[j]) / quad;
        float new_ai = ai - s * delta;
        float new_aj = aj + delta;
        float held = ai + s * aj;
        if (s > 0.0f) {
            /* Same sign: clip along alpha_i + alpha_j = held. */
            int hi = held > c, lo = held <= c;
            if (hi && new_ai > c) { new_ai = c; new_aj = held - c; }
            if (lo && new_aj < 0.0f) { new_aj = 0.0f; new_ai = held; }
            if (hi && new_aj > c) { new_aj = c; new_ai = held - c; }
            if (lo && new_ai < 0.0f) { new_ai = 0.0f; new_aj = held; }
        } else {
            /* Different sign: clip along alpha_i - alpha_j = held. */
            int hi = held > 0.0f, lo = held <= 0.0f;
            if (hi && new_aj < 0.0f) { new_aj = 0.0f; new_ai = held; }
            if (lo && new_ai < 0.0f) { new_ai = 0.0f; new_aj = -held; }
            if (hi && new_ai > c) { new_ai = c; new_aj = c - held; }
            if (lo && new_aj > c) { new_aj = c; new_ai = c + held; }
        }
        alpha[i] = new_ai;
        alpha[j] = new_aj;
        float step_i = new_ai - ai;
        float step_j = new_aj - aj;
        if (step_i != 0.0f || step_j != 0.0f) {
            memcpy(k_j, k + j * n, n * sizeof *k_j);
            update_gradient(blocks, y, k_i, k_j, yi * step_i, yj * step_j,
                            grad);
        }
    }

    memcpy(alpha_out, alpha, n * sizeof *alpha);
    memcpy(grad_out, grad, n * sizeof *grad);
    *iterations = it;
    *gap_out = gap;
    return converged;
}

/* A stack of P problems and the index of the next one not yet taken. */
struct batch {
    int64_t p, n, npad;
    const float *k, *y;
    float c, tol;
    int64_t max_iter;
    int selection;
    float *alpha, *grad, *gap;
    int64_t *iterations;
    uint8_t *converged;
    int64_t next;
};

/* One thread's share: the batch, and its own scratch rows. */
struct worker {
    struct batch *b;
    float *rows;
};

/* Take problems one at a time until none is left. */
static void *drain(void *arg)
{
    struct worker *w = arg;
    struct batch *b = w->b;
    const int64_t n = b->n;
    for (;;) {
        int64_t q = __atomic_fetch_add(&b->next, 1, __ATOMIC_RELAXED);
        if (q >= b->p)
            return NULL;
        b->converged[q] = (uint8_t)smo_solve(
            n, b->npad, b->k + q * n * n, b->y + q * n, b->c, b->tol,
            b->max_iter, b->selection, b->alpha + q * n, b->grad + q * n,
            b->iterations + q, b->gap + q, w->rows);
    }
}

#define MAX_THREADS 256

/*
 * Solve P stacked problems (k: (P, n, n), y/alpha/grad: (P, n), one
 * iterations/gap/converged entry each) on up to `threads` threads: the
 * caller and threads - 1 helpers pull problems from one counter.  A
 * helper that cannot be started leaves its share to the others.
 * `scratch` is `scratch_len` floats the caller allocated: each thread
 * takes SCRATCH_ROWS rows of n rounded up to LANES floats from its
 * first 64-byte boundary, and no more threads run than it holds.
 * Returns the number of threads that ran (0, solving nothing, when the
 * scratch holds none).
 */
int smo_solve_batch(int64_t p, int64_t n, const float *k, const float *y,
                    float c, float tol, int64_t max_iter, int selection,
                    float *alpha, float *grad, int64_t *iterations,
                    float *gap, uint8_t *converged, float *scratch,
                    int64_t scratch_len, int threads)
{
    const int64_t npad = (n + LANES - 1) / LANES * LANES;
    const int64_t share = SCRATCH_ROWS * npad;
    float *rows = (float *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    const int64_t fit = (scratch_len - (rows - scratch)) / share;
    struct batch b = {
        .p = p, .n = n, .npad = npad, .k = k, .y = y, .c = c, .tol = tol,
        .max_iter = max_iter, .selection = selection, .alpha = alpha,
        .grad = grad, .gap = gap, .iterations = iterations,
        .converged = converged, .next = 0,
    };
    struct worker workers[MAX_THREADS];
    pthread_t helpers[MAX_THREADS];
    int started = 0;
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    if (threads > fit)
        threads = (int)fit;
    if (threads < 1)
        return 0;
    for (int t = 0; t < threads; t++)
        workers[t] = (struct worker){.b = &b, .rows = rows + t * share};
    while (started + 1 < threads && started + 1 < p) {
        if (pthread_create(&helpers[started], NULL, drain,
                           &workers[started + 1]) != 0)
            break;
        started++;
    }
    drain(&workers[0]);
    for (int t = 0; t < started; t++)
        pthread_join(helpers[t], NULL);
    return started + 1;
}
