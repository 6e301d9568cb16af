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
 * smo_solve_batch deals a stack of problems to threads started here, in
 * C: they never call malloc, so they take no malloc arena, and a batch
 * leaves the process's heap as it found it.
 *
 * Built on first use by repro.native, into one library with
 * core/_normalize.c (see its header for the build line).
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>

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
 * Solve one problem: k is its (n, n) kernel, y its labels (+-1 as
 * float32), c the box, tol the float32 threshold below which a gap
 * counts as converged (gap >= tol keeps iterating), max_iter the
 * iteration cap.  Writes alpha and grad (n each), the iterations
 * performed and the last KKT gap; returns 1 when the gap met tol.
 */
int smo_solve(int64_t n, const float *k, const float *y, float c, float tol,
              int64_t max_iter, int selection, float *alpha, float *grad,
              int64_t *iterations, float *gap_out)
{
    enum phase phase = PROBE_FIRST;
    int phase_left = PROBE_ITERS;
    int have_start = 0;
    int committed_second = 1;
    float gap_start = 0.0f, rate_first = 0.0f;
    float gap = 0.0f;
    int64_t it = 0;
    int converged = 0;

    for (int64_t t = 0; t < n; t++) {
        alpha[t] = 0.0f;
        grad[t] = -1.0f;  /* G = Q alpha - e at alpha = 0 */
    }

    while (it < max_iter) {
        /* --- working-set selection: i = argmax over I_up, j = argmin
         *     over I_low of -y G ---------------------------------------- */
        int64_t i = 0, j = 0;
        float gmax = 0.0f, gmin = 0.0f;
        int i_nan = 0, j_nan = 0;
        for (int64_t t = 0; t < n; t++) {
            float minus_yg = -(y[t] * grad[t]);
            int pos = y[t] > 0.0f;
            int at_upper = alpha[t] >= c;
            int at_lower = alpha[t] <= 0.0f;
            float up = (pos ? at_upper : at_lower) ? -INFINITY : minus_yg;
            float low = (pos ? at_lower : at_upper) ? INFINITY : minus_yg;
            if (t == 0) {
                gmax = up;
                gmin = low;
                i_nan = up != up;
                j_nan = low != low;
                continue;
            }
            if (!i_nan && (up > gmax || up != up)) {
                gmax = up;
                i = t;
                i_nan = up != up;
            }
            if (!j_nan && (low < gmin || low != low)) {
                gmin = low;
                j = t;
                j_nan = low != low;
            }
        }
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

        const float *k_i = k + i * n;
        const float di = k_i[i];
        if (use_second) {
            /* j maximizes b^2 / a over I_low & (-y G < gmax). */
            int any = 0, g_nan = 0;
            int64_t j_second = 0;
            float best = 0.0f;
            for (int64_t t = 0; t < n; t++) {
                float minus_yg = -(y[t] * grad[t]);
                int pos = y[t] > 0.0f;
                int not_low = pos ? alpha[t] <= 0.0f : alpha[t] >= c;
                float low = not_low ? INFINITY : minus_yg;
                int eligible = low < gmax;
                float a = (di + k[t * n + t]) - 2.0f * k_i[t];
                if (a <= 0.0f)
                    a = TAU;
                float b = gmax - minus_yg;
                float gain = eligible ? (b * b) / a : -INFINITY;
                any |= eligible;
                if (t == 0) {
                    best = gain;
                    g_nan = gain != gain;
                } else if (!g_nan && (gain > best || gain != gain)) {
                    best = gain;
                    j_second = t;
                    g_nan = gain != gain;
                }
            }
            if (any)
                j = j_second;
        }
        const float *k_j = k + j * n;

        /* --- two-variable analytic update ------------------------------
         * s = y_i y_j = +-1, so one form serves both label cases:
         * quad = K_ii + K_jj - 2 K_ij and alpha_i + s alpha_j is held. */
        float yi = y[i], yj = y[j];
        float ai = alpha[i], aj = alpha[j];
        float s = yi * yj;
        float quad = (di + k_j[j]) - 2.0f * k_i[j];
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
            /* grad += Q_i step_i + Q_j step_j, Q_ab = y_a y_b K_ab. */
            float ci = yi * step_i, cj = yj * step_j;
            for (int64_t t = 0; t < n; t++)
                grad[t] = grad[t] + y[t] * (k_i[t] * ci + k_j[t] * cj);
        }
    }

    *iterations = it;
    *gap_out = gap;
    return converged;
}

/* A stack of P problems and the index of the next one not yet taken. */
struct batch {
    int64_t p, n;
    const float *k, *y;
    float c, tol;
    int64_t max_iter;
    int selection;
    float *alpha, *grad, *gap;
    int64_t *iterations;
    uint8_t *converged;
    int64_t next;
};

/* Take problems one at a time until none is left. */
static void *drain(void *arg)
{
    struct batch *b = arg;
    const int64_t n = b->n;
    for (;;) {
        int64_t q = __atomic_fetch_add(&b->next, 1, __ATOMIC_RELAXED);
        if (q >= b->p)
            return NULL;
        b->converged[q] = (uint8_t)smo_solve(
            n, b->k + q * n * n, b->y + q * n, b->c, b->tol, b->max_iter,
            b->selection, b->alpha + q * n, b->grad + q * n,
            b->iterations + q, b->gap + q);
    }
}

#define MAX_THREADS 256

/*
 * Solve P stacked problems (k: (P, n, n), y/alpha/grad: (P, n), one
 * iterations/gap/converged entry each) on up to `threads` threads: the
 * caller and threads - 1 helpers pull problems from one counter.  A
 * helper that cannot be started leaves its share to the others.
 * Returns the number of threads that ran.
 */
int smo_solve_batch(int64_t p, int64_t n, const float *k, const float *y,
                    float c, float tol, int64_t max_iter, int selection,
                    float *alpha, float *grad, int64_t *iterations,
                    float *gap, uint8_t *converged, int threads)
{
    struct batch b = {
        .p = p, .n = n, .k = k, .y = y, .c = c, .tol = tol,
        .max_iter = max_iter, .selection = selection, .alpha = alpha,
        .grad = grad, .gap = gap, .iterations = iterations,
        .converged = converged, .next = 0,
    };
    pthread_t helpers[MAX_THREADS];
    int started = 0;
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    while (started + 1 < threads && started + 1 < p) {
        if (pthread_create(&helpers[started], NULL, drain, &b) != 0)
            break;
        started++;
    }
    drain(&b);
    for (int t = 0; t < started; t++)
        pthread_join(helpers[t], NULL);
    return started + 1;
}
