/* Compiled hot path for the integer-code Softermax pipeline.
 *
 * This module is the C twin of the fused kernel's integer fast path
 * (repro/kernels/fused.py): quantize the row straight to input codes,
 * take per-slice maxima, gather the unnormalized exponential codes from
 * the precomputed pow2 difference LUT, run the online-normalization
 * recurrence on the per-slice (max, sum) state, and renormalize-and-
 * divide with pure shift/multiply integer arithmetic -- one C pass per
 * row, no NumPy ufunc dispatch anywhere.
 *
 * Two row loops share one table set (int32 LUT and reciprocal codes,
 * float64 output values), one int32 scratch layout and one per-slice
 * merge: a portable scalar loop, and on x86-64 GCC/Clang an AVX2 loop
 * that runs each slice in 8 int32 lanes.  The AVX2 loop is picked once,
 * at module init, when the CPU reports AVX2, and serves every operating
 * point whose slices span at least one vector (slice_width >= 8; narrower
 * slices are all tail and stay scalar).  Nothing else -- no option, no
 * tensor shape -- selects between them, and other architectures compile
 * only the scalar loop.
 *
 * Bitwise discipline: every arithmetic step below mirrors one NumPy
 * expression of FusedSoftermaxKernel exactly, in both loops --
 *
 *   - input quantization is the same multiply/+0.5/floor/clip/cast
 *     chain in IEEE double.  The multiply is by a power of two (exact),
 *     the add rounds identically in scalar and vector lanes (no FMA: the
 *     AVX2 loop targets "avx2" only, so nothing can be contracted), and
 *     _mm256_floor_pd is the exact IEEE floor.  Clipping happens in
 *     double before the cast, so the truncating convert only ever sees
 *     in-range integral values and is exact;
 *   - a NaN score has no input code.  Pass 1 flags it (isnan in the
 *     scalar loop, an unordered compare in the vector loop) and the call
 *     returns NEEDS_FALLBACK, so the fused kernel -- which answers NaN
 *     rows with the slice-loop oracle's own result -- decides what a NaN
 *     means.  This file gives NaN no semantics of its own;
 *   - slice maxima, max-code requantization, LUT index arithmetic and
 *     the sum-code rounding are exact integer arithmetic (arithmetic
 *     right shifts == NumPy's floor-division shifts).  Tail lanes of a
 *     partial vector are masked: they load INT32_MIN into the maximum
 *     and 0 into the sum, and are never stored;
 *   - int32 lanes are exact because the Python wrapper only enables this
 *     module for operating points inside the fused kernel's own int32
 *     work-dtype rule: unnormed * reciprocal codes plus the rounding
 *     offset fit in 31 bits (product_bits < 31), the gather index fits
 *     the fused kernel's narrow index dtype, and one slice's code sum
 *     fits too (slice_width * max(lut) < 2**31), so neither a lane's
 *     partial sum nor the horizontal total can wrap;
 *   - the online merge runs in IEEE double on per-slice code values,
 *     with ldexp() standing in for np.power(2.0, integer_exp) (both
 *     produce the exact power of two) and the identity cases (shift
 *     factor 1.0) applied unconditionally -- rounding an integer-valued
 *     state is the identity, so skipping it (as the vectorized kernel
 *     does) and applying it (as we do) are bitwise the same;
 *   - the back end is the fused kernel's shift/multiply/round/clip chain
 *     on int32, with the renormalization shift capped at the fused
 *     kernel's int32 bound (30); the output-value gather reads the same
 *     float64 table (vgatherdpd in the vector loop).
 *
 * Anything the integer fast path cannot express bitwise -- a saturated
 * maximum making a renormalization shift non-integral, or a NaN score --
 * is detected before any output is written and reported via return
 * value 1, and the Python wrapper re-runs the call through the fused
 * kernel.  The equivalence suite pins both loops against the slice-loop
 * oracle.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <math.h>
#include <stdint.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_AVX2_LOOP 1
#include <immintrin.h>
#endif

/* Indices into the int64 parameter block (built once per kernel in
 * native.py; keep in sync with _pack_params there). */
enum {
    P_SLICE_WIDTH = 0,
    P_IN_LO,
    P_IN_HI,
    P_FI,          /* input_fmt.frac_bits */
    P_FM,          /* max_fmt.frac_bits */
    P_MAX_LO,
    P_MAX_HI,
    P_IN_SCALE,
    P_MAX_SCALE,
    P_LO_CODE,
    P_SUM_SHIFT,   /* unnormed frac - sum frac */
    P_SUM_LO,
    P_SUM_HI,
    P_OUT_SHIFT,   /* unnormed frac + recip frac - output frac */
    P_OUT_LO,
    P_OUT_HI,
    P_SHIFT_CAP,   /* fused kernel's work-dtype shift bound */
    P_COUNT
};

#define NEEDS_FALLBACK 1

/* Per-call constants shared by both row loops, derived once from the
 * parameter block and the tables. */
typedef struct {
    const int32_t *lut;
    const int32_t *recip_codes;
    const double *out_values;
    double inv_in_res, in_lo, in_hi;
    int64_t width, lut_max, lo_code;
    int32_t fi, fm, ceil_bias, fm_mask, max_lo, max_hi, in_scale, max_scale;
    int32_t sum_shift, sum_lo, sum_hi, shift_cap;
    /* Output rounding as one branch-free expression: ((p + half) >> rsh)
     * << lsh, with half = rsh = 0 or lsh = 0 per the sign of out_shift. */
    int32_t out_half, out_rsh, out_lsh, out_lo, out_hi;
} Plan;

typedef int (*row_fn)(const double *xr, double *outr, npy_intp length,
                      const Plan *c, int32_t *ucodes, int32_t *mcq,
                      int32_t *accq, int32_t *sumc);

/* ------------------------------------------------------------------ */
/* per-slice scalar steps shared by both loops                         */
/* ------------------------------------------------------------------ */

/* Integer-max requantization of a slice's input-code maximum. */
static inline int32_t
requant_max(int32_t maxc, const Plan *c)
{
    int64_t scaled = (((int64_t)maxc + c->ceil_bias) >> c->fi)
                     * ((int64_t)1 << c->fm);
    if (scaled < c->max_lo)
        scaled = c->max_lo;
    else if (scaled > c->max_hi)
        scaled = c->max_hi;
    return (int32_t)scaled;
}

/* Round-to-nearest of a slice's unnormed-code sum onto the sum grid. */
static inline int32_t
sum_code(int64_t ssum, const Plan *c)
{
    int64_t q;
    if (c->sum_shift > 0)
        q = (ssum + (1LL << (c->sum_shift - 1))) >> c->sum_shift;
    else
        q = ssum * (1LL << (-c->sum_shift));
    if (q < c->sum_lo)
        q = c->sum_lo;
    else if (q > c->sum_hi)
        q = c->sum_hi;
    return (int32_t)q;
}

/* Prefix maximum + integral-shift check + the online-normalization
 * recurrence on the per-slice (max, sum) state, in IEEE double on code
 * values -- the fused kernel's expression with the identity steps
 * applied unconditionally.  Writes the reciprocal code and the global
 * maximum code; returns NEEDS_FALLBACK on a non-integral shift. */
static inline int
merge_slices(const int32_t *mcq, int32_t *accq, const int32_t *sumc,
             npy_intp S, const Plan *c, int32_t *rc, int32_t *gmax)
{
    int32_t running = INT32_MIN;
    for (npy_intp s = 0; s < S; s++) {
        if (mcq[s] > running)
            running = mcq[s];
        accq[s] = running;
        if (((mcq[s] - running) & c->fm_mask) != 0)
            return NEEDS_FALLBACK;
        if (s > 0 && ((accq[s - 1] - running) & c->fm_mask) != 0)
            return NEEDS_FALLBACK;
    }
    double rs = (double)sumc[0]; /* slice 0 shift factor is exactly 1 */
    const double dsum_lo = (double)c->sum_lo, dsum_hi = (double)c->sum_hi;
    for (npy_intp s = 1; s < S; s++) {
        const int32_t e_run = (accq[s - 1] - accq[s]) >> c->fm;   /* <= 0 */
        const int32_t e_loc = (mcq[s] - accq[s]) >> c->fm;        /* <= 0 */
        rs *= ldexp(1.0, e_run);
        rs += (double)sumc[s] * ldexp(1.0, e_loc);
        rs = floor(rs + 0.5);
        if (rs < dsum_lo)
            rs = dsum_lo;
        else if (rs > dsum_hi)
            rs = dsum_hi;
    }
    *rc = c->recip_codes[(int64_t)rs];
    *gmax = accq[S - 1];
    return 0;
}

/* Renormalization shift of slice s: integral by the merge check, capped
 * at the fused kernel's int32 bound (the codes are zero long before). */
static inline int32_t
slice_shift(int32_t gmax, int32_t mcq, const Plan *c)
{
    const int32_t k = (gmax - mcq) >> c->fm;
    return k > c->shift_cap ? c->shift_cap : k;
}

/* ------------------------------------------------------------------ */
/* the portable scalar row loop                                        */
/* ------------------------------------------------------------------ */

static int
row_scalar(const double *xr, double *outr, npy_intp length, const Plan *c,
           int32_t *ucodes, int32_t *mcq, int32_t *accq, int32_t *sumc)
{
    const npy_intp W = (npy_intp)c->width;
    const npy_intp S = (length + W - 1) / W;

    /* Pass 1: per slice -- input codes, slice max, LUT gather, sum. */
    for (npy_intp s = 0; s < S; s++) {
        const npy_intp base = s * W;
        const npy_intp n = (base + W <= length) ? W : (length - base);
        int32_t maxc = INT32_MIN;
        for (npy_intp i = 0; i < n; i++) {
            /* multiply / +0.5 / floor / clip / cast, as the fused kernel */
            double v = floor(xr[base + i] * c->inv_in_res + 0.5);
            if (isnan(v))
                return NEEDS_FALLBACK;
            if (v < c->in_lo)
                v = c->in_lo;
            else if (v > c->in_hi)
                v = c->in_hi;
            const int32_t code = (int32_t)v;
            ucodes[base + i] = code; /* staged; overwritten below */
            if (code > maxc)
                maxc = code;
        }
        mcq[s] = requant_max(maxc, c);
        const int64_t offset = (int64_t)mcq[s] * c->max_scale + c->lo_code;
        int64_t ssum = 0;
        for (npy_intp i = 0; i < n; i++) {
            int64_t idx = (int64_t)ucodes[base + i] * c->in_scale - offset;
            if (idx < 0)
                idx = 0;
            else if (idx > c->lut_max)
                idx = c->lut_max;
            const int32_t u = c->lut[idx];
            ucodes[base + i] = u;
            ssum += u;
        }
        sumc[s] = sum_code(ssum, c);
    }

    int32_t rc, gmax;
    if (merge_slices(mcq, accq, sumc, S, c, &rc, &gmax))
        return NEEDS_FALLBACK;

    /* Back end: renormalize (right shift), multiply by the reciprocal
     * code, round to the output grid, clip, gather the float value. */
    for (npy_intp s = 0; s < S; s++) {
        const npy_intp base = s * W;
        const npy_intp n = (base + W <= length) ? W : (length - base);
        const int32_t k = slice_shift(gmax, mcq[s], c);
        for (npy_intp i = 0; i < n; i++) {
            int32_t prod = (ucodes[base + i] >> k) * rc;
            prod = (int32_t)((uint32_t)((prod + c->out_half) >> c->out_rsh)
                             << c->out_lsh);
            if (prod < c->out_lo)
                prod = c->out_lo;
            else if (prod > c->out_hi)
                prod = c->out_hi;
            outr[base + i] = c->out_values[prod];
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* the AVX2 row loop: 8 int32 lanes per step                           */
/* ------------------------------------------------------------------ */

#ifdef HAVE_AVX2_LOOP
#define AVX2 __attribute__((target("avx2")))
#define AVX2_INLINE __attribute__((target("avx2"), always_inline)) static inline

/* Loop-invariant vectors of one row. */
typedef struct {
    __m256i lanes, zero, no_max, in_scale, lut_max;
    __m256i rc, half, out_lo, out_hi;
    __m128i rsh, lsh;
    __m256d inv, in_lo, in_hi;
} Lanes;

/* All-ones in the lanes below `remaining` (1..7: a partial vector). */
AVX2_INLINE __m256i
lane_mask(npy_intp remaining, const Lanes *v)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32((int32_t)remaining),
                              v->lanes);
}

/* The 64-bit-lane masks for the low/high four doubles of an 8-lane mask. */
AVX2_INLINE __m256i
mask_lo64(__m256i m)
{
    return _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m));
}

AVX2_INLINE __m256i
mask_hi64(__m256i m)
{
    return _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m, 1));
}

AVX2_INLINE __m256i
load_epi32(const int32_t *p, __m256i m, int full)
{
    return full ? _mm256_loadu_si256((const __m256i *)p)
                : _mm256_maskload_epi32(p, m);
}

AVX2_INLINE void
store_epi32(int32_t *p, __m256i m, int full, __m256i x)
{
    if (full)
        _mm256_storeu_si256((__m256i *)p, x);
    else
        _mm256_maskstore_epi32(p, m, x);
}

/* Quantize four scores to clipped, integral doubles and convert; NaN
 * lanes are or-ed into *nan (the clip would hide them). */
AVX2_INLINE __m128i
quantize4(__m256d x, const Lanes *v, __m256d *nan)
{
    __m256d q = _mm256_floor_pd(_mm256_add_pd(_mm256_mul_pd(x, v->inv),
                                              _mm256_set1_pd(0.5)));
    *nan = _mm256_or_pd(*nan, _mm256_cmp_pd(q, q, _CMP_UNORD_Q));
    q = _mm256_min_pd(_mm256_max_pd(q, v->in_lo), v->in_hi);
    return _mm256_cvttpd_epi32(q);
}

/* Pass 1a, 8 lanes: input codes, staged in u; folds the slice maximum
 * (tail lanes read as INT32_MIN) and the NaN flag. */
AVX2_INLINE void
codes_step(const double *x, int32_t *u, __m256i m, int full,
           const Lanes *v, __m256i *vmax, __m256d *nan)
{
    const __m256d a = full ? _mm256_loadu_pd(x)
                           : _mm256_maskload_pd(x, mask_lo64(m));
    const __m256d b = full ? _mm256_loadu_pd(x + 4)
                           : _mm256_maskload_pd(x + 4, mask_hi64(m));
    const __m256i code = _mm256_inserti128_si256(
        _mm256_castsi128_si256(quantize4(a, v, nan)), quantize4(b, v, nan),
        1);
    *vmax = _mm256_max_epi32(
        *vmax, full ? code : _mm256_blendv_epi8(v->no_max, code, m));
    store_epi32(u, m, full, code);
}

/* Pass 1b, 8 lanes: LUT index, clamp, vpgatherdd, restage in u; folds
 * the slice sum (tail lanes gather nothing and add 0). */
AVX2_INLINE void
lut_step(int32_t *u, __m256i m, int full, __m256i offset,
         const int32_t *lut, const Lanes *v, __m256i *vsum)
{
    __m256i idx = _mm256_sub_epi32(
        _mm256_mullo_epi32(load_epi32(u, m, full), v->in_scale), offset);
    idx = _mm256_min_epi32(_mm256_max_epi32(idx, v->zero), v->lut_max);
    const __m256i e = full
        ? _mm256_i32gather_epi32((const int *)lut, idx, 4)
        : _mm256_mask_i32gather_epi32(v->zero, (const int *)lut, idx, m, 4);
    store_epi32(u, m, full, e);
    *vsum = _mm256_add_epi32(*vsum, e);
}

/* Pass 2, 8 lanes: shift, multiply, round, clip, vgatherdpd the output
 * values (tail lanes loaded 0, so every index is in the table). */
AVX2_INLINE void
out_step(const int32_t *u, double *o, __m256i m, int full, __m128i k,
         const double *out_values, const Lanes *v)
{
    __m256i p = _mm256_sra_epi32(load_epi32(u, m, full), k);
    p = _mm256_mullo_epi32(p, v->rc);
    p = _mm256_sll_epi32(
        _mm256_sra_epi32(_mm256_add_epi32(p, v->half), v->rsh), v->lsh);
    p = _mm256_min_epi32(_mm256_max_epi32(p, v->out_lo), v->out_hi);
    const __m256d a = _mm256_i32gather_pd(out_values,
                                          _mm256_castsi256_si128(p), 8);
    const __m256d b = _mm256_i32gather_pd(out_values,
                                          _mm256_extracti128_si256(p, 1), 8);
    if (full) {
        _mm256_storeu_pd(o, a);
        _mm256_storeu_pd(o + 4, b);
    } else {
        _mm256_maskstore_pd(o, mask_lo64(m), a);
        _mm256_maskstore_pd(o + 4, mask_hi64(m), b);
    }
}

AVX2_INLINE int32_t
hmax_epi32(__m256i v)
{
    __m128i t = _mm_max_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    t = _mm_max_epi32(t, _mm_shuffle_epi32(t, _MM_SHUFFLE(1, 0, 3, 2)));
    t = _mm_max_epi32(t, _mm_shuffle_epi32(t, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(t);
}

AVX2_INLINE int32_t
hsum_epi32(__m256i v)
{
    __m128i t = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    t = _mm_add_epi32(t, _mm_shuffle_epi32(t, _MM_SHUFFLE(1, 0, 3, 2)));
    t = _mm_add_epi32(t, _mm_shuffle_epi32(t, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(t);
}

/* Each slice runs as whole 8-lane vectors plus at most one masked tail
 * vector; lanes never straddle two slices. */
AVX2 static int
row_avx2(const double *xr, double *outr, npy_intp length, const Plan *c,
         int32_t *ucodes, int32_t *mcq, int32_t *accq, int32_t *sumc)
{
    const npy_intp W = (npy_intp)c->width;
    const npy_intp S = (length + W - 1) / W;
    const __m256i all = _mm256_set1_epi32(-1);
    Lanes v = {
        .lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        .zero = _mm256_setzero_si256(),
        .no_max = _mm256_set1_epi32(INT32_MIN),
        .in_scale = _mm256_set1_epi32(c->in_scale),
        .lut_max = _mm256_set1_epi32((int32_t)c->lut_max),
        .half = _mm256_set1_epi32(c->out_half),
        .out_lo = _mm256_set1_epi32(c->out_lo),
        .out_hi = _mm256_set1_epi32(c->out_hi),
        .rsh = _mm_cvtsi32_si128(c->out_rsh),
        .lsh = _mm_cvtsi32_si128(c->out_lsh),
        .inv = _mm256_set1_pd(c->inv_in_res),
        .in_lo = _mm256_set1_pd(c->in_lo),
        .in_hi = _mm256_set1_pd(c->in_hi),
    };

    /* Pass 1: per slice -- input codes, slice max, LUT gather, sum. */
    for (npy_intp s = 0; s < S; s++) {
        const npy_intp base = s * W;
        const npy_intp n = (base + W <= length) ? W : (length - base);
        const npy_intp full = n & ~(npy_intp)7;
        const __m256i tail = lane_mask(n - full, &v);
        const double *xs = xr + base;
        int32_t *us = ucodes + base;
        __m256i vmax = v.no_max;
        __m256d nan = _mm256_setzero_pd();
        for (npy_intp j = 0; j < full; j += 8)
            codes_step(xs + j, us + j, all, 1, &v, &vmax, &nan);
        if (full < n)
            codes_step(xs + full, us + full, tail, 0, &v, &vmax, &nan);
        if (_mm256_movemask_pd(nan))
            return NEEDS_FALLBACK;
        mcq[s] = requant_max(hmax_epi32(vmax), c);
        /* Wrapping int32 arithmetic: the true index fits the fused
         * kernel's index dtype, so the result is exact. */
        const __m256i offset = _mm256_set1_epi32(
            (int32_t)((int64_t)mcq[s] * c->max_scale + c->lo_code));
        __m256i vsum = v.zero;
        for (npy_intp j = 0; j < full; j += 8)
            lut_step(us + j, all, 1, offset, c->lut, &v, &vsum);
        if (full < n)
            lut_step(us + full, tail, 0, offset, c->lut, &v, &vsum);
        sumc[s] = sum_code(hsum_epi32(vsum), c);
    }

    int32_t rc, gmax;
    if (merge_slices(mcq, accq, sumc, S, c, &rc, &gmax))
        return NEEDS_FALLBACK;

    /* Back end, 8 lanes: shift, multiply, round, clip, gather. */
    v.rc = _mm256_set1_epi32(rc);
    for (npy_intp s = 0; s < S; s++) {
        const npy_intp base = s * W;
        const npy_intp n = (base + W <= length) ? W : (length - base);
        const npy_intp full = n & ~(npy_intp)7;
        const __m128i k = _mm_cvtsi32_si128(slice_shift(gmax, mcq[s], c));
        const int32_t *us = ucodes + base;
        double *os = outr + base;
        for (npy_intp j = 0; j < full; j += 8)
            out_step(us + j, os + j, all, 1, k, c->out_values, &v);
        if (full < n)
            out_step(us + full, os + full, lane_mask(n - full, &v), 0, k,
                     c->out_values, &v);
    }
    return 0;
}
#endif /* HAVE_AVX2_LOOP */

/* The vector loop this CPU runs, or NULL (set once at module init). */
static row_fn simd_row = NULL;

/* Calls served by simd_row (read by the tests through simd_calls()). */
static unsigned long long simd_call_count = 0;

/* ------------------------------------------------------------------ */
/* Python surface                                                      */
/* ------------------------------------------------------------------ */

static int
check_array(PyArrayObject *arr, int typenum, const char *name)
{
    if (PyArray_TYPE(arr) != typenum || !PyArray_IS_C_CONTIGUOUS(arr)) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a C-contiguous array of the expected dtype",
                     name);
        return -1;
    }
    return 0;
}

static PyObject *
forward(PyObject *self, PyObject *args)
{
    PyArrayObject *x, *out, *lut, *recip_codes, *out_values;
    PyArrayObject *ucodes, *slices, *params;
    double inv_in_res;
    int allow_simd = 1;

    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!O!d|p",
                          &PyArray_Type, &x, &PyArray_Type, &out,
                          &PyArray_Type, &lut, &PyArray_Type, &recip_codes,
                          &PyArray_Type, &out_values, &PyArray_Type, &ucodes,
                          &PyArray_Type, &slices, &PyArray_Type, &params,
                          &inv_in_res, &allow_simd))
        return NULL;

    if (check_array(x, NPY_FLOAT64, "x") ||
        check_array(out, NPY_FLOAT64, "out") ||
        check_array(lut, NPY_INT32, "lut") ||
        check_array(recip_codes, NPY_INT32, "recip_codes") ||
        check_array(out_values, NPY_FLOAT64, "out_values") ||
        check_array(ucodes, NPY_INT32, "ucodes scratch") ||
        check_array(slices, NPY_INT32, "slice scratch") ||
        check_array(params, NPY_INT64, "params"))
        return NULL;

    if (PyArray_NDIM(x) != 2 || PyArray_NDIM(out) != 2) {
        PyErr_SetString(PyExc_ValueError, "x and out must be 2-D");
        return NULL;
    }
    const npy_intp rows = PyArray_DIM(x, 0);
    const npy_intp length = PyArray_DIM(x, 1);
    if (PyArray_DIM(out, 0) != rows || PyArray_DIM(out, 1) != length) {
        PyErr_SetString(PyExc_ValueError, "out shape must match x");
        return NULL;
    }
    if (PyArray_SIZE(params) < P_COUNT) {
        PyErr_SetString(PyExc_ValueError, "parameter block too short");
        return NULL;
    }
    const int64_t *p = (const int64_t *)PyArray_DATA(params);
    for (int i = 0; i < P_COUNT; i++) {
        if (p[i] < INT32_MIN || p[i] > INT32_MAX) {
            PyErr_SetString(PyExc_ValueError,
                            "parameter block exceeds the int32 code domain");
            return NULL;
        }
    }
    const int64_t W = p[P_SLICE_WIDTH];
    if (W <= 0 || length <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "slice width and row length must be positive");
        return NULL;
    }
    const npy_intp S = (length + W - 1) / W;
    if (PyArray_SIZE(ucodes) < S * W || PyArray_SIZE(slices) < 3 * S) {
        PyErr_SetString(PyExc_ValueError, "scratch buffers too small");
        return NULL;
    }
    if (PyArray_SIZE(recip_codes) < p[P_SUM_HI] + 1 ||
        PyArray_SIZE(out_values) < p[P_OUT_HI] + 1 ||
        p[P_SUM_LO] < 0 || p[P_OUT_LO] < 0 || PyArray_SIZE(lut) < 1 ||
        PyArray_SIZE(lut) > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "reciprocal/output tables do not cover the code range");
        return NULL;
    }

    const int32_t out_shift = (int32_t)p[P_OUT_SHIFT];
    const Plan plan = {
        .lut = (const int32_t *)PyArray_DATA(lut),
        .recip_codes = (const int32_t *)PyArray_DATA(recip_codes),
        .out_values = (const double *)PyArray_DATA(out_values),
        .inv_in_res = inv_in_res,
        .in_lo = (double)p[P_IN_LO],
        .in_hi = (double)p[P_IN_HI],
        .width = W,
        .lut_max = PyArray_SIZE(lut) - 1,
        .lo_code = p[P_LO_CODE],
        .fi = (int32_t)p[P_FI],
        .fm = (int32_t)p[P_FM],
        .ceil_bias = (int32_t)((1LL << p[P_FI]) - 1),
        .fm_mask = (int32_t)((1LL << p[P_FM]) - 1),
        .max_lo = (int32_t)p[P_MAX_LO],
        .max_hi = (int32_t)p[P_MAX_HI],
        .in_scale = (int32_t)p[P_IN_SCALE],
        .max_scale = (int32_t)p[P_MAX_SCALE],
        .sum_shift = (int32_t)p[P_SUM_SHIFT],
        .sum_lo = (int32_t)p[P_SUM_LO],
        .sum_hi = (int32_t)p[P_SUM_HI],
        .shift_cap = (int32_t)p[P_SHIFT_CAP],
        .out_half = out_shift > 0 ? (int32_t)(1 << (out_shift - 1)) : 0,
        .out_rsh = out_shift > 0 ? out_shift : 0,
        .out_lsh = out_shift < 0 ? -out_shift : 0,
        .out_lo = (int32_t)p[P_OUT_LO],
        .out_hi = (int32_t)p[P_OUT_HI],
    };

    const double *xp = (const double *)PyArray_DATA(x);
    double *op = (double *)PyArray_DATA(out);
    int32_t *ucodesp = (int32_t *)PyArray_DATA(ucodes);
    int32_t *slicep = (int32_t *)PyArray_DATA(slices);
    int32_t *mcq = slicep, *accq = slicep + S, *sumc = slicep + 2 * S;

    /* The vector loop needs slices at least one vector wide; narrower
     * operating points (slice_width < 8) keep the scalar loop. */
    row_fn row = row_scalar;
    if (allow_simd && simd_row != NULL && W >= 8) {
        row = simd_row;
        simd_call_count++; /* under the GIL */
    }

    int rc = 0;
    Py_BEGIN_ALLOW_THREADS
    for (npy_intp r = 0; r < rows; r++) {
        rc = row(xp + r * length, op + r * length, length, &plan,
                 ucodesp, mcq, accq, sumc);
        if (rc != 0)
            break;
    }
    Py_END_ALLOW_THREADS
    return PyLong_FromLong(rc);
}

static PyObject *
simd_calls(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromUnsignedLongLong(simd_call_count);
}

static PyMethodDef methods[] = {
    {"forward", forward, METH_VARARGS,
     "forward(x, out, lut, recip_codes, out_values, ucodes, slices, "
     "params, inv_in_res, allow_simd=True) -> int\n\n"
     "Run the integer-code Softermax pipeline over the rows of a 2-D\n"
     "C-contiguous float64 array, writing probabilities into out.\n"
     "Returns 0 on success, 1 when a non-integral renormalization shift\n"
     "or a NaN score requires the Python fused kernel (caller falls\n"
     "back).  allow_simd=False pins the scalar loop (equivalence tests)."},
    {"simd_calls", simd_calls, METH_NOARGS,
     "simd_calls() -> int\n\n"
     "Number of forward() calls the vector loop has served."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_softermax",
    "Compiled integer-code Softermax hot path (see repro.kernels.native).",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__softermax(void)
{
    import_array();
#ifdef HAVE_AVX2_LOOP
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        simd_row = row_avx2;
#endif
    PyObject *module = PyModule_Create(&moduledef);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "isa",
                                   simd_row != NULL ? "avx2" : "scalar") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
