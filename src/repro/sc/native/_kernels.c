/* Native kernels for the word-packed stochastic data plane.
 *
 * Compiled at first use into a small shared library (see _build.py) and
 * called through cffi's ABI mode, which releases the GIL around every
 * call -- that is what makes thread-sharded execution
 * (repro.backends.parallel) effective.
 *
 * Every kernel is bit-identical to its NumPy counterpart in
 * repro.sc.packed / repro.blocks.batched: same LSB-first word layout
 * (stream bit t in word t // 64 at position t % 64), same tail-mask
 * invariant (unused high bits of the final word stay zero), same IEEE
 * comparison semantics in the SNG comparator.
 *
 * Broadcast convention: the fused reduction kernels take up to three
 * leading ("row") dimensions with per-operand element strides, which is
 * exactly what the packed backend's conv (batch, positions, out_ch) and
 * dense (batch, out_ch) call sites need; the Python wrappers fall back
 * to NumPy for anything wider.
 */

#include <stdint.h>
#include <string.h>

#define ALL_ONES (~(uint64_t)0)

/* ---- fused XNOR -> CSA column counts ------------------------------------ */

/* Carry-save full adder: l += a + b, carry out in h (5 word ops). */
#define CSA(h, l, a, b)                                                       \
    do {                                                                      \
        uint64_t _u = (a) ^ (b);                                              \
        (h) = ((a) & (b)) | (_u & (l));                                       \
        (l) ^= _u;                                                            \
    } while (0)

/* 8x8 bit-matrix transpose (Hacker's Delight 7-3): byte r bit c of the
 * input becomes byte c bit r of the output. */
static inline uint64_t transpose8(uint64_t x)
{
    uint64_t t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
    x = x ^ t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
    x = x ^ t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
    x = x ^ t ^ (t << 28);
    return x;
}

/* Product plane i of one word column: XNOR planes first (tail-masked),
 * then the extra columns, whose tail bits are already zero (contract). */
static inline uint64_t plane_word(
    const uint64_t *pa, const uint64_t *pb, const uint64_t *pe,
    int64_t m, int64_t stride, int64_t i, uint64_t mask)
{
    if (i < m)
        return ~(pa[i * stride] ^ pb[i * stride]) & mask;
    return pe[(i - m) * stride];
}

/* Accumulate every product plane of one word column into sixteen
 * binary-counter level words.  The low eight levels live in registers
 * and are fed by a Harley-Seal full-adder tree eight planes at a time
 * (~1 word op per plane per adder level, amortised); the weight-8 carry
 * of each tree ripples upward with early exit, spilling into the high
 * levels only for column sums beyond 255. */
static inline void count_column(
    const uint64_t *pa, const uint64_t *pb, const uint64_t *pe,
    int64_t m, int64_t total, int64_t stride, uint64_t mask,
    uint64_t *lv /* 16 level words out */)
{
    uint64_t ones = 0, twos = 0, fours = 0;
    uint64_t l3 = 0, l4 = 0, l5 = 0, l6 = 0, l7 = 0;
    uint64_t hi[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    uint64_t c, t;
    int64_t i = 0;
    for (; i + 8 <= total; i += 8) {
        uint64_t c0, c1, c2, c3, d0, d1, e0;
        CSA(c0, ones, plane_word(pa, pb, pe, m, stride, i + 0, mask),
                      plane_word(pa, pb, pe, m, stride, i + 1, mask));
        CSA(c1, ones, plane_word(pa, pb, pe, m, stride, i + 2, mask),
                      plane_word(pa, pb, pe, m, stride, i + 3, mask));
        CSA(c2, ones, plane_word(pa, pb, pe, m, stride, i + 4, mask),
                      plane_word(pa, pb, pe, m, stride, i + 5, mask));
        CSA(c3, ones, plane_word(pa, pb, pe, m, stride, i + 6, mask),
                      plane_word(pa, pb, pe, m, stride, i + 7, mask));
        CSA(d0, twos, c0, c1);
        CSA(d1, twos, c2, c3);
        CSA(e0, fours, d0, d1);
        c = e0;
        do {
            if (!c) break;
            t = l3 & c; l3 ^= c; c = t; if (!c) break;
            t = l4 & c; l4 ^= c; c = t; if (!c) break;
            t = l5 & c; l5 ^= c; c = t; if (!c) break;
            t = l6 & c; l6 ^= c; c = t; if (!c) break;
            t = l7 & c; l7 ^= c; c = t;
            for (int l = 0; c && l < 8; l++) {
                t = hi[l] & c; hi[l] ^= c; c = t;
            }
        } while (0);
    }
    for (; i < total; i++) {
        c = plane_word(pa, pb, pe, m, stride, i, mask);
        do {
            if (!c) break;
            t = ones & c; ones ^= c; c = t; if (!c) break;
            t = twos & c; twos ^= c; c = t; if (!c) break;
            t = fours & c; fours ^= c; c = t; if (!c) break;
            t = l3 & c; l3 ^= c; c = t; if (!c) break;
            t = l4 & c; l4 ^= c; c = t; if (!c) break;
            t = l5 & c; l5 ^= c; c = t; if (!c) break;
            t = l6 & c; l6 ^= c; c = t; if (!c) break;
            t = l7 & c; l7 ^= c; c = t;
            for (int l = 0; c && l < 8; l++) {
                t = hi[l] & c; hi[l] ^= c; c = t;
            }
        } while (0);
    }
    lv[0] = ones; lv[1] = twos; lv[2] = fours;
    lv[3] = l3; lv[4] = l4; lv[5] = l5; lv[6] = l6; lv[7] = l7;
    for (int l = 0; l < 8; l++)
        lv[8 + l] = hi[l];
}

/* Gather byte j of eight level words into one 8x8 bit matrix; after
 * transpose8, byte k is the (<= 8-bit) column count at t = 8j + k. */
static inline uint64_t decode_slice(const uint64_t *lv, int j)
{
    uint64_t x = 0;
    for (int l = 0; l < 8; l++)
        x |= ((lv[l] >> (8 * j)) & 0xFFULL) << (8 * l);
    return transpose8(x);
}

#define FUSED_COUNTS(NAME, OUT_T, HAS_HI)                                     \
void NAME(                                                                    \
    const uint64_t *a, const uint64_t *b, const uint64_t *extra,              \
    int64_t d0, int64_t d1, int64_t d2,                                       \
    int64_t as0, int64_t as1, int64_t as2,                                    \
    int64_t bs0, int64_t bs1, int64_t bs2,                                    \
    int64_t es0, int64_t es1, int64_t es2,                                    \
    int64_t m, int64_t n_extra,                                               \
    int64_t n_words, int64_t length, uint64_t tail,                           \
    OUT_T *out)                                                               \
{                                                                             \
    int64_t total = m + n_extra;                                              \
    int64_t row = 0;                                                          \
    for (int64_t i0 = 0; i0 < d0; i0++)                                       \
    for (int64_t i1 = 0; i1 < d1; i1++)                                       \
    for (int64_t i2 = 0; i2 < d2; i2++, row++) {                              \
        const uint64_t *ra = a + i0 * as0 + i1 * as1 + i2 * as2;              \
        const uint64_t *rb = b + i0 * bs0 + i1 * bs1 + i2 * bs2;              \
        const uint64_t *re =                                                  \
            extra ? extra + i0 * es0 + i1 * es1 + i2 * es2 : 0;               \
        OUT_T *cnt = out + row * length;                                      \
        for (int64_t w = 0; w < n_words; w++) {                               \
            uint64_t mask = (w == n_words - 1) ? tail : ALL_ONES;             \
            uint64_t lv[16];                                                  \
            count_column(ra + w, rb + w, re ? re + w : 0,                     \
                         m, total, n_words, mask, lv);                        \
            int64_t t0 = w * 64;                                              \
            int64_t tmax = length - t0;                                       \
            if (tmax > 64) tmax = 64;                                         \
            for (int j = 0; 8 * j < tmax; j++) {                              \
                uint64_t lo = decode_slice(lv, j);                            \
                int64_t nb = tmax - 8 * j;                                    \
                if (nb > 8) nb = 8;                                           \
                if (!HAS_HI && nb == 8) {                                     \
                    memcpy(cnt + t0 + 8 * j, &lo, 8);                         \
                } else {                                                      \
                    uint64_t hib = HAS_HI ? decode_slice(lv + 8, j) : 0;      \
                    for (int k = 0; k < nb; k++)                              \
                        cnt[t0 + 8 * j + k] = (OUT_T)(                        \
                            ((lo >> (8 * k)) & 0xFF) |                        \
                            (((hib >> (8 * k)) & 0xFF) << 8));                \
                }                                                             \
            }                                                                 \
        }                                                                     \
    }                                                                         \
}

FUSED_COUNTS(repro_fused_xnor_counts_u8, uint8_t, 0)
FUSED_COUNTS(repro_fused_xnor_counts_u16, uint16_t, 1)

/* ---- fused XNOR -> majority chain --------------------------------------- */

/* Majority chain over XNOR products, mirroring the hardware factorisation
 * of fused_xnor_majority_chain: acc = Maj(p0, p1, p2), one Maj gate per
 * further pair, trailing single input ANDed. */
void repro_fused_xnor_chain(
    const uint64_t *a, const uint64_t *b,
    int64_t d0, int64_t d1, int64_t d2,
    int64_t as0, int64_t as1, int64_t as2,
    int64_t bs0, int64_t bs1, int64_t bs2,
    int64_t k, int64_t n_words, int64_t length, uint64_t tail,
    uint64_t *out)
{
    (void)length;
    int64_t row = 0;
    for (int64_t i0 = 0; i0 < d0; i0++)
    for (int64_t i1 = 0; i1 < d1; i1++)
    for (int64_t i2 = 0; i2 < d2; i2++, row++) {
        const uint64_t *ra = a + i0 * as0 + i1 * as1 + i2 * as2;
        const uint64_t *rb = b + i0 * bs0 + i1 * bs1 + i2 * bs2;
        uint64_t *rout = out + row * n_words;
        for (int64_t w = 0; w < n_words; w++) {
            uint64_t mask = (w == n_words - 1) ? tail : ALL_ONES;
            #define PROD(i) (~(ra[(i) * n_words + w] ^ rb[(i) * n_words + w]) & mask)
            uint64_t acc;
            int64_t index;
            if (k == 1) {
                acc = PROD(0);
                index = 1;
            } else if (k == 2) {
                acc = PROD(0) & PROD(1);
                index = 2;
            } else {
                uint64_t p0 = PROD(0), p1 = PROD(1), p2 = PROD(2);
                acc = (p0 & (p1 | p2)) | (p1 & p2);
                index = 3;
            }
            while (index < k) {
                if (index + 1 < k) {
                    uint64_t f = PROD(index), s = PROD(index + 1);
                    acc = ((f | s) & acc) | (f & s);
                    index += 2;
                } else {
                    acc &= PROD(index);
                    index += 1;
                }
            }
            #undef PROD
            rout[w] = acc;
        }
    }
}

/* ---- feature-extraction stepper ----------------------------------------- */

/* The Algorithm 1 saturating-counter recurrence over row-major
 * (rows, length) column counts, emitting packed output words directly.
 *
 * The hardware clocks every neuron's counter at once, and so does this
 * kernel: it advances a tile of FE_TILE rows in lockstep, one 64-cycle
 * word at a time.  Per tile and word it
 *   1. gathers the counts into a time-major block with 8x8 byte (4x4
 *      half-word) transposes,
 *   2. steps every lane per cycle in a branch-free loop the compiler
 *      vectorizes, OR-ing each cycle's output bit into its lane's byte,
 *   3. transposes those bytes back into one packed word per row.
 * Lanes are int16 for uint8 counts and int32 for uint16 counts; the
 * wrapper only calls in when low <= 0 <= high and every value the
 * recurrence can reach fits the lane type.  Partial tiles and the tail
 * word take a zero-padded scalar gather: padded lanes are never written
 * out, and padded cycles only occur in the final word, whose end state
 * is dropped and whose tail bits are masked off.  Every working buffer
 * lives on the stack (under 9 KB), so calls stay reentrant. */
#define FE_TILE 64

/* In-place transpose of a k x k matrix of (64 / k)-bit elements held
 * one row per word (k = 8 for bytes, 4 for half-words): element c of
 * x[r] becomes element r of x[c]. */
static inline void transpose_elems(uint64_t *x, int k)
{
    uint64_t t;
#define SWAP_FIELDS(i, j, shift, keep)                                        \
    t = ((x[i] >> (shift)) ^ x[j]) & (keep);                                  \
    x[i] ^= t << (shift);                                                     \
    x[j] ^= t
    if (k == 8) {
        SWAP_FIELDS(0, 4, 32, 0x00000000FFFFFFFFULL);
        SWAP_FIELDS(1, 5, 32, 0x00000000FFFFFFFFULL);
        SWAP_FIELDS(2, 6, 32, 0x00000000FFFFFFFFULL);
        SWAP_FIELDS(3, 7, 32, 0x00000000FFFFFFFFULL);
        SWAP_FIELDS(0, 2, 16, 0x0000FFFF0000FFFFULL);
        SWAP_FIELDS(1, 3, 16, 0x0000FFFF0000FFFFULL);
        SWAP_FIELDS(4, 6, 16, 0x0000FFFF0000FFFFULL);
        SWAP_FIELDS(5, 7, 16, 0x0000FFFF0000FFFFULL);
        SWAP_FIELDS(0, 1, 8, 0x00FF00FF00FF00FFULL);
        SWAP_FIELDS(2, 3, 8, 0x00FF00FF00FF00FFULL);
        SWAP_FIELDS(4, 5, 8, 0x00FF00FF00FF00FFULL);
        SWAP_FIELDS(6, 7, 8, 0x00FF00FF00FF00FFULL);
    } else {
        SWAP_FIELDS(0, 2, 32, 0x00000000FFFFFFFFULL);
        SWAP_FIELDS(1, 3, 32, 0x00000000FFFFFFFFULL);
        SWAP_FIELDS(0, 1, 16, 0x0000FFFF0000FFFFULL);
        SWAP_FIELDS(2, 3, 16, 0x0000FFFF0000FFFFULL);
    }
#undef SWAP_FIELDS
}

/* bits[s][i] holds lane i's output for cycles 8s..8s+7 (bit k = cycle
 * 8s + k), so one byte transpose per eight lanes assembles their words. */
static void fe_pack_words(
    uint8_t bits[8][FE_TILE], int64_t nr, uint64_t mask,
    uint64_t *out, int64_t n_words)
{
    for (int g = 0; 8 * g < nr; g++) {
        uint64_t x[8];
        for (int s = 0; s < 8; s++)
            memcpy(&x[s], &bits[s][8 * g], 8);
        transpose_elems(x, 8);
        for (int c = 0; c < 8 && 8 * g + c < nr; c++)
            out[(8 * g + c) * n_words] = x[c] & mask;
    }
}

#define FE_RECURRENCE(NAME, CNT_T, LANE_T)                                    \
static void NAME##_gather(                                                    \
    const CNT_T *src, int64_t length, int64_t nr, int64_t nt,                 \
    CNT_T blk[64][FE_TILE])                                                   \
{                                                                             \
    enum { K = 8 / sizeof(CNT_T) };                                           \
    if (nr == FE_TILE && nt == 64) {                                          \
        for (int r = 0; r < FE_TILE; r += K)                                  \
            for (int t = 0; t < 64; t += K) {                                 \
                uint64_t x[K];                                                \
                for (int k = 0; k < K; k++)                                   \
                    memcpy(&x[k], src + (r + k) * length + t, 8);             \
                transpose_elems(x, K);                                        \
                for (int k = 0; k < K; k++)                                   \
                    memcpy(&blk[t + k][r], &x[k], 8);                         \
            }                                                                 \
        return;                                                               \
    }                                                                         \
    memset(blk, 0, sizeof(CNT_T) * 64 * FE_TILE);                             \
    for (int64_t i = 0; i < nr; i++)                                          \
        for (int64_t t = 0; t < nt; t++)                                      \
            blk[t][i] = src[i * length + t];                                  \
}                                                                             \
                                                                              \
static void NAME##_step(                                                      \
    CNT_T blk[64][FE_TILE], LANE_T *restrict acc, uint8_t bits[8][FE_TILE],   \
    LANE_T half, LANE_T threshold, LANE_T low, LANE_T high)                   \
{                                                                             \
    for (int s = 0; s < 8; s++)                                               \
        for (int i = 0; i < FE_TILE; i++) {                                   \
            LANE_T a = acc[i];                                                \
            uint8_t byte = 0;                                                 \
            for (int k = 0; k < 8; k++) {                                     \
                a = (LANE_T)(a + blk[8 * s + k][i]);                          \
                LANE_T bit = (LANE_T)(a >= threshold);                        \
                a = (LANE_T)(a - half - bit);                                 \
                a = a < low ? low : a;                                        \
                a = a > high ? high : a;                                      \
                byte |= (uint8_t)(bit << k);                                  \
            }                                                                 \
            acc[i] = a;                                                       \
            bits[s][i] = byte;                                                \
        }                                                                     \
}                                                                             \
                                                                              \
void NAME(                                                                    \
    const CNT_T *counts, int64_t rows, int64_t length,                        \
    int64_t half, int64_t low, int64_t high,                                  \
    int64_t n_words, uint64_t *out)                                           \
{                                                                             \
    CNT_T blk[64][FE_TILE];                                                   \
    uint8_t bits[8][FE_TILE];                                                 \
    LANE_T acc[FE_TILE];                                                      \
    for (int64_t r0 = 0; r0 < rows; r0 += FE_TILE) {                          \
        int64_t nr = rows - r0 < FE_TILE ? rows - r0 : FE_TILE;               \
        memset(acc, 0, sizeof acc);                                           \
        for (int64_t wi = 0; wi < n_words; wi++) {                            \
            int64_t t0 = wi * 64;                                             \
            int64_t nt = length - t0 < 64 ? length - t0 : 64;                 \
            NAME##_gather(counts + r0 * length + t0, length, nr, nt, blk);    \
            /* Each row is its own stream, more than the hardware         */  \
            /* prefetcher tracks: fetch two words ahead by hand.          */  \
            for (int64_t i = 0; i < nr && wi + 2 < n_words; i++)              \
                __builtin_prefetch(counts + (r0 + i) * length + t0 + 128);    \
            NAME##_step(blk, acc, bits, (LANE_T)half, (LANE_T)(half + 1),     \
                        (LANE_T)low, (LANE_T)high);                           \
            fe_pack_words(bits, nr,                                           \
                          nt == 64 ? ALL_ONES : ALL_ONES >> (64 - nt),        \
                          out + r0 * n_words + wi, n_words);                  \
        }                                                                     \
    }                                                                         \
}

FE_RECURRENCE(repro_fe_recurrence_u8, uint8_t, int16_t)
FE_RECURRENCE(repro_fe_recurrence_u16, uint16_t, int32_t)

/* ---- word-direct SNG comparator ----------------------------------------- */

/* Comparator straight to packed words: bit t = [draw_t < threshold].
 * Draw rows are shared across the leading axis (the batch axis of the
 * input SNG); thresholds are per (lead, row). */
void repro_pack_comparator_f64(
    const double *draws, const double *thresholds,
    int64_t lead, int64_t rows, int64_t length, int64_t n_words,
    uint64_t *out)
{
    for (int64_t l = 0; l < lead; l++) {
        for (int64_t r = 0; r < rows; r++) {
            double thr = thresholds[l * rows + r];
            const double *d = draws + r * length;
            uint64_t *w = out + (l * rows + r) * n_words;
            for (int64_t wi = 0; wi < n_words; wi++) {
                uint64_t word = 0;
                int64_t t0 = wi * 64;
                int64_t tmax = length - t0;
                if (tmax > 64) tmax = 64;
                for (int64_t t = 0; t < tmax; t++)
                    word |= (uint64_t)(d[t0 + t] < thr) << t;
                w[wi] = word;
            }
        }
    }
}
