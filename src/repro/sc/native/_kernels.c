/* Native kernels for the word-packed stochastic data plane.
 *
 * Compiled at first use into a small shared library (see _build.py) and
 * called through cffi's ABI mode, which releases the GIL around every
 * call -- that is what makes thread-sharded execution (the workers
 * option of repro.api.Session) effective.
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
#if defined(__AVX512BW__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#define ALL_ONES (~(uint64_t)0)

/* ---- fused XNOR -> CSA column counts ------------------------------------ */

/* The counts kernel walks each row a block of up to COUNT_BLOCK 64-cycle
 * words at a time: it folds every product plane of the block into binary
 * counter level words (stage 1), then expands those into one count per
 * cycle (stage 2).  Eight-word blocks measured best over the conv, FC
 * and 8192-cycle shapes (four-word blocks slowed the conv and FC rows,
 * sixteen-word ones the FC and long rows).  The words a row has left
 * after its full blocks take a four-word block and one-word blocks, so
 * no block reads or writes past its row. */
#define COUNT_BLOCK 8
#define MAX_LEVELS 16 /* bits of a uint16 count; the wrapper caps totals */

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

/* Add the carry words c into levels [from, levels), branch-free.  A
 * column count never exceeds total < 2^levels, so no carry leaves the
 * top live level. */
#define RIPPLE(lv, c, from, levels, nb)                                       \
    for (int _l = (from); _l < (levels); _l++)                                \
        for (int _j = 0; _j < (nb); _j++) {                                   \
            uint64_t _t = (lv)[_l][_j] & (c)[_j];                             \
            (lv)[_l][_j] ^= (c)[_j];                                          \
            (c)[_j] = _t;                                                     \
        }

/* Stage 1: lv[l][j] = bit l of the column counts of word j of the block
 * (words at pa, pb, pe; planes `stride` words apart).  Products are
 * folded eight at a time by a Harley-Seal full-adder tree into levels
 * 0-2, whose weight-8 carry ripples through the live levels above;
 * leftover products and the extra planes ripple in from level 0.  Each
 * step is a loop over the block's words, which the compiler vectorizes
 * because every caller passes a constant nb.  No tail mask: bits past
 * the stream's length only reach counts that are never written. */
static inline __attribute__((always_inline)) void count_block(
    const uint64_t *pa, const uint64_t *pb, const uint64_t *pe,
    int64_t m, int64_t n_extra, int64_t stride, int levels, int nb,
    uint64_t lv[MAX_LEVELS][COUNT_BLOCK])
{
    uint64_t c[COUNT_BLOCK];
    for (int l = 0; l < levels; l++)
        for (int j = 0; j < nb; j++)
            lv[l][j] = 0;
    int64_t i = 0;
    for (; i + 8 <= m; i += 8) {
        const uint64_t *a = pa + i * stride, *b = pb + i * stride;
        for (int j = 0; j < nb; j++) {
            uint64_t p[8], c0, c1, c2, c3, d0, d1;
            for (int k = 0; k < 8; k++)
                p[k] = ~(a[k * stride + j] ^ b[k * stride + j]);
            CSA(c0, lv[0][j], p[0], p[1]);
            CSA(c1, lv[0][j], p[2], p[3]);
            CSA(c2, lv[0][j], p[4], p[5]);
            CSA(c3, lv[0][j], p[6], p[7]);
            CSA(d0, lv[1][j], c0, c1);
            CSA(d1, lv[1][j], c2, c3);
            CSA(c[j], lv[2][j], d0, d1);
        }
        RIPPLE(lv, c, 3, levels, nb)
    }
    for (; i < m; i++) {
        for (int j = 0; j < nb; j++)
            c[j] = ~(pa[i * stride + j] ^ pb[i * stride + j]);
        RIPPLE(lv, c, 0, levels, nb)
    }
    for (int64_t e = 0; e < n_extra; e++) {
        for (int j = 0; j < nb; j++)
            c[j] = pe[e * stride + j];
        RIPPLE(lv, c, 0, levels, nb)
    }
}

/* Gather byte j of the n level words lv[0], lv[COUNT_BLOCK], ... into
 * one 8x8 bit matrix; after transpose8, byte k holds those levels of
 * the count at t = 8j + k. */
static inline uint64_t decode_slice(const uint64_t *lv, int n, int j)
{
    uint64_t x = 0;
    for (int l = 0; l < n; l++)
        x |= ((lv[l * COUNT_BLOCK] >> (8 * j)) & 0xFFULL) << (8 * l);
    return transpose8(x);
}

/* Stage 2: the first nt (<= 64) counts of one word from its `levels`
 * level words lv[0], lv[COUNT_BLOCK], ..., written to out as uint8
 * (wide = 0, levels <= 8) or uint16 (wide = 1).  A full word takes one
 * masked add per level on AVX-512BW, and a broadcast plus a bit-select
 * compare per level on AVX2.  The portable build and the partial tail
 * word (whose stores must stop at the row's end) take 8x8 bit
 * transposes. */
static inline __attribute__((always_inline)) void expand_counts(
    const uint64_t *lv, int levels, int64_t nt, void *out, int wide)
{
#if defined(__AVX512BW__)
    if (nt == 64 && !wide) {
        __m512i acc = _mm512_setzero_si512();
        for (int l = 0; l < levels; l++)
            acc = _mm512_mask_add_epi8(acc, (__mmask64)lv[l * COUNT_BLOCK],
                                       acc, _mm512_set1_epi8((char)(1 << l)));
        _mm512_storeu_si512(out, acc);
        return;
    }
    if (nt == 64) {
        __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
        for (int l = 0; l < levels; l++) {
            __m512i bit = _mm512_set1_epi16((short)(1 << l));
            uint64_t w = lv[l * COUNT_BLOCK];
            lo = _mm512_mask_add_epi16(lo, (__mmask32)w, lo, bit);
            hi = _mm512_mask_add_epi16(hi, (__mmask32)(w >> 32), hi, bit);
        }
        _mm512_storeu_si512(out, lo);
        _mm512_storeu_si512((uint16_t *)out + 32, hi);
        return;
    }
#elif defined(__AVX2__)
    if (nt == 64 && !wide) {
        /* Byte k of a 32-cycle half needs bit k of the half's word:
         * spread byte k / 8 of it to byte k, keep bit k % 8, compare. */
        const __m256i spread = _mm256_setr_epi8(
            0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
            2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
        const __m256i select = _mm256_set1_epi64x(0x8040201008040201LL);
        for (int h = 0; h < 2; h++) {
            __m256i acc = _mm256_setzero_si256();
            for (int l = levels - 1; l >= 0; l--) {
                __m256i x = _mm256_set1_epi32(
                    (int)(uint32_t)(lv[l * COUNT_BLOCK] >> (32 * h)));
                x = _mm256_and_si256(_mm256_shuffle_epi8(x, spread), select);
                /* acc = 2 acc + bit: the compare yields -1 where set. */
                acc = _mm256_sub_epi8(_mm256_add_epi8(acc, acc),
                                      _mm256_cmpeq_epi8(x, select));
            }
            _mm256_storeu_si256((__m256i *)((uint8_t *)out + 32 * h), acc);
        }
        return;
    }
    if (nt == 64) {
        /* Lane k of a 16-cycle quarter needs bit k of the quarter's word. */
        const __m256i select = _mm256_setr_epi16(
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
            16384, (short)0x8000);
        for (int q = 0; q < 4; q++) {
            __m256i acc = _mm256_setzero_si256();
            for (int l = levels - 1; l >= 0; l--) {
                __m256i x = _mm256_set1_epi16(
                    (short)(uint16_t)(lv[l * COUNT_BLOCK] >> (16 * q)));
                acc = _mm256_sub_epi16(
                    _mm256_add_epi16(acc, acc),
                    _mm256_cmpeq_epi16(_mm256_and_si256(x, select), select));
            }
            _mm256_storeu_si256((__m256i *)((uint16_t *)out + 16 * q), acc);
        }
        return;
    }
#endif
    for (int j = 0; 8 * j < nt; j++) {
        uint64_t lo = decode_slice(lv, levels < 8 ? levels : 8, j);
        uint64_t hi = wide ? decode_slice(lv + 8 * COUNT_BLOCK, levels - 8, j)
                           : 0;
        int64_t nc = nt - 8 * j < 8 ? nt - 8 * j : 8;
        if (!wide && nc == 8) {
            memcpy((uint8_t *)out + 8 * j, &lo, 8);
            continue;
        }
        for (int k = 0; k < nc; k++) {
            unsigned v = (unsigned)(((lo >> (8 * k)) & 0xFF) |
                                    (((hi >> (8 * k)) & 0xFF) << 8));
            if (wide)
                ((uint16_t *)out)[8 * j + k] = (uint16_t)v;
            else
                ((uint8_t *)out)[8 * j + k] = (uint8_t)v;
        }
    }
}

/* Count and expand words [w, w + nb) of one row. */
#define COUNT_WORDS(nb, wide)                                                 \
    do {                                                                      \
        uint64_t lv[MAX_LEVELS][COUNT_BLOCK];                                 \
        count_block(ra + w, rb + w, re ? re + w : 0, m, n_extra, n_words,     \
                    levels, (nb), lv);                                        \
        for (int j = 0; j < (nb); j++, w++) {                                 \
            int64_t nt = length - 64 * w < 64 ? length - 64 * w : 64;         \
            expand_counts(&lv[0][j], levels, nt, cnt + 64 * w, (wide));       \
        }                                                                     \
    } while (0)

#define FUSED_COUNTS(NAME, OUT_T, WIDE)                                       \
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
    (void)tail; /* see count_block */                                         \
    int levels = 0;                                                           \
    while ((m + n_extra) >> levels)                                           \
        levels++;                                                             \
    int64_t row = 0;                                                          \
    for (int64_t i0 = 0; i0 < d0; i0++)                                       \
    for (int64_t i1 = 0; i1 < d1; i1++)                                       \
    for (int64_t i2 = 0; i2 < d2; i2++, row++) {                              \
        const uint64_t *ra = a + i0 * as0 + i1 * as1 + i2 * as2;              \
        const uint64_t *rb = b + i0 * bs0 + i1 * bs1 + i2 * bs2;              \
        const uint64_t *re =                                                  \
            extra ? extra + i0 * es0 + i1 * es1 + i2 * es2 : 0;               \
        OUT_T *cnt = out + row * length;                                      \
        int64_t w = 0;                                                        \
        while (n_words - w >= COUNT_BLOCK)                                    \
            COUNT_WORDS(COUNT_BLOCK, WIDE);                                   \
        if (n_words - w >= 4)                                                 \
            COUNT_WORDS(4, WIDE);                                             \
        while (w < n_words)                                                   \
            COUNT_WORDS(1, WIDE);                                             \
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
