/* Native inner loops of the CuLDA_CGS sampler and the update-phi kernel.
 *
 * Built on first use by repro/perf/native.py with
 *     gcc -O2 -fPIC -ffp-contract=off -shared
 * (no -ffast-math, no -march=native), so every float operation below is
 * one IEEE operation in the written order and the results are
 * bit-identical to the NumPy reference in repro/core/sampler.py on any
 * x86-64/aarch64 host.
 *
 * p1 walk (Section 6.1, Algorithm 2): one token's sampler walks its
 * document's sparse theta row once for the p1 mass S and once more to
 * draw from it.  The NumPy reference materialises one entry per (token,
 * theta non-zero) pair and takes a single global cumulative sum over
 * them; here that cumulative sum is a running scalar kept across all
 * tokens in chunk order, which reproduces every partial sum exactly and
 * needs no sum-Kd-sized storage.
 *
 * Entry weight (the p1(k) of Eq. 6, with the token's own count excluded):
 *     k != z_old:  p_sub[k, wcol] * theta_count
 *     k == z_old:  (theta_count - 1) * p_z_excl
 * NumPy evaluates `REAL * int32` in float64 and rounds on store, and
 * `int32 - 1.0` in float64; the casts below copy that.
 *
 * All offsets are int64, so no product here can overflow at any corpus
 * size (the NumPy reference switches its gather indices between int32
 * and int64, see index_dtype_for).
 */

#include <stdint.h>

/* Add row entry j's p1 weight to acc; the first z_old match of the row
 * takes the excluded weight. */
#define P1_ADD_ENTRY(REAL, acc, j)                                            \
    do {                                                                      \
        const int64_t k_ = indices[j];                                        \
        if (k_ == z && !excluded) {                                           \
            acc += (REAL)((double)data[j] - 1.0) * pzx;                       \
            excluded = 1;                                                     \
        } else {                                                              \
            acc += (REAL)((double)col[k_ * wp] * (double)data[j]);            \
        }                                                                     \
    } while (0)

/* p1 mass.  For token i: base[i] = running sum before its row,
 * s[i] = max(sum over its row, 0), lens[i] = row length.  Returns -1, or
 * the first token whose current topic is missing from its row. */
#define DEFINE_P1_MASS(NAME, REAL, IDX)                                       \
    int64_t NAME(int64_t n, const int64_t *docs, const int64_t *indptr,      \
                 const IDX *indices, const int32_t *data, const REAL *p_sub, \
                 int64_t wp, const int64_t *wcol, const int64_t *z_old,      \
                 const REAL *p_z_excl, REAL *s, REAL *base, int64_t *lens)   \
    {                                                                         \
        REAL acc = 0;                                                         \
        for (int64_t i = 0; i < n; ++i) {                                     \
            const int64_t lo = indptr[docs[i]], hi = indptr[docs[i] + 1];     \
            const REAL *col = p_sub + wcol[i];                                \
            const int64_t z = z_old[i];                                       \
            const REAL pzx = p_z_excl[i];                                     \
            int excluded = 0;                                                 \
            base[i] = acc;                                                    \
            for (int64_t j = lo; j < hi; ++j)                                 \
                P1_ADD_ENTRY(REAL, acc, j);                                   \
            if (!excluded)                                                    \
                return i;                                                     \
            const REAL d = acc - base[i];                                     \
            s[i] = d < 0 ? (REAL)0 : d;                                       \
            lens[i] = hi - lo;                                                \
        }                                                                     \
        return -1;                                                            \
    }

/* p1 draw.  For every token with take[i] set, walk its row again from
 * base[i] and write the topic of the first entry whose running sum
 * exceeds t1[i] into out[i], or the row's last topic when none does
 * (searchsorted(side="right") over the global prefix sums, then clip to
 * the row). */
#define DEFINE_P1_DRAW(NAME, REAL, IDX)                                       \
    void NAME(int64_t n, const int64_t *docs, const int64_t *indptr,         \
              const IDX *indices, const int32_t *data, const REAL *p_sub,    \
              int64_t wp, const int64_t *wcol, const int64_t *z_old,         \
              const REAL *p_z_excl, const REAL *base, const REAL *t1,        \
              const uint8_t *take, int64_t *out)                             \
    {                                                                         \
        for (int64_t i = 0; i < n; ++i) {                                     \
            if (!take[i])                                                     \
                continue;                                                     \
            const int64_t lo = indptr[docs[i]], hi = indptr[docs[i] + 1];     \
            const REAL *col = p_sub + wcol[i];                                \
            const int64_t z = z_old[i];                                       \
            const REAL pzx = p_z_excl[i], target = t1[i];                     \
            int excluded = 0;                                                 \
            REAL acc = base[i];                                               \
            int64_t pick = hi - 1;                                            \
            for (int64_t j = lo; j < hi; ++j) {                               \
                P1_ADD_ENTRY(REAL, acc, j);                                   \
                if (acc > target) {                                           \
                    pick = j;                                                 \
                    break;                                                    \
                }                                                             \
            }                                                                 \
            out[i] = indices[pick];                                           \
        }                                                                     \
    }

DEFINE_P1_MASS(p1_mass_f64_u16, double, uint16_t)
DEFINE_P1_MASS(p1_mass_f64_i32, double, int32_t)
DEFINE_P1_MASS(p1_mass_f32_u16, float, uint16_t)
DEFINE_P1_MASS(p1_mass_f32_i32, float, int32_t)
DEFINE_P1_DRAW(p1_draw_f64_u16, double, uint16_t)
DEFINE_P1_DRAW(p1_draw_f64_i32, double, int32_t)
DEFINE_P1_DRAW(p1_draw_f32_u16, float, uint16_t)
DEFINE_P1_DRAW(p1_draw_f32_i32, float, int32_t)

/* Update-phi (Section 6.2): for every token whose topic changed,
 * decrement (z_old, word) and increment (z_new, word) in phi, the topic
 * totals and, when given, the pre-reduce accumulators.  Integer-exact in
 * any order.  Returns the changed-token count, or -1 - i when token i
 * carries an out-of-range topic or word (nothing of token i is applied). */
#define DEFINE_PHI_UPDATE(NAME, PHI)                                          \
    int64_t NAME(int64_t n, int64_t num_topics, int64_t num_words,           \
                 const int64_t *words, const int64_t *z_old,                 \
                 const int64_t *z_new, PHI *phi, int64_t *totals,            \
                 int64_t *acc_phi, int64_t *acc_totals)                      \
    {                                                                         \
        int64_t changed = 0;                                                  \
        for (int64_t i = 0; i < n; ++i) {                                     \
            const int64_t zo = z_old[i], zn = z_new[i], w = words[i];         \
            if (zo == zn)                                                     \
                continue;                                                     \
            if ((uint64_t)zo >= (uint64_t)num_topics                          \
                || (uint64_t)zn >= (uint64_t)num_topics                       \
                || (uint64_t)w >= (uint64_t)num_words)                        \
                return -1 - i;                                                \
            phi[zo * num_words + w] -= 1;                                     \
            phi[zn * num_words + w] += 1;                                     \
            totals[zo] -= 1;                                                  \
            totals[zn] += 1;                                                  \
            if (acc_phi) {                                                    \
                acc_phi[zo * num_words + w] -= 1;                             \
                acc_phi[zn * num_words + w] += 1;                             \
            }                                                                 \
            if (acc_totals) {                                                 \
                acc_totals[zo] -= 1;                                          \
                acc_totals[zn] += 1;                                          \
            }                                                                 \
            ++changed;                                                        \
        }                                                                     \
        return changed;                                                       \
    }

DEFINE_PHI_UPDATE(phi_update_i32, int32_t)
DEFINE_PHI_UPDATE(phi_update_i64, int64_t)
