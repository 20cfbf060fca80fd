/* Compiled integer-exact simulation kernels.
 *
 * C implementations of the hot inner loops behind
 * ``repro.kernels.dispatch``: the arrival-order idle-gap scan that
 * fills ``repro.power.idleness.GapSpectrum``, and the arrival-order
 * cache-content scan behind every hit/flush count of
 * ``repro.core.fastsim`` and ``repro.core.streamsim``, direct-mapped
 * and set-associative alike. Both run one-shot over a whole trace and
 * carried across stream chunks; two kernels in all. Neither sorts.
 * Built on demand by ``repro.kernels._cext`` (cc -O2 -shared) and
 * loaded through ctypes; counters are int64 buffers, so results are
 * bit-identical to the numpy backend by construction (the differential
 * fuzz suite enforces it).
 *
 * Error contract: functions that validate their input return a
 * negative REPRO_ERR_* code on failure; the dispatcher maps the code
 * onto the exact SimulationError message the numpy backend's code
 * maps to.
 */

#include <stdint.h>

#define REPRO_ERR_NONMONOTONIC (-1)
#define REPRO_ERR_NOT_LATER (-2)
#define REPRO_ERR_RANGE (-3)

#if defined(_WIN32)
#define REPRO_EXPORT __declspec(dllexport)
#else
#define REPRO_EXPORT __attribute__((visibility("default")))
#endif

/* The physical bank of table entry k, the tables held in unsigned
 * `width`-byte integers (1, 2, 4 or 8; the narrowest that holds the
 * bank ids). */
static inline int64_t table_entry(const void *tables, int64_t width, int64_t k)
{
    switch (width) {
    case 1:
        return ((const uint8_t *)tables)[k];
    case 2:
        return ((const uint16_t *)tables)[k];
    case 4:
        return ((const uint32_t *)tables)[k];
    default:
        return (int64_t)((const uint64_t *)tables)[k];
    }
}

/* Arrival-order idle-gap scan of one run of accesses.
 *
 * Epoch e owns positions starts[e]..starts[e+1]; access i of epoch e
 * lands in physical bank tables[e * table_banks + (index[i] >> shift)],
 * so the set -> physical-bank gather happens here, one table row per
 * epoch. Each access closes the idle gap since its bank's carried
 * last[] access: a gap of length g, 0 < g < cutoff, adds one to
 * dense[bank * cutoff + g]; a longer one is written to
 * over_banks/over_lengths (capacity n). last[] and accesses[] advance;
 * trailing gaps stay open for the caller to close.
 *
 * Returns the number of overflow gaps written, or an error code for
 * the first violating access in arrival order: REPRO_ERR_RANGE when its
 * index falls outside the tables or its bank outside last[] (num_banks
 * entries), REPRO_ERR_NOT_LATER when it is no later than its bank's
 * last access before this call, REPRO_ERR_NONMONOTONIC when it is no
 * later than an earlier access of this call.
 */
REPRO_EXPORT int64_t repro_gap_scan(
    const int64_t *cycles, const int64_t *index, int64_t n,
    const int64_t *starts, int64_t n_epochs,
    const void *tables, int64_t width, int64_t table_banks, int64_t shift,
    int64_t *last, int64_t *accesses, int64_t num_banks,
    int64_t *dense, int64_t cutoff,
    int64_t *over_banks, int64_t *over_lengths)
{
    int64_t out = 0;
    (void)n;
    for (int64_t e = 0; e < n_epochs; ++e) {
        int64_t row = e * table_banks;
        for (int64_t i = starts[e]; i < starts[e + 1]; ++i) {
            int64_t logical = index[i] >> shift;
            if ((uint64_t)logical >= (uint64_t)table_banks)
                return REPRO_ERR_RANGE;
            int64_t b = table_entry(tables, width, row + logical);
            if ((uint64_t)b >= (uint64_t)num_banks)
                return REPRO_ERR_RANGE;
            int64_t c = cycles[i];
            int64_t gap = c - last[b] - 1;
            if (gap < 0) {
                /* Error path: did bank b see an earlier access of this call? */
                for (int64_t f = 0; f <= e; ++f) {
                    int64_t stop = f < e ? starts[f + 1] : i;
                    for (int64_t j = starts[f]; j < stop; ++j) {
                        if (table_entry(tables, width, f * table_banks + (index[j] >> shift)) == b)
                            return REPRO_ERR_NONMONOTONIC;
                    }
                }
                return REPRO_ERR_NOT_LATER;
            }
            if (gap > 0) {
                if (gap < cutoff) {
                    dense[b * cutoff + gap] += 1;
                } else {
                    over_banks[out] = b;
                    over_lengths[out] = gap;
                    ++out;
                }
            }
            last[b] = c;
            accesses[b] += 1;
        }
    }
    return out;
}

/* Arrival-order cache-content scan of one epoch-bracketed run.
 *
 * stacks is the carried (num_sets, ways) matrix of per-set recency
 * stacks, most recent first, with -1 marking an invalid way (tags are
 * non-negative, so -1 never aliases one); a direct-mapped cache is
 * ways == 1. Epoch e owns positions starts[e]..starts[e+1]; before
 * each epoch after the first the cache is flushed: its valid lines are
 * added to *flushed and every way is invalidated. Access i looks up
 * tags[i] in set index[i]: a hit rotates the stack above the matched
 * way, a miss rotates the whole stack, evicting the LRU way.
 *
 * Returns the hits, or REPRO_ERR_RANGE (stacks and *flushed
 * untouched) when a set index falls outside the stacks.
 */
REPRO_EXPORT int64_t repro_cache_scan(
    const int64_t *index, const int64_t *tags, int64_t n,
    const int64_t *starts, int64_t n_epochs,
    int64_t *stacks, int64_t num_sets, int64_t ways, int64_t *flushed)
{
    for (int64_t i = 0; i < n; ++i) {
        if ((uint64_t)index[i] >= (uint64_t)num_sets)
            return REPRO_ERR_RANGE;
    }
    int64_t hits = 0;
    int64_t lines = num_sets * ways;
    for (int64_t e = 0; e < n_epochs; ++e) {
        if (e > 0) {
            int64_t valid = 0;
            for (int64_t k = 0; k < lines; ++k) {
                valid += stacks[k] != -1;
                stacks[k] = -1;
            }
            *flushed += valid;
        }
        for (int64_t i = starts[e]; i < starts[e + 1]; ++i) {
            int64_t *st = stacks + index[i] * ways;
            int64_t t = tags[i];
            int64_t depth = ways - 1;
            for (int64_t w = 0; w < ways; ++w) {
                if (st[w] == t) {
                    ++hits;
                    depth = w;
                    break;
                }
            }
            for (int64_t w = depth; w > 0; --w)
                st[w] = st[w - 1];
            st[0] = t;
        }
    }
    return hits;
}
