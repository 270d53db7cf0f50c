/* Interface of the native core.  This file is both compiled into the
 * extension and handed verbatim to cffi's cdef, so it holds plain
 * declarations only (no preprocessor directives). */

typedef struct {
    int p, a, h, groups, palmtree, mechanism;
    int injection_vcs, local_vcs, global_vcs;
    int local_input_phits, global_input_phits, output_phits;
    int packet_size, router_latency, local_latency, global_latency;
    int speedup, threshold, time_warp;
    int64_t watchdog;
} core_config_t;

typedef struct core core_t;

/* Fields of one delivery record (int64 each). */
enum {
    D_REF = 0, D_CYCLE = 1, D_DELIVERED = 2, D_INJECTION = 3, D_HOPS = 4,
    D_LOCAL_HOPS = 5, D_GLOBAL_HOPS = 6, D_LOCAL_HOPS_IN_GROUP = 7,
    D_GLOBALLY_MISROUTED = 8, D_LOCALLY_MISROUTED = 9, D_MISROUTE_CYCLE = 10,
    D_CURRENT_VC = 11, D_SOURCE_GROUP = 12, D_PHASE = 13,
    D_INTERMEDIATE_GROUP = 14, D_MUST_GLOBAL = 15, DELIVERY_FIELDS = 16
};

/* core_stat selectors. */
enum {
    STAT_CYCLE = 0, STAT_CYCLES_SKIPPED = 1, STAT_DELIVERED = 2,
    STAT_BUFFERED = 3
};

/* Head-packet routing state of core_probe_select. */
enum {
    PS_DST = 0, PS_PHASE = 1, PS_INTERMEDIATE_GROUP = 2, PS_HOPS = 3,
    PS_GLOBAL_HOPS = 4, PS_LOCAL_HOPS_IN_GROUP = 5, PS_GLOBALLY_MISROUTED = 6,
    PS_MUST_GLOBAL = 7, PS_CONTENTION_PORT = 8, PROBE_FIELDS = 9
};

core_t *core_new(const core_config_t *cfg);
void core_free(core_t *s);
void core_set_rng(core_t *s, void *bitgen);
int core_add_packets(core_t *s, int32_t n, const int64_t *ref, const int64_t *src,
                     const int64_t *dst, const int64_t *cycle);
int core_run(core_t *s, int64_t end);
void core_invalidate_hints(core_t *s);
int64_t core_stat(const core_t *s, int which);
const int64_t *core_deliveries(const core_t *s, int32_t *n);
void core_occupied_counts(const core_t *s, int32_t *out);
void core_contention_counts(const core_t *s, int32_t *out);
int core_oldest_buffered(const core_t *s, int64_t *out);
int core_schedule_arrival(core_t *s, int r, int port, int64_t complete, int vc,
                          int64_t ref, int32_t src, int32_t dst, int32_t size,
                          int64_t creation);
void core_set_link_busy(core_t *s, int r, int port, int64_t until);
void core_probe_select(core_t *s, int r, const int32_t *counts, const int64_t *state,
                       int64_t *out);
uint64_t core_draw_bounded(void *bitgen, uint64_t n);
