/*
 * Native per-hop core of the cycle engine: healthy Dragonfly, MIN and Base.
 *
 * A line-by-line transcription of the object model (repro.network.router,
 * repro.network.allocator, repro.simulation.engine, repro.routing.minimal,
 * repro.routing.adaptive and repro.routing.contention) restricted to the
 * cases the Python side declares eligible: the canonical Dragonfly, no
 * faults, no probes, MIN or Base.  Results are bit-identical to the object
 * engine because every order that can reach an RNG draw or a float sum is
 * kept:
 *
 *   - routers are stepped in router-id order, new heads are reported before
 *     the allocation rounds, the rounds visit occupied VCs port-major;
 *   - Base calls select_output on every round for every ungranted head
 *     (its trigger draws from the routing stream), MIN reuses round 0;
 *   - the separable allocator keeps the object model's arbiter pointers;
 *   - deliveries are reported per cycle in router-id, then port order.
 *
 * Routing draws go through numpy's own bitgen_t of the routing Generator
 * and a port of numpy's buffered Lemire bounded-integer sampler, so the
 * Generator's state after a run equals the object engine's.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "core.h"

#define NO_EVENT ((int64_t)1 << 62)
#define NONE32 (-1)

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} np_bitgen_t;

/* Port kinds (the order of repro.topology.base.PortKind is irrelevant). */
enum { K_INJ = 0, K_LOCAL = 1, K_GLOBAL = 2 };
enum { MECH_MIN = 0, MECH_BASE = 1 };
enum { ERR_NONE = 0, ERR_OVERFLOW = 1, ERR_CREDIT = 2, ERR_COUNTER = 3, ERR_MEMORY = 4 };

typedef struct {
    int64_t ref;                /* Python-side handle of the Packet object */
    int64_t creation, injection, misroute_cycle;
    int32_t src, dst, size;
    int32_t ig;                 /* intermediate group, -1 = none */
    int32_t cport;              /* contention port, -1 = none */
    int32_t source_group;
    int32_t next;               /* source-queue / free-list link */
    int32_t hops, lhops, ghops, lhig;
    int8_t phase, gm, lm, must_global, cur_vc;
} pkt_t;

typedef struct { int32_t base, cap, head, count; } ring_t;
typedef struct { int64_t t; int32_t vc; int32_t pkt; } arrival_t;
typedef struct { int64_t t; int32_t pkt; } stage_t;
typedef struct { int64_t t; int32_t vc; int32_t phits; } credit_t;

typedef struct {
    int16_t out, vc;
    int8_t nmg, nml, must;
    int32_t ig;
} decision_t;

typedef struct {
    int32_t port, vc, key, out;
    decision_t d;
} request_t;


struct core {
    core_config_t c;
    int P, R, N, MV, G;
    int first_local, first_global;
    int nvcs[3], in_cap[3], lat[3];
    int notify;                 /* Base: head / leave / arrival hooks */
    /* per (router, port) */
    int8_t *kind;               /* [P] */
    int32_t *nbr_router, *nbr_port;   /* [R*P] */
    int32_t *target_group;      /* [R*P] group behind each global port */
    ring_t *vcbuf;              /* [R*P*MV] */
    int32_t *vc_free;           /* [R*P*MV] */
    int8_t *head_seen;          /* [R*P*MV] */
    ring_t *arrivals;           /* [R*P] */
    ring_t *oqueue;             /* [R*P] */
    ring_t *pipe;               /* [R*P] */
    ring_t *pcredits;           /* [R*P] */
    int32_t *ob_free;           /* [R*P] */
    int64_t *credits;           /* [R*P*MV] */
    int64_t *max_credits;       /* [R*P*MV] */
    int64_t *link_busy;         /* [R*P] */
    int32_t *counts;            /* [R*P] contention counters */
    int32_t *in_ptr, *out_ptr;  /* [R*P] arbiter pointers */
    /* per router */
    int32_t *occ;               /* [R*P*MV] sorted occupied keys */
    int32_t *occ_n;
    int32_t *nh;                /* [R*P*MV] new heads */
    int32_t *nh_n;
    int64_t *next_begin, *next_transmit;
    /* pools */
    int32_t *ipool; arrival_t *apool; stage_t *spool; credit_t *cpool;
    /* packets */
    pkt_t *pk; int32_t pk_cap, pk_free;
    /* nodes */
    int32_t *q_head, *q_tail, *q_len, *vc_ptr;
    int64_t *next_inj;
    int8_t *node_active;
    int32_t *backlog; int32_t backlog_n;
    /* pending generated packets (sorted by creation cycle) */
    int32_t *gen; int64_t *gen_cycle; int32_t gen_n, gen_pos, gen_cap;
    /* deliveries of the current run call */
    int64_t *dl; int32_t dl_n, dl_cap;
    /* allocation scratch */
    int32_t *snap; int8_t *granted; decision_t *memo; request_t *req;
    int32_t *best_req, *best_dist, *prop_req, *prop_dist;
    int32_t *touched_in, *touched_out, *grants;
    /* engine state */
    np_bitgen_t *bitgen;
    int64_t cycle, cycles_skipped, delivered, last_progress, buffered;
    int64_t router_hint, node_hint;
    int hint_valid;
    int error;
};

/* ------------------------------------------------------------------ rings */
static int32_t pool_alloc(int32_t *used, int32_t cap) { int32_t b = *used; *used += cap; return b; }

#define RING_FULL(r) ((r)->count >= (r)->cap)
#define RING_AT(pool, r, i) ((pool)[(r)->base + (((r)->head + (i)) % (r)->cap)])

static int ring_slot_push(ring_t *r) {
    int slot = r->base + ((r->head + r->count) % r->cap);
    r->count++;
    return slot;
}

static int ring_slot_pop(ring_t *r) {
    int slot = r->base + r->head;
    r->head = (r->head + 1) % r->cap;
    r->count--;
    return slot;
}

/* ------------------------------------------- numpy's bounded integer draw */
/*
 * Generator.integers(0, n) for int64 output (numpy/random/src/distributions/
 * distributions.c, random_bounded_uint64_fill with use_masked = false).
 * n == 1 returns without drawing, exactly like numpy.
 */
uint64_t core_draw_bounded(void *bitgen, uint64_t n) {
    np_bitgen_t *bg = (np_bitgen_t *)bitgen;
    uint64_t rng = n - 1;
    if (rng == 0) return 0;
    if (rng <= 0xFFFFFFFFULL) {
        if (rng == 0xFFFFFFFFULL) return bg->next_uint32(bg->state);
        uint32_t rng32 = (uint32_t)rng, rng_excl = rng32 + 1;
        uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
        uint32_t leftover = (uint32_t)(m & 0xFFFFFFFFULL);
        if (leftover < rng_excl) {
            uint32_t threshold = (UINT32_MAX - rng32) % rng_excl;
            while (leftover < threshold) {
                m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
                leftover = (uint32_t)(m & 0xFFFFFFFFULL);
            }
        }
        return m >> 32;
    }
    if (rng == UINT64_MAX) return bg->next_uint64(bg->state);
    {
        uint64_t rng_excl = rng + 1;
        __uint128_t m = (__uint128_t)bg->next_uint64(bg->state) * rng_excl;
        uint64_t leftover = (uint64_t)m;
        if (leftover < rng_excl) {
            uint64_t threshold = (UINT64_MAX - rng) % rng_excl;
            while (leftover < threshold) {
                m = (__uint128_t)bg->next_uint64(bg->state) * rng_excl;
                leftover = (uint64_t)m;
            }
        }
        return (uint64_t)(m >> 64);
    }
}

/* ------------------------------------------------------- dragonfly tables */
static int global_offset_target(const core_t *s, int g, int o) {
    int G = s->G;
    if (s->c.palmtree) return (((g - o - 1) % G) + G) % G;
    return (g + o + 1) % G;
}

static int global_offset_from(const core_t *s, int g, int remote) {
    int G = s->G;
    if (s->c.palmtree) return (((g - remote - 1) % G) + G) % G;
    return (((remote - g - 1) % G) + G) % G;
}

static int local_port_to(const core_t *s, int pos, int peer) {
    return s->first_local + (peer < pos ? peer : peer - 1);
}

static int local_port_peer(const core_t *s, int pos, int port) {
    int idx = port - s->first_local;
    return idx < pos ? idx : idx + 1;
}

static int port_target_group(const core_t *s, int r, int port) {
    int a = s->c.a;
    int o = (r % a) * s->c.h + (port - s->first_global);
    return global_offset_target(s, r / a, o);
}

/* Owner position and global port of group g's link towards group dg. */
static void group_route(const core_t *s, int g, int dg, int *pos, int *port) {
    int o = global_offset_from(s, g, dg);
    *pos = o / s->c.h;
    *port = s->first_global + o % s->c.h;
}

/* DragonflyTopology.minimal_output_port */
static int minimal_port(const core_t *s, int r, int dst) {
    int p = s->c.p, a = s->c.a;
    int dr = dst / p;
    if (r == dr) return dst % p;
    int g = r / a, dg = dr / a, pos = r % a;
    if (g == dg) return local_port_to(s, pos, dr % a);
    int gw_pos, gport;
    group_route(s, g, dg, &gw_pos, &gport);
    if (gw_pos == pos) return gport;
    return local_port_to(s, pos, gw_pos);
}

static void neighbor(const core_t *s, int r, int port, int *nr, int *np) {
    int a = s->c.a, g = r / a, pos = r % a;
    if (s->kind[port] == K_LOCAL) {
        int peer = local_port_peer(s, pos, port);
        *nr = g * a + peer;
        *np = local_port_to(s, peer, pos);
        return;
    }
    int dg = port_target_group(s, r, port);
    int gw_pos, gport;
    group_route(s, dg, g, &gw_pos, &gport);
    *nr = dg * a + gw_pos;
    *np = gport;
}

/* ------------------------------------------------------------ construction */
static void *xcalloc(core_t *s, size_t n, size_t size) {
    void *p = calloc(n ? n : 1, size);
    if (!p) s->error = ERR_MEMORY;
    return p;
}

void core_free(core_t *s) {
    if (!s) return;
    void *ptrs[] = {
        s->kind, s->nbr_router, s->nbr_port, s->target_group, s->vcbuf, s->vc_free, s->head_seen,
        s->arrivals, s->oqueue, s->pipe, s->pcredits, s->ob_free, s->credits,
        s->max_credits, s->link_busy, s->counts, s->in_ptr, s->out_ptr, s->occ,
        s->occ_n, s->nh, s->nh_n, s->next_begin, s->next_transmit, s->ipool,
        s->apool, s->spool, s->cpool, s->pk, s->q_head, s->q_tail, s->q_len,
        s->vc_ptr, s->next_inj, s->node_active, s->backlog, s->gen, s->gen_cycle,
        s->dl, s->snap, s->granted, s->memo, s->req, s->best_req, s->best_dist,
        s->prop_req, s->prop_dist, s->touched_in, s->touched_out, s->grants,
    };
    for (size_t i = 0; i < sizeof(ptrs) / sizeof(ptrs[0]); i++) free(ptrs[i]);
    free(s);
}

static int div_floor_pos(int num, int den) { return den > 0 ? num / den : 0; }

core_t *core_new(const core_config_t *cfg) {
    core_t *s = (core_t *)calloc(1, sizeof(core_t));
    if (!s) return NULL;
    s->c = *cfg;
    int p = cfg->p, a = cfg->a, h = cfg->h;
    s->G = cfg->groups;
    s->R = s->G * a;
    s->N = s->R * p;
    s->P = p + (a - 1) + h;
    s->first_local = p;
    s->first_global = p + a - 1;
    s->nvcs[K_INJ] = cfg->injection_vcs;
    s->nvcs[K_LOCAL] = cfg->local_vcs;
    s->nvcs[K_GLOBAL] = cfg->global_vcs;
    s->in_cap[K_INJ] = cfg->local_input_phits;
    s->in_cap[K_LOCAL] = cfg->local_input_phits;
    s->in_cap[K_GLOBAL] = cfg->global_input_phits;
    s->lat[K_INJ] = 1;
    s->lat[K_LOCAL] = cfg->local_latency;
    s->lat[K_GLOBAL] = cfg->global_latency;
    s->notify = cfg->mechanism == MECH_BASE;
    int P = s->P, R = s->R, N = s->N;
    int MV = 0;
    s->kind = (int8_t *)xcalloc(s, P, 1);
    if (!s->kind) { core_free(s); return NULL; }
    for (int port = 0; port < P; port++) {
        int k = port < s->first_local ? K_INJ : (port < s->first_global ? K_LOCAL : K_GLOBAL);
        s->kind[port] = (int8_t)k;
        if (s->nvcs[k] > MV) MV = s->nvcs[k];
    }
    s->MV = MV;
    int S = cfg->packet_size > 0 ? cfg->packet_size : 1;
    size_t RP = (size_t)R * P, RPV = RP * MV;
    s->nbr_router = (int32_t *)xcalloc(s, RP, sizeof(int32_t));
    s->nbr_port = (int32_t *)xcalloc(s, RP, sizeof(int32_t));
    s->target_group = (int32_t *)xcalloc(s, RP, sizeof(int32_t));
    s->vcbuf = (ring_t *)xcalloc(s, RPV, sizeof(ring_t));
    s->vc_free = (int32_t *)xcalloc(s, RPV, sizeof(int32_t));
    s->head_seen = (int8_t *)xcalloc(s, RPV, 1);
    s->arrivals = (ring_t *)xcalloc(s, RP, sizeof(ring_t));
    s->oqueue = (ring_t *)xcalloc(s, RP, sizeof(ring_t));
    s->pipe = (ring_t *)xcalloc(s, RP, sizeof(ring_t));
    s->pcredits = (ring_t *)xcalloc(s, RP, sizeof(ring_t));
    s->ob_free = (int32_t *)xcalloc(s, RP, sizeof(int32_t));
    s->credits = (int64_t *)xcalloc(s, RPV, sizeof(int64_t));
    s->max_credits = (int64_t *)xcalloc(s, RPV, sizeof(int64_t));
    s->link_busy = (int64_t *)xcalloc(s, RP, sizeof(int64_t));
    s->counts = (int32_t *)xcalloc(s, RP, sizeof(int32_t));
    s->in_ptr = (int32_t *)xcalloc(s, RP, sizeof(int32_t));
    s->out_ptr = (int32_t *)xcalloc(s, RP, sizeof(int32_t));
    s->occ = (int32_t *)xcalloc(s, RPV, sizeof(int32_t));
    s->occ_n = (int32_t *)xcalloc(s, R, sizeof(int32_t));
    s->nh = (int32_t *)xcalloc(s, RPV, sizeof(int32_t));
    s->nh_n = (int32_t *)xcalloc(s, R, sizeof(int32_t));
    s->next_begin = (int64_t *)xcalloc(s, R, sizeof(int64_t));
    s->next_transmit = (int64_t *)xcalloc(s, R, sizeof(int64_t));
    s->q_head = (int32_t *)xcalloc(s, N, sizeof(int32_t));
    s->q_tail = (int32_t *)xcalloc(s, N, sizeof(int32_t));
    s->q_len = (int32_t *)xcalloc(s, N, sizeof(int32_t));
    s->vc_ptr = (int32_t *)xcalloc(s, N, sizeof(int32_t));
    s->next_inj = (int64_t *)xcalloc(s, N, sizeof(int64_t));
    s->node_active = (int8_t *)xcalloc(s, N, 1);
    s->backlog = (int32_t *)xcalloc(s, N, sizeof(int32_t));
    s->snap = (int32_t *)xcalloc(s, (size_t)P * MV, sizeof(int32_t));
    s->granted = (int8_t *)xcalloc(s, (size_t)P * MV, 1);
    s->memo = (decision_t *)xcalloc(s, (size_t)P * MV, sizeof(decision_t));
    s->req = (request_t *)xcalloc(s, (size_t)P * MV, sizeof(request_t));
    s->best_req = (int32_t *)xcalloc(s, P, sizeof(int32_t));
    s->best_dist = (int32_t *)xcalloc(s, P, sizeof(int32_t));
    s->prop_req = (int32_t *)xcalloc(s, P, sizeof(int32_t));
    s->prop_dist = (int32_t *)xcalloc(s, P, sizeof(int32_t));
    s->touched_in = (int32_t *)xcalloc(s, P, sizeof(int32_t));
    s->touched_out = (int32_t *)xcalloc(s, P, sizeof(int32_t));
    s->grants = (int32_t *)xcalloc(s, P, sizeof(int32_t));
    if (s->error) { core_free(s); return NULL; }
    for (int port = 0; port < P; port++) { s->best_req[port] = -1; s->prop_req[port] = -1; }

    /* Ring capacities: a VC holds at most capacity/size packets, the
     * output stage (pipeline + queue) at most output_phits/size, a link or
     * a reverse channel at most the downstream port's total capacity. */
    int32_t iused = 0, aused = 0, sused = 0, cused = 0;
    int out_pk = div_floor_pos(cfg->output_phits, S) + 1;
    for (int r = 0; r < R; r++) {
        for (int port = 0; port < P; port++) {
            int k = s->kind[port];
            size_t rp = (size_t)r * P + port;
            int vc_pk = div_floor_pos(s->in_cap[k], S) + 1;
            for (int vc = 0; vc < s->nvcs[k]; vc++) {
                size_t i = rp * MV + vc;
                s->vcbuf[i].cap = vc_pk;
                s->vcbuf[i].base = pool_alloc(&iused, vc_pk);
                s->vc_free[i] = s->in_cap[k];
            }
            int link_pk = s->nvcs[k] * (vc_pk - 1) + 1;
            s->arrivals[rp].cap = link_pk;
            s->arrivals[rp].base = pool_alloc(&aused, link_pk);
            s->oqueue[rp].cap = out_pk;
            s->oqueue[rp].base = pool_alloc(&iused, out_pk);
            s->pipe[rp].cap = out_pk;
            s->pipe[rp].base = pool_alloc(&sused, out_pk);
            s->ob_free[rp] = cfg->output_phits;
            if (k == K_INJ) {
                s->nbr_router[rp] = -1;
                s->nbr_port[rp] = -1;
                s->max_credits[rp * MV] = (int64_t)1 << 30;
                s->credits[rp * MV] = (int64_t)1 << 30;
                s->pcredits[rp].cap = 1;
                s->pcredits[rp].base = pool_alloc(&cused, 1);
            } else {
                int nr, np;
                neighbor(s, r, port, &nr, &np);
                s->nbr_router[rp] = nr;
                s->nbr_port[rp] = np;
                if (k == K_GLOBAL) s->target_group[rp] = port_target_group(s, r, port);
                for (int vc = 0; vc < s->nvcs[k]; vc++) {
                    s->max_credits[rp * MV + vc] = s->in_cap[k];
                    s->credits[rp * MV + vc] = s->in_cap[k];
                }
                s->pcredits[rp].cap = link_pk;
                s->pcredits[rp].base = pool_alloc(&cused, link_pk);
            }
        }
        s->next_begin[r] = NO_EVENT;
        s->next_transmit[r] = NO_EVENT;
    }
    s->ipool = (int32_t *)xcalloc(s, iused, sizeof(int32_t));
    s->apool = (arrival_t *)xcalloc(s, aused, sizeof(arrival_t));
    s->spool = (stage_t *)xcalloc(s, sused, sizeof(stage_t));
    s->cpool = (credit_t *)xcalloc(s, cused, sizeof(credit_t));
    s->pk_free = NONE32;
    for (int n = 0; n < N; n++) { s->q_head[n] = NONE32; s->q_tail[n] = NONE32; }
    s->bitgen = NULL;
    s->last_progress = 0;
    s->router_hint = NO_EVENT;
    s->node_hint = NO_EVENT;
    if (s->error) { core_free(s); return NULL; }
    return s;
}

void core_set_rng(core_t *s, void *bitgen) { s->bitgen = (np_bitgen_t *)bitgen; }

/* ---------------------------------------------------------------- packets */
static int32_t pkt_alloc(core_t *s) {
    if (s->pk_free == NONE32) {
        int32_t cap = s->pk_cap ? s->pk_cap * 2 : 1024;
        pkt_t *grown = (pkt_t *)realloc(s->pk, (size_t)cap * sizeof(pkt_t));
        if (!grown) { s->error = ERR_MEMORY; return NONE32; }
        s->pk = grown;
        for (int32_t i = cap - 1; i >= s->pk_cap; i--) {
            s->pk[i].next = s->pk_free;
            s->pk_free = i;
        }
        s->pk_cap = cap;
    }
    int32_t i = s->pk_free;
    s->pk_free = s->pk[i].next;
    return i;
}

static void pkt_release(core_t *s, int32_t i) {
    s->pk[i].next = s->pk_free;
    s->pk_free = i;
}

static int32_t pkt_new(core_t *s, int64_t ref, int32_t src, int32_t dst, int32_t size, int64_t creation) {
    int32_t i = pkt_alloc(s);
    if (i == NONE32) return i;
    pkt_t *k = &s->pk[i];
    memset(k, 0, sizeof(*k));
    k->ref = ref;
    k->creation = creation;
    k->injection = -1;
    k->misroute_cycle = -1;
    k->src = src;
    k->dst = dst;
    k->size = size;
    k->ig = NONE32;
    k->cport = NONE32;
    k->source_group = -1;
    k->next = NONE32;
    return i;
}

/* Hand the packets generated for the coming cycles to the core. */
int core_add_packets(core_t *s, int32_t n, const int64_t *ref, const int64_t *src,
                     const int64_t *dst, const int64_t *cycle) {
    /* drop the consumed prefix, then append */
    if (s->gen_pos > 0) {
        int32_t rest = s->gen_n - s->gen_pos;
        memmove(s->gen, s->gen + s->gen_pos, (size_t)rest * sizeof(int32_t));
        memmove(s->gen_cycle, s->gen_cycle + s->gen_pos, (size_t)rest * sizeof(int64_t));
        s->gen_n = rest;
        s->gen_pos = 0;
    }
    if (s->gen_n + n > s->gen_cap) {
        int32_t cap = s->gen_cap ? s->gen_cap : 1024;
        while (cap < s->gen_n + n) cap *= 2;
        int32_t *g = (int32_t *)realloc(s->gen, (size_t)cap * sizeof(int32_t));
        if (!g) return ERR_MEMORY;
        s->gen = g;
        int64_t *gc = (int64_t *)realloc(s->gen_cycle, (size_t)cap * sizeof(int64_t));
        if (!gc) return ERR_MEMORY;
        s->gen_cycle = gc;
        s->gen_cap = cap;
    }
    for (int32_t i = 0; i < n; i++) {
        int32_t k = pkt_new(s, ref[i], (int32_t)src[i], (int32_t)dst[i], s->c.packet_size, cycle[i]);
        if (k == NONE32) return ERR_MEMORY;
        s->gen[s->gen_n] = k;
        s->gen_cycle[s->gen_n] = cycle[i];
        s->gen_n++;
    }
    return ERR_NONE;
}

/* ------------------------------------------------------- router bookkeeping */
static void insort(int32_t *arr, int32_t *n, int32_t key) {
    int32_t i = *n;
    while (i > 0 && arr[i - 1] > key) { arr[i] = arr[i - 1]; i--; }
    arr[i] = key;
    (*n)++;
}

static void remove_key(int32_t *arr, int32_t *n, int32_t key) {
    int32_t i = 0;
    while (i < *n && arr[i] != key) i++;
    if (i == *n) return;
    memmove(arr + i, arr + i + 1, (size_t)(*n - i - 1) * sizeof(int32_t));
    (*n)--;
}

static void mark_router_event(core_t *s, int r, int64_t t) {
    if (t < s->next_begin[r]) s->next_begin[r] = t;
}

/* Push a packet into input VC (r, port, vc): VCBuffer.push + note_input_push. */
static void vc_push(core_t *s, int r, int port, int vc, int32_t k) {
    size_t rp = (size_t)r * s->P + port, i = rp * s->MV + vc;
    ring_t *b = &s->vcbuf[i];
    int size = s->pk[k].size;
    if (s->vc_free[i] < size || RING_FULL(b)) { s->error = ERR_OVERFLOW; return; }
    s->ipool[ring_slot_push(b)] = k;
    s->vc_free[i] -= size;
    if (b->count == 1) {
        int32_t key = port * s->MV + vc;
        int32_t *occ = s->occ + (size_t)r * s->P * s->MV;
        insort(occ, &s->occ_n[r], key);
        if (s->notify) s->nh[(size_t)r * s->P * s->MV + s->nh_n[r]++] = key;
    }
}

/* AdaptiveInTransitRouting.on_packet_arrival */
static void on_arrival(core_t *s, int r, pkt_t *k) {
    if (k->phase == 1 && k->ig != NONE32 && r / s->c.a == k->ig) {
        k->ig = NONE32;
        k->phase = 0;
    }
}

/* ------------------------------------------------------------------ routing */
static int vc_for(const core_t *s, int kind, const pkt_t *k) {
    if (kind == K_GLOBAL) {
        int last = s->nvcs[K_GLOBAL] - 1;
        return k->ghops < last ? k->ghops : last;
    }
    if (kind == K_LOCAL) {
        int g = k->ghops, l = k->lhig ? 1 : 0;
        int vc = g == 0 ? l : 2 * g - 1 + l;
        int last = s->nvcs[K_LOCAL] - 1;
        return vc < last ? vc : last;
    }
    return 0;
}

static decision_t plain(int out, int vc) {
    decision_t d;
    d.out = (int16_t)out; d.vc = (int16_t)vc;
    d.nmg = 0; d.nml = 0; d.must = 0; d.ig = NONE32;
    return d;
}

static decision_t minimal_decision(const core_t *s, int r, const pkt_t *k) {
    int port = minimal_port(s, r, k->dst);
    return plain(port, vc_for(s, s->kind[port], k));
}

typedef struct { int16_t port; int8_t kind; int32_t target; } cand_t;

/* compute_global_candidates */
static int global_candidates(const core_t *s, int r, int dg, int minport, int allow_proxy, cand_t *out) {
    int n = 0, cg = r / s->c.a;
    const int32_t *targets = s->target_group + (size_t)r * s->P;
    for (int port = s->first_global; port < s->P; port++) {
        if (port == minport) continue;
        int target = targets[port];
        if (target == dg || target == cg) continue;
        out[n].port = (int16_t)port; out[n].kind = K_GLOBAL; out[n].target = target;
        n++;
    }
    if (allow_proxy) {
        for (int port = s->first_local; port < s->first_global; port++) {
            if (port == minport) continue;
            out[n].port = (int16_t)port; out[n].kind = K_LOCAL; out[n].target = NONE32;
            n++;
        }
    }
    return n;
}

/* compute_local_candidates */
static int local_candidates(const core_t *s, int minport, cand_t *out) {
    int n = 0;
    if (s->kind[minport] != K_LOCAL) return 0;
    for (int port = s->first_local; port < s->first_global; port++) {
        if (port == minport) continue;
        out[n].port = (int16_t)port; out[n].kind = K_LOCAL; out[n].target = NONE32;
        n++;
    }
    return n;
}

/* BaseContentionRouting._choose_contention: index into cands or -1. */
static int choose_contention(core_t *s, int r, int minport, const cand_t *cands, int n) {
    const int32_t *counts = s->counts + (size_t)r * s->P;
    int th = s->c.threshold;
    if (counts[minport] <= th) return -1;
    int pref[64];
    int np = 0;
    for (int i = 0; i < n; i++)
        if (counts[cands[i].port] < th) pref[np++] = i;
    if (np == 0) return -1;
    return pref[core_draw_bounded(s->bitgen, (uint64_t)np)];
}

/* AdaptiveInTransitRouting._forced_global_decision */
static decision_t forced_global(core_t *s, int r, const pkt_t *k, int minport) {
    cand_t cands[64];
    int dg = (k->dst / s->c.p) / s->c.a;
    int n = global_candidates(s, r, dg, minport, 0, cands);
    int chosen = choose_contention(s, r, minport, cands, n);
    if (chosen < 0 && n > 0) chosen = (int)core_draw_bounded(s->bitgen, (uint64_t)n);
    if (chosen >= 0) {
        decision_t d = plain(cands[chosen].port, vc_for(s, K_GLOBAL, k));
        d.nmg = 1;
        d.ig = cands[chosen].target;
        return d;
    }
    return plain(minport, vc_for(s, s->kind[minport], k));
}

/* AdaptiveInTransitRouting._towards_group */
static decision_t towards_group(const core_t *s, int r, const pkt_t *k, int tg) {
    int a = s->c.a;
    if (r / a == tg) return minimal_decision(s, r, k);
    int gw_pos, gport;
    group_route(s, r / a, tg, &gw_pos, &gport);
    if (gw_pos == r % a) {
        decision_t d = plain(gport, vc_for(s, K_GLOBAL, k));
        d.nmg = 1;
        return d;
    }
    return plain(local_port_to(s, r % a, gw_pos), vc_for(s, K_LOCAL, k));
}

/* AdaptiveInTransitRouting.select_output (group policy, healthy network). */
static decision_t select_base(core_t *s, int r, const pkt_t *k) {
    int p = s->c.p, a = s->c.a;
    int dr = k->dst / p;
    if (r == dr) return plain(k->dst % p, 0);
    if (k->phase == 1 && k->ig != NONE32) return towards_group(s, r, k, k->ig);
    int cg = r / a, dg = dr / a;
    int minport = k->cport != NONE32 ? k->cport : minimal_port(s, r, k->dst);
    int minkind = s->kind[minport];
    if (k->must_global && dg != cg && k->ghops == 0) return forced_global(s, r, k, minport);
    /* Both misroute branches consult the trigger on the minimal port;
     * when it does not fire they return minimal without a draw, so the
     * candidate enumeration is skipped. */
    int fires = s->counts[(size_t)r * s->P + minport] > s->c.threshold;
    cand_t cands[64];
    if (fires && dg != cg && k->ghops == 0 && !k->gm) {
        int n = global_candidates(s, r, dg, minport, k->hops == 0, cands);
        int chosen = choose_contention(s, r, minport, cands, n);
        if (chosen >= 0) {
            if (cands[chosen].kind == K_GLOBAL) {
                decision_t d = plain(cands[chosen].port, vc_for(s, K_GLOBAL, k));
                d.nmg = 1;
                d.ig = cands[chosen].target;
                return d;
            }
            decision_t d = plain(cands[chosen].port, vc_for(s, K_LOCAL, k));
            d.must = 1;
            return d;
        }
    }
    if (fires && minkind == K_LOCAL && k->lhig == 0 && k->ghops <= 1
        && (cg == dg || k->ghops == 1)) {
        int n = local_candidates(s, minport, cands);
        int chosen = choose_contention(s, r, minport, cands, n);
        if (chosen >= 0) {
            decision_t d = plain(cands[chosen].port, vc_for(s, K_LOCAL, k));
            d.nml = 1;
            return d;
        }
    }
    return plain(minport, vc_for(s, minkind, k));
}

/* MinimalRouting.select_output */
static decision_t select_min(const core_t *s, int r, const pkt_t *k) {
    int p = s->c.p;
    if (r == k->dst / p) return plain(k->dst % p, 0);
    return minimal_decision(s, r, k);
}

/* ---------------------------------------------------------- router phases */
static void begin_cycle(core_t *s, int r, int64_t cycle) {
    int64_t nxt = NO_EVENT;
    int P = s->P, MV = s->MV;
    for (int port = 0; port < P; port++) {
        size_t rp = (size_t)r * P + port;
        ring_t *pc = &s->pcredits[rp];
        if (pc->count) {
            while (pc->count && RING_AT(s->cpool, pc, 0).t <= cycle) {
                credit_t c = s->cpool[ring_slot_pop(pc)];
                size_t i = rp * MV + c.vc;
                s->credits[i] += c.phits;
                if (s->credits[i] > s->max_credits[i]) s->error = ERR_CREDIT;
            }
            if (pc->count) {
                int64_t t = RING_AT(s->cpool, pc, 0).t;
                if (t < nxt) nxt = t;
            }
        }
    }
    for (int port = 0; port < P; port++) {
        size_t rp = (size_t)r * P + port;
        ring_t *ar = &s->arrivals[rp];
        if (ar->count) {
            while (ar->count && RING_AT(s->apool, ar, 0).t <= cycle) {
                arrival_t a = s->apool[ring_slot_pop(ar)];
                vc_push(s, r, port, a.vc, a.pkt);
                if (s->notify) on_arrival(s, r, &s->pk[a.pkt]);
            }
            if (ar->count) {
                int64_t t = RING_AT(s->apool, ar, 0).t;
                if (t < nxt) nxt = t;
            }
        }
    }
    s->next_begin[r] = nxt;
}

static void commit_grant(core_t *s, int r, int port, int vc, const decision_t *d, int64_t cycle) {
    int P = s->P, MV = s->MV;
    size_t rp = (size_t)r * P + port, i = rp * MV + vc;
    ring_t *b = &s->vcbuf[i];
    int32_t k = s->ipool[ring_slot_pop(b)];
    pkt_t *pk = &s->pk[k];
    int size = pk->size;
    s->vc_free[i] += size;
    s->head_seen[i] = 0;
    int32_t key = port * MV + vc;
    if (b->count == 0) remove_key(s->occ + (size_t)r * P * MV, &s->occ_n[r], key);
    else if (s->notify) s->nh[(size_t)r * P * MV + s->nh_n[r]++] = key;

    /* credit return to the upstream router (none for injection ports) */
    int kin = s->kind[port];
    if (kin != K_INJ) {
        int ur = s->nbr_router[rp], up = s->nbr_port[rp];
        size_t urp = (size_t)ur * P + up;
        ring_t *pc = &s->pcredits[urp];
        if (RING_FULL(pc)) { s->error = ERR_OVERFLOW; return; }
        credit_t *c = &s->cpool[ring_slot_push(pc)];
        c->t = cycle + s->lat[kin];
        c->vc = vc;
        c->phits = size;
        mark_router_event(s, ur, c->t);
    }
    /* on_packet_leave_input (contention counters) */
    if (s->notify && pk->cport != NONE32) {
        int32_t *cnt = &s->counts[(size_t)r * P + pk->cport];
        if (*cnt <= 0) s->error = ERR_COUNTER;
        (*cnt)--;
        pk->cport = NONE32;
    }
    /* on_grant */
    int kout = s->kind[d->out];
    if (d->ig != NONE32) { pk->ig = d->ig; pk->phase = 1; }
    if (d->must) pk->must_global = 1;
    else if (kout == K_GLOBAL) pk->must_global = 0;
    if (d->nmg && !pk->gm) {
        pk->gm = 1;
        if (pk->misroute_cycle < 0) pk->misroute_cycle = cycle;
    }
    if (d->nml) pk->lm = 1;
    /* record_hop */
    if (kout != K_INJ) {
        pk->hops++;
        if (kout == K_GLOBAL) { pk->ghops++; pk->lhig = 0; }
        else { pk->lhops++; pk->lhig++; }
    }
    pk->cur_vc = (int8_t)d->vc;
    size_t orp = (size_t)r * P + d->out;
    s->ob_free[orp] -= size;
    s->credits[orp * MV + d->vc] -= size;
    ring_t *pipe = &s->pipe[orp];
    if (RING_FULL(pipe)) { s->error = ERR_OVERFLOW; return; }
    stage_t *st = &s->spool[ring_slot_push(pipe)];
    st->t = cycle + s->c.router_latency;
    st->pkt = k;
    if (st->t < s->next_transmit[r]) s->next_transmit[r] = st->t;
}

/* SeparableAllocator.allocate: one round, returns the number of grants
 * (written to grants[] as request indices). */
static int separable_round(core_t *s, int r, int nreq, int32_t *grants) {
    int P = s->P, MV = s->MV;
    int32_t *in_ptr = s->in_ptr + (size_t)r * P, *out_ptr = s->out_ptr + (size_t)r * P;
    int nin = 0, nout = 0, ng = 0;
    for (int i = 0; i < nreq; i++) {
        int port = s->req[i].port;
        int dist = s->req[i].vc - in_ptr[port];
        if (dist < 0) dist += MV;
        if (s->best_req[port] < 0) {
            s->touched_in[nin++] = port;
            s->best_req[port] = i;
            s->best_dist[port] = dist;
        } else if (dist < s->best_dist[port]) {
            s->best_req[port] = i;
            s->best_dist[port] = dist;
        }
    }
    for (int j = 0; j < nin; j++) {
        int port = s->touched_in[j];
        int i = s->best_req[port];
        s->best_req[port] = -1;
        in_ptr[port] = (s->req[i].vc + 1) % MV;
        int out = s->req[i].out;
        int dist = port - out_ptr[out];
        if (dist < 0) dist += P;
        if (s->prop_req[out] < 0) {
            s->touched_out[nout++] = out;
            s->prop_req[out] = i;
            s->prop_dist[out] = dist;
        } else if (dist < s->prop_dist[out]) {
            s->prop_req[out] = i;
            s->prop_dist[out] = dist;
        }
    }
    for (int j = 0; j < nout; j++) {
        int out = s->touched_out[j];
        int i = s->prop_req[out];
        s->prop_req[out] = -1;
        out_ptr[out] = (s->req[i].port + 1) % P;
        grants[ng++] = i;
    }
    return ng;
}

static void allocate(core_t *s, int r, int64_t cycle) {
    int P = s->P, MV = s->MV;
    size_t rbase = (size_t)r * P * MV;
    if (s->notify && s->nh_n[r]) {
        /* on_packet_head (ContentionTracker.on_head); increments commute,
         * so the report order is immaterial. */
        for (int j = 0; j < s->nh_n[r]; j++) {
            int32_t key = s->nh[rbase + j];
            size_t i = rbase + key;
            if (s->head_seen[i]) continue;
            ring_t *b = &s->vcbuf[i];
            if (b->count == 0) continue;
            pkt_t *pk = &s->pk[RING_AT(s->ipool, b, 0)];
            if (pk->cport == NONE32) {
                int mp = minimal_port(s, r, pk->dst);
                s->counts[(size_t)r * P + mp]++;
                pk->cport = mp;
            }
            s->head_seen[i] = 1;
        }
        s->nh_n[r] = 0;
    }
    int n = s->occ_n[r];
    memcpy(s->snap, s->occ + rbase, (size_t)n * sizeof(int32_t));
    for (int j = 0; j < n; j++) s->granted[s->snap[j]] = 0;
    int pure = s->c.mechanism == MECH_MIN;
    int32_t *grants = s->grants;
    for (int round = 0; round < s->c.speedup; round++) {
        int nreq = 0;
        for (int j = 0; j < n; j++) {
            int32_t key = s->snap[j];
            if (s->granted[key]) continue;
            ring_t *b = &s->vcbuf[rbase + key];
            if (b->count == 0) continue;
            int port = key / MV, vc = key % MV;
            pkt_t *pk = &s->pk[RING_AT(s->ipool, b, 0)];
            decision_t d;
            if (pure && round > 0) d = s->memo[j];
            else {
                d = pure ? select_min(s, r, pk) : select_base(s, r, pk);
                if (pure) s->memo[j] = d;
            }
            size_t orp = (size_t)r * P + d.out;
            if (s->ob_free[orp] < pk->size) continue;
            if (s->credits[orp * MV + d.vc] < pk->size) continue;
            request_t *q = &s->req[nreq++];
            q->port = port; q->vc = vc; q->key = key; q->out = d.out; q->d = d;
        }
        if (nreq == 0) break;
        int ng = separable_round(s, r, nreq, grants);
        for (int g = 0; g < ng; g++) {
            request_t *q = &s->req[grants[g]];
            commit_grant(s, r, q->port, q->vc, &q->d, cycle);
            s->granted[q->key] = 1;
        }
    }
}

static void record_delivery(core_t *s, int32_t k, int64_t cycle, int64_t delivered) {
    if (s->dl_n >= s->dl_cap) {
        int32_t cap = s->dl_cap ? s->dl_cap * 2 : 1024;
        int64_t *g = (int64_t *)realloc(s->dl, (size_t)cap * DELIVERY_FIELDS * sizeof(int64_t));
        if (!g) { s->error = ERR_MEMORY; return; }
        s->dl = g;
        s->dl_cap = cap;
    }
    const pkt_t *pk = &s->pk[k];
    int64_t *d = s->dl + (size_t)s->dl_n * DELIVERY_FIELDS;
    d[D_REF] = pk->ref;
    d[D_CYCLE] = cycle;
    d[D_DELIVERED] = delivered;
    d[D_INJECTION] = pk->injection;
    d[D_HOPS] = pk->hops;
    d[D_LOCAL_HOPS] = pk->lhops;
    d[D_GLOBAL_HOPS] = pk->ghops;
    d[D_LOCAL_HOPS_IN_GROUP] = pk->lhig;
    d[D_GLOBALLY_MISROUTED] = pk->gm;
    d[D_LOCALLY_MISROUTED] = pk->lm;
    d[D_MISROUTE_CYCLE] = pk->misroute_cycle;
    d[D_CURRENT_VC] = pk->cur_vc;
    d[D_SOURCE_GROUP] = pk->source_group;
    d[D_PHASE] = pk->phase;
    d[D_INTERMEDIATE_GROUP] = pk->ig;
    d[D_MUST_GLOBAL] = pk->must_global;
    s->dl_n++;
}

static int transmit(core_t *s, int r, int64_t cycle) {
    int P = s->P, delivered = 0;
    int64_t nxt = NO_EVENT;
    for (int port = 0; port < P; port++) {
        size_t rp = (size_t)r * P + port;
        ring_t *pipe = &s->pipe[rp], *q = &s->oqueue[rp];
        if (pipe->count == 0 && q->count == 0) continue;
        while (pipe->count && RING_AT(s->spool, pipe, 0).t <= cycle) {
            int32_t k = s->spool[ring_slot_pop(pipe)].pkt;
            s->ipool[ring_slot_push(q)] = k;
        }
        if (q->count && s->link_busy[rp] <= cycle) {
            int32_t k = s->ipool[ring_slot_pop(q)];
            int size = s->pk[k].size;
            s->ob_free[rp] += size;
            s->link_busy[rp] = cycle + size;
            int dr = s->nbr_router[rp];
            if (dr < 0) {
                record_delivery(s, k, cycle, cycle + size);
                pkt_release(s, k);
                s->buffered--;
                delivered++;
            } else {
                int dp = s->nbr_port[rp];
                ring_t *ar = &s->arrivals[(size_t)dr * P + dp];
                if (RING_FULL(ar)) { s->error = ERR_OVERFLOW; return delivered; }
                arrival_t *a = &s->apool[ring_slot_push(ar)];
                a->t = cycle + s->lat[s->kind[port]] + size;
                a->vc = s->pk[k].cur_vc;
                a->pkt = k;
                mark_router_event(s, dr, a->t);
            }
        }
        if (pipe->count) {
            int64_t t = RING_AT(s->spool, pipe, 0).t;
            if (t < nxt) nxt = t;
        }
        if (q->count && s->link_busy[rp] < nxt) nxt = s->link_busy[rp];
    }
    s->next_transmit[r] = nxt;
    return delivered;
}

/* ComputeNode.try_inject */
static void try_inject(core_t *s, int node, int64_t cycle) {
    int32_t k = s->q_head[node];
    if (k == NONE32 || cycle < s->next_inj[node]) return;
    int p = s->c.p, r = node / p, port = node % p;
    int nv = s->nvcs[K_INJ];
    pkt_t *pk = &s->pk[k];
    size_t rp = (size_t)r * s->P + port;
    for (int off = 0; off < nv; off++) {
        int vc = (s->vc_ptr[node] + off) % nv;
        if (s->vc_free[rp * s->MV + vc] < pk->size) continue;
        s->q_head[node] = pk->next;
        if (s->q_head[node] == NONE32) s->q_tail[node] = NONE32;
        s->q_len[node]--;
        pk->next = NONE32;
        pk->injection = cycle;
        pk->source_group = r / s->c.a;
        vc_push(s, r, port, vc, k);
        s->buffered++;
        if (s->notify) on_arrival(s, r, pk);
        s->vc_ptr[node] = (vc + 1) % nv;
        s->next_inj[node] = cycle + pk->size;
        return;
    }
}

/* ------------------------------------------------------------------ engine */
static int64_t next_generated(const core_t *s) {
    return s->gen_pos < s->gen_n ? s->gen_cycle[s->gen_pos] : NO_EVENT;
}

static int check_watchdog(core_t *s, int64_t cycle) {
    if (s->c.watchdog < 0) return 0;
    if (cycle - s->last_progress < s->c.watchdog) return 0;
    if (s->buffered == 0) { s->last_progress = cycle; return 0; }
    return 1;
}

/* Engine.step; returns 1 on a stall. */
static int step(core_t *s) {
    int64_t cycle = s->cycle;
    /* 1. traffic generation into the source queues */
    while (s->gen_pos < s->gen_n && s->gen_cycle[s->gen_pos] == cycle) {
        int32_t k = s->gen[s->gen_pos++];
        int node = s->pk[k].src;
        if (s->q_tail[node] == NONE32) s->q_head[node] = k;
        else s->pk[s->q_tail[node]].next = k;
        s->q_tail[node] = k;
        s->q_len[node]++;
        if (!s->node_active[node]) {
            s->node_active[node] = 1;
            s->backlog[s->backlog_n++] = node;
        }
    }
    /* 2. injection from the backlogged source queues */
    int64_t node_hint = NO_EVENT;
    int kept = 0;
    for (int j = 0; j < s->backlog_n; j++) {
        int node = s->backlog[j];
        if (cycle >= s->next_inj[node]) try_inject(s, node, cycle);
        if (s->q_len[node]) {
            s->backlog[kept++] = node;
            if (s->next_inj[node] < node_hint) node_hint = s->next_inj[node];
        } else {
            s->node_active[node] = 0;
        }
    }
    s->backlog_n = kept;
    /* 3. fused router phases, in router-id order */
    int64_t delivered_now = 0;
    for (int r = 0; r < s->R; r++) {
        if (s->next_begin[r] <= cycle) begin_cycle(s, r, cycle);
        if (s->occ_n[r]) allocate(s, r, cycle);
        if (s->next_transmit[r] <= cycle) delivered_now += transmit(s, r, cycle);
        if (s->error) return 0;
    }
    if (delivered_now) {
        s->delivered += delivered_now;
        s->last_progress = cycle;
    }
    /* 5. work horizon of the routers (earliest scheduled event) */
    int64_t hint = NO_EVENT;
    for (int r = 0; r < s->R; r++) {
        if (s->occ_n[r]) { hint = -1; break; }
        int64_t b = s->next_begin[r], t = s->next_transmit[r];
        int64_t ev = b < t ? b : t;
        if (ev < hint) hint = ev;
    }
    s->router_hint = hint;
    s->node_hint = node_hint;
    s->hint_valid = 1;
    if (check_watchdog(s, cycle)) return 1;
    s->cycle = cycle + 1;
    return 0;
}

/* Engine._work_horizon (full scan at the start of a run call). */
static int64_t work_horizon(core_t *s, int64_t cycle, int64_t end) {
    int64_t horizon = end;
    for (int r = 0; r < s->R; r++) {
        if (s->occ_n[r]) return cycle;
        int64_t b = s->next_begin[r], t = s->next_transmit[r];
        int64_t ev = b < t ? b : t;
        if (ev >= NO_EVENT) continue;
        if (ev <= cycle) return cycle;
        if (ev < horizon) horizon = ev;
    }
    for (int j = 0; j < s->backlog_n; j++) {
        int64_t inj = s->next_inj[s->backlog[j]];
        if (inj <= cycle) return cycle;
        if (inj < horizon) horizon = inj;
    }
    int64_t arrival = next_generated(s);
    if (arrival < end) {
        if (arrival <= cycle) return cycle;
        if (arrival < horizon) horizon = arrival;
    }
    return horizon;
}

void core_invalidate_hints(core_t *s) { s->hint_valid = 0; }

/*
 * Engine.run up to cycle ``end`` (the caller has handed over every packet
 * generated before ``end``).  Returns 0, 1 on a stall (the engine's cycle
 * is the detection cycle) or an ERR_* code + 1.
 */
int core_run(core_t *s, int64_t end) {
    s->dl_n = 0;
    if (!s->c.time_warp) {
        while (s->cycle < end) {
            if (step(s)) return 1;
            if (s->error) return s->error + 1;
        }
        return 0;
    }
    while (s->cycle < end) {
        int64_t cycle = s->cycle, horizon;
        if (s->hint_valid) {
            horizon = s->router_hint;
            if (s->node_hint < horizon) horizon = s->node_hint;
            if (horizon > cycle) {
                int64_t arrival = next_generated(s);
                if (arrival < end && arrival < horizon) horizon = arrival;
            }
        } else {
            horizon = work_horizon(s, cycle, end);
        }
        if (horizon <= cycle) {
            if (step(s)) return 1;
            if (s->error) return s->error + 1;
            continue;
        }
        int64_t target = horizon < end ? horizon : end;
        if (s->c.watchdog >= 0) {
            int64_t deadline = s->last_progress + s->c.watchdog;
            if (target > deadline) {
                if (deadline <= cycle) {
                    if (check_watchdog(s, cycle)) return 1;
                    continue;
                }
                target = deadline;
            }
        }
        s->cycles_skipped += target - cycle;
        s->cycle = target;
    }
    return 0;
}

/* ------------------------------------------------------------- inspection */
int64_t core_stat(const core_t *s, int which) {
    switch (which) {
    case STAT_CYCLE: return s->cycle;
    case STAT_CYCLES_SKIPPED: return s->cycles_skipped;
    case STAT_DELIVERED: return s->delivered;
    case STAT_BUFFERED: return s->buffered;
    default: return -1;
    }
}

const int64_t *core_deliveries(const core_t *s, int32_t *n) {
    *n = s->dl_n;
    return s->dl;
}

/* Occupied input VCs per router (stall diagnostics). */
void core_occupied_counts(const core_t *s, int32_t *out) {
    for (int r = 0; r < s->R; r++) out[r] = s->occ_n[r];
}

/* Contention counters of every router, router-major (R * P entries). */
void core_contention_counts(const core_t *s, int32_t *out) {
    memcpy(out, s->counts, (size_t)s->R * s->P * sizeof(int32_t));
}

/*
 * Oldest packet buffered in an input VC (first found in router, port, VC,
 * FIFO order on ties): writes ref, router, src, dst, phase, hops, creation;
 * returns 0 when every input buffer is empty.
 */
int core_oldest_buffered(const core_t *s, int64_t *out) {
    int found = 0;
    const pkt_t *best = NULL;
    int best_r = -1;
    for (int r = 0; r < s->R; r++)
        for (int port = 0; port < s->P; port++)
            for (int vc = 0; vc < s->nvcs[s->kind[port]]; vc++) {
                const ring_t *b = &s->vcbuf[((size_t)r * s->P + port) * s->MV + vc];
                for (int i = 0; i < b->count; i++) {
                    const pkt_t *pk = &s->pk[RING_AT(s->ipool, b, i)];
                    if (!found || pk->creation < best->creation) {
                        best = pk;
                        best_r = r;
                        found = 1;
                    }
                }
            }
    if (!found) return 0;
    out[0] = best->ref; out[1] = best_r; out[2] = best->src; out[3] = best->dst;
    out[4] = best->phase; out[5] = best->hops; out[6] = best->creation;
    return 1;
}

/* Engine.schedule_arrival: plant a packet on the link into (r, port). */
int core_schedule_arrival(core_t *s, int r, int port, int64_t complete, int vc,
                          int64_t ref, int32_t src, int32_t dst, int32_t size, int64_t creation) {
    int32_t k = pkt_new(s, ref, src, dst, size, creation);
    if (k == NONE32) return ERR_MEMORY;
    ring_t *ar = &s->arrivals[(size_t)r * s->P + port];
    if (RING_FULL(ar)) { pkt_release(s, k); return ERR_OVERFLOW; }
    arrival_t *a = &s->apool[ring_slot_push(ar)];
    a->t = complete;
    a->vc = vc;
    a->pkt = k;
    mark_router_event(s, r, complete);
    s->buffered++;
    s->hint_valid = 0;
    return ERR_NONE;
}

/* Hold output port ``port`` of router ``r`` busy until ``until``. */
void core_set_link_busy(core_t *s, int r, int port, int64_t until) {
    size_t rp = (size_t)r * s->P + port;
    s->link_busy[rp] = until;
    s->hint_valid = 0;
}

/*
 * Decision-level probe: ``select_output`` of the configured mechanism for a
 * head packet with the given routing state at router ``r``, with the
 * router's contention counters set to ``counts`` (P entries).  Writes
 * out, vc, nonminimal_global, nonminimal_local, set_intermediate_group and
 * set_must_misroute_global to ``out``.
 */
void core_probe_select(core_t *s, int r, const int32_t *counts, const int64_t *state, int64_t *out) {
    memcpy(s->counts + (size_t)r * s->P, counts, (size_t)s->P * sizeof(int32_t));
    pkt_t k;
    memset(&k, 0, sizeof(k));
    k.dst = (int32_t)state[PS_DST];
    k.phase = (int8_t)state[PS_PHASE];
    k.ig = (int32_t)state[PS_INTERMEDIATE_GROUP];
    k.hops = (int32_t)state[PS_HOPS];
    k.ghops = (int32_t)state[PS_GLOBAL_HOPS];
    k.lhig = (int32_t)state[PS_LOCAL_HOPS_IN_GROUP];
    k.gm = (int8_t)state[PS_GLOBALLY_MISROUTED];
    k.must_global = (int8_t)state[PS_MUST_GLOBAL];
    k.cport = (int32_t)state[PS_CONTENTION_PORT];
    k.size = s->c.packet_size;
    decision_t d = s->c.mechanism == MECH_MIN ? select_min(s, r, &k) : select_base(s, r, &k);
    out[0] = d.out; out[1] = d.vc; out[2] = d.nmg; out[3] = d.nml; out[4] = d.ig; out[5] = d.must;
}
