"""Native (C, via ctypes) core for the compiled simulation pipeline.

The hot paths of the reproduction — expanding an elimination list into the
kernel DAG and replaying that DAG through the event-driven cluster
simulator — are pure integer/float loops.  This module carries a small,
dependency-free C translation of both, compiled on first use with the
system C compiler into a shared library cached under the repro cache
directory.  Everything here is optional: when no compiler is available (or
``REPRO_SIM_CORE=python``), callers fall back to the pure-Python array
loops in :mod:`repro.runtime.core` and :mod:`repro.dag.compiled`, which
implement exactly the same algorithms.

Bit-exactness: the C event loop performs the same double-precision
operations in the same order as the Python loop of the core, and every
heap key is distinct (event codes and priority ranks are unique), so heap
pop order is fully determined by the key total order — the C binary heap
and Python's ``heapq`` produce identical schedules.  The library is built
with ``-ffp-contract=off`` (no FMA contraction) to keep arithmetic
IEEE-identical to CPython's.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["cache_root", "get_lib", "native_available", "openmp_available"]


def cache_root() -> Path:
    """Root directory for on-disk caches (compiled graphs, native core).

    ``REPRO_CACHE_DIR`` overrides; the default follows the XDG convention.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro-hqr"


_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* 1 when this library was compiled with OpenMP support (the build tries
 * -fopenmp first and silently falls back), 0 otherwise. */
int32_t hqr_openmp(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* ------------------------------------------------------------------ *
 * Event heap: min-heap ordered by (time, code).  Codes are unique per
 * event, so the (time, code) keys form a strict total order and pop
 * order is implementation-independent.
 * ------------------------------------------------------------------ */
typedef struct {
    double *t;
    int64_t *c;
    int64_t len;
} evheap;

static void ev_push(evheap *h, double time, int64_t code) {
    int64_t i = h->len++;
    h->t[i] = time;
    h->c[i] = code;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h->t[p] < h->t[i] || (h->t[p] == h->t[i] && h->c[p] < h->c[i]))
            break;
        double tt = h->t[p]; h->t[p] = h->t[i]; h->t[i] = tt;
        int64_t cc = h->c[p]; h->c[p] = h->c[i]; h->c[i] = cc;
        i = p;
    }
}

static void ev_pop(evheap *h, double *time, int64_t *code) {
    *time = h->t[0];
    *code = h->c[0];
    h->len--;
    if (h->len == 0)
        return;
    double t = h->t[h->len];
    int64_t c = h->c[h->len];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= h->len)
            break;
        int64_t s = l, r = l + 1;
        if (r < h->len &&
            (h->t[r] < h->t[l] || (h->t[r] == h->t[l] && h->c[r] < h->c[l])))
            s = r;
        if (h->t[s] < t || (h->t[s] == t && h->c[s] < c)) {
            h->t[i] = h->t[s];
            h->c[i] = h->c[s];
            i = s;
        } else
            break;
    }
    h->t[i] = t;
    h->c[i] = c;
}

/* ------------------------------------------------------------------ *
 * Ready queue: growable min-heap of int32 priority ranks (all unique).
 * ------------------------------------------------------------------ */
typedef struct {
    int32_t *d;
    int32_t len, cap;
} iheap;

static int ih_push(iheap *h, int32_t v) {
    if (h->len == h->cap) {
        int32_t cap = h->cap ? h->cap * 2 : 64;
        int32_t *d = (int32_t *)realloc(h->d, (size_t)cap * sizeof(int32_t));
        if (!d)
            return -1;
        h->d = d;
        h->cap = cap;
    }
    int32_t i = h->len++;
    h->d[i] = v;
    while (i > 0) {
        int32_t p = (i - 1) >> 1;
        if (h->d[p] < h->d[i])
            break;
        int32_t tmp = h->d[p]; h->d[p] = h->d[i]; h->d[i] = tmp;
        i = p;
    }
    return 0;
}

static int32_t ih_pop(iheap *h) {
    int32_t top = h->d[0];
    h->len--;
    if (h->len > 0) {
        int32_t v = h->d[h->len];
        int32_t i = 0;
        for (;;) {
            int32_t l = 2 * i + 1;
            if (l >= h->len)
                break;
            int32_t s = l, r = l + 1;
            if (r < h->len && h->d[r] < h->d[l])
                s = r;
            if (h->d[s] < v) {
                h->d[i] = h->d[s];
                i = s;
            } else
                break;
        }
        h->d[i] = v;
    }
    return top;
}

/* Schedule record entries (mirrored by repro.runtime.core's dtypes). */
typedef struct { int32_t task, node; double start, end; } task_rec;
typedef struct { int32_t producer, src, dst; double depart, arrival; } msg_rec;
typedef struct { double time; int32_t node, depth; } queue_rec;

/* ------------------------------------------------------------------ *
 * DAG builder: expand an elimination list into kernel tasks + CSR
 * predecessor arrays.  Mirrors TaskGraph.from_eliminations exactly
 * (task order, dependency order).  Kind codes follow the KernelKind
 * declaration order: GEQRT=0 UNMQR=1 TSQRT=2 TSMQR=3 TTQRT=4 TTMQR=5.
 *
 * Output arrays must be pre-sized by the caller: ntasks entries for the
 * per-task fields, 3*ntasks for pred_idx (each task has <= 3 deps).
 * Returns the number of predecessor edges written, or -1 on error.
 * ------------------------------------------------------------------ */
int64_t hqr_build_dag(
    int32_t m, int32_t n, int64_t nelims,
    const int32_t *e_panel, const int32_t *e_victim, const int32_t *e_killer,
    const uint8_t *e_ts,
    int64_t ntasks,
    int8_t *kind, int32_t *row, int32_t *panel, int32_t *col, int32_t *killer,
    int64_t *pred_ptr, int32_t *pred_idx)
{
    int32_t *last_writer = (int32_t *)malloc((size_t)m * n * sizeof(int32_t));
    uint8_t *triangled = (uint8_t *)calloc((size_t)m * n, 1);
    if (!last_writer || !triangled) {
        free(last_writer);
        free(triangled);
        return -1;
    }
    for (int64_t i = 0; i < (int64_t)m * n; i++)
        last_writer[i] = -1;

    int64_t tid = 0;   /* next task id */
    int64_t ne = 0;    /* predecessor edges written */
    pred_ptr[0] = 0;

#define EMIT(KIND, ROW, PANEL, KILLER, COL)                                   \
    do {                                                                      \
        int32_t c_ = (COL) < 0 ? (PANEL) : (COL);                             \
        int64_t dep0_ = ne;                                                   \
        if ((KILLER) >= 0) {                                                  \
            int64_t idx_ = (int64_t)(KILLER) * n + c_;                        \
            int32_t w_ = last_writer[idx_];                                   \
            if (w_ >= 0)                                                      \
                pred_idx[ne++] = w_;                                          \
            last_writer[idx_] = (int32_t)tid;                                 \
        }                                                                     \
        {                                                                     \
            int64_t idx_ = (int64_t)(ROW) * n + c_;                           \
            int32_t w_ = last_writer[idx_];                                   \
            if (w_ >= 0 && (ne == dep0_ || w_ != pred_idx[ne - 1]))           \
                pred_idx[ne++] = w_;                                          \
            last_writer[idx_] = (int32_t)tid;                                 \
        }                                                                     \
        kind[tid] = (KIND);                                                   \
        row[tid] = (ROW);                                                     \
        panel[tid] = (PANEL);                                                 \
        col[tid] = (COL);                                                     \
        killer[tid] = (KILLER);                                               \
        tid++;                                                                \
        pred_ptr[tid] = ne;                                                   \
    } while (0)

/* triangularize(row, panel): GEQRT + UNMQR row sweep, if not yet done */
#define TRIANGULARIZE(ROW, PANEL)                                             \
    do {                                                                      \
        int64_t tix_ = (int64_t)(ROW) * n + (PANEL);                          \
        if (!triangled[tix_]) {                                               \
            triangled[tix_] = 1;                                              \
            int32_t fact_ = (int32_t)tid;                                     \
            EMIT(0, (ROW), (PANEL), -1, -1); /* GEQRT */                      \
            for (int32_t col_ = (PANEL) + 1; col_ < n; col_++) {              \
                int64_t idx_ = (int64_t)(ROW) * n + col_;                     \
                int32_t w_ = last_writer[idx_];                               \
                pred_idx[ne++] = fact_;                                       \
                if (w_ >= 0)                                                  \
                    pred_idx[ne++] = w_;                                      \
                last_writer[idx_] = (int32_t)tid;                             \
                kind[tid] = 1; /* UNMQR */                                    \
                row[tid] = (ROW);                                             \
                panel[tid] = (PANEL);                                         \
                col[tid] = col_;                                              \
                killer[tid] = -1;                                             \
                tid++;                                                        \
                pred_ptr[tid] = ne;                                           \
            }                                                                 \
        }                                                                     \
    } while (0)

    for (int64_t e = 0; e < nelims; e++) {
        int32_t victim = e_victim[e], kil = e_killer[e], pan = e_panel[e];
        int8_t kkill, kupd;
        TRIANGULARIZE(kil, pan);
        if (e_ts[e]) {
            kkill = 2;  /* TSQRT */
            kupd = 3;   /* TSMQR */
        } else {
            TRIANGULARIZE(victim, pan);
            kkill = 4;  /* TTQRT */
            kupd = 5;   /* TTMQR */
        }
        int32_t kid = (int32_t)tid;
        EMIT(kkill, victim, pan, kil, -1);
        for (int32_t c = pan + 1; c < n; c++) {
            pred_idx[ne++] = kid;
            int64_t idx_k = (int64_t)kil * n + c;
            int32_t w = last_writer[idx_k];
            if (w >= 0)
                pred_idx[ne++] = w;
            last_writer[idx_k] = (int32_t)tid;
            int64_t idx_v = (int64_t)victim * n + c;
            w = last_writer[idx_v];
            if (w >= 0)
                pred_idx[ne++] = w;
            last_writer[idx_v] = (int32_t)tid;
            kind[tid] = kupd;
            row[tid] = victim;
            panel[tid] = pan;
            col[tid] = c;
            killer[tid] = kil;
            tid++;
            pred_ptr[tid] = ne;
        }
    }

    if (m <= n)
        TRIANGULARIZE(m - 1, m - 1);

#undef TRIANGULARIZE
#undef EMIT

    free(last_writer);
    free(triangled);
    if (tid != ntasks)
        return -2; /* caller's task count disagrees: bug */
    return ne;
}

/* ------------------------------------------------------------------ *
 * Cluster event loop.  Mirrors repro.runtime.core._py_loop exactly.
 * Event codes: t = "t finished on a core", ntasks + t = "t finished on
 * an accelerator", 2*ntasks + t = "data arrival completed t's inputs".
 *
 * Accelerator pool (accs_per_node > 0): each node also has accs_per_node
 * devices.  acc_dur[t] >= 0 marks t offloadable (its device seconds);
 * CPU-only tasks carry a negative value.  Offloadable tasks queue in a
 * second per-node heap; they prefer an idle accelerator, a freed core
 * takes a CPU-only task first and then steals an offloadable one, and a
 * freed accelerator takes only offloadable tasks.  With no pool acc_dur
 * may be NULL and every pool branch is skipped by one invariant test.
 * The schedule record — task intervals in launch order, messages in send
 * order, ready-queue depth changes: exactly the entries the Python loop
 * appends to its lists — goes to rec_task, rec_msg and rec_queue when
 * rec_len is not NULL.  rec_len[0..2] are their capacities, and
 * rec_len[3..5] receive the entries written.
 * Returns 0 (ok), 1 (stalled), 2 (record full), -1 (alloc fail).
 * ------------------------------------------------------------------ */
int32_t hqr_simulate_cluster(
    int64_t ntasks, int32_t nnodes, int32_t cores_per_node,
    const double *dur, const int32_t *node_of, const int32_t *waiting_init,
    const int64_t *succ_ptr, const int32_t *succ_idx,
    const int32_t *edge_slot, int64_t nslots,
    const int32_t *rank, const int32_t *task_of_rank,
    int32_t serialized, int32_t hierarchical,
    double lat_intra, double bwt_intra, double lat_inter, double bwt_inter,
    const int32_t *site_of, int32_t data_reuse,
    int32_t accs_per_node, const double *acc_dur,
    task_rec *rec_task, msg_rec *rec_msg, queue_rec *rec_queue,
    int64_t *rec_len,
    double *out_makespan, double *out_busy, int64_t *out_messages)
{
    int32_t rc = -1;
    const int pooled = accs_per_node > 0;
    int32_t *waiting = NULL, *free_cores = NULL, *free_accs = NULL;
    int32_t *queued = NULL; /* ready-queue depth per node (record only) */
    double *data_ready = NULL, *chan_free = NULL, *slot_arrival = NULL;
    uint8_t *state = NULL;
    iheap *ready = NULL, *accq = NULL;
    evheap ev = {NULL, NULL, 0};

    waiting = (int32_t *)malloc((size_t)ntasks * sizeof(int32_t));
    data_ready = (double *)calloc((size_t)ntasks, sizeof(double));
    free_cores = (int32_t *)malloc((size_t)nnodes * sizeof(int32_t));
    queued = (int32_t *)calloc((size_t)nnodes, sizeof(int32_t));
    chan_free = (double *)calloc((size_t)nnodes, sizeof(double));
    slot_arrival = (double *)malloc((size_t)(nslots > 0 ? nslots : 1) * sizeof(double));
    state = (uint8_t *)calloc((size_t)ntasks, 1);
    ready = (iheap *)calloc((size_t)nnodes, sizeof(iheap));
    ev.t = (double *)malloc((size_t)(2 * ntasks + 4) * sizeof(double));
    ev.c = (int64_t *)malloc((size_t)(2 * ntasks + 4) * sizeof(int64_t));
    if (!waiting || !data_ready || !free_cores || !queued || !chan_free ||
        !slot_arrival || !state || !ready || !ev.t || !ev.c)
        goto done;
    if (pooled) {
        free_accs = (int32_t *)malloc((size_t)nnodes * sizeof(int32_t));
        accq = (iheap *)calloc((size_t)nnodes, sizeof(iheap));
        if (!free_accs || !accq)
            goto done;
        for (int32_t i = 0; i < nnodes; i++)
            free_accs[i] = accs_per_node;
    }

    memcpy(waiting, waiting_init, (size_t)ntasks * sizeof(int32_t));
    for (int32_t i = 0; i < nnodes; i++)
        free_cores[i] = cores_per_node;
    for (int64_t i = 0; i < nslots; i++)
        slot_arrival[i] = -1.0;

    double busy = 0.0, finish_time = 0.0;
    int64_t messages = 0;

#define OFFLOADABLE(T) (pooled && acc_dur[T] >= 0.0)
/* append ENTRY to record family F; a full family ends the run (rc 2) */
#define RECORD(F, ARR, ENTRY)                                                 \
    do {                                                                      \
        if (rec_len[3 + (F)] >= rec_len[F]) {                                 \
            rc = 2;                                                           \
            goto done;                                                        \
        }                                                                     \
        (ARR)[rec_len[3 + (F)]++] = ENTRY;                                    \
    } while (0)

/* D is the duration, BASE the event-code offset (0 core, ntasks device) */
#define LAUNCH(T, START, D, BASE)                                             \
    do {                                                                      \
        state[T] = 2;                                                         \
        double end_ = (START) + (D);                                          \
        busy += (D);                                                          \
        if (end_ > finish_time)                                               \
            finish_time = end_;                                               \
        ev_push(&ev, end_, (BASE) + (int64_t)(T));                            \
        if (rec_len)                                                          \
            RECORD(0, rec_task,                                               \
                   ((task_rec){(int32_t)(T), node_of[T], (START), end_}));    \
    } while (0)

/* a queued task left or joined NODE's ready queues at NOW */
#define QUEUE_DEPTH(NOW, NODE, DELTA)                                         \
    do {                                                                      \
        if (rec_len) {                                                        \
            queued[NODE] += (DELTA);                                          \
            RECORD(2, rec_queue, ((queue_rec){(NOW), (NODE), queued[NODE]})); \
        }                                                                     \
    } while (0)

#define TRY_START(T, NOW)                                                     \
    do {                                                                      \
        int32_t node_ = node_of[T];                                           \
        double start_ = data_ready[T] > (NOW) ? data_ready[T] : (NOW);        \
        int off_ = OFFLOADABLE(T);                                            \
        if (off_ && free_accs[node_] > 0) {                                   \
            free_accs[node_]--;                                               \
            LAUNCH(T, start_, acc_dur[T], ntasks);                            \
        } else if (free_cores[node_] > 0) {                                   \
            free_cores[node_]--;                                              \
            LAUNCH(T, start_, dur[T], 0);                                     \
        } else {                                                              \
            state[T] = 1;                                                     \
            if (ih_push(off_ ? &accq[node_] : &ready[node_], rank[T]) < 0)    \
                goto done;                                                    \
            QUEUE_DEPTH((NOW), node_, 1);                                     \
        }                                                                     \
    } while (0)

/* lazy-deletion pop of the first still-queued task, -1 when none */
#define POP_READY(H, OUT)                                                     \
    do {                                                                      \
        while ((H)->len > 0) {                                                \
            int32_t cand_ = task_of_rank[ih_pop(H)];                          \
            if (state[cand_] == 1) {                                          \
                (OUT) = cand_;                                                \
                break;                                                        \
            }                                                                 \
        }                                                                     \
    } while (0)

    for (int64_t t = 0; t < ntasks; t++)
        if (waiting[t] == 0)
            TRY_START(t, 0.0);

    while (ev.len > 0) {
        double now;
        int64_t code;
        ev_pop(&ev, &now, &code);
        if (code >= 2 * ntasks) {
            int64_t t = code - 2 * ntasks;
            TRY_START(t, now);
            continue;
        }
        int64_t t, nxt = -1;
        int32_t node;
        if (pooled && code >= ntasks) {
            /* accelerator freed: only offloadable tasks may take it */
            t = code - ntasks;
            node = node_of[t];
            POP_READY(&accq[node], nxt);
            if (nxt >= 0) {
                QUEUE_DEPTH(now, node, -1);
                LAUNCH(nxt, now, acc_dur[nxt], ntasks);
            } else
                free_accs[node]++;
        } else {
            /* core freed: start the next ready task */
            t = code;
            node = node_of[t];
            if (data_reuse) {
                int64_t best = -1;
                for (int64_t i = succ_ptr[t]; i < succ_ptr[t + 1]; i++) {
                    int32_t s = succ_idx[i];
                    if (state[s] == 1 && node_of[s] == node &&
                        data_ready[s] <= now &&
                        (best < 0 || rank[s] < rank[best]))
                        best = s;
                }
                nxt = best;
            }
            if (nxt < 0)
                POP_READY(&ready[node], nxt);
            if (nxt < 0 && pooled)
                POP_READY(&accq[node], nxt); /* steal an offloadable task */
            if (nxt >= 0) {
                QUEUE_DEPTH(now, node, -1);
                double st = data_ready[nxt] > now ? data_ready[nxt] : now;
                LAUNCH(nxt, st, dur[nxt], 0);
            } else
                free_cores[node]++;
        }
        /* propagate data to successors */
        for (int64_t i = succ_ptr[t]; i < succ_ptr[t + 1]; i++) {
            int32_t s = succ_idx[i];
            int32_t slot = edge_slot[i];
            double arrival;
            if (slot < 0)
                arrival = now;
            else {
                arrival = slot_arrival[slot];
                if (arrival < 0) {
                    int32_t dest = node_of[s];
                    double lat, bwt;
                    if (hierarchical && site_of[node] != site_of[dest]) {
                        lat = lat_inter;
                        bwt = bwt_inter;
                    } else {
                        lat = lat_intra;
                        bwt = bwt_intra;
                    }
                    double depart = now;
                    if (serialized) {
                        if (chan_free[node] > depart)
                            depart = chan_free[node];
                        if (chan_free[dest] > depart)
                            depart = chan_free[dest];
                        chan_free[node] = depart + bwt;
                        chan_free[dest] = depart + bwt;
                        arrival = depart + lat + bwt;
                    } else
                        arrival = now + lat + bwt;
                    slot_arrival[slot] = arrival;
                    messages++;
                    if (rec_len)
                        RECORD(1, rec_msg, ((msg_rec){(int32_t)t, node, dest,
                                                      depart, arrival}));
                }
            }
            if (arrival > data_ready[s])
                data_ready[s] = arrival;
            if (--waiting[s] == 0) {
                double avail = data_ready[s];
                if (avail <= now)
                    TRY_START(s, now);
                else
                    ev_push(&ev, avail, 2 * ntasks + (int64_t)s);
            }
        }
    }

#undef POP_READY
#undef TRY_START
#undef QUEUE_DEPTH
#undef LAUNCH
#undef RECORD
#undef OFFLOADABLE

    rc = 0;
    for (int64_t t = 0; t < ntasks; t++)
        if (waiting[t] > 0) {
            rc = 1;
            break;
        }
    *out_makespan = finish_time;
    *out_busy = busy;
    *out_messages = messages;

done:
    if (ready)
        for (int32_t i = 0; i < nnodes; i++)
            free(ready[i].d);
    if (accq)
        for (int32_t i = 0; i < nnodes; i++)
            free(accq[i].d);
    free(ready);
    free(accq);
    free(waiting);
    free(data_ready);
    free(free_cores);
    free(free_accs);
    free(queued);
    free(chan_free);
    free(slot_arrival);
    free(state);
    free(ev.t);
    free(ev.c);
    return rc;
}

/* ------------------------------------------------------------------ *
 * Batched cluster loop: many independent sweep points in one call.
 *
 * The points share one concatenated structure-of-arrays arena:
 * task_off/edge_off/slot_off are (npoints+1) prefix-sum offsets into the
 * per-task, per-edge and per-slot arrays; point p's succ_ptr slice lives
 * at succ_ptr + task_off[p] + p (each point contributes ntasks+1
 * entries) and holds point-local edge indices.  Durations are gathered
 * per point from a shared npoints x 6 kernel-kind table, so the caller
 * ships 6 doubles per point instead of ntasks.
 *
 * Each point runs the exact scalar hqr_simulate_cluster — points are
 * fully independent, so the OpenMP fan-out (enabled when the library was
 * built with -fopenmp; nthreads <= 0 means the OpenMP default) is
 * bit-identical to the serial loop.  Per-point rc codes land in out_rc;
 * the return value is 0 only when every point succeeded.
 * ------------------------------------------------------------------ */
int32_t hqr_simulate_cluster_batch(
    int64_t npoints, int32_t nthreads,
    const int64_t *task_off, const int64_t *edge_off, const int64_t *slot_off,
    int32_t nnodes, int32_t cores_per_node,
    const double *dur_tables, const int8_t *kind,
    const int32_t *node_of, const int32_t *waiting_init,
    const int64_t *succ_ptr, const int32_t *succ_idx,
    const int32_t *edge_slot,
    const int32_t *rank, const int32_t *task_of_rank,
    int32_t serialized, int32_t hierarchical,
    double lat_intra, double bwt_intra, double lat_inter, double bwt_inter,
    const int32_t *site_of, int32_t data_reuse,
    double *out_makespan, double *out_busy, int64_t *out_messages,
    int32_t *out_rc)
{
    int64_t p;
#ifdef _OPENMP
    int nt = nthreads > 0 ? nthreads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic) num_threads(nt)
#endif
    for (p = 0; p < npoints; p++) {
        int64_t t0 = task_off[p];
        int64_t ntasks = task_off[p + 1] - t0;
        const double *table = dur_tables + 6 * p;
        double *dur =
            (double *)malloc((size_t)(ntasks > 0 ? ntasks : 1) * sizeof(double));
        if (!dur) {
            out_rc[p] = -1;
            continue;
        }
        for (int64_t t = 0; t < ntasks; t++)
            dur[t] = table[kind[t0 + t]];
        out_rc[p] = hqr_simulate_cluster(
            ntasks, nnodes, cores_per_node, dur,
            node_of + t0, waiting_init + t0,
            succ_ptr + t0 + p, succ_idx + edge_off[p],
            edge_slot + edge_off[p], slot_off[p + 1] - slot_off[p],
            rank + t0, task_of_rank + t0,
            serialized, hierarchical,
            lat_intra, bwt_intra, lat_inter, bwt_inter,
            site_of, data_reuse, 0, NULL, NULL, NULL, NULL, NULL,
            out_makespan + p, out_busy + p, out_messages + p);
        free(dur);
    }
    for (p = 0; p < npoints; p++)
        if (out_rc[p] != 0)
            return 1;
    return 0;
}
"""

_lib: ctypes.CDLL | None = None
_lib_tried = False


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), sysconfig.get_config_var("CC"), "cc", "gcc"):
        if not cand:
            continue
        prog = cand.split()[0]
        from shutil import which

        if which(prog):
            return cand
    return None


def _build() -> ctypes.CDLL | None:
    cc = _compiler()
    if cc is None:
        return None
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    libdir = cache_root() / "ccore"
    sopath = libdir / f"hqr_ccore_{digest}.so"
    if not sopath.exists():
        try:
            libdir.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=libdir) as tmp:
                src = Path(tmp) / "hqr_ccore.c"
                src.write_text(_C_SOURCE)
                out = Path(tmp) / "hqr_ccore.so"
                flags = [
                    "-O2",
                    "-fPIC",
                    "-shared",
                    "-ffp-contract=off",
                    str(src),
                    "-o",
                    str(out),
                ]
                # OpenMP is optional: it only fans the *batch* loop out
                # over sweep points (each point is bit-identical either
                # way), so a toolchain without libgomp just loses the
                # thread-level parallelism, not correctness
                built = False
                for extra in (["-fopenmp"], []):
                    try:
                        subprocess.run(
                            cc.split() + extra + flags,
                            check=True, capture_output=True, timeout=120,
                        )
                        built = True
                        break
                    except subprocess.CalledProcessError:
                        continue
                if not built:
                    return None
                os.replace(out, sopath)  # atomic publish
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(str(sopath))
    except OSError:
        return None

    i8p = ctypes.POINTER(ctypes.c_int8)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    i32p = ctypes.POINTER(ctypes.c_int32)
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    vp = ctypes.c_void_p
    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double

    lib.hqr_build_dag.restype = i64
    lib.hqr_build_dag.argtypes = [
        i32, i32, i64, i32p, i32p, i32p, u8p,
        i64, i8p, i32p, i32p, i32p, i32p, i64p, i32p,
    ]
    lib.hqr_simulate_cluster.restype = i32
    lib.hqr_simulate_cluster.argtypes = [
        i64, i32, i32, f64p, i32p, i32p, i64p, i32p, i32p, i64,
        i32p, i32p, i32, i32, f64, f64, f64, f64, i32p, i32,
        i32, f64p, vp, vp, vp, i64p, f64p, f64p, i64p,
    ]
    lib.hqr_openmp.restype = i32
    lib.hqr_openmp.argtypes = []
    lib.hqr_simulate_cluster_batch.restype = i32
    lib.hqr_simulate_cluster_batch.argtypes = [
        i64, i32, i64p, i64p, i64p, i32, i32,
        f64p, i8p, i32p, i32p, i64p, i32p, i32p,
        i32p, i32p, i32, i32, f64, f64, f64, f64, i32p, i32,
        f64p, f64p, i64p, i32p,
    ]
    return lib


def get_lib() -> ctypes.CDLL | None:
    """The compiled core library, building it on first use (None if
    unavailable — no compiler, or ``REPRO_SIM_CORE=python``)."""
    global _lib, _lib_tried
    if os.environ.get("REPRO_SIM_CORE", "").lower() == "python":
        return None
    if not _lib_tried:
        _lib_tried = True
        import time as _time

        t0 = _time.perf_counter()
        _lib = _build()
        # observability note for the native-core shim: first-use builds
        # of the shared library are a real wall-time cost worth seeing
        from repro.obs.events import active as _obs_active

        rec = _obs_active()
        if rec is not None:
            rec.note(
                "ccore_load",
                seconds=_time.perf_counter() - t0,
                available=_lib is not None,
            )
    return _lib


def native_available() -> bool:
    """True when the C core can be (or has been) loaded."""
    return get_lib() is not None


def openmp_available() -> bool:
    """True when the loaded native core was built with OpenMP.

    Queried from the library itself (``hqr_openmp``) rather than from the
    build flags, so a cached ``.so`` compiled by an earlier process
    reports its actual capability.
    """
    lib = get_lib()
    return bool(lib is not None and lib.hqr_openmp())
