/* _stsearch — native expansion loop for repro.pathfinding.st_astar.
 *
 * Implements the packed-integer spatiotemporal A* core (bucket queue
 * over a per-call hash map of touched states, per-tick reservation
 * probes) in C, with results bit-identical to st_astar._search_heap:
 *
 *   - FIFO order  == _search_heap, deep=False  (floors below the gate)
 *   - deep order  == _search_heap, deep=True   (paper-scale floors)
 *
 * "Bit-identical" covers expansion order, tie breaking, the produced
 * path, and every SearchStats counter.  The FIFO bucket order reproduces
 * the heap's (f, tie) order; the deep-tie order (f, -g, tie) is realised
 * as per-f sub-buckets indexed by h = f - g, consumed smallest-h (i.e.
 * deepest-g) first, FIFO within a sub-bucket.  A state is pushed once
 * (its g is its layer), so nothing in a bucket is ever stale; a field
 * that is not consistent would push behind the cursor and is refused
 * with AssertionError where it shows.  Everything a search allocates is
 * freed before run() returns, so a search started from inside a
 * finisher is just another call.
 *
 * A swap on the move a -> b departing t needs a partner arriving on a at
 * t + 1 (ReservationTable's contract), so the edge set is asked only
 * where that vertex is taken: run() by its own wait probe, probe_move()
 * — the tier-0 audit and the rescue — by one more vertex probe.
 *
 * Reservation probes read the library's three table layouts (probe
 * modes 1, 2 and 4 below) and nothing else: a table without a mode is
 * served by the python bodies, never called back from here.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GRID_CAPSULE_NAME "repro.pathfinding._kernel.grid"

/* sha256 of this file, passed in by build.py / setup.py.  build.py looks
 * for the digest in the binary to tell whether it was compiled from the
 * source beside it; a binary built without the flag never matches. */
#ifndef STSEARCH_SOURCE_SHA256
#define STSEARCH_SOURCE_SHA256 "unstamped"
#endif

/* Cell-key packing, mirrored from repro.types (x << 16 | y). */
#define CELL_KEY_SHIFT 16
#define CELL_KEY_MASK 0xFFFF

/* Probe modes, mirrored from ReservationTable.kernel_probe_spec(). */
enum {
    /* 0 was generic probe callables, 3 a tiled CDT; neither is reused. */
    PROBE_CDT = 1,          /* ({t: set(key)}, {t: set(edge)})           */
    PROBE_DENSE = 2,        /* ({t: bytearray[ci]}, {t: set(edge)})      */
    PROBE_TILED_DENSE = 4,  /* ({t: {tile: bytearray}}, {t: set(edge)})  */
};

/* run() statuses, mapped to SearchOutcome by the python wrapper. */
enum {
    ST_COMPLETE = 0,
    ST_BUDGET = 1,
    ST_EXHAUSTED = 2,
    ST_FINISHER = 4,   /* finisher produced the tail; head keys attached */
};

/* ------------------------------------------------------------------ */
/* Packed legs.  A leg crosses the boundary as one buffer of int64     */
/* cell keys, one per consecutive tick (paths.Path.keys): run and      */
/* tier0_leg hand out an array('q'), reserve_path takes any contiguous */
/* int64 buffer.  keys_check is the one statement of the path rule on  */
/* this side — the rule Path(steps) applies to tuples — and every      */
/* buffer passes it on its way in or out.                              */
/* ------------------------------------------------------------------ */

static PyObject *array_type;  /* array.array, held for the module's life */

/* At least one step, every key a cell (both halves within 16 bits),
 * consecutive keys a wait or a unit cardinal move. */
static int
keys_check(const int64_t *keys, Py_ssize_t n)
{
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "a path must contain at least one step");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (keys[i] < 0 || keys[i] >> (2 * CELL_KEY_SHIFT) != 0) {
            PyErr_Format(PyExc_ValueError,
                         "step %zd is not a packed cell key", i);
            return -1;
        }
        if (i == 0)
            continue;
        int64_t dx = (keys[i] >> CELL_KEY_SHIFT)
            - (keys[i - 1] >> CELL_KEY_SHIFT);
        int64_t dy = (keys[i] & CELL_KEY_MASK)
            - (keys[i - 1] & CELL_KEY_MASK);
        if ((dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy) > 1) {
            PyErr_Format(PyExc_ValueError,
                         "illegal jump at step %zd in one tick", i);
            return -1;
        }
    }
    return 0;
}

/* The checked hand-off of a kernel-made leg: a new array('q'). */
static PyObject *
keys_export(const int64_t *keys, Py_ssize_t n)
{
    if (keys_check(keys, n) < 0)
        return NULL;
    return PyObject_CallFunction(array_type, "sy#", "q", (const char *)keys,
                                 n * (Py_ssize_t)sizeof(int64_t));
}

/* ------------------------------------------------------------------ */
/* Prepared grid: CSR adjacency + cached per-cell key objects, filled  */
/* here from the grid's blocked mask (mask[x * H + y] != 0 is a wall). */
/* Rows list passable neighbours in the order Grid.neighbours yields   */
/* them, (x+1, x-1, y+1, y-1); a blocked cell's row is empty.          */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_ssize_t n_cells;
    int64_t height;
    Py_ssize_t *adj_off;   /* n_cells + 1 offsets into adj_nci */
    int32_t *adj_nci;
    int64_t *cell_keys;
    PyObject **key_objs;   /* owned PyLong per cell's packed key */
} GridData;

static void
grid_data_free(GridData *gd)
{
    if (gd->key_objs != NULL) {
        for (Py_ssize_t i = 0; i < gd->n_cells; i++)
            Py_XDECREF(gd->key_objs[i]);
        PyMem_Free(gd->key_objs);
    }
    PyMem_Free(gd->adj_off);
    PyMem_Free(gd->adj_nci);
    PyMem_Free(gd->cell_keys);
    PyMem_Free(gd);
}

static void
grid_capsule_destroy(PyObject *capsule)
{
    GridData *gd = PyCapsule_GetPointer(capsule, GRID_CAPSULE_NAME);
    if (gd != NULL)
        grid_data_free(gd);
}

static PyObject *
stsearch_prepare_grid(PyObject *self, PyObject *args)
{
    (void)self;
    long long width, height;
    Py_buffer mask;
    if (!PyArg_ParseTuple(args, "LLy*:prepare_grid", &width, &height, &mask))
        return NULL;
    /* Both coordinates must fit the 16-bit halves of a packed key, which
     * also keeps a flat index inside int32. */
    if (width <= 0 || height <= 0
            || width > CELL_KEY_MASK + 1 || height > CELL_KEY_MASK + 1
            || width * height > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "grid dimensions out of range");
        goto fail;
    }
    Py_ssize_t n_cells = (Py_ssize_t)(width * height);
    if (mask.len != n_cells) {
        PyErr_SetString(PyExc_ValueError,
                        "blocked mask must hold width * height bytes");
        goto fail;
    }
    const unsigned char *wall = mask.buf;

    GridData *gd = PyMem_Calloc(1, sizeof(GridData));
    if (gd == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    gd->n_cells = n_cells;
    gd->height = (int64_t)height;
    gd->adj_off = PyMem_Malloc((n_cells + 1) * sizeof(Py_ssize_t));
    gd->adj_nci = PyMem_Malloc(4 * n_cells * sizeof(int32_t));
    gd->cell_keys = PyMem_Malloc(n_cells * sizeof(int64_t));
    gd->key_objs = PyMem_Calloc(n_cells, sizeof(PyObject *));
    if (gd->adj_off == NULL || gd->adj_nci == NULL
            || gd->cell_keys == NULL || gd->key_objs == NULL) {
        PyErr_NoMemory();
        goto gd_fail;
    }

    Py_ssize_t at = 0, ci = 0;
    for (long long x = 0; x < width; x++) {
        for (long long y = 0; y < height; y++, ci++) {
            gd->adj_off[ci] = at;
            gd->cell_keys[ci] = (int64_t)((x << CELL_KEY_SHIFT) | y);
            gd->key_objs[ci] = PyLong_FromLongLong(gd->cell_keys[ci]);
            if (gd->key_objs[ci] == NULL)
                goto gd_fail;
            if (wall[ci])
                continue;
            if (x + 1 < width && !wall[ci + height])
                gd->adj_nci[at++] = (int32_t)(ci + height);
            if (x > 0 && !wall[ci - height])
                gd->adj_nci[at++] = (int32_t)(ci - height);
            if (y + 1 < height && !wall[ci + 1])
                gd->adj_nci[at++] = (int32_t)(ci + 1);
            if (y > 0 && !wall[ci - 1])
                gd->adj_nci[at++] = (int32_t)(ci - 1);
        }
    }
    gd->adj_off[n_cells] = at;

    PyObject *capsule = PyCapsule_New(gd, GRID_CAPSULE_NAME,
                                      grid_capsule_destroy);
    if (capsule == NULL)
        goto gd_fail;
    PyBuffer_Release(&mask);
    return capsule;

gd_fail:
    grid_data_free(gd);
fail:
    PyBuffer_Release(&mask);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Open-set containers.                                                */
/* ------------------------------------------------------------------ */

typedef struct {           /* one FIFO list of packed rel-states */
    int64_t *items;
    Py_ssize_t len, cap, pos;
} Bucket;

typedef struct {           /* per-f bucket array (FIFO / seed order) */
    Bucket *b;
    Py_ssize_t len, cap;
} BArray;

typedef struct {           /* per-f sub-buckets by h (deep-tie order) */
    Bucket *by_h;
    Py_ssize_t h_len, h_cap;
    int64_t lo_h;          /* smallest h with possibly-unread entries */
    int64_t live;          /* unread entries across all sub-buckets */
} FBucket;

typedef struct {
    FBucket *b;
    Py_ssize_t len, cap;
} FBArray;

static int
bucket_push(Bucket *bk, int64_t value)
{
    if (bk->len == bk->cap) {
        Py_ssize_t ncap = bk->cap ? bk->cap * 2 : 8;
        int64_t *ni = PyMem_Realloc(bk->items, ncap * sizeof(int64_t));
        if (ni == NULL)
            return -1;
        bk->items = ni;
        bk->cap = ncap;
    }
    bk->items[bk->len++] = value;
    return 0;
}

static int
barray_ensure(BArray *ba, Py_ssize_t f)
{
    if (f < ba->len)
        return 0;
    if (f >= ba->cap) {
        Py_ssize_t ncap = ba->cap ? ba->cap : 16;
        while (ncap <= f)
            ncap *= 2;
        Bucket *nb = PyMem_Realloc(ba->b, ncap * sizeof(Bucket));
        if (nb == NULL)
            return -1;
        ba->b = nb;
        ba->cap = ncap;
    }
    memset(ba->b + ba->len, 0, (f + 1 - ba->len) * sizeof(Bucket));
    ba->len = f + 1;
    return 0;
}

static void
barray_free_items(BArray *ba)
{
    for (Py_ssize_t i = 0; i < ba->len; i++)
        PyMem_Free(ba->b[i].items);
    PyMem_Free(ba->b);
    ba->b = NULL;
    ba->len = ba->cap = 0;
}

static int
fbarray_ensure(FBArray *fa, Py_ssize_t f)
{
    if (f < fa->len)
        return 0;
    if (f >= fa->cap) {
        Py_ssize_t ncap = fa->cap ? fa->cap : 16;
        while (ncap <= f)
            ncap *= 2;
        FBucket *nb = PyMem_Realloc(fa->b, ncap * sizeof(FBucket));
        if (nb == NULL)
            return -1;
        fa->b = nb;
        fa->cap = ncap;
    }
    for (Py_ssize_t i = fa->len; i <= f; i++) {
        memset(&fa->b[i], 0, sizeof(FBucket));
        fa->b[i].lo_h = INT64_MAX;
    }
    fa->len = f + 1;
    return 0;
}

static int
fbucket_ensure_h(FBucket *fb, Py_ssize_t h)
{
    if (h < fb->h_len)
        return 0;
    if (h >= fb->h_cap) {
        Py_ssize_t ncap = fb->h_cap ? fb->h_cap : 8;
        while (ncap <= h)
            ncap *= 2;
        Bucket *nb = PyMem_Realloc(fb->by_h, ncap * sizeof(Bucket));
        if (nb == NULL)
            return -1;
        fb->by_h = nb;
        fb->h_cap = ncap;
    }
    memset(fb->by_h + fb->h_len, 0, (h + 1 - fb->h_len) * sizeof(Bucket));
    fb->h_len = h + 1;
    return 0;
}

static void
fbarray_free(FBArray *fa)
{
    for (Py_ssize_t i = 0; i < fa->len; i++) {
        FBucket *fb = &fa->b[i];
        for (Py_ssize_t h = 0; h < fb->h_len; h++)
            PyMem_Free(fb->by_h[h].items);
        PyMem_Free(fb->by_h);
    }
    PyMem_Free(fa->b);
    fa->b = NULL;
    fa->len = fa->cap = 0;
}

/* ------------------------------------------------------------------ */
/* Open-addressing map of the states a search has seen: one record per */
/* state, its key and the state it was first reached from.  A state is */
/* layer * n_cells + cell and every action costs one tick, so a        */
/* state's g is its layer and is read off the key, never stored.       */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t key;       /* -1 == empty (rel states are non-negative) */
    int64_t parent;
} HEntry;

typedef struct {
    HEntry *e;
    Py_ssize_t cap, mask, used;
} HMap;

static int
hmap_init(HMap *m, Py_ssize_t cap)
{
    m->cap = cap;
    m->mask = cap - 1;
    m->used = 0;
    m->e = PyMem_Malloc(cap * sizeof(HEntry));
    if (m->e == NULL)
        return -1;
    memset(m->e, 0xFF, cap * sizeof(HEntry));  /* every key -1 */
    return 0;
}

static void
hmap_free(HMap *m)
{
    PyMem_Free(m->e);
    m->e = NULL;
}

static inline Py_ssize_t
hmap_slot(const HMap *m, int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    Py_ssize_t i = (Py_ssize_t)((h ^ (h >> 29)) & (uint64_t)m->mask);
    while (m->e[i].key != -1 && m->e[i].key != key)
        i = (i + 1) & m->mask;
    return i;
}

static int
hmap_grow(HMap *m)
{
    HMap bigger;
    if (hmap_init(&bigger, m->cap * 2) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < m->cap; i++) {
        if (m->e[i].key != -1)
            bigger.e[hmap_slot(&bigger, m->e[i].key)] = m->e[i];
    }
    bigger.used = m->used;
    hmap_free(m);
    *m = bigger;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Reservation probes.                                                 */
/* ------------------------------------------------------------------ */

typedef struct {
    int mode;
    int tile_bits;
    PyObject *vertex_obj;  /* borrowed from args */
    PyObject *edge_obj;    /* borrowed from args */
    /* per-expansion context */
    int64_t t1;            /* the arrival tick probe_setup was given */
    PyObject *occupied;    /* borrowed: mode 1 vertex set for t1 */
    const char *layer1;    /* mode 2 dense layer bytes for t1 */
    Py_ssize_t layer1_len;
    PyObject *layer_tiles; /* borrowed: mode 4 tile dict for t1 */
    PyObject *swaps;       /* borrowed: modes 1, 2, 4 edge set for t1 - 1 */
    PyObject *t1_obj;      /* owned */
    PyObject *t0_obj;      /* owned; made by the tick's first probe_edge */
    int64_t memo_tile_id;  /* mode 4 last-tile memo */
    PyObject *memo_tile;   /* borrowed */
} Probe;

static inline int64_t
tile_of_key(int64_t key, int bits)
{
    return ((key >> (CELL_KEY_SHIFT + bits)) << CELL_KEY_SHIFT)
        | ((key & CELL_KEY_MASK) >> bits);
}

static void
probe_init(Probe *p, int mode, int tile_bits, PyObject *vertex_obj,
           PyObject *edge_obj)
{
    memset(p, 0, sizeof(Probe));
    p->mode = mode;
    p->tile_bits = tile_bits;
    p->vertex_obj = vertex_obj;
    p->edge_obj = edge_obj;
    p->memo_tile_id = -1;
}

/* The probe modes every entry point serves: exactly 1, 2 and 4, over
 * dict containers.  A mode outside them raises ValueError before any
 * container is read or written. */
static int
mut_check_args(int mode, PyObject *vertex_obj, PyObject *edge_obj,
               int tile_bits)
{
    if (mode != PROBE_CDT && mode != PROBE_DENSE
            && mode != PROBE_TILED_DENSE) {
        PyErr_SetString(PyExc_ValueError, "unknown probe mode");
        return -1;
    }
    if (tile_bits < 0 || tile_bits > CELL_KEY_SHIFT) {
        PyErr_SetString(PyExc_ValueError, "tile_bits out of range");
        return -1;
    }
    if (!PyDict_Check(vertex_obj) || !PyDict_Check(edge_obj)) {
        PyErr_SetString(PyExc_TypeError,
                        "vertex/edge containers must be dicts");
        return -1;
    }
    return 0;
}

/* Fetch the per-tick context for one expansion.  The swap set of the
 * departure tick is left to the first probe_edge: a tick whose wait is
 * granted never asks for it.  Returns -1 on error. */
static int
probe_setup(Probe *p, int64_t t1)
{
    p->t1 = t1;
    p->occupied = NULL;
    p->layer1 = NULL;
    p->layer_tiles = NULL;
    p->swaps = NULL;
    p->t0_obj = NULL;
    p->memo_tile_id = -1;  /* memo is per time layer */
    p->t1_obj = PyLong_FromLongLong((long long)t1);
    if (p->t1_obj == NULL)
        return -1;
    switch (p->mode) {
    case PROBE_CDT:
        p->occupied = PyDict_GetItemWithError(p->vertex_obj, p->t1_obj);
        if (p->occupied == NULL && PyErr_Occurred())
            return -1;
        break;
    case PROBE_DENSE: {
        PyObject *layer = PyDict_GetItemWithError(p->vertex_obj, p->t1_obj);
        if (layer == NULL) {
            if (PyErr_Occurred())
                return -1;
        } else {
            if (!PyByteArray_Check(layer)) {
                PyErr_SetString(PyExc_TypeError,
                                "dense layer is not a bytearray");
                return -1;
            }
            p->layer1 = PyByteArray_AS_STRING(layer);
            p->layer1_len = PyByteArray_GET_SIZE(layer);
        }
        break;
    }
    case PROBE_TILED_DENSE:
        p->layer_tiles = PyDict_GetItemWithError(p->vertex_obj, p->t1_obj);
        if (p->layer_tiles == NULL && PyErr_Occurred())
            return -1;
        break;
    }
    return 0;
}

static void
probe_teardown(Probe *p)
{
    Py_CLEAR(p->t1_obj);
    Py_CLEAR(p->t0_obj);
    p->occupied = NULL;
    p->layer1 = NULL;
    p->layer_tiles = NULL;
    p->swaps = NULL;
}

/* Whether arriving on cell ``ci`` at t1 hits a vertex reservation.
 * Returns 1 blocked, 0 free, -1 error. */
static int
probe_vertex(Probe *p, const GridData *gd, Py_ssize_t ci)
{
    switch (p->mode) {
    case PROBE_CDT:
        if (p->occupied == NULL)
            return 0;
        return PySet_Contains(p->occupied, gd->key_objs[ci]);
    case PROBE_DENSE:
        if (p->layer1 == NULL)
            return 0;
        if (ci >= p->layer1_len) {
            PyErr_SetString(PyExc_IndexError,
                            "cell index outside dense layer");
            return -1;
        }
        return p->layer1[ci] != 0;
    case PROBE_TILED_DENSE: {
        if (p->layer_tiles == NULL)
            return 0;
        int64_t key = gd->cell_keys[ci];
        int64_t tile_id = tile_of_key(key, p->tile_bits);
        PyObject *tile;
        if (tile_id == p->memo_tile_id) {
            tile = p->memo_tile;
        } else {
            PyObject *tid = PyLong_FromLongLong((long long)tile_id);
            if (tid == NULL)
                return -1;
            tile = PyDict_GetItemWithError(p->layer_tiles, tid);
            Py_DECREF(tid);
            if (tile == NULL && PyErr_Occurred())
                return -1;
            p->memo_tile_id = tile_id;
            p->memo_tile = tile;
        }
        if (tile == NULL)
            return 0;
        if (!PyByteArray_Check(tile)) {
            PyErr_SetString(PyExc_TypeError, "tile block is not a bytearray");
            return -1;
        }
        int64_t x = key >> CELL_KEY_SHIFT;
        int64_t y = key & CELL_KEY_MASK;
        int64_t mask = ((int64_t)1 << p->tile_bits) - 1;
        Py_ssize_t slot = (Py_ssize_t)(((x & mask) << p->tile_bits)
                                       | (y & mask));
        if (slot >= PyByteArray_GET_SIZE(tile)) {
            PyErr_SetString(PyExc_IndexError, "slot outside tile block");
            return -1;
        }
        return PyByteArray_AS_STRING(tile)[slot] != 0;
    }
    }
    PyErr_SetString(PyExc_SystemError, "unknown probe mode");
    return -1;
}

/* Whether the move sci -> nci departing at t1 - 1 hits a swap.  Worth
 * asking only where ``sci`` is taken at t1 (the table's contract: a
 * stored edge has its arrival vertex stored), which is how every caller
 * gates it.  Returns 1 blocked, 0 free, -1 error. */
static int
probe_edge(Probe *p, const GridData *gd, Py_ssize_t sci, Py_ssize_t nci)
{
    if (p->t0_obj == NULL) {
        p->t0_obj = PyLong_FromLongLong((long long)(p->t1 - 1));
        if (p->t0_obj == NULL)
            return -1;
        p->swaps = PyDict_GetItemWithError(p->edge_obj, p->t0_obj);
        if (p->swaps == NULL && PyErr_Occurred())
            return -1;
    }
    if (p->swaps == NULL)
        return 0;
    int64_t combined = (gd->cell_keys[nci] << 32) | gd->cell_keys[sci];
    PyObject *probe = PyLong_FromLongLong((long long)combined);
    if (probe == NULL)
        return -1;
    int hit = PySet_Contains(p->swaps, probe);
    Py_DECREF(probe);
    return hit;
}

/* Whether a robot on ``from`` at t1 - 1 may be on ``to`` at t1 (the
 * table's move_allowed; ``from == to`` is a wait).  A swap needs the
 * partner to arrive on ``from`` at t1, so the edge is asked about only
 * where that vertex is taken.  ``p`` is set up for t1.  Returns 1
 * blocked, 0 free, -1 error. */
static int
probe_move(Probe *p, const GridData *gd, Py_ssize_t from, Py_ssize_t to)
{
    int blocked = probe_vertex(p, gd, to);
    if (blocked == 0 && from != to) {
        blocked = probe_vertex(p, gd, from);
        if (blocked > 0)
            blocked = probe_edge(p, gd, from, to);
    }
    return blocked;
}

/* ------------------------------------------------------------------ */
/* The search itself.                                                  */
/* ------------------------------------------------------------------ */

typedef struct {
    /* problem */
    const GridData *gd;
    int64_t height;
    Py_ssize_t n_cells;
    const int32_t *hbuf;   /* h_mode 2: int32 buffer field (borrowed) */
    int h_mode;            /* 1 native Manhattan, 2 int32 buffer */
    long long gx, gy;      /* h_mode 1 goal coordinates */
    /* per-call state: nothing outlives run() */
    int deep;              /* deep-tie sub-bucket order vs FIFO */
    HMap hm;               /* rel state -> parent */
    BArray fifo;           /* FIFO open set */
    FBArray deepq;         /* deep-tie open set */
    int64_t hi_f;
    int64_t h0;
} Search;

static void
search_free(Search *s)
{
    hmap_free(&s->hm);
    fbarray_free(&s->deepq);
    barray_free_items(&s->fifo);
}

static inline int64_t
heuristic_at(const Search *s, Py_ssize_t ci, int *err)
{
    if (s->h_mode == 1) {
        int64_t x = (int64_t)ci / s->height;
        int64_t y = (int64_t)ci % s->height;
        int64_t dx = x > s->gx ? x - s->gx : s->gx - x;
        int64_t dy = y > s->gy ? y - s->gy : s->gy - y;
        return dx + dy;
    }
    int64_t h = (int64_t)s->hbuf[ci];
    if (h < 0) {
        /* h indexes the buckets: a negative one must never get there */
        PyErr_SetString(PyExc_AssertionError,
                        "negative h: heuristic field is not consistent");
        *err = 1;
        return 0;
    }
    return h;
}

/* The h-field of run and tier0_leg: mode 1 (native Manhattan) holds
 * nothing; mode 2 reads ``h_arg`` under reserve_path's buffer rule, as
 * n_cells contiguous int32 values in one dimension.  Returns 0 for mode
 * 1, 1 with ``view`` held for mode 2, -1 with an exception set. */
static int
h_field_open(int h_mode, PyObject *h_arg, Py_ssize_t n_cells,
             Py_buffer *view)
{
    if (h_mode == 1)
        return 0;
    if (h_mode != 2) {
        PyErr_SetString(PyExc_ValueError, "h_mode must be 1 or 2");
        return -1;
    }
    if (PyObject_GetBuffer(h_arg, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != (Py_ssize_t)sizeof(int32_t)
            || view->format == NULL || strcmp(view->format, "i")
            || view->shape[0] != n_cells
            || !PyBuffer_IsContiguous(view, 'C')) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, "h field must be a contiguous "
                        "one-dimensional buffer of n_cells int32 values");
        return -1;
    }
    return 1;
}

/* Record a successor the search has not seen and push it at f-offset
 * ``nf``; a state is reached at one cost only (its layer), so the first
 * push stands.  ``h`` is the successor's heuristic (deep mode sub-bucket
 * index).  Returns 1 pushed, 0 seen before, -1 out of memory. */
static inline int
relax(Search *s, int64_t nrel, int64_t rel, int64_t nf, int64_t h)
{
    if ((s->hm.used + 1) * 3 > s->hm.cap * 2 && hmap_grow(&s->hm) < 0)
        return -1;
    HEntry *entry = &s->hm.e[hmap_slot(&s->hm, nrel)];
    if (entry->key != -1)
        return 0;
    entry->key = nrel;
    entry->parent = rel;
    s->hm.used++;
    if (s->deep) {
        if (fbarray_ensure(&s->deepq, (Py_ssize_t)nf) < 0)
            return -1;
        FBucket *fb = &s->deepq.b[nf];
        if (fbucket_ensure_h(fb, (Py_ssize_t)h) < 0)
            return -1;
        if (bucket_push(&fb->by_h[h], nrel) < 0)
            return -1;
        fb->live++;
        if (h < fb->lo_h)
            fb->lo_h = h;
    } else {
        if (barray_ensure(&s->fifo, (Py_ssize_t)nf) < 0)
            return -1;
        if (bucket_push(&s->fifo.b[nf], nrel) < 0)
            return -1;
    }
    if (nf > s->hi_f)
        s->hi_f = nf;
    return 1;
}

/* The leg ending at ``rel`` as keys: a state's layer is its depth, so
 * the parent chain fills the buffer back to front. */
static PyObject *
reconstruct(const Search *s, int64_t rel)
{
    Py_ssize_t n = (Py_ssize_t)(rel / s->n_cells) + 1;
    int64_t *keys = PyMem_Malloc((size_t)n * sizeof(int64_t));
    if (keys == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        keys[i] = s->gd->cell_keys[rel % s->n_cells];
        rel = s->hm.e[hmap_slot(&s->hm, rel)].parent;
    }
    PyObject *out = keys_export(keys, n);
    PyMem_Free(keys);
    return out;
}

static PyObject *
stsearch_run(PyObject *self, PyObject *args)
{
    PyObject *capsule, *probe_a, *probe_b, *h_arg, *finisher;
    int probe_mode, tile_bits, h_mode, deep;
    Py_ssize_t source_ci, goal_ci;
    long long start_time, max_expansions;
    long long finisher_trigger;
    long long init_expansions, init_peak_open;

    if (!PyArg_ParseTuple(
            args, "OiOOiiOnnLLOLiLL",
            &capsule, &probe_mode, &probe_a, &probe_b, &tile_bits,
            &h_mode, &h_arg, &source_ci, &goal_ci,
            &start_time, &max_expansions,
            &finisher, &finisher_trigger, &deep,
            &init_expansions, &init_peak_open))
        return NULL;

    GridData *gd = PyCapsule_GetPointer(capsule, GRID_CAPSULE_NAME);
    if (gd == NULL)
        return NULL;

    /* Validate the probe spec shape up front, then trust it in the loop. */
    if (mut_check_args(probe_mode, probe_a, probe_b, tile_bits) < 0)
        return NULL;

    Search s;
    memset(&s, 0, sizeof(Search));
    s.gd = gd;
    s.height = gd->height;
    s.n_cells = gd->n_cells;
    s.h_mode = h_mode;
    s.deep = deep;

    Py_buffer hview;
    int have_hview = h_field_open(h_mode, h_arg, s.n_cells, &hview);
    if (have_hview < 0)
        return NULL;
    if (have_hview)
        s.hbuf = (const int32_t *)hview.buf;
    else if (!PyArg_ParseTuple(h_arg, "LL", &s.gx, &s.gy))
        return NULL;

    Probe probe;
    probe_init(&probe, probe_mode, tile_bits, probe_a, probe_b);

    int herr = 0;
    s.h0 = heuristic_at(&s, source_ci, &herr);
    if (herr) {
        if (have_hview)
            PyBuffer_Release(&hview);
        return NULL;
    }

    /* State store and open set, seeded with the source. */
    if (hmap_init(&s.hm, 4096) < 0
            || relax(&s, source_ci, -1, 0, s.h0) < 0) {
        search_free(&s);
        if (have_hview)
            PyBuffer_Release(&hview);
        return PyErr_NoMemory();
    }

    int64_t f_off = 0;           /* bucket cursor (f - h0) */
    int64_t f_abs = s.h0;        /* absolute f at the cursor */
    int64_t open_size = 1;
    int64_t expansions = (int64_t)init_expansions;
    int64_t generated = 0;
    int64_t peak_open = (int64_t)init_peak_open;
    int64_t loop_ticker = 0;

    int status = ST_EXHAUSTED;
    int64_t result_rel = -1;
    PyObject *keys = NULL;        /* owned on success */
    PyObject *finisher_tail = NULL;
    PyObject *out = NULL;

    while (open_size > 0) {
        if (((++loop_ticker) & 0x3FFF) == 0 && PyErr_CheckSignals() < 0)
            goto fail;

        /* -- pop ------------------------------------------------------ */
        int64_t rel;
        if (s.deep) {
            while (f_off < s.deepq.len && s.deepq.b[f_off].live == 0) {
                f_off++;
                f_abs++;
            }
            if (f_off > s.hi_f || f_off >= s.deepq.len) {
                PyErr_SetString(PyExc_AssertionError,
                                "bucket queue underflow: heuristic field "
                                "is not consistent");
                goto fail;
            }
            FBucket *fb = &s.deepq.b[f_off];
            while (fb->lo_h < fb->h_len
                    && fb->by_h[fb->lo_h].pos >= fb->by_h[fb->lo_h].len)
                fb->lo_h++;
            if (fb->lo_h >= fb->h_len) {
                PyErr_SetString(PyExc_AssertionError,
                                "bucket queue underflow: heuristic field "
                                "is not consistent");
                goto fail;
            }
            Bucket *hb = &fb->by_h[fb->lo_h];
            if (open_size > peak_open)
                peak_open = open_size;
            rel = hb->items[hb->pos++];
            fb->live--;
        } else {
            BArray *ba = &s.fifo;
            while (f_off < ba->len
                    && ba->b[f_off].pos >= ba->b[f_off].len) {
                f_off++;
                f_abs++;
            }
            if (f_off > s.hi_f || f_off >= ba->len) {
                PyErr_SetString(PyExc_AssertionError,
                                "bucket queue underflow: heuristic field "
                                "is not consistent");
                goto fail;
            }
            Bucket *bk = &ba->b[f_off];
            if (open_size > peak_open)
                peak_open = open_size;
            rel = bk->items[bk->pos++];
        }
        open_size--;

        int64_t t_rel = rel / s.n_cells;
        Py_ssize_t ci = (Py_ssize_t)(rel % s.n_cells);
        int64_t h_ci = heuristic_at(&s, ci, &herr);
        if (herr)
            goto fail;
        if (t_rel + h_ci != f_abs) {
            /* g is the layer and a state is pushed once, at g + h */
            PyErr_SetString(PyExc_AssertionError,
                            "popped state is not at its f: heuristic "
                            "field is not consistent");
            goto fail;
        }
        expansions++;
        if (expansions > max_expansions) {
            status = ST_BUDGET;
            goto done;
        }

        if (ci == (Py_ssize_t)goal_ci) {
            status = ST_COMPLETE;
            result_rel = rel;
            goto done;
        }

        if (finisher != Py_None && h_ci > 0 && h_ci <= finisher_trigger) {
            PyObject *cell = Py_BuildValue("(LL)",
                                           (long long)(ci / s.height),
                                           (long long)(ci % s.height));
            if (cell == NULL)
                goto fail;
            PyObject *t_obj = PyLong_FromLongLong(
                (long long)(start_time + t_rel));
            if (t_obj == NULL) {
                Py_DECREF(cell);
                goto fail;
            }
            PyObject *tail = PyObject_CallFunctionObjArgs(
                finisher, cell, t_obj, NULL);
            Py_DECREF(cell);
            Py_DECREF(t_obj);
            if (tail == NULL)
                goto fail;
            /* python ran: it may have purged the memoised tile, and a
             * deleted dict's address goes to the next allocation */
            probe.memo_tile_id = -1;
            if (tail != Py_None) {
                status = ST_FINISHER;
                result_rel = rel;
                finisher_tail = tail;
                goto done;
            }
            Py_DECREF(tail);
        }

        int64_t t1 = start_time + t_rel + 1;
        int64_t nxt_base = rel - ci + s.n_cells;
        int64_t base_f = t_rel + 1 - s.h0;

        if (probe_setup(&probe, t1) < 0)
            goto fail;

        /* Wait in place (the fifth action) — vertex check only.  A
         * refusal means someone arrives here at t1, the one case in
         * which a move out of this cell can be a swap. */
        int held = probe_vertex(&probe, gd, ci);
        if (held < 0)
            goto fail;
        if (!held) {
            int pushed = relax(&s, nxt_base + ci, rel, base_f + h_ci, h_ci);
            if (pushed < 0) {
                PyErr_NoMemory();
                goto fail;
            }
            if (pushed) {
                generated++;
                open_size++;
            }
        }

        /* The four moves, in adjacency order. */
        for (Py_ssize_t a = gd->adj_off[ci]; a < gd->adj_off[ci + 1]; a++) {
            Py_ssize_t nci = (Py_ssize_t)gd->adj_nci[a];
            int blocked = probe_vertex(&probe, gd, nci);
            if (blocked == 0 && held)
                blocked = probe_edge(&probe, gd, ci, nci);
            if (blocked < 0)
                goto fail;
            if (blocked)
                continue;
            int64_t nh = heuristic_at(&s, nci, &herr);
            if (herr)
                goto fail;
            if (nh + 1 < h_ci) {
                /* f would fall behind the bucket cursor */
                PyErr_SetString(PyExc_AssertionError,
                                "h drops by more than a step: heuristic "
                                "field is not consistent");
                goto fail;
            }
            int pushed = relax(&s, nxt_base + nci, rel, base_f + nh, nh);
            if (pushed < 0) {
                PyErr_NoMemory();
                goto fail;
            }
            if (pushed) {
                generated++;
                open_size++;
            }
        }
        probe_teardown(&probe);
    }

done:
    if (result_rel >= 0)
        keys = reconstruct(&s, result_rel);
    if (result_rel < 0 || keys != NULL)
        out = Py_BuildValue(
            "iOOLLL", status,
            keys ? keys : Py_None,
            finisher_tail ? finisher_tail : Py_None,
            (long long)expansions, (long long)generated,
            (long long)peak_open);
fail:
    probe_teardown(&probe);
    Py_XDECREF(keys);
    Py_XDECREF(finisher_tail);
    search_free(&s);
    if (have_hview)
        PyBuffer_Release(&hview);
    return out;
}

/* ------------------------------------------------------------------ */
/* Reservation mutation kernel.                                        */
/*                                                                     */
/* Compiled twins of the two mutating operations of a reservation      */
/* table (paper Sec. VI-B): insertion (reserve_path) and the periodic  */
/* update (purge_before), as bodied in python in cdt.py and            */
/* spatiotemporal_graph.py.  The third operation, conflict search, is  */
/* the probe_* family above; the only bulk audit a run executes lives  */
/* in tier0_leg below.  The same probe-mode numbering as the search    */
/* kernel selects the container layout; the python wrappers keep their */
/* incremental counters by folding in the delta tuples these entry     */
/* points return.  Bit-identity with the python bodies is load-        */
/* bearing: the equivalence suite pins the final container contents    */
/* and every returned delta.                                           */
/* ------------------------------------------------------------------ */

/* dict[t] -> set, created on demand.  Adds ``key_obj``; *fresh reports a
 * genuinely new member, *created a newly materialised bucket. */
static int
set_bucket_add(PyObject *dict, PyObject *t_obj, PyObject *key_obj,
               int *fresh, int *created)
{
    *fresh = 0;
    *created = 0;
    PyObject *bucket = PyDict_GetItemWithError(dict, t_obj);
    if (bucket == NULL) {
        if (PyErr_Occurred())
            return -1;
        bucket = PySet_New(NULL);
        if (bucket == NULL)
            return -1;
        if (PyDict_SetItem(dict, t_obj, bucket) < 0) {
            Py_DECREF(bucket);
            return -1;
        }
        Py_DECREF(bucket);  /* the dict keeps it alive */
        *created = 1;
    }
    if (!PySet_Check(bucket)) {
        PyErr_SetString(PyExc_TypeError, "tick bucket is not a set");
        return -1;
    }
    Py_ssize_t before = PySet_GET_SIZE(bucket);
    if (PySet_Add(bucket, key_obj) < 0)
        return -1;
    *fresh = PySet_GET_SIZE(bucket) != before;
    return 0;
}

/* Materialise a zeroed dense layer (bytearray of ``n`` cells) at
 * dict[t].  Returns a borrowed reference, NULL on error. */
static PyObject *
dense_layer_new(PyObject *dict, PyObject *t_obj, Py_ssize_t n)
{
    PyObject *layer = PyByteArray_FromStringAndSize(NULL, n);
    if (layer == NULL)
        return NULL;
    memset(PyByteArray_AS_STRING(layer), 0, (size_t)n);
    if (PyDict_SetItem(dict, t_obj, layer) < 0) {
        Py_DECREF(layer);
        return NULL;
    }
    Py_DECREF(layer);
    return layer;  /* borrowed: the dict holds it */
}

static PyObject *
stsearch_reserve_path(PyObject *self, PyObject *args)
{
    (void)self;
    int mode, tile_bits;
    PyObject *vertex_obj, *edge_obj, *keys_obj;
    long long height_ll, block_cells_ll, start_ll, vfloor_ll, efloor_ll;
    long long high_ll;
    if (!PyArg_ParseTuple(args, "iOOiLLLOLLL:reserve_path",
                          &mode, &vertex_obj, &edge_obj, &tile_bits,
                          &height_ll, &block_cells_ll, &start_ll, &keys_obj,
                          &vfloor_ll, &efloor_ll, &high_ll))
        return NULL;
    if (mut_check_args(mode, vertex_obj, edge_obj, tile_bits) < 0)
        return NULL;
    int64_t height = (int64_t)height_ll;
    Py_ssize_t block_cells = (Py_ssize_t)block_cells_ll;
    int64_t start = (int64_t)start_ll;
    int64_t vfloor = (int64_t)vfloor_ll;
    int64_t efloor = (int64_t)efloor_ll;
    int64_t high = (int64_t)high_ll;
    int64_t mask = ((int64_t)1 << tile_bits) - 1;

    /* Everything the caller can get wrong is refused here, before the
     * first container is touched. */
    Py_buffer view;
    if (PyObject_GetBuffer(keys_obj, &view, PyBUF_RECORDS_RO) < 0)
        return NULL;
    if (view.ndim != 1 || view.itemsize != (Py_ssize_t)sizeof(int64_t)
            || view.format == NULL
            || (strcmp(view.format, "q") && strcmp(view.format, "l"))) {
        PyErr_SetString(PyExc_TypeError,
                        "keys must be a one-dimensional int64 buffer");
        goto fail;
    }
    if (!PyBuffer_IsContiguous(&view, 'C')) {
        PyErr_SetString(PyExc_ValueError, "keys buffer is not contiguous");
        goto fail;
    }
    const int64_t *keys = view.buf;
    Py_ssize_t n = view.shape[0];
    if (keys_check(keys, n) < 0)
        goto fail;
    if (mode == PROBE_TILED_DENSE
            && ((int64_t)1 << (2 * tile_bits)) > (int64_t)block_cells) {
        PyErr_SetString(PyExc_IndexError, "slot outside tile block");
        goto fail;
    }
    if (mode == PROBE_DENSE) {
        for (Py_ssize_t i = 0; i < n; i++) {
            int64_t ci = (keys[i] >> CELL_KEY_SHIFT) * height
                + (keys[i] & CELL_KEY_MASK);
            if (ci < 0 || ci >= (int64_t)block_cells) {
                PyErr_SetString(PyExc_IndexError,
                                "cell index outside dense layer");
                goto fail;
            }
        }
    }

    int64_t v_added = 0, vbuckets_added = 0, tiles_added = 0, e_added = 0;

    int64_t memo_tile_id = -1;
    int64_t memo_t = -1;
    PyObject *memo_tile = NULL;  /* borrowed */

    /* -- vertex pass (mirrors each table's reserve_path body) -------- */
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t t = start + i;
        if (t < vfloor)
            continue;
        int64_t key = keys[i];
        int64_t x = key >> CELL_KEY_SHIFT, y = key & CELL_KEY_MASK;
        PyObject *t_obj = PyLong_FromLongLong((long long)t);
        if (t_obj == NULL)
            goto fail;
        int fresh = 0, created = 0;
        switch (mode) {
        case PROBE_CDT: {
            PyObject *key_obj = PyLong_FromLongLong((long long)key);
            if (key_obj == NULL)
                goto step_fail;
            int rc = set_bucket_add(vertex_obj, t_obj, key_obj,
                                    &fresh, &created);
            Py_DECREF(key_obj);
            if (rc < 0)
                goto step_fail;
            vbuckets_added += created;
            v_added += fresh;
            break;
        }
        case PROBE_DENSE: {
            PyObject *layer;
            if (t > high) {
                /* densify the gap, exactly like _layer() */
                for (int64_t step = high + 1; step < t; step++) {
                    if (step < vfloor)
                        continue;
                    PyObject *s_obj =
                        PyLong_FromLongLong((long long)step);
                    if (s_obj == NULL)
                        goto step_fail;
                    PyObject *have =
                        PyDict_GetItemWithError(vertex_obj, s_obj);
                    if (have == NULL) {
                        if (PyErr_Occurred()
                            || dense_layer_new(vertex_obj, s_obj,
                                               block_cells) == NULL) {
                            Py_DECREF(s_obj);
                            goto step_fail;
                        }
                        vbuckets_added++;
                    }
                    Py_DECREF(s_obj);
                }
                layer = dense_layer_new(vertex_obj, t_obj, block_cells);
                if (layer == NULL)
                    goto step_fail;
                vbuckets_added++;
                high = t;
            } else {
                layer = PyDict_GetItemWithError(vertex_obj, t_obj);
                if (layer == NULL) {
                    if (PyErr_Occurred())
                        goto step_fail;
                    layer = dense_layer_new(vertex_obj, t_obj,
                                            block_cells);
                    if (layer == NULL)
                        goto step_fail;
                    vbuckets_added++;
                }
            }
            if (!PyByteArray_Check(layer)) {
                PyErr_SetString(PyExc_TypeError,
                                "dense layer is not a bytearray");
                goto step_fail;
            }
            Py_ssize_t ci = (Py_ssize_t)(x * height + y);
            if (ci < 0 || ci >= PyByteArray_GET_SIZE(layer)) {
                PyErr_SetString(PyExc_IndexError,
                                "cell index outside dense layer");
                goto step_fail;
            }
            PyByteArray_AS_STRING(layer)[ci] = 1;
            break;
        }
        case PROBE_TILED_DENSE: {
            int64_t tile_id = tile_of_key(key, tile_bits);
            if (memo_tile == NULL || t != memo_t
                    || tile_id != memo_tile_id) {
                PyObject *layer =
                    PyDict_GetItemWithError(vertex_obj, t_obj);
                if (layer == NULL) {
                    if (PyErr_Occurred())
                        goto step_fail;
                    layer = PyDict_New();
                    if (layer == NULL
                        || PyDict_SetItem(vertex_obj, t_obj,
                                          layer) < 0) {
                        Py_XDECREF(layer);
                        goto step_fail;
                    }
                    Py_DECREF(layer);  /* borrowed via dict */
                }
                PyObject *tid = PyLong_FromLongLong((long long)tile_id);
                if (tid == NULL)
                    goto step_fail;
                memo_tile = PyDict_GetItemWithError(layer, tid);
                if (memo_tile == NULL) {
                    if (PyErr_Occurred()) {
                        Py_DECREF(tid);
                        goto step_fail;
                    }
                    memo_tile = dense_layer_new(layer, tid, block_cells);
                    if (memo_tile == NULL) {
                        Py_DECREF(tid);
                        goto step_fail;
                    }
                    tiles_added++;
                }
                Py_DECREF(tid);
                memo_t = t;
                memo_tile_id = tile_id;
            }
            if (!PyByteArray_Check(memo_tile)) {
                PyErr_SetString(PyExc_TypeError,
                                "tile block is not a bytearray");
                goto step_fail;
            }
            Py_ssize_t slot =
                (Py_ssize_t)(((x & mask) << tile_bits) | (y & mask));
            if (slot < 0 || slot >= PyByteArray_GET_SIZE(memo_tile)) {
                PyErr_SetString(PyExc_IndexError,
                                "slot outside tile block");
                goto step_fail;
            }
            PyByteArray_AS_STRING(memo_tile)[slot] = 1;
            break;
        }
        }
        Py_DECREF(t_obj);
        continue;
step_fail:
        Py_DECREF(t_obj);
        goto fail;
    }

    /* -- edge pass (mirrors _EdgeMixin._reserve_edges) --------------- */
    for (Py_ssize_t i = 0; i + 1 < n; i++) {
        int64_t t0 = start + i;
        int64_t key0 = keys[i], key1 = keys[i + 1];
        if (t0 < efloor || key0 == key1)
            continue;
        PyObject *t_obj = PyLong_FromLongLong((long long)t0);
        if (t_obj == NULL)
            goto fail;
        PyObject *key_obj =
            PyLong_FromLongLong((long long)((key0 << 32) | key1));
        if (key_obj == NULL) {
            Py_DECREF(t_obj);
            goto fail;
        }
        int fresh, created;
        int rc = set_bucket_add(edge_obj, t_obj, key_obj,
                                &fresh, &created);
        Py_DECREF(key_obj);
        Py_DECREF(t_obj);
        if (rc < 0)
            goto fail;
        e_added += fresh;
    }
    PyBuffer_Release(&view);
    return Py_BuildValue(
        "LLLLL",
        (long long)v_added, (long long)vbuckets_added,
        (long long)tiles_added, (long long)e_added, (long long)high);
fail:
    PyBuffer_Release(&view);
    return NULL;
}

/* How purge_tick_dict tallies each removed bucket's contents. */
typedef enum {
    PURGE_COUNT_SET = 0,     /* value is a set: count its members */
    PURGE_COUNT_BUCKET = 1,  /* count one per removed tick */
    PURGE_COUNT_DICT = 2,    /* value is a dict: count its members */
} PurgeCount;

/* Remove every tick < t from a {tick: container} dict.  ``floor`` is
 * the caller's known lower bound on live ticks; mirrors _stale_ticks()
 * in choosing a range walk or a key scan.  Adds the removed-content
 * tally to *items and the removed-bucket count to *buckets. */
static int
purge_tick_dict(PyObject *dict, int64_t floor, int64_t t, PurgeCount kind,
                int64_t *items, int64_t *buckets)
{
    PyObject *stale = NULL;
    if (t - floor <= (int64_t)PyDict_GET_SIZE(dict)) {
        for (int64_t tick = floor; tick < t; tick++) {
            PyObject *t_obj = PyLong_FromLongLong((long long)tick);
            if (t_obj == NULL)
                return -1;
            PyObject *value = PyDict_GetItemWithError(dict, t_obj);
            if (value == NULL) {
                Py_DECREF(t_obj);
                if (PyErr_Occurred())
                    return -1;
                continue;
            }
            switch (kind) {
            case PURGE_COUNT_SET:
                *items += PySet_Check(value) ? PySet_GET_SIZE(value) : 0;
                break;
            case PURGE_COUNT_BUCKET:
                *items += 1;
                break;
            case PURGE_COUNT_DICT:
                *items += PyDict_Check(value) ? PyDict_GET_SIZE(value) : 0;
                break;
            }
            (*buckets)++;
            int rc = PyDict_DelItem(dict, t_obj);
            Py_DECREF(t_obj);
            if (rc < 0)
                return -1;
        }
        return 0;
    }
    /* Key scan: collect stale ticks first, never mutate mid-iteration. */
    stale = PyList_New(0);
    if (stale == NULL)
        return -1;
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (PyDict_Next(dict, &pos, &key, &value)) {
        int64_t tick = (int64_t)PyLong_AsLongLong(key);
        if (tick == -1 && PyErr_Occurred())
            goto fail;
        if (tick < t && PyList_Append(stale, key) < 0)
            goto fail;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(stale); i++) {
        PyObject *t_obj = PyList_GET_ITEM(stale, i);
        PyObject *v = PyDict_GetItemWithError(dict, t_obj);
        if (v == NULL) {
            if (PyErr_Occurred())
                goto fail;
            continue;
        }
        switch (kind) {
        case PURGE_COUNT_SET:
            *items += PySet_Check(v) ? PySet_GET_SIZE(v) : 0;
            break;
        case PURGE_COUNT_BUCKET:
            *items += 1;
            break;
        case PURGE_COUNT_DICT:
            *items += PyDict_Check(v) ? PyDict_GET_SIZE(v) : 0;
            break;
        }
        (*buckets)++;
        if (PyDict_DelItem(dict, t_obj) < 0)
            goto fail;
    }
    Py_DECREF(stale);
    return 0;
fail:
    Py_XDECREF(stale);
    return -1;
}

static PyObject *
stsearch_purge_before(PyObject *self, PyObject *args)
{
    (void)self;
    int mode, tile_bits;
    PyObject *vertex_obj, *edge_obj;
    long long t_ll, vfloor_ll, efloor_ll;
    if (!PyArg_ParseTuple(args, "iOOiLLL:purge_before",
                          &mode, &vertex_obj, &edge_obj, &tile_bits,
                          &t_ll, &vfloor_ll, &efloor_ll))
        return NULL;
    if (mut_check_args(mode, vertex_obj, edge_obj, tile_bits) < 0)
        return NULL;
    int64_t t = (int64_t)t_ll;
    int64_t vfloor = (int64_t)vfloor_ll;
    int64_t efloor = (int64_t)efloor_ll;

    int64_t v_removed = 0, vbuckets_removed = 0, tiles_removed = 0;
    int64_t e_removed = 0, e_buckets = 0;

    if (t > vfloor) {
        switch (mode) {
        case PROBE_CDT:
            if (purge_tick_dict(vertex_obj, vfloor, t, PURGE_COUNT_SET,
                                &v_removed, &vbuckets_removed) < 0)
                return NULL;
            break;
        case PROBE_DENSE:
            if (purge_tick_dict(vertex_obj, vfloor, t, PURGE_COUNT_BUCKET,
                                &v_removed, &vbuckets_removed) < 0)
                return NULL;
            break;
        case PROBE_TILED_DENSE:
            if (purge_tick_dict(vertex_obj, vfloor, t, PURGE_COUNT_DICT,
                                &tiles_removed, &vbuckets_removed) < 0)
                return NULL;
            break;
        }
    }
    if (t > efloor
        && purge_tick_dict(edge_obj, efloor, t, PURGE_COUNT_SET,
                           &e_removed, &e_buckets) < 0)
        return NULL;
    return Py_BuildValue("LLLL",
                         (long long)v_removed, (long long)vbuckets_removed,
                         (long long)tiles_removed, (long long)e_removed);
}

/* ------------------------------------------------------------------ */
/* Field + tier-0 kernel.                                              */
/*                                                                     */
/* bfs_fill floods true shortest-path distances over the prepared      */
/* adjacency table straight into a caller-owned int32 buffer — the     */
/* backing store of an eager HeuristicField.  tier0_leg fuses the      */
/* free-flow greedy descent (FreeFlowPathCache.packed, on either field */
/* kind) with the bulk reservation audit (audit_chain semantics) and,  */
/* on a hit, the wait-following rescue (cache.follow_with_waits) over  */
/* the same probes, answering a served leg in one call.  Bit-identity  */
/* with the python bodies is pinned by the equivalence suites.         */
/* ------------------------------------------------------------------ */

static PyObject *
stsearch_bfs_fill(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *capsule, *buf_obj;
    Py_ssize_t source_ci;
    long long unreached_ll;
    if (!PyArg_ParseTuple(args, "OnOL:bfs_fill",
                          &capsule, &source_ci, &buf_obj, &unreached_ll))
        return NULL;
    GridData *gd = PyCapsule_GetPointer(capsule, GRID_CAPSULE_NAME);
    if (gd == NULL)
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(buf_obj, &view, PyBUF_WRITABLE) < 0)
        return NULL;
    if (view.len != (Py_ssize_t)(gd->n_cells * sizeof(int32_t))) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError,
                        "distance buffer must hold n_cells int32 values");
        return NULL;
    }
    if (source_ci < 0 || source_ci >= gd->n_cells) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_IndexError, "source cell outside grid");
        return NULL;
    }
    int32_t un = (int32_t)unreached_ll;
    if (un >= 0 && (Py_ssize_t)un < gd->n_cells) {
        /* a real distance is at most n_cells - 1; the sentinel must not
         * collide with one or the visited test below misfires */
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_ValueError,
                        "unreached sentinel collides with a distance");
        return NULL;
    }
    int32_t *dist = (int32_t *)view.buf;
    for (Py_ssize_t i = 0; i < gd->n_cells; i++)
        dist[i] = un;
    int32_t *queue = PyMem_Malloc((gd->n_cells ? gd->n_cells : 1)
                                  * sizeof(int32_t));
    if (queue == NULL) {
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    Py_ssize_t head = 0, tail = 0;
    dist[source_ci] = 0;
    queue[tail++] = (int32_t)source_ci;
    while (head < tail) {
        Py_ssize_t ci = (Py_ssize_t)queue[head++];
        int32_t d_next = dist[ci] + 1;
        for (Py_ssize_t a = gd->adj_off[ci]; a < gd->adj_off[ci + 1]; a++) {
            Py_ssize_t nci = (Py_ssize_t)gd->adj_nci[a];
            if (dist[nci] == un) {
                dist[nci] = d_next;
                queue[tail++] = (int32_t)nci;
            }
        }
    }
    PyMem_Free(queue);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

/* cache.follow_with_waits over the descent ``indices[0..k]``: walk it
 * from ``start_t``, waiting in place wherever the next move is reserved.
 * Writes the timed keys to ``out`` (room for k + 1 + total_cap) and
 * returns their count, 0 when the walk declines (a cap is hit, or the
 * robot cannot hold its cell), -1 on error. */
static Py_ssize_t
rescue_walk(Probe *p, const GridData *gd, const int32_t *indices, int64_t k,
            int64_t start_t, int64_t per_step_cap, int64_t total_cap,
            int64_t *out)
{
    int64_t t = start_t, total = 0;
    Py_ssize_t cur = (Py_ssize_t)indices[0], n = 0;
    out[n++] = gd->cell_keys[cur];
    for (int64_t i = 1; i <= k; i++) {
        Py_ssize_t nxt = (Py_ssize_t)indices[i];
        for (int64_t waited = 0; ; waited++, total++) {
            if (probe_setup(p, t + 1) < 0) {
                probe_teardown(p);
                return -1;
            }
            int blocked = probe_move(p, gd, cur, nxt);
            int stuck = 1;  /* a cap is hit, or the cell cannot be held */
            if (blocked > 0 && waited < per_step_cap && total < total_cap)
                stuck = probe_vertex(p, gd, cur);
            probe_teardown(p);
            if (blocked < 0 || stuck < 0)
                return -1;
            if (!blocked)
                break;
            if (stuck)
                return 0;
            t++;
            out[n++] = gd->cell_keys[cur];
        }
        t++;
        out[n++] = gd->cell_keys[nxt];
        cur = nxt;
    }
    return n;
}

static PyObject *
stsearch_tier0_leg(PyObject *self, PyObject *args)
{
    (void)self;
    int mode, tile_bits, h_mode;
    PyObject *capsule, *vertex_obj, *edge_obj, *h_arg;
    Py_ssize_t source_ci, goal_ci;
    long long start_t_ll, trigger_ll, per_step_ll, total_ll;
    if (!PyArg_ParseTuple(args, "OiOOiiOnnLLLL:tier0_leg",
                          &capsule, &mode, &vertex_obj, &edge_obj,
                          &tile_bits, &h_mode, &h_arg, &source_ci,
                          &goal_ci, &start_t_ll, &trigger_ll,
                          &per_step_ll, &total_ll))
        return NULL;
    GridData *gd = PyCapsule_GetPointer(capsule, GRID_CAPSULE_NAME);
    if (gd == NULL)
        return NULL;
    if (mut_check_args(mode, vertex_obj, edge_obj, tile_bits) < 0)
        return NULL;
    if (source_ci < 0 || source_ci >= gd->n_cells
            || goal_ci < 0 || goal_ci >= gd->n_cells) {
        PyErr_SetString(PyExc_IndexError, "cell outside grid");
        return NULL;
    }
    /* Both caps zero is "rescue off"; otherwise each is a tick count
     * (PlannerConfig keeps them >= 1; its defaults are 16 and 96), and
     * the total sizes the output buffer. */
    if (per_step_ll < 0 || total_ll < 0
            || per_step_ll > 65535 || total_ll > 65535
            || (per_step_ll == 0) != (total_ll == 0)) {
        PyErr_SetString(PyExc_ValueError,
                        "rescue caps must be both 0 (off) or both in "
                        "[1, 65535]");
        return NULL;
    }
    int64_t start_t = (int64_t)start_t_ll;
    int64_t trigger = (int64_t)trigger_ll;
    int64_t height = gd->height;

    Py_buffer hview;
    int have_hview = h_field_open(h_mode, h_arg, gd->n_cells, &hview);
    if (have_hview < 0)
        return NULL;
    const int32_t *hbuf = have_hview ? (const int32_t *)hview.buf : NULL;

    /* -- descent extraction (the walk of FreeFlowPathCache.packed) ---- */
    int64_t k;
    int32_t *indices = NULL;
    int64_t *keys = NULL;
    if (!have_hview) {
        /* that walk on the lazy Manhattan field (unobstructed floors):
         * rows list +x, -x, +y, -y, so all of x, then all of y */
        int64_t sx = (int64_t)source_ci / height;
        int64_t sy = (int64_t)source_ci % height;
        int64_t gx = (int64_t)goal_ci / height;
        int64_t gy = (int64_t)goal_ci % height;
        int64_t dx = sx > gx ? sx - gx : gx - sx;
        int64_t dy = sy > gy ? sy - gy : gy - sy;
        k = dx + dy;
        indices = PyMem_Malloc((size_t)(k + 1) * sizeof(int32_t));
        if (indices == NULL)
            return PyErr_NoMemory();
        Py_ssize_t at = 0;
        int64_t xstep = gx >= sx ? 1 : -1;
        for (int64_t x = sx; x != gx; x += xstep)
            indices[at++] = (int32_t)(x * height + sy);
        int64_t ystep = gy >= sy ? 1 : -1;
        for (int64_t y = sy; y != gy; y += ystep)
            indices[at++] = (int32_t)(gx * height + y);
        indices[at++] = (int32_t)goal_ci;
    } else {
        int64_t h = (int64_t)hbuf[source_ci];
        if (h > (int64_t)gd->n_cells) {
            /* the field's unreachable marker */
            PyBuffer_Release(&hview);
            return Py_BuildValue("(iO)", 0, Py_None);
        }
        k = h;
        indices = PyMem_Malloc((size_t)(k + 1) * sizeof(int32_t));
        if (indices == NULL) {
            PyBuffer_Release(&hview);
            return PyErr_NoMemory();
        }
        indices[0] = (int32_t)source_ci;
        Py_ssize_t ci = source_ci;
        for (int64_t i = 1; i <= k; i++) {
            h -= 1;
            Py_ssize_t next = -1;
            for (Py_ssize_t a = gd->adj_off[ci]; a < gd->adj_off[ci + 1];
                    a++) {
                Py_ssize_t nci = (Py_ssize_t)gd->adj_nci[a];
                if ((int64_t)hbuf[nci] == h) {
                    next = nci;
                    break;
                }
            }
            if (next < 0) {
                /* exact fields always descend; mirror packed()'s
                 * defensive None */
                PyMem_Free(indices);
                PyBuffer_Release(&hview);
                return Py_BuildValue("(iO)", 0, Py_None);
            }
            ci = next;
            indices[i] = (int32_t)ci;
        }
    }

    /* -- bulk audit (audit_chain semantics: vertex at arrival tick,
     *    reversed swap probe at departure tick, first hit wins) ------- */
    int use_fin = trigger > 0 && k > 0;
    int64_t head = k;   /* moves to audit: all, or up to the trigger cell */
    if (use_fin)
        head = k > trigger ? k - trigger : 0;
    Probe probe;
    probe_init(&probe, mode, tile_bits, vertex_obj, edge_obj);
    int blocked = 0;
    for (int64_t i = 1; i <= head && !blocked; i++) {
        /* a descent never waits, so every step is a move */
        if (probe_setup(&probe, start_t + i) == 0)
            blocked = probe_move(&probe, gd, (Py_ssize_t)indices[i - 1],
                                 (Py_ssize_t)indices[i]);
        else
            blocked = -1;
        probe_teardown(&probe);
        if (blocked < 0)
            goto fail;
    }

    /* -- verdict + payload -------------------------------------------- */
    {
        int verdict;
        Py_ssize_t n = 0;
        keys = PyMem_Malloc((size_t)(k + 1 + total_ll) * sizeof(int64_t));
        if (keys == NULL) {
            PyErr_NoMemory();
            goto fail;
        }
        if (!blocked) {
            /* 1: the whole descent is the leg.  2: the head audited
             * clean; python calls the finisher at its last cell. */
            verdict = use_fin ? 2 : 1;
            for (n = 0; n <= head; n++)
                keys[n] = gd->cell_keys[indices[n]];
        } else {
            /* 4: the rescue walked it with waits.  3: reject (rescue
             * off or declined) — nothing to carry, tier 1 decides. */
            if (total_ll > 0) {
                n = rescue_walk(&probe, gd, indices, k, start_t,
                                (int64_t)per_step_ll, (int64_t)total_ll,
                                keys);
                if (n < 0)
                    goto fail;
            }
            verdict = n > 0 ? 4 : 3;
        }
        PyObject *out = NULL;
        if (n == 0) {
            out = Py_BuildValue("(iO)", verdict, Py_None);
        } else {
            PyObject *payload = keys_export(keys, n);
            if (payload != NULL)
                out = Py_BuildValue("(iN)", verdict, payload);
        }
        PyMem_Free(keys);
        PyMem_Free(indices);
        if (have_hview)
            PyBuffer_Release(&hview);
        return out;
    }

fail:
    PyMem_Free(keys);
    PyMem_Free(indices);
    if (have_hview)
        PyBuffer_Release(&hview);
    return NULL;
}

/* ------------------------------------------------------------------ */

static PyMethodDef stsearch_methods[] = {
    {"prepare_grid", stsearch_prepare_grid, METH_VARARGS,
     "prepare_grid(width, height, blocked_mask) -> capsule\n"
     "Build a grid's adjacency arrays from its blocked-cell mask."},
    {"run", stsearch_run, METH_VARARGS,
     "run(grid_capsule, probe_mode, probe_a, probe_b, tile_bits,\n"
     "    h_mode, h_arg, source_ci, goal_ci, start_time, max_expansions,\n"
     "    finisher, finisher_trigger, deep, init_expansions,\n"
     "    init_peak_open)\n"
     " -> (status, keys, finisher_tail, expansions, generated, peak_open)\n"
     "h_mode 1 is native Manhattan (h_arg: the goal's (x, y)), 2 a\n"
     "one-dimensional int32 buffer of n_cells values.\n"
     "``keys`` is the found leg (the head, when a finisher supplied the\n"
     "tail) as an array('q') of packed cell keys, one per tick from\n"
     "start_time; None when the search failed."},
    {"reserve_path", stsearch_reserve_path, METH_VARARGS,
     "reserve_path(mode, vertex_obj, edge_obj, tile_bits, height,\n"
     "    block_cells, start_time, keys, vfloor, efloor, high)\n"
     " -> (v_added, vbuckets_added, tiles_added, e_added, new_high)\n"
     "Insert a path's vertices and edges, bit-identical to the python\n"
     "reserve_path of the mode's table.  ``keys`` is any contiguous\n"
     "one-dimensional int64 buffer of packed cell keys; a buffer that\n"
     "breaks the path rule or leaves the layer raises before anything\n"
     "is inserted."},
    {"purge_before", stsearch_purge_before, METH_VARARGS,
     "purge_before(mode, vertex_obj, edge_obj, tile_bits, t, vfloor,\n"
     "    efloor)\n"
     " -> (v_removed, vbuckets_removed, tiles_removed, e_removed)\n"
     "Drop all reservations strictly before t (the periodic update)."},
    {"bfs_fill", stsearch_bfs_fill, METH_VARARGS,
     "bfs_fill(grid_capsule, source_ci, buffer, unreached) -> None\n"
     "Flood true shortest-path distances from source_ci into a writable\n"
     "int32 buffer of n_cells entries; unvisited cells keep the\n"
     "``unreached`` sentinel (must not collide with a real distance)."},
    {"tier0_leg", stsearch_tier0_leg, METH_VARARGS,
     "tier0_leg(grid_capsule, mode, vertex_obj, edge_obj, tile_bits,\n"
     "    h_mode, h_arg, source_ci, goal_ci, start_t, trigger,\n"
     "    rescue_wait_per_step, rescue_total_wait)\n"
     " -> (verdict, keys)\n"
     "Fused free-flow descent + bulk reservation audit + wait-following\n"
     "rescue (both caps 0 = off; h_mode as for run, h_arg unused by 1).\n"
     "Verdicts: 0 unreachable; 1 conflict-free (keys: the leg); 2 head\n"
     "audited clean for a finisher (keys: the head, ending on the trigger\n"
     "cell); 3 audit reject; 4 rescued (keys: the leg with its waits).\n"
     "``keys`` is an array('q') of packed cell keys, one per tick from\n"
     "start_t, None for 0 and 3."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef stsearch_module = {
    PyModuleDef_HEAD_INIT,
    "_stsearch",
    "Native spatiotemporal A* expansion loop (bit-identical to the\n"
    "pure-python cores in repro.pathfinding.st_astar).",
    -1,
    stsearch_methods,
};

PyMODINIT_FUNC
PyInit__stsearch(void)
{
    PyObject *mod = PyModule_Create(&stsearch_module);
    if (mod == NULL)
        return NULL;
    PyObject *array_mod = PyImport_ImportModule("array");
    if (array_mod != NULL) {
        Py_XSETREF(array_type, PyObject_GetAttrString(array_mod, "array"));
        Py_DECREF(array_mod);
    }
    if (array_mod == NULL || array_type == NULL) {
        Py_DECREF(mod);
        return NULL;
    }
    if (PyModule_AddStringConstant(mod, "SOURCE_SHA256",
                                   STSEARCH_SOURCE_SHA256) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
