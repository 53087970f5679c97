/* _stsearch — native expansion loop for repro.pathfinding.st_astar.
 *
 * Implements the packed-integer spatiotemporal A* core (bucket queue
 * over an arena of seen-state records, per-tick reservation probes) in
 * C, with results bit-identical to st_astar._search_heap:
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
 * with AssertionError where it shows.  The records, the seen-map and
 * the buckets live in a workspace the grid keeps between calls (freed
 * with the grid; a search that outgrew WS_KEEP_RECORDS frees its own),
 * so a warm run() allocates only the leg it returns; a search a python
 * signal handler starts while run() waits borrows another workspace.
 *
 * EATP's cache-aided finisher (Sec. VI-B) is data, not a callback: run()
 * and tier0_leg() take its trigger L and walk the goal field's descent
 * with waits themselves, handing back the cells each walk started from.
 *
 * A swap on the move a -> b departing t needs a partner arriving on a at
 * t + 1 (ReservationTable's contract), so the edge set is asked only
 * where that vertex is taken: run() by its own wait probe, probe_move()
 * — the tier-0 audit and the rescue — by one more vertex probe.
 *
 * Reservations live in one layout, the store below, which every library
 * table holds under the compiled switch: the kernel owns it, mutates it
 * and probes it without a python object per key.
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

/* run() statuses, mapped to SearchOutcome by the python wrapper. */
enum {
    ST_COMPLETE = 0,
    ST_BUDGET = 1,
    ST_EXHAUSTED = 2,
    ST_FINISHER = 4,   /* the finisher walked the tail; keys: whole leg */
};

/* ------------------------------------------------------------------ */
/* Packed legs.  A leg crosses the boundary as one buffer of int64     */
/* cell keys, one per consecutive tick (paths.Path.keys): run and      */
/* tier0_leg hand out an array('q'), store_reserve takes any           */
/* contiguous int64 buffer.  keys_check is the one statement of the    */
/* path rule on this side — the rule Path(steps) applies to tuples —   */
/* and every buffer passes it on its way in or out.                    */
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
/* The search workspace.  A state the search has seen is one record,   */
/* appended in push order: its key (layer << 32 | flat cell index;     */
/* every action costs one tick, so a state's g is its layer, read off  */
/* the key, never stored), the record it was first reached from and    */
/* the next record of its open list.  The open set is intrusive FIFO   */
/* lists threaded through ``next``: one per f offset (FIFO order) or   */
/* one per (f offset, h) (deep-tie order).  The seen-map holds record  */
/* indices, open-addressed.  A workspace belongs to its grid and       */
/* outlives the call: run() resets lengths, not memory, and            */
/* re-initialises entries as it extends them, so a warm search         */
/* allocates nothing (up to the arena the grid keeps).  A search a     */
/* signal handler starts inside run() takes another of the grid's.     */
/* ------------------------------------------------------------------ */

#define LAYER_SHIFT 32
#define SEEN_START 4096   /* the seen-map's logical size at every call */
/* The largest record arena a grid keeps between calls (1 MB): the rare
 * deep search frees its workspace rather than pin it on the grid. */
#define WS_KEEP_RECORDS ((Py_ssize_t)1 << 16)

typedef struct {
    int64_t key;          /* layer << LAYER_SHIFT | cell index, >= 0 */
    int32_t parent;       /* record index; -1 for the source */
    int32_t next;         /* next record of its open list; -1 ends it */
} Rec;

typedef struct {
    int32_t head, tail;   /* head -1: nothing unread */
} Fifo;

typedef struct {          /* one f offset's lists by h (deep-tie order) */
    Fifo *by_h;
    Py_ssize_t h_len, h_cap;  /* h_cap and by_h survive the reset */
    int64_t lo_h;         /* smallest h with possibly-unread entries */
    int64_t live;         /* unread entries across all h */
} Level;

typedef struct Workspace {
    struct Workspace *spare;  /* the grid's next idle workspace */
    Rec *rec;
    Py_ssize_t n_rec, rec_cap;
    int32_t *seen;            /* record index per slot, -1 empty */
    Py_ssize_t seen_size, seen_cap;   /* logical (a power of two), held */
    int seen_shift;           /* 64 - log2(seen_size) */
    Fifo *fifo;
    Py_ssize_t fifo_len, fifo_cap;
    Level *deepq;
    Py_ssize_t deep_len, deep_cap;
} Workspace;

/* Make ``*buf`` hold at least ``need`` items of ``size`` bytes, doubling;
 * new items are zeroed if ``zero`` (untouched pages stay unmapped
 * otherwise).  -1 with MemoryError set when out of memory. */
static int
ws_reserve(void **buf, Py_ssize_t *cap, Py_ssize_t need, size_t size,
           int zero)
{
    if (need <= *cap)
        return 0;
    Py_ssize_t ncap = *cap ? *cap : 16;
    while (ncap < need)
        ncap *= 2;
    char *nb = (size_t)ncap > PY_SSIZE_T_MAX / size ? NULL
        : PyMem_Realloc(*buf, (size_t)ncap * size);
    if (nb == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (zero)
        memset(nb + (size_t)*cap * size, 0, (size_t)(ncap - *cap) * size);
    *buf = nb;
    *cap = ncap;
    return 0;
}

static void
ws_free(Workspace *ws)
{
    for (Py_ssize_t i = 0; i < ws->deep_cap; i++)
        PyMem_Free(ws->deepq[i].by_h);
    PyMem_Free(ws->deepq);
    PyMem_Free(ws->fifo);
    PyMem_Free(ws->seen);
    PyMem_Free(ws->rec);
    PyMem_Free(ws);
}

static inline Py_ssize_t
seen_slot(const Workspace *ws, int64_t key)
{
    Py_ssize_t mask = ws->seen_size - 1;
    Py_ssize_t i = (Py_ssize_t)(((uint64_t)key * 0x9E3779B97F4A7C15ULL)
                                >> ws->seen_shift);
    int32_t r;
    while ((r = ws->seen[i]) >= 0 && ws->rec[r].key != key)
        i = (i + 1) & mask;
    return i;
}

/* Empty the seen-map at logical ``size`` and file every record again. */
static int
seen_reset(Workspace *ws, Py_ssize_t size)
{
    if (ws_reserve((void **)&ws->seen, &ws->seen_cap, size,
                   sizeof(int32_t), 0) < 0)
        return -1;
    ws->seen_size = size;
    for (ws->seen_shift = 64; size > 1; size >>= 1)
        ws->seen_shift--;
    memset(ws->seen, 0xFF, (size_t)ws->seen_size * sizeof(int32_t));
    for (Py_ssize_t r = 0; r < ws->n_rec; r++)
        ws->seen[seen_slot(ws, ws->rec[r].key)] = (int32_t)r;
    return 0;
}

/* Append record ``r`` to ``list``. */
static inline void
fifo_push(Rec *rec, Fifo *list, int32_t r)
{
    if (list->head < 0)
        list->head = r;
    else
        rec[list->tail].next = r;
    list->tail = r;
}

/* Extend ``*len`` empty lists to cover index ``at``. */
static int
fifo_extend(Fifo **lists, Py_ssize_t *len, Py_ssize_t *cap, Py_ssize_t at)
{
    if (at < *len)
        return 0;
    if (ws_reserve((void **)lists, cap, at + 1, sizeof(Fifo), 0) < 0)
        return -1;
    memset(*lists + *len, 0xFF, (size_t)(at + 1 - *len) * sizeof(Fifo));
    *len = at + 1;
    return 0;
}

/* The open list a state at f offset ``f`` and heuristic ``h`` joins. */
static Fifo *
open_list(Workspace *ws, int deep, Py_ssize_t f, Py_ssize_t h)
{
    if (!deep)
        return fifo_extend(&ws->fifo, &ws->fifo_len, &ws->fifo_cap, f) < 0
            ? NULL : &ws->fifo[f];
    if (f >= ws->deep_len) {
        if (ws_reserve((void **)&ws->deepq, &ws->deep_cap, f + 1,
                       sizeof(Level), 1) < 0)
            return NULL;
        for (; ws->deep_len <= f; ws->deep_len++) {
            Level *lv = &ws->deepq[ws->deep_len];
            lv->h_len = lv->live = 0;
            lv->lo_h = INT64_MAX;
        }
    }
    Level *lv = &ws->deepq[f];
    if (fifo_extend(&lv->by_h, &lv->h_len, &lv->h_cap, h) < 0)
        return NULL;
    lv->live++;
    if (h < lv->lo_h)
        lv->lo_h = h;
    return &lv->by_h[h];
}

/* ------------------------------------------------------------------ */
/* Prepared grid: CSR adjacency + per-cell packed keys, filled         */
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
    Workspace *idle;       /* the workspaces no search holds */
} GridData;

static void
grid_data_free(GridData *gd)
{
    while (gd->idle != NULL) {
        Workspace *ws = gd->idle;
        gd->idle = ws->spare;
        ws_free(ws);
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
    if (gd->adj_off == NULL || gd->adj_nci == NULL
            || gd->cell_keys == NULL) {
        PyErr_NoMemory();
        goto gd_fail;
    }

    Py_ssize_t at = 0, ci = 0;
    for (long long x = 0; x < width; x++) {
        for (long long y = 0; y < height; y++, ci++) {
            gd->adj_off[ci] = at;
            gd->cell_keys[ci] = (int64_t)((x << CELL_KEY_SHIFT) | y);
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
/* The reservation store.                                              */
/*                                                                     */
/* One layout serves the three library tables (paper Sec. VI-B: the    */
/* CDT, the dense ST graph and the tiled ST graph differ only in what  */
/* they count).  Per-tick blocks of open-addressed keys hold the       */
/* vertices (x << 16 | y) reserved at t.  A stored move always arrives */
/* on a stored vertex one tick later (ReservationTable's contract), so */
/* the edges departing t - 1 are kept on the entries they arrive on:   */
/* four bits above the key, one per neighbour the move came from.  The */
/* blocks sit in a ring indexed by tick - floor; the purge advances    */
/* the floor, empties whole blocks and hands their key arrays back, so */
/* the store holds what is live.  The counts every accounting rule     */
/* reads are kept as keys come and go: live vertex ticks, entries,     */
/* edge ticks and edges, the highest vertex tick (the dense graph's    */
/* layers span [floor, high]) and, under a tiled rule, the distinct    */
/* (tick, tile) pairs, one small tile set a block.  Every allocation   */
/* goes through PyMem_*, so tracemalloc sees the store as it sees any  */
/* python object.                                                      */
/* ------------------------------------------------------------------ */

#define STORE_CAPSULE_NAME "repro.pathfinding._kernel.store"
/* Entries are a key below 2**32 and at most four bits above it. */
#define KEY_EMPTY UINT64_MAX
#define KEY_BITS 0xFFFFFFFFULL
/* The widest tick span one ring addresses (56 bytes a tick). */
#define RING_MAX_SPAN ((int64_t)1 << 24)

/* The neighbour an arrival bit names, as (dx, dy) from the entry. */
static const int64_t ARRIVAL_DX[4] = {1, -1, 0, 0};
static const int64_t ARRIVAL_DY[4] = {0, 0, 1, -1};

typedef struct {
    uint64_t *slot;
    Py_ssize_t cap, used;     /* cap 0 or a power of two, used <= cap / 2 */
} KeySet;

typedef struct {
    KeySet v, tiles;          /* vertices at t (and arrivals), tiles at t */
    int64_t arrivals;         /* edges departing t - 1 */
} Block;

typedef struct {
    PyObject *owner;          /* weak reference to the table, or NULL */
    int tile_bits;            /* < 0: no tile tally */
    int64_t height, n_cells;  /* n_cells 0: no layer to stay inside */
    int64_t floor, high;
    Block *ring;              /* tick t at ring[t & (cap - 1)] */
    int64_t cap;
    int64_t vticks, entries, eticks, edges, tile_pairs;
} Store;

static inline uint64_t *
keyset_find(const KeySet *ks, uint64_t key)
{
    uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    size_t mask = (size_t)ks->cap - 1;
    size_t i = (size_t)(h ^ (h >> 29)) & mask;
    while (ks->slot[i] != KEY_EMPTY && (ks->slot[i] & KEY_BITS) != key)
        i = (i + 1) & mask;
    return &ks->slot[i];
}

/* The entry of ``key``, or NULL. */
static inline const uint64_t *
keyset_get(const KeySet *ks, uint64_t key)
{
    if (ks->used == 0)
        return NULL;
    const uint64_t *at = keyset_find(ks, key);
    return *at == KEY_EMPTY ? NULL : at;
}

/* The entry of ``key``, made if absent (``*fresh`` says so); NULL with
 * MemoryError set when out of memory. */
static uint64_t *
keyset_add(KeySet *ks, uint64_t key, int *fresh)
{
    if ((ks->used + 1) * 2 > ks->cap) {
        KeySet big = {NULL, ks->cap ? ks->cap * 2 : 8, ks->used};
        big.slot = PyMem_Malloc((size_t)big.cap * sizeof(uint64_t));
        if (big.slot == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        memset(big.slot, 0xFF, (size_t)big.cap * sizeof(uint64_t));
        for (Py_ssize_t i = 0; i < ks->cap; i++)
            if (ks->slot[i] != KEY_EMPTY)
                *keyset_find(&big, ks->slot[i] & KEY_BITS) = ks->slot[i];
        PyMem_Free(ks->slot);
        *ks = big;
    }
    uint64_t *at = keyset_find(ks, key);
    *fresh = *at == KEY_EMPTY;
    if (*fresh) {
        *at = key;
        ks->used++;
    }
    return at;
}

static void
keyset_release(KeySet *ks)
{
    PyMem_Free(ks->slot);
    ks->slot = NULL;
    ks->cap = ks->used = 0;
}

/* Entries and arrival bits, counted from scratch (store_counts' walk). */
static void
keyset_walk(const KeySet *ks, int64_t *entries, int64_t *bits)
{
    for (Py_ssize_t i = 0; i < ks->cap; i++) {
        if (ks->slot[i] == KEY_EMPTY)
            continue;
        (*entries)++;
        for (uint64_t b = ks->slot[i] >> 32; b != 0; b >>= 1)
            *bits += (int64_t)(b & 1);
    }
}

/* The arrival bit of the unit move ``from -> to``; 0 for anything else
 * (a wait, a jump). */
static inline uint64_t
arrival_bit(uint64_t from, uint64_t to)
{
    int64_t dx = (int64_t)(from >> CELL_KEY_SHIFT)
        - (int64_t)(to >> CELL_KEY_SHIFT);
    int64_t dy = (int64_t)(from & CELL_KEY_MASK)
        - (int64_t)(to & CELL_KEY_MASK);
    for (int k = 0; k < 4; k++)
        if (dx == ARRIVAL_DX[k] && dy == ARRIVAL_DY[k])
            return (uint64_t)1 << (32 + k);
    return 0;
}

static inline Block *
store_block(const Store *st, int64_t t)
{
    if (t < st->floor || t - st->floor >= st->cap)
        return NULL;
    return &st->ring[(uint64_t)t & (uint64_t)(st->cap - 1)];
}

/* Reserve ``key`` at t >= floor, and the edge departing t - 1 whose
 * ``arrival`` bit is given (0 for none), widening the ring on demand. */
static int
store_add(Store *st, int64_t t, uint64_t key, uint64_t arrival)
{
    if (t - st->floor >= st->cap) {
        int64_t span = t - st->floor + 1, cap = st->cap ? st->cap : 64;
        if (span > RING_MAX_SPAN) {
            PyErr_SetString(PyExc_MemoryError,
                            "reservations span too many ticks");
            return -1;
        }
        while (cap < span)
            cap *= 2;
        Block *ring = PyMem_Calloc((size_t)cap, sizeof(Block));
        if (ring == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (int64_t tick = st->floor; tick - st->floor < st->cap; tick++)
            ring[(uint64_t)tick & (uint64_t)(cap - 1)] =
                st->ring[(uint64_t)tick & (uint64_t)(st->cap - 1)];
        PyMem_Free(st->ring);
        st->ring = ring;
        st->cap = cap;
    }
    Block *b = &st->ring[(uint64_t)t & (uint64_t)(st->cap - 1)];
    int fresh;
    uint64_t *at = keyset_add(&b->v, key, &fresh);
    if (at == NULL)
        return -1;
    if (arrival & ~*at) {
        *at |= arrival;
        st->eticks += b->arrivals == 0;
        b->arrivals++;
        st->edges++;
    }
    if (!fresh)
        return 0;
    st->vticks += b->v.used == 1;
    st->entries++;
    if (t > st->high)
        st->high = t;
    if (st->tile_bits >= 0) {
        uint64_t tile = ((key >> (CELL_KEY_SHIFT + st->tile_bits))
                         << CELL_KEY_SHIFT)
            | ((key & CELL_KEY_MASK) >> st->tile_bits);
        if (keyset_add(&b->tiles, tile, &fresh) == NULL)
            return -1;
        st->tile_pairs += fresh;
    }
    return 0;
}

/* Whether a vertex key lies inside the dense graph's layer (a cell
 * index x * height + y below n_cells, y below height); every key does
 * under the sparse rules. */
static int
store_key_fits(const Store *st, uint64_t key)
{
    uint64_t y = key & CELL_KEY_MASK;
    return st->n_cells == 0 || (y < (uint64_t)st->height
        && (key >> CELL_KEY_SHIFT) * (uint64_t)st->height + y
           < (uint64_t)st->n_cells);
}

static void
store_free(Store *st)
{
    for (int64_t i = 0; i < st->cap; i++) {
        keyset_release(&st->ring[i].v);
        keyset_release(&st->ring[i].tiles);
    }
    PyMem_Free(st->ring);
    Py_XDECREF(st->owner);
    PyMem_Free(st);
}

static void
store_capsule_destroy(PyObject *capsule)
{
    Store *st = PyCapsule_GetPointer(capsule, STORE_CAPSULE_NAME);
    if (st != NULL)
        store_free(st);
}

/* The store behind ``obj``: TypeError for anything but a store capsule,
 * ValueError once the table that made it is gone. */
static Store *
store_get(PyObject *obj)
{
    if (!PyCapsule_IsValid(obj, STORE_CAPSULE_NAME)) {
        PyErr_SetString(PyExc_TypeError,
                        "expected a reservation store capsule");
        return NULL;
    }
    Store *st = PyCapsule_GetPointer(obj, STORE_CAPSULE_NAME);
    if (st->owner != NULL && PyWeakref_GetObject(st->owner) == Py_None) {
        PyErr_SetString(PyExc_ValueError,
                        "the table of this reservation store is gone");
        return NULL;
    }
    return st;
}

/* Per-expansion view of the store: the arrival tick's block. */
typedef struct {
    const Store *st;
    const Block *b1;
} Probe;

/* Whether arriving on cell ``ci`` at the probe's tick hits a vertex
 * reservation. */
static inline int
probe_vertex(const Probe *p, const GridData *gd, Py_ssize_t ci)
{
    return p->b1 != NULL
        && keyset_get(&p->b1->v, (uint64_t)gd->cell_keys[ci]) != NULL;
}

/* Whether the move sci -> nci, arriving at the probe's tick, hits a
 * swap: the move nci -> sci over the same tick, which arrives on sci.
 * Worth asking only where ``sci`` is taken (the table's contract),
 * which is how every caller gates it. */
static inline int
probe_edge(const Probe *p, const GridData *gd, Py_ssize_t sci,
           Py_ssize_t nci)
{
    const uint64_t *at = p->b1 == NULL ? NULL
        : keyset_get(&p->b1->v, (uint64_t)gd->cell_keys[sci]);
    return at != NULL && (*at & arrival_bit((uint64_t)gd->cell_keys[nci],
                                            (uint64_t)gd->cell_keys[sci]));
}

/* Whether a robot on ``from`` a tick before the probe's may be on ``to``
 * at it (the table's move_allowed; ``from == to`` is a wait).  A swap
 * needs the partner to arrive on ``from``, so the edge is asked about
 * only where that vertex is taken. */
static int
probe_move(const Probe *p, const GridData *gd, Py_ssize_t from,
           Py_ssize_t to)
{
    if (probe_vertex(p, gd, to))
        return 1;
    return from != to && probe_vertex(p, gd, from)
        && probe_edge(p, gd, from, to);
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
    /* per-call state, in the borrowed workspace */
    int deep;              /* deep-tie per-(f, h) lists vs FIFO per f */
    Workspace *ws;
    int64_t hi_f;
    int64_t h0;
} Search;

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
 * nothing; mode 2 reads ``h_arg`` under store_reserve's buffer rule, as
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

/* Record a successor the search has not seen, reached from record
 * ``parent``, and push it at f-offset ``nf``; a state is reached at one
 * cost only (its layer), so the first push stands.  ``h`` is the
 * successor's heuristic (deep mode list index).  Returns 1 pushed, 0
 * seen before, -1 with MemoryError set. */
static inline int
relax(Search *s, int64_t nrel, int32_t parent, int64_t nf, int64_t h)
{
    Workspace *ws = s->ws;
    if ((ws->n_rec + 1) * 3 > ws->seen_size * 2
            && seen_reset(ws, ws->seen_size * 2) < 0)
        return -1;
    Py_ssize_t slot = seen_slot(ws, nrel);
    if (ws->seen[slot] >= 0)
        return 0;
    if (ws->n_rec == INT32_MAX) {
        PyErr_SetString(PyExc_MemoryError,
                        "a search holds at most INT32_MAX states");
        return -1;
    }
    if (ws_reserve((void **)&ws->rec, &ws->rec_cap, ws->n_rec + 1,
                   sizeof(Rec), 0) < 0)
        return -1;
    Fifo *list = open_list(ws, s->deep, (Py_ssize_t)nf, (Py_ssize_t)h);
    if (list == NULL)
        return -1;
    int32_t r = (int32_t)ws->n_rec++;
    ws->rec[r] = (Rec){nrel, parent, -1};
    ws->seen[slot] = r;
    fifo_push(ws->rec, list, r);
    if (nf > s->hi_f)
        s->hi_f = nf;
    return 1;
}

/* The leg ending at record ``r`` and going on by the ``n_tail`` keys of
 * ``tail``, checked, as a new array('q') the parent chain fills back to
 * front (a state's layer is its depth): the leg is the one buffer the
 * search allocates. */
static PyObject *
reconstruct(const Search *s, int32_t r, const int64_t *tail,
            Py_ssize_t n_tail)
{
    const Rec *rec = s->ws->rec;
    Py_ssize_t head = (Py_ssize_t)(rec[r].key >> LAYER_SHIFT) + 1;
    Py_ssize_t n = head + n_tail;
    PyObject *zero = PyObject_CallFunction(array_type, "s(i)", "q", 0);
    PyObject *out = zero == NULL ? NULL : PySequence_Repeat(zero, n);
    Py_XDECREF(zero);
    Py_buffer view;
    if (out == NULL || PyObject_GetBuffer(out, &view, PyBUF_WRITABLE) < 0) {
        Py_XDECREF(out);
        return NULL;
    }
    int64_t *keys = view.buf;
    for (Py_ssize_t i = head - 1; i >= 0; i--) {
        keys[i] = s->gd->cell_keys[rec[r].key & INT32_MAX];
        r = rec[r].parent;
    }
    if (n_tail > 0)
        memcpy(keys + head, tail, (size_t)n_tail * sizeof(int64_t));
    int bad = keys_check(keys, n);
    PyBuffer_Release(&view);
    if (bad < 0)
        Py_CLEAR(out);
    return out;
}

/* The descent of free_flow.descent from ``idx[0]``, whose value is
 * ``h``, down ``s``'s field of either kind: the first neighbour in
 * adjacency order one lower (on the Manhattan field, a step nearer the
 * goal on its axis), into ``idx[1..h]``.  -1 where the field does not
 * descend. */
static int
descent(const Search *s, int32_t *idx, int64_t h)
{
    const GridData *gd = s->gd;
    Py_ssize_t n = gd->n_cells, step = (Py_ssize_t)s->height;
    int64_t x = idx[0] / step, y = idx[0] % step;
    /* On an open floor (every edge there) that is all of x, then all of
     * y, found without reading a row. */
    int open = s->h_mode == 1
        && gd->adj_off[n] == 4 * n - 2 * (n / step) - 2 * step;
    for (int64_t i = 1; i <= h; i++) {
        Py_ssize_t ci = idx[i - 1], d = 0;
        if (open) {
            d = x != s->gx ? (x < s->gx ? step : -step) : y < s->gy ? 1 : -1;
        } else {
            Py_ssize_t a = gd->adj_off[ci];
            for (; a < gd->adj_off[ci + 1]; a++) {
                d = gd->adj_nci[a] - ci;
                if (s->h_mode == 2 ? s->hbuf[ci + d] == h - i
                        : d == step ? x < s->gx : d == -step ? x > s->gx
                        : d == 1 ? y < s->gy : y > s->gy)
                    break;
            }
            if (a == gd->adj_off[ci + 1])
                return -1;
        }
        idx[i] = (int32_t)(ci + d);
        x += d == step ? 1 : d == -step ? -1 : 0;
        y += d == step || d == -step ? 0 : d;
    }
    return 0;
}

/* cache.follow_with_waits over the descent ``indices[0..k]``: walk it
 * from ``start_t``, waiting in place wherever the next move is reserved.
 * Writes the timed keys to ``out`` (room for k + 1 + total_cap) and
 * returns their count, 0 when the walk declines (a cap is hit, or the
 * robot cannot hold its cell). */
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
            p->b1 = store_block(p->st, t + 1);
            if (!probe_move(p, gd, cur, nxt))
                break;
            /* a cap is hit, or the cell cannot be held */
            if (waited >= per_step_cap || total >= total_cap
                    || probe_vertex(p, gd, cur))
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

/* EATP's finisher walks its descent with waits at cache.follow_with_waits'
 * default caps: 64 ticks a step, 64 in all. */
#define FINISH_WAIT 64

static PyObject *
stsearch_run(PyObject *self, PyObject *args)
{
    PyObject *capsule, *store_obj, *h_arg;
    int h_mode, deep;
    Py_ssize_t source_ci, goal_ci;
    long long start_time, max_expansions, trigger;
    long long init_expansions, init_peak_open;

    if (!PyArg_ParseTuple(
            args, "OOiOnnLLLiLL:run",
            &capsule, &store_obj, &h_mode, &h_arg, &source_ci, &goal_ci,
            &start_time, &max_expansions, &trigger, &deep,
            &init_expansions, &init_peak_open))
        return NULL;

    GridData *gd = PyCapsule_GetPointer(capsule, GRID_CAPSULE_NAME);
    if (gd == NULL)
        return NULL;
    Probe probe = {store_get(store_obj), NULL};
    if (probe.st == NULL)
        return NULL;
    if (source_ci < 0 || source_ci >= gd->n_cells
            || goal_ci < 0 || goal_ci >= gd->n_cells) {
        PyErr_SetString(PyExc_IndexError, "cell outside grid");
        return NULL;
    }

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

    int herr = 0;
    s.h0 = heuristic_at(&s, source_ci, &herr);
    if (herr) {
        if (have_hview)
            PyBuffer_Release(&hview);
        return NULL;
    }

    /* The grid's idle workspace, or a new one, seeded with the source;
     * every exit from here on hands it back (or frees it, if it grew
     * past what the grid keeps). */
    int status = ST_EXHAUSTED;
    int32_t result = -1;          /* the record the leg ends on */
    PyObject *keys = NULL;        /* owned on success */
    PyObject *out = NULL;
    Workspace *ws = gd->idle;
    if (ws != NULL)
        gd->idle = ws->spare;
    else if ((ws = PyMem_Calloc(1, sizeof(Workspace))) == NULL) {
        if (have_hview)
            PyBuffer_Release(&hview);
        return PyErr_NoMemory();
    }
    /* The finisher's: the cells its walks started from, and room for a
     * descent (h <= trigger, never past n_cells) and its walk. */
    PyObject *tried = PyList_New(0);
    int64_t cap = trigger < s.n_cells ? trigger : s.n_cells;
    int32_t *walk_idx = NULL;
    int64_t *walk = NULL;
    Py_ssize_t n_walk = 0;
    if (cap > 0) {
        walk_idx = PyMem_Malloc((size_t)(cap + 1) * sizeof(int32_t));
        walk = PyMem_Malloc((size_t)(cap + 1 + FINISH_WAIT)
                            * sizeof(int64_t));
    }
    s.ws = ws;
    ws->n_rec = ws->fifo_len = ws->deep_len = 0;
    if (tried == NULL || (cap > 0 && (walk_idx == NULL || walk == NULL))) {
        if (tried != NULL)
            PyErr_NoMemory();
        goto fail;
    }
    if (seen_reset(ws, SEEN_START) < 0
            || relax(&s, source_ci, -1, 0, s.h0) < 0)
        goto fail;

    int64_t f_off = 0;           /* list cursor (f - h0) */
    int64_t f_abs = s.h0;        /* absolute f at the cursor */
    int64_t open_size = 1;
    int64_t expansions = (int64_t)init_expansions;
    int64_t generated = 0;
    int64_t peak_open = (int64_t)init_peak_open;
    int64_t loop_ticker = 0;

    while (open_size > 0) {
        if (((++loop_ticker) & 0x3FFF) == 0 && PyErr_CheckSignals() < 0)
            goto fail;

        /* -- pop ------------------------------------------------------ */
        Fifo *list = NULL;
        Level *lv = NULL;
        if (s.deep) {
            while (f_off < ws->deep_len && ws->deepq[f_off].live == 0) {
                f_off++;
                f_abs++;
            }
            if (f_off <= s.hi_f && f_off < ws->deep_len) {
                lv = &ws->deepq[f_off];
                while (lv->lo_h < lv->h_len && lv->by_h[lv->lo_h].head < 0)
                    lv->lo_h++;
                if (lv->lo_h < lv->h_len)
                    list = &lv->by_h[lv->lo_h];
            }
        } else {
            while (f_off < ws->fifo_len && ws->fifo[f_off].head < 0) {
                f_off++;
                f_abs++;
            }
            if (f_off <= s.hi_f && f_off < ws->fifo_len)
                list = &ws->fifo[f_off];
        }
        if (list == NULL) {
            PyErr_SetString(PyExc_AssertionError,
                            "bucket queue underflow: heuristic field "
                            "is not consistent");
            goto fail;
        }
        if (open_size > peak_open)
            peak_open = open_size;
        int32_t cur = list->head;
        list->head = ws->rec[cur].next;
        if (lv != NULL)
            lv->live--;
        open_size--;
        int64_t rel = ws->rec[cur].key;

        int64_t t_rel = rel >> LAYER_SHIFT;
        Py_ssize_t ci = (Py_ssize_t)(rel & INT32_MAX);
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
            result = cur;
            goto done;
        }

        if (h_ci > 0 && h_ci <= trigger) {
            /* EATP's finisher: from here, the descent walked with waits */
            PyObject *cell = PyLong_FromSsize_t(ci);
            int bad = cell == NULL || PyList_Append(tried, cell) < 0;
            Py_XDECREF(cell);
            if (bad)
                goto fail;
            walk_idx[0] = (int32_t)ci;
            if (h_ci <= s.n_cells && descent(&s, walk_idx, h_ci) == 0
                    && (n_walk = rescue_walk(&probe, gd, walk_idx, h_ci,
                                             start_time + t_rel, FINISH_WAIT,
                                             FINISH_WAIT, walk)) > 0) {
                status = ST_FINISHER;
                result = cur;
                goto done;
            }
        }

        int64_t t1 = start_time + t_rel + 1;
        int64_t nxt_base = (t_rel + 1) << LAYER_SHIFT;
        int64_t base_f = t_rel + 1 - s.h0;

        /* this pop's arrival tick (a signal handler may have reserved) */
        probe.b1 = store_block(probe.st, t1);

        /* Wait in place (the fifth action) — vertex check only.  A
         * refusal means someone arrives here at t1, the one case in
         * which a move out of this cell can be a swap. */
        int held = probe_vertex(&probe, gd, ci);
        if (!held) {
            int pushed = relax(&s, nxt_base + ci, cur, base_f + h_ci, h_ci);
            if (pushed < 0)
                goto fail;
            if (pushed) {
                generated++;
                open_size++;
            }
        }

        /* The four moves, in adjacency order. */
        for (Py_ssize_t a = gd->adj_off[ci]; a < gd->adj_off[ci + 1]; a++) {
            Py_ssize_t nci = (Py_ssize_t)gd->adj_nci[a];
            if (probe_vertex(&probe, gd, nci)
                    || (held && probe_edge(&probe, gd, ci, nci)))
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
            int pushed = relax(&s, nxt_base + nci, cur, base_f + nh, nh);
            if (pushed < 0)
                goto fail;
            if (pushed) {
                generated++;
                open_size++;
            }
        }
    }

done:
    /* the walk's first key is the head's last */
    if (result >= 0)
        keys = status == ST_FINISHER
            ? reconstruct(&s, result, walk + 1, n_walk - 1)
            : reconstruct(&s, result, NULL, 0);
    if (result < 0 || keys != NULL)
        out = Py_BuildValue(
            "iOOLLL", status, keys ? keys : Py_None, tried,
            (long long)expansions, (long long)generated,
            (long long)peak_open);
fail:
    Py_XDECREF(keys);
    Py_XDECREF(tried);
    PyMem_Free(walk_idx);
    PyMem_Free(walk);
    if (ws->rec_cap > WS_KEEP_RECORDS) {
        ws_free(ws);
    } else {
        ws->spare = gd->idle;
        gd->idle = ws;
    }
    if (have_hview)
        PyBuffer_Release(&hview);
    return out;
}

/* ------------------------------------------------------------------ */
/* Store entry points: the paper's insertion (store_reserve) and       */
/* periodic update (store_purge), the probe python asks one key at a   */
/* time (store_probe), the counts every accounting rule reads          */
/* (store_counts) and the python layout in and out (store_new's state, */
/* store_export).  Conflict search proper is run and tier0_leg.  Each  */
/* refuses bad arguments before it changes anything.                   */
/* ------------------------------------------------------------------ */

/* Load store_export's ``(floor, edge_floor, high, {t: vertex keys},
 * {t: edge keys})`` into an empty store.  The python layouts keep both
 * floors equal and every edge's arrival vertex stored; a state that
 * does not is refused. */
static int
store_load(Store *st, PyObject *state)
{
    long long floor, edge_floor, high;
    PyObject *dicts[2];
    if (!PyTuple_Check(state)) {
        PyErr_SetString(PyExc_TypeError, "store state must be a tuple");
        return -1;
    }
    if (!PyArg_ParseTuple(state, "LLLO!O!:store_new", &floor, &edge_floor,
                          &high, &PyDict_Type, &dicts[0], &PyDict_Type,
                          &dicts[1]))
        return -1;
    if (floor != edge_floor) {
        PyErr_SetString(PyExc_ValueError,
                        "store state with two different floors");
        return -1;
    }
    st->floor = floor;
    st->high = high;
    for (int edge = 0; edge < 2; edge++) {
        PyObject *tick, *keys, *item;
        Py_ssize_t pos = 0;
        while (PyDict_Next(dicts[edge], &pos, &tick, &keys)) {
            long long t = PyLong_AsLongLong(tick);
            PyObject *it = t == -1 && PyErr_Occurred()
                ? NULL : PyObject_GetIter(keys);
            if (it == NULL)
                return -1;
            int rc = 0;
            while (rc == 0 && (item = PyIter_Next(it)) != NULL) {
                uint64_t key = PyLong_AsUnsignedLongLong(item);
                Py_DECREF(item);
                uint64_t to = key & KEY_BITS;
                uint64_t bit = edge ? arrival_bit(key >> 32, to) : 0;
                const Block *b = store_block(st, t + edge);
                if (PyErr_Occurred() || (edge ? bit == 0
                        : key > KEY_BITS || !store_key_fits(st, key))) {
                    PyErr_Clear();
                    PyErr_Format(PyExc_ValueError,
                                 "not a packed %s key at tick %lld",
                                 edge ? "edge" : "cell", t);
                    rc = -1;
                } else if (t < floor) {
                    continue;
                } else if (edge && (b == NULL
                                    || keyset_get(&b->v, to) == NULL)) {
                    PyErr_Format(PyExc_ValueError, "an edge departing "
                                 "%lld without its arrival vertex", t);
                    rc = -1;
                } else {
                    rc = store_add(st, t + edge, to, bit);
                }
            }
            Py_DECREF(it);
            if (rc < 0 || PyErr_Occurred())
                return -1;
        }
    }
    return 0;
}

static PyObject *
stsearch_store_new(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *owner, *state = Py_None;
    int tile_bits;
    long long height, n_cells;
    if (!PyArg_ParseTuple(args, "OiLL|O:store_new", &owner, &tile_bits,
                          &height, &n_cells, &state))
        return NULL;
    if (tile_bits > CELL_KEY_SHIFT || height < 0 || n_cells < 0
            || (height == 0) != (n_cells == 0)) {
        PyErr_SetString(PyExc_ValueError, "store rule out of range");
        return NULL;
    }
    Store *st = PyMem_Calloc(1, sizeof(Store));
    if (st == NULL)
        return PyErr_NoMemory();
    st->tile_bits = tile_bits < 0 ? -1 : tile_bits;
    st->height = height;
    st->n_cells = n_cells;
    if (owner != Py_None
            && (st->owner = PyWeakref_NewRef(owner, NULL)) == NULL) {
        store_free(st);
        return NULL;
    }
    PyObject *capsule = PyCapsule_New(st, STORE_CAPSULE_NAME,
                                      store_capsule_destroy);
    if (capsule == NULL) {
        store_free(st);
        return NULL;
    }
    if (state != Py_None && store_load(st, state) < 0)
        Py_CLEAR(capsule);
    return capsule;
}

static PyObject *
stsearch_store_reserve(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *store_obj, *keys_obj;
    long long start;
    if (!PyArg_ParseTuple(args, "OLO:store_reserve", &store_obj, &start,
                          &keys_obj))
        return NULL;
    Store *st = store_get(store_obj);
    Py_buffer view;
    if (st == NULL
            || PyObject_GetBuffer(keys_obj, &view, PyBUF_RECORDS_RO) < 0)
        return NULL;
    int rc = -1;
    const int64_t *keys = view.buf;
    Py_ssize_t n = view.ndim == 1 ? view.shape[0] : 0;
    if (view.ndim != 1 || view.itemsize != (Py_ssize_t)sizeof(int64_t)
            || view.format == NULL
            || (strcmp(view.format, "q") && strcmp(view.format, "l"))) {
        PyErr_SetString(PyExc_TypeError,
                        "keys must be a one-dimensional int64 buffer");
        goto done;
    }
    if (!PyBuffer_IsContiguous(&view, 'C')) {
        PyErr_SetString(PyExc_ValueError, "keys buffer is not contiguous");
        goto done;
    }
    if (keys_check(keys, n) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!store_key_fits(st, (uint64_t)keys[i])) {
            PyErr_SetString(PyExc_IndexError,
                            "cell index outside dense layer");
            goto done;
        }
    }
    /* the move into step i departs at t - 1: stored from the floor up */
    rc = 0;
    for (Py_ssize_t i = 0; i < n && rc == 0; i++) {
        int64_t t = (int64_t)start + i;
        if (t >= st->floor)
            rc = store_add(st, t, (uint64_t)keys[i],
                           i > 0 && t > st->floor
                           ? arrival_bit((uint64_t)keys[i - 1],
                                         (uint64_t)keys[i]) : 0);
    }
done:
    PyBuffer_Release(&view);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
stsearch_store_purge(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *store_obj;
    long long t;
    if (!PyArg_ParseTuple(args, "OL:store_purge", &store_obj, &t))
        return NULL;
    Store *st = store_get(store_obj);
    if (st == NULL)
        return NULL;
    if (t <= st->floor)
        Py_RETURN_NONE;
    for (int64_t tick = st->floor; tick < t && tick - st->floor < st->cap;
            tick++) {
        Block *b = &st->ring[(uint64_t)tick & (uint64_t)(st->cap - 1)];
        st->vticks -= b->v.used > 0;
        st->entries -= b->v.used;
        st->eticks -= b->arrivals > 0;
        st->edges -= b->arrivals;
        st->tile_pairs -= b->tiles.used;
        keyset_release(&b->v);
        keyset_release(&b->tiles);
        b->arrivals = 0;
    }
    st->floor = t;
    /* the edges departing t - 1 go too: they arrive on the new floor */
    Block *b = store_block(st, t);
    if (b != NULL && b->arrivals > 0) {
        for (Py_ssize_t i = 0; i < b->v.cap; i++)
            if (b->v.slot[i] != KEY_EMPTY)
                b->v.slot[i] &= KEY_BITS;
        st->eticks--;
        st->edges -= b->arrivals;
        b->arrivals = 0;
    }
    Py_RETURN_NONE;
}

static PyObject *
stsearch_store_probe(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *store_obj;
    long long t, key, target = -1;
    if (!PyArg_ParseTuple(args, "OLL|L:store_probe", &store_obj, &t, &key,
                          &target))
        return NULL;
    Store *st = store_get(store_obj);
    if (st == NULL)
        return NULL;
    /* the reversed move target -> key departing t arrives on key at t + 1 */
    const Block *b = store_block(st, target < 0 ? t : t + 1);
    const uint64_t *at = b == NULL ? NULL : keyset_get(&b->v, (uint64_t)key);
    return PyBool_FromLong(at != NULL && (target < 0 || (
        *at & arrival_bit((uint64_t)target, (uint64_t)key))));
}

static PyObject *
stsearch_store_counts(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *store_obj;
    int walk = 0;
    if (!PyArg_ParseTuple(args, "O|p:store_counts", &store_obj, &walk))
        return NULL;
    Store *st = store_get(store_obj);
    if (st == NULL)
        return NULL;
    int64_t vticks = st->vticks, entries = st->entries, eticks = st->eticks;
    int64_t edges = st->edges, tiles = st->tile_pairs;
    if (walk) {
        vticks = entries = eticks = edges = tiles = 0;
        for (int64_t i = 0; i < st->cap; i++) {
            int64_t v = 0, e = 0;
            keyset_walk(&st->ring[i].v, &v, &e);
            keyset_walk(&st->ring[i].tiles, &tiles, &e);
            vticks += v > 0;
            entries += v;
            eticks += e > 0;
            edges += e;
        }
    }
    /* ticks: live vertex ticks, or the dense layers over [floor, high];
     * units: entries, layers, or (tick, tile) pairs */
    int64_t ticks = st->n_cells == 0 ? vticks
        : vticks > 0 ? st->high - st->floor + 1 : 0;
    int64_t units = st->tile_bits >= 0 ? tiles
        : st->n_cells > 0 ? ticks : entries;
    return Py_BuildValue("LLLL", (long long)ticks, (long long)units,
                         (long long)eticks, (long long)edges);
}

/* A block's keys as a python set: its vertices, or (``edges``) the
 * moves arriving on them, as source << 32 | target. */
static PyObject *
block_to_set(const Block *b, int edges)
{
    PyObject *set = PySet_New(NULL);
    for (Py_ssize_t i = 0; set != NULL && i < b->v.cap; i++) {
        uint64_t entry = b->v.slot[i], to = entry & KEY_BITS;
        for (int k = -1; entry != KEY_EMPTY && k < 4; k++) {
            if (edges != (k >= 0)
                    || (k >= 0 && !(entry >> (32 + k) & 1)))
                continue;
            uint64_t key = k < 0 ? to
                : (uint64_t)((((int64_t)(to >> CELL_KEY_SHIFT)
                               + ARRIVAL_DX[k]) << CELL_KEY_SHIFT)
                             | ((int64_t)(to & CELL_KEY_MASK)
                                + ARRIVAL_DY[k])) << 32 | to;
            PyObject *obj = PyLong_FromUnsignedLongLong(key);
            if (obj == NULL || PySet_Add(set, obj) < 0)
                Py_CLEAR(set);
            Py_XDECREF(obj);
            if (set == NULL)
                break;
        }
    }
    return set;
}

static PyObject *
stsearch_store_export(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *store_obj;
    if (!PyArg_ParseTuple(args, "O:store_export", &store_obj))
        return NULL;
    Store *st = store_get(store_obj);
    if (st == NULL)
        return NULL;
    PyObject *dicts[2] = {PyDict_New(), PyDict_New()};
    for (int64_t t = st->floor; t - st->floor < st->cap; t++) {
        const Block *b = store_block(st, t);
        for (int edges = 0; edges < 2; edges++) {
            if (dicts[edges] == NULL
                    || (edges ? b->arrivals : b->v.used) == 0)
                continue;
            /* edges are keyed by their departure tick */
            PyObject *tick = PyLong_FromLongLong((long long)(t - edges));
            PyObject *keys = block_to_set(b, edges);
            if (tick == NULL || keys == NULL
                    || PyDict_SetItem(dicts[edges], tick, keys) < 0)
                Py_CLEAR(dicts[edges]);
            Py_XDECREF(tick);
            Py_XDECREF(keys);
        }
    }
    if (dicts[0] == NULL || dicts[1] == NULL) {
        Py_XDECREF(dicts[0]);
        Py_XDECREF(dicts[1]);
        return NULL;
    }
    return Py_BuildValue("(LLLNN)", (long long)st->floor,
                         (long long)st->floor, (long long)st->high,
                         dicts[0], dicts[1]);
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
/* the same probes, answering a served leg in one call; with a trigger */
/* EATP's finisher walks on from the head.  Bit-identity with the      */
/* python bodies is pinned by the equivalence suites.                  */
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

/* knn_fill: StaticRackKNN's table, each cell's K racks of least      */
/* (Manhattan distance, id).  A rack in a cell's top K is in that of   */
/* the neighbour one step nearer its home, so each level's accepted    */
/* labels are offered one step outward along one canonical path per    */
/* (cell, rack), x steps then y on the home column.  Seeded in id      */
/* order, every level keeps it, and a cell takes its first K offers.   */

typedef struct { int32_t ci, rack; } KnnLabel;

static PyObject *
stsearch_knn_fill(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *homes_obj, *out_obj;
    Py_ssize_t width, height;
    if (!PyArg_ParseTuple(args, "OnnO:knn_fill", &homes_obj, &width,
                          &height, &out_obj))
        return NULL;
    Py_buffer hv, ov;
    if (PyObject_GetBuffer(homes_obj, &hv, PyBUF_RECORDS_RO) < 0)
        return NULL;
    if (PyObject_GetBuffer(out_obj, &ov, PyBUF_RECORDS_RO) < 0) {
        PyBuffer_Release(&hv);
        return NULL;
    }
    PyObject *result = NULL;
    int32_t *count = NULL;
    KnnLabel *level[2] = {NULL, NULL};   /* the last level, the next */
    Py_ssize_t len[2] = {0, 0}, cap[2] = {0, 0}, nb = 0;
    Py_ssize_t n = hv.ndim == 2 ? hv.shape[0] : 0;
    int wide = ov.itemsize == 4;
    if (hv.ndim != 2 || hv.shape[1] != 2 || hv.itemsize != 8
            || hv.format == NULL
            || (strcmp(hv.format, "q") && strcmp(hv.format, "l"))
            || ov.format == NULL
            || !((ov.itemsize == 2 && !strcmp(ov.format, "h"))
                 || (wide && (!strcmp(ov.format, "i")
                              || (sizeof(long) == 4
                                  && !strcmp(ov.format, "l")))))) {
        PyErr_SetString(PyExc_TypeError, "homes must be an (n, 2) int64 "
                        "buffer and out an int16 or int32 one");
        goto done;
    }
    Py_ssize_t k = ov.ndim == 3 ? ov.shape[2] : 0;
    if (ov.ndim != 3 || ov.shape[0] != width || ov.shape[1] != height
            || width < 1 || height < 1 || width * height > INT32_MAX
            || !PyBuffer_IsContiguous(&hv, 'C') || ov.readonly
            || !PyBuffer_IsContiguous(&ov, 'C')) {
        PyErr_SetString(PyExc_ValueError, "homes and a writable out "
                        "must be C-contiguous, out (width, height, K)");
        goto done;
    }
    if (k < 1 || k > n || n > (wide ? INT32_MAX : 32768)) {
        PyErr_SetString(PyExc_ValueError,
                        "K must be in [1, n] and every id fit out's dtype");
        goto done;
    }
    const int64_t *homes = hv.buf;
    for (Py_ssize_t r = 0; r < n; r++)
        if ((uint64_t)homes[2 * r] >= (uint64_t)width
                || (uint64_t)homes[2 * r + 1] >= (uint64_t)height) {
            PyErr_SetString(PyExc_IndexError, "rack home outside the floor");
            goto done;
        }
    count = PyMem_Calloc((size_t)(width * height), sizeof(int32_t));
    if (count == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* a cell with room takes the rack, to pass on at the next level */
#define KNN_OFFER(cell, r) do {                                         \
        Py_ssize_t c_ = (cell);                                         \
        if (count[c_] < k) {                                            \
            Py_ssize_t at_ = c_ * k + count[c_]++;                      \
            if (wide) ((int32_t *)ov.buf)[at_] = (r);                   \
            else ((int16_t *)ov.buf)[at_] = (int16_t)(r);               \
            level[nb][len[nb]++] = (KnnLabel){(int32_t)c_, (r)};        \
        }                                                               \
    } while (0)
    if (ws_reserve((void **)&level[0], &cap[0], n, sizeof(KnnLabel), 0) < 0)
        goto done;
    for (int32_t r = 0; r < n; r++)
        KNN_OFFER(homes[2 * r] * height + homes[2 * r + 1], r);
    for (Py_ssize_t last = 0; len[last]; last ^= 1) {
        nb = last ^ 1;
        len[nb] = 0;
        for (Py_ssize_t i = 0; i < len[last]; i++) {
            if (ws_reserve((void **)&level[nb], &cap[nb], len[nb] + 4,
                           sizeof(KnnLabel), 0) < 0)
                goto done;
            KnnLabel l = level[last][i];
            Py_ssize_t ci = l.ci, x = ci / height, y = ci % height;
            int32_t r = l.rack;
            int64_t hx = homes[2 * r], hy = homes[2 * r + 1];
            if (x >= hx && x + 1 < width)
                KNN_OFFER(ci + height, r);
            if (x <= hx && x > 0)
                KNN_OFFER(ci - height, r);
            if (x == hx && y >= hy && y + 1 < height)
                KNN_OFFER(ci + 1, r);
            if (x == hx && y <= hy && y > 0)
                KNN_OFFER(ci - 1, r);
        }
    }
#undef KNN_OFFER
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(count);
    PyMem_Free(level[0]);
    PyMem_Free(level[1]);
    PyBuffer_Release(&ov);
    PyBuffer_Release(&hv);
    return result;
}

static PyObject *
stsearch_tier0_leg(PyObject *self, PyObject *args)
{
    (void)self;
    int h_mode;
    PyObject *capsule, *store_obj, *h_arg;
    Py_ssize_t source_ci, goal_ci;
    long long start_t_ll, trigger_ll, per_step_ll, total_ll;
    if (!PyArg_ParseTuple(args, "OOiOnnLLLL:tier0_leg",
                          &capsule, &store_obj, &h_mode, &h_arg, &source_ci,
                          &goal_ci, &start_t_ll, &trigger_ll,
                          &per_step_ll, &total_ll))
        return NULL;
    GridData *gd = PyCapsule_GetPointer(capsule, GRID_CAPSULE_NAME);
    if (gd == NULL)
        return NULL;
    Probe probe = {store_get(store_obj), NULL};
    if (probe.st == NULL)
        return NULL;
    if (source_ci < 0 || source_ci >= gd->n_cells
            || goal_ci < 0 || goal_ci >= gd->n_cells) {
        PyErr_SetString(PyExc_IndexError, "cell outside grid");
        return NULL;
    }
    /* Both caps zero is "rescue off"; otherwise each is a tick count
     * (pipeline.RESCUE_CAPS are 16 and 96), and the total sizes the
     * output buffer. */
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

    Py_buffer hview;
    int have_hview = h_field_open(h_mode, h_arg, gd->n_cells, &hview);
    if (have_hview < 0)
        return NULL;
    Search s = {.gd = gd, .height = gd->height, .n_cells = gd->n_cells,
                .hbuf = have_hview ? (const int32_t *)hview.buf : NULL,
                .h_mode = h_mode, .gx = goal_ci / gd->height,
                .gy = goal_ci % gd->height};
    PyObject *out = NULL;
    int verdict = 0;              /* 0: no descent (the goal unreachable) */
    Py_ssize_t n = 0, tried = -1;
    int herr = 0;
    int64_t k = heuristic_at(&s, source_ci, &herr);
    int32_t *indices = NULL;
    int64_t *keys = NULL;
    if (herr)
        goto fail;
    if (k > (int64_t)gd->n_cells)   /* the field's unreachable marker */
        goto answer;
    indices = PyMem_Malloc((size_t)(k + 1) * sizeof(int32_t));
    keys = PyMem_Malloc((size_t)(k + 1 + (total_ll > FINISH_WAIT
                                          ? total_ll : FINISH_WAIT))
                        * sizeof(int64_t));
    if (indices == NULL || keys == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    indices[0] = (int32_t)source_ci;
    if (descent(&s, indices, k) < 0)
        goto answer;

    /* -- bulk audit (audit_chain semantics: vertex at arrival tick,
     *    reversed swap probe at departure tick, first hit wins) ------- */
    int use_fin = trigger > 0 && k > 0;
    int64_t head = k;   /* moves to audit: all, or up to the trigger cell */
    if (use_fin)
        head = k > trigger ? k - trigger : 0;
    int blocked = 0;
    for (int64_t i = 1; i <= head && !blocked; i++) {
        /* a descent never waits, so every step is a move */
        probe.b1 = store_block(probe.st, start_t + i);
        blocked = probe_move(&probe, gd, (Py_ssize_t)indices[i - 1],
                             (Py_ssize_t)indices[i]);
    }

    /* -- verdict + payload -------------------------------------------- */
    if (!blocked) {
        /* 1: the whole descent is the leg.  2: the head audited clean
         * and EATP's finisher walks on from its last cell (no keys where
         * the walk declines). */
        for (n = 0; n <= head; n++)
            keys[n] = gd->cell_keys[indices[n]];
        verdict = use_fin ? 2 : 1;
        if (use_fin) {
            tried = indices[head];
            n = rescue_walk(&probe, gd, indices + head, k - head,
                            start_t + head, FINISH_WAIT, FINISH_WAIT,
                            keys + head);
            n = n > 0 ? head + n : 0;
        }
    } else {
        /* 4: the rescue walked it with waits.  3: reject (rescue off or
         * declined) — nothing to carry, tier 1 decides. */
        if (total_ll > 0)
            n = rescue_walk(&probe, gd, indices, k, start_t,
                            (int64_t)per_step_ll, (int64_t)total_ll, keys);
        verdict = n > 0 ? 4 : 3;
    }

answer:
    if (n == 0) {
        out = Py_BuildValue(tried < 0 ? "(iO[])" : "(iO[n])", verdict,
                            Py_None, tried);
    } else {
        PyObject *payload = keys_export(keys, n);
        if (payload != NULL)
            out = Py_BuildValue(tried < 0 ? "(iN[])" : "(iN[n])", verdict,
                                payload, tried);
    }
fail:
    PyMem_Free(keys);
    PyMem_Free(indices);
    if (have_hview)
        PyBuffer_Release(&hview);
    return out;
}

/* ------------------------------------------------------------------ */

static PyMethodDef stsearch_methods[] = {
    {"prepare_grid", stsearch_prepare_grid, METH_VARARGS,
     "prepare_grid(width, height, blocked_mask) -> capsule\n"
     "Build a grid's adjacency arrays from its blocked-cell mask."},
    {"run", stsearch_run, METH_VARARGS,
     "run(grid_capsule, store, h_mode, h_arg, source_ci, goal_ci,\n"
     "    start_time, max_expansions, trigger, deep,\n"
     "    init_expansions, init_peak_open)\n"
     " -> (status, keys, tried, expansions, generated, peak_open)\n"
     "h_mode 1 is native Manhattan (h_arg: the goal's (x, y)), 2 a\n"
     "one-dimensional int32 buffer of n_cells values.  At each pop with\n"
     "0 < h <= trigger EATP's finisher walks the field's descent with\n"
     "waits (64 a step, 64 in all); ``tried`` lists the cell indices it\n"
     "started from, in order.  Status 0 found the goal, 4 finished by a\n"
     "walk, 1 spent the budget, 2 emptied the open set.  ``keys`` is the\n"
     "whole leg as an array('q') of packed cell keys, one per tick from\n"
     "start_time; None when the search failed."},
    {"store_new", stsearch_store_new, METH_VARARGS,
     "store_new(owner, tile_bits, height, n_cells, state=None) -> store\n"
     "A reservation store for ``owner`` (held weakly; None for none).\n"
     "tile_bits >= 0 tallies (tick, tile) pairs; n_cells > 0 bounds the\n"
     "vertex keys to a height x (n_cells / height) layer.  ``state`` is\n"
     "what store_export returned, loaded under the reserve rules."},
    {"store_reserve", stsearch_store_reserve, METH_VARARGS,
     "store_reserve(store, start_time, keys) -> None\n"
     "Insert a path's vertices at or above the floor and its moves at or\n"
     "above the edge floor.  ``keys`` is any contiguous one-dimensional\n"
     "int64 buffer of packed cell keys; a buffer that breaks the path\n"
     "rule or leaves the layer raises before anything is inserted."},
    {"store_purge", stsearch_store_purge, METH_VARARGS,
     "store_purge(store, t) -> None\n"
     "Drop all reservations strictly before t (the periodic update)."},
    {"store_probe", stsearch_store_probe, METH_VARARGS,
     "store_probe(store, t, key[, target]) -> bool\n"
     "Whether the vertex key is reserved at t or, given ``target``, the\n"
     "reversed move target -> key departing t is (a swap)."},
    {"store_counts", stsearch_store_counts, METH_VARARGS,
     "store_counts(store, walk=False) -> (ticks, units, edge_ticks, edges)\n"
     "ticks: live vertex ticks, or the dense layers over [floor, high];\n"
     "units: entries, layers, or (tick, tile) pairs.  ``walk`` counts\n"
     "the blocks from scratch instead of reading the kept counts."},
    {"store_export", stsearch_store_export, METH_VARARGS,
     "store_export(store)\n"
     " -> (floor, edge_floor, high, {t: set(keys)}, {t: set(edges)})"},
    {"bfs_fill", stsearch_bfs_fill, METH_VARARGS,
     "bfs_fill(grid_capsule, source_ci, buffer, unreached) -> None\n"
     "Flood true shortest-path distances from source_ci into a writable\n"
     "int32 buffer of n_cells entries; unvisited cells keep the\n"
     "``unreached`` sentinel (must not collide with a real distance)."},
    {"knn_fill", stsearch_knn_fill, METH_VARARGS,
     "knn_fill(homes, width, height, out) -> None\n"
     "Write each cell's K racks of least (Manhattan distance, id) from the\n"
     "(n, 2) int64 ``homes`` into the writable C-contiguous (width,\n"
     "height, K) int16/int32 ``out``; 1 <= K <= n, every home on the floor."},
    {"tier0_leg", stsearch_tier0_leg, METH_VARARGS,
     "tier0_leg(grid_capsule, store, h_mode, h_arg, source_ci, goal_ci,\n"
     "    start_t, trigger, rescue_wait_per_step, rescue_total_wait)\n"
     " -> (verdict, keys, tried)\n"
     "Fused free-flow descent + bulk reservation audit + wait-following\n"
     "rescue (both caps 0 = off; h_mode as for run, h_arg unused by 1).\n"
     "Verdicts: 0 unreachable; 1 conflict-free (keys: the leg); 2 the\n"
     "head up to h = trigger audited clean and EATP's finisher walked on\n"
     "from its last cell as in run (keys: the whole leg, None where the\n"
     "walk declined; tried: that cell's index); 3 audit reject; 4 rescued\n"
     "(keys: the leg with its waits).  ``keys`` is an array('q') of\n"
     "packed cell keys, one per tick from start_t; ``tried`` is empty\n"
     "but for verdict 2."},
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
