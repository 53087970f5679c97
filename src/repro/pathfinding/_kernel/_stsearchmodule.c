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
 * path, and every SearchStats counter.  The open set holds the cursor's
 * f level only (a successor is made when the cursor reaches its level;
 * see the workspace below): one FIFO list reproduces the heap's (f, tie)
 * order, and the deep-tie order (f, -g, tie) is one list per h = f - g,
 * consumed smallest-h (i.e. deepest-g) first, FIFO within a list.  A
 * state is pushed once (its g is its layer), so nothing in a list is
 * ever stale; a field that is not consistent would put a state behind
 * the cursor and is refused with AssertionError where it shows.  The
 * records, a stamp per cell (the seen-set: within one f level a cell
 * names the state) and the lists live in a workspace the grid keeps
 * between calls (freed with the grid; a search that outgrew
 * WS_KEEP_RECORDS frees its own), so a warm run() allocates only the
 * leg it returns; a search a python signal handler starts while run()
 * waits borrows another workspace.
 *
 * EATP's cache-aided finisher (Sec. VI-B) is data, not a callback: run()
 * and leg() take its trigger L and walk the goal field's descent with
 * waits themselves, handing back the cells each walk started from.
 * leg() is tier 0, then run()'s search where tier 0 made no leg, then
 * the insert of the leg it made: one crossing per compiled leg.
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

#include <math.h>
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
/* cell keys, one per consecutive tick (paths.Path.keys): run and leg */
/* hand out an array('q'), store_reserve takes any                     */
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
/* The search workspace.  A state the search has made is one record,   */
/* appended in push order: its key (layer << 32 | flat cell index;     */
/* every action costs one tick, so a state's g is its layer, read off  */
/* the key, never stored), the record it was first reached from and    */
/* the next record of its open list.                                   */
/*                                                                     */
/* A state is made when the cursor reaches its f level.  A pop on      */
/* level L probes its wait and pushes only its successors on L, the    */
/* moves toward the goal.  The others wait, as a parent and a cell, on */
/* the list of the level they lie on: the wait on L + 1, a move that   */
/* raises h by k on L + 1 + k, its probe put off.  When the cursor     */
/* first reaches a level, before its first pop, its list is probed and */
/* pushed in order: pop order, each parent's wait first and then its   */
/* adjacency row.  A state's level is its g + h, whoever reaches it,   */
/* and the cursor only moves up, so each level receives its states in  */
/* the order an eager search pushes them and the same parent claims    */
/* each one: the pops are the eager search's, and no move above the    */
/* level a search ends on is probed or made.  So the open set is the   */
/* cursor's level alone: intrusive FIFO lists threaded through         */
/* ``next``, one per h (deep-tie order) or a single one (FIFO order).  */
/*                                                                     */
/* Every state the search makes lies on the cursor's level L, and      */
/* there a state's layer is h0 + L - h(cell): within a level the cell  */
/* names the state.  So the seen-set is a stamp per cell: a cell holds */
/* the mark of the level that last made a state on it, the mark is     */
/* bumped at the source and at each level entry, and every stamp is    */
/* cleared when the mark wraps.                                        */
/*                                                                     */
/* A workspace belongs to its grid and outlives the call: run() resets */
/* lengths, not memory, and re-initialises entries as it extends them, */
/* so a warm search allocates nothing (up to the arena the grid        */
/* keeps).  A search a signal handler starts inside run() takes        */
/* another of the grid's.                                              */
/* ------------------------------------------------------------------ */

#define LAYER_SHIFT 32
/* The largest record arena, and deferred-successor arena, a grid keeps
 * between calls (1 MB each): the rare deep search frees its workspace
 * rather than pin it on the grid. */
#define WS_KEEP_RECORDS ((Py_ssize_t)1 << 16)

typedef struct {
    int64_t key;          /* layer << LAYER_SHIFT | cell index, >= 0 */
    int32_t parent;       /* record index; -1 for the source */
    int32_t next;         /* next record of its open list; -1 ends it */
} Rec;

typedef struct {
    int32_t head, tail;   /* head -1: nothing unread */
} Fifo;

typedef struct {          /* a successor above the cursor */
    int32_t parent;       /* the record it would be reached from */
    int32_t cell;         /* its cell index (the parent's: the wait), */
                          /* ~index for a move out of a held cell */
    int32_t next;         /* the next of its level's list; -1 ends it */
} Later;

typedef struct Workspace {
    struct Workspace *spare;  /* the grid's next idle workspace */
    Rec *rec;
    Py_ssize_t n_rec, rec_cap;
    uint32_t *stamp;          /* per cell: the mark of the level that */
                              /* last made a state on it, 0 none */
    uint32_t mark;            /* the cursor level's mark */
    Fifo *open;               /* the cursor level's lists, by h or one */
    Py_ssize_t open_len, open_cap;
    Py_ssize_t lo_h;          /* no list below it holds a state */
    Later *later;
    Py_ssize_t n_later, later_cap;
    Fifo *levels;             /* the lists of ``later``, by f offset */
    Py_ssize_t levels_len, levels_cap;
} Workspace;

/* Make ``*buf`` hold at least ``need`` items of ``size`` bytes, doubling.
 * -1 with MemoryError set when out of memory. */
static int
ws_reserve(void **buf, Py_ssize_t *cap, Py_ssize_t need, size_t size)
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
    *buf = nb;
    *cap = ncap;
    return 0;
}

static void
ws_free(Workspace *ws)
{
    PyMem_Free(ws->levels);
    PyMem_Free(ws->later);
    PyMem_Free(ws->open);
    PyMem_Free(ws->stamp);
    PyMem_Free(ws->rec);
    PyMem_Free(ws);
}

/* A new mark for the cursor's level: no cell holds it yet. */
static inline void
ws_new_mark(Workspace *ws, Py_ssize_t n_cells)
{
    if (++ws->mark == 0) {
        memset(ws->stamp, 0, (size_t)n_cells * sizeof(uint32_t));
        ws->mark = 1;
    }
}

/* Extend ``*len`` empty lists to cover index ``at``.  -1 with
 * MemoryError set. */
static int
lists_cover(Fifo **lists, Py_ssize_t *len, Py_ssize_t *cap, Py_ssize_t at)
{
    if (at < *len)
        return 0;
    if (ws_reserve((void **)lists, cap, at + 1, sizeof(Fifo)) < 0)
        return -1;
    memset(*lists + *len, 0xFF, (size_t)(at + 1 - *len) * sizeof(Fifo));
    *len = at + 1;
    return 0;
}

/* Append record ``r`` to open list ``at``.  -1 with MemoryError set. */
static inline int
open_push(Workspace *ws, Py_ssize_t at, int32_t r)
{
    if (lists_cover(&ws->open, &ws->open_len, &ws->open_cap, at) < 0)
        return -1;
    Fifo *list = &ws->open[at];
    if (list->head < 0)
        list->head = r;
    else
        ws->rec[list->tail].next = r;
    list->tail = r;
    if (at < ws->lo_h)
        ws->lo_h = at;
    return 0;
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
    GridData *gd;          /* not const: it lends its idle workspaces */
    int64_t height;
    Py_ssize_t n_cells;
    const int32_t *hbuf;   /* h_mode 2: int32 buffer field (borrowed) */
    int h_mode;            /* 1 native Manhattan, 2 int32 buffer */
    long long gx, gy;      /* h_mode 1 goal coordinates */
    /* per-call state, in the borrowed workspace */
    int deep;              /* deep-tie lists by h vs one FIFO list */
    Workspace *ws;
    Probe probe;
    int64_t start_time;
    int64_t h0;            /* the source's h: level 0 is f = h0 */
    int64_t top;           /* the highest level with a deferred list */
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

/* The h-field of run and leg: mode 1 (native Manhattan) holds
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
 * ``parent``, and push it onto the cursor's level; a state is reached
 * at one cost only (its layer), so the first push stands.  On the
 * cursor's level its cell names it: its stamp says whether it was made.
 * ``h`` is the successor's heuristic (deep mode list index).  Returns 1
 * pushed, 0 seen before, -1 with MemoryError set. */
static inline int
relax(Search *s, int64_t nrel, int32_t parent, int64_t h)
{
    Workspace *ws = s->ws;
    uint32_t *stamp = &ws->stamp[nrel & INT32_MAX];
    if (*stamp == ws->mark)
        return 0;
    if (ws->n_rec == INT32_MAX) {
        PyErr_SetString(PyExc_MemoryError,
                        "a search holds at most INT32_MAX states");
        return -1;
    }
    if (ws_reserve((void **)&ws->rec, &ws->rec_cap, ws->n_rec + 1,
                   sizeof(Rec)) < 0)
        return -1;
    int32_t r = (int32_t)ws->n_rec;
    if (open_push(ws, s->deep ? (Py_ssize_t)h : 0, r) < 0)
        return -1;
    ws->n_rec++;
    ws->rec[r] = (Rec){nrel, parent, -1};
    *stamp = ws->mark;
    return 1;
}

/* Append the successor of record ``parent`` on ``cell`` to the list of
 * level ``level``; ``held``: the parent's cell is taken at the
 * successor's tick.  -1 with MemoryError set. */
static inline int
defer(Search *s, int64_t level, int32_t parent, Py_ssize_t cell, int held)
{
    Workspace *ws = s->ws;
    if (ws->n_later == INT32_MAX) {
        PyErr_SetString(PyExc_MemoryError,
                        "a search defers at most INT32_MAX successors");
        return -1;
    }
    if (lists_cover(&ws->levels, &ws->levels_len, &ws->levels_cap,
                    (Py_ssize_t)level) < 0
            || ws_reserve((void **)&ws->later, &ws->later_cap,
                          ws->n_later + 1, sizeof(Later)) < 0)
        return -1;
    if (level > s->top)
        s->top = level;
    int32_t r = (int32_t)ws->n_later++;
    ws->later[r] = (Later){parent, held ? ~(int32_t)cell : (int32_t)cell,
                           -1};
    Fifo *list = &ws->levels[level];
    if (list->head < 0)
        list->head = r;
    else
        ws->later[list->tail].next = r;
    list->tail = r;
    return 0;
}

/* Push the move of record ``cur`` from ``ci`` onto ``nci`` (heuristic
 * ``nh``) unless the store, at the probe's tick, refuses it.  ``held``
 * says whether ``ci`` is taken then: only then can the move be a swap.
 * Returns 1 pushed, 0 not, -1 with MemoryError set. */
static inline int
push_move(Search *s, int32_t cur, Py_ssize_t ci, Py_ssize_t nci,
          int64_t nh, int held)
{
    if (probe_vertex(&s->probe, s->gd, nci)
            || (held && probe_edge(&s->probe, s->gd, ci, nci)))
        return 0;
    int64_t t_rel = s->ws->rec[cur].key >> LAYER_SHIFT;
    return relax(s, ((t_rel + 1) << LAYER_SHIFT) + nci, cur, nh);
}

/* The expansion of record ``cur`` (heuristic ``h``), popped on the
 * cursor's level ``level``: push its moves toward the goal, and leave
 * its wait and its other moves on the lists of the levels they lie on.
 * Returns the number pushed, -1 with an exception set. */
static int
expand(Search *s, int32_t cur, int64_t h, int64_t level)
{
    Workspace *ws = s->ws;
    const GridData *gd = s->gd;
    int64_t key = ws->rec[cur].key;
    Py_ssize_t ci = (Py_ssize_t)(key & INT32_MAX);
    int64_t x = gd->cell_keys[ci] >> CELL_KEY_SHIFT;
    int64_t y = gd->cell_keys[ci] & CELL_KEY_MASK;
    int herr = 0, made = 0, pushed;

    /* the arrival tick's block (a signal handler may have reserved) */
    s->probe.b1 = store_block(s->probe.st,
                              s->start_time + (key >> LAYER_SHIFT) + 1);
    /* Wait in place (the fifth action) — vertex check only.  A refusal
     * means someone arrives here at the next tick, the one case in
     * which a move out of this cell can be a swap. */
    int held = probe_vertex(&s->probe, gd, ci);
    if (!held && defer(s, level + 1, cur, ci, 0) < 0)
        return -1;
    for (Py_ssize_t a = gd->adj_off[ci]; a < gd->adj_off[ci + 1]; a++) {
        Py_ssize_t nci = (Py_ssize_t)gd->adj_nci[a], step = nci - ci;
        int64_t nh = h + 1;
        if (s->h_mode == 2)
            nh = heuristic_at(s, nci, &herr);
        else if (step == s->height ? x < s->gx : step == -s->height
                 ? x > s->gx : step == 1 ? y < s->gy : y > s->gy)
            nh = h - 1;  /* Manhattan: a step nearer on its axis */
        if (herr)
            return -1;
        if (nh + 1 < h) {
            /* f would fall behind the bucket cursor */
            PyErr_SetString(PyExc_AssertionError,
                            "h drops by more than a step: heuristic "
                            "field is not consistent");
            return -1;
        }
        if (nh + 1 > h) {
            if (defer(s, level + nh + 1 - h, cur, nci, held) < 0)
                return -1;
        } else if ((pushed = push_move(s, cur, ci, nci, nh, held)) < 0) {
            return -1;
        } else {
            made += pushed;
        }
    }
    return made;
}

/* Move the cursor up to level ``level``, under a new mark: push, in
 * list order, the successors on its list that the store allows (a wait
 * was probed at its parent's pop) and the search has not made.  Returns
 * the number pushed, -1 with an exception set. */
static int64_t
enter_level(Search *s, int64_t level)
{
    Workspace *ws = s->ws;
    int64_t made = 0;
    ws_new_mark(ws, s->n_cells);
    for (int32_t i = ws->levels[level].head; i >= 0; i = ws->later[i].next) {
        const Later *e = &ws->later[i];
        int64_t key = ws->rec[e->parent].key;
        int64_t t_rel = key >> LAYER_SHIFT;
        Py_ssize_t ci = (Py_ssize_t)(key & INT32_MAX);
        /* the successor's g is t_rel + 1, its f the level's */
        int64_t nh = level + s->h0 - t_rel - 1;
        int pushed;
        if (e->cell == ci) {
            pushed = relax(s, key + ((int64_t)1 << LAYER_SHIFT), e->parent,
                           nh);
        } else {
            s->probe.b1 = store_block(s->probe.st,
                                      s->start_time + t_rel + 1);
            pushed = push_move(s, e->parent, ci, e->cell < 0 ? ~e->cell
                               : e->cell, nh, e->cell < 0);
        }
        if (pushed < 0)
            return -1;
        made += pushed;
    }
    return made;
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

/* What one search found: its status, the leg (a new array('q'); NULL
 * where the search failed) and its counters. */
typedef struct {
    int status;
    PyObject *keys;
    int64_t expansions, generated, peak_open;
} Found;

/* The grid, the store and the two cells that run and leg take, checked in that order, into a fresh ``s`` (with the goal's
 * coordinates, the Manhattan field's).  -1 with an exception set. */
static int
leg_open(Search *s, PyObject *capsule, PyObject *store_obj,
         Py_ssize_t source_ci, Py_ssize_t goal_ci)
{
    memset(s, 0, sizeof(Search));
    GridData *gd = PyCapsule_GetPointer(capsule, GRID_CAPSULE_NAME);
    if (gd == NULL || (s->probe.st = store_get(store_obj)) == NULL)
        return -1;
    if (source_ci < 0 || source_ci >= gd->n_cells
            || goal_ci < 0 || goal_ci >= gd->n_cells) {
        PyErr_SetString(PyExc_IndexError, "cell outside grid");
        return -1;
    }
    s->gd = gd;
    s->height = gd->height;
    s->n_cells = gd->n_cells;
    s->gx = goal_ci / gd->height;
    s->gy = goal_ci % gd->height;
    return 0;
}

/* The search over ``s`` (set up but for its workspace) from
 * ``source_ci`` to ``goal_ci``, appending to ``tried`` the cell index
 * each finisher walk starts from.  ``found`` comes in with the counters
 * to go on from.  -1 with an exception set. */
static int
search_leg(Search *s, Py_ssize_t source_ci, Py_ssize_t goal_ci,
           int64_t max_expansions, int64_t trigger, PyObject *tried,
           Found *found)
{
    GridData *gd = s->gd;
    int herr = 0;
    s->h0 = heuristic_at(s, source_ci, &herr);
    if (herr)
        return -1;

    /* The grid's idle workspace, or a new one, seeded with the source;
     * every exit from here on hands it back (or frees it, if it grew
     * past what the grid keeps). */
    int rc = -1;
    int status = ST_EXHAUSTED;
    int32_t result = -1;          /* the record the leg ends on */
    Workspace *ws = gd->idle;
    if (ws != NULL) {
        gd->idle = ws->spare;
    } else if ((ws = PyMem_Calloc(1, sizeof(Workspace))) == NULL
               || (ws->stamp = PyMem_Calloc((size_t)s->n_cells,
                                            sizeof(uint32_t))) == NULL) {
        PyMem_Free(ws);
        PyErr_NoMemory();
        return -1;
    }
    /* The finisher's room for a descent (h <= trigger, never past
     * n_cells) and its walk. */
    int64_t cap = trigger < s->n_cells ? trigger : s->n_cells;
    int32_t *walk_idx = NULL;
    int64_t *walk = NULL;
    Py_ssize_t n_walk = 0;
    if (cap > 0) {
        walk_idx = PyMem_Malloc((size_t)(cap + 1) * sizeof(int32_t));
        walk = PyMem_Malloc((size_t)(cap + 1 + FINISH_WAIT)
                            * sizeof(int64_t));
    }
    s->ws = ws;
    ws->n_rec = ws->open_len = ws->n_later = ws->levels_len = 0;
    ws->lo_h = PY_SSIZE_T_MAX;
    if (cap > 0 && (walk_idx == NULL || walk == NULL)) {
        PyErr_NoMemory();
        goto out;
    }
    ws_new_mark(ws, s->n_cells);
    if (relax(s, source_ci, -1, s->h0) < 0)
        goto out;

    int64_t level = 0;           /* the cursor: f minus the source's f */
    int64_t open_size = 1;
    int64_t expansions = found->expansions;
    int64_t generated = 0;
    int64_t peak_open = found->peak_open;
    int64_t loop_ticker = 0;

    for (;;) {
        if (((++loop_ticker) & 0x3FFF) == 0 && PyErr_CheckSignals() < 0)
            goto out;

        /* -- the cursor's level spent: enter the next with a state ---- */
        while (open_size == 0) {
            if (level >= s->top)
                goto done;       /* no state is left to make */
            int64_t made = enter_level(s, ++level);
            if (made < 0)
                goto out;
            generated += made;
            open_size += made;
        }

        /* -- pop: smallest h first (deep order), FIFO within a list --- */
        if (open_size > peak_open)
            peak_open = open_size;
        while (ws->open[ws->lo_h].head < 0)
            ws->lo_h++;
        Fifo *list = &ws->open[ws->lo_h];
        int32_t cur = list->head;
        list->head = ws->rec[cur].next;
        open_size--;
        int64_t rel = ws->rec[cur].key;

        int64_t t_rel = rel >> LAYER_SHIFT;
        Py_ssize_t ci = (Py_ssize_t)(rel & INT32_MAX);
        /* on the cursor's level, g + h = h0 + level: no field read */
        int64_t h_ci = s->h0 + level - t_rel;
        expansions++;
        if (expansions > max_expansions) {
            status = ST_BUDGET;
            goto done;
        }

        if (ci == goal_ci) {
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
                goto out;
            walk_idx[0] = (int32_t)ci;
            if (h_ci <= s->n_cells && descent(s, walk_idx, h_ci) == 0
                    && (n_walk = rescue_walk(&s->probe, gd, walk_idx, h_ci,
                                             s->start_time + t_rel,
                                             FINISH_WAIT, FINISH_WAIT,
                                             walk)) > 0) {
                status = ST_FINISHER;
                result = cur;
                goto done;
            }
        }

        /* -- expand: the successors on this level now, the rest when
         * the cursor reaches theirs */
        int made = expand(s, cur, h_ci, level);
        if (made < 0)
            goto out;
        generated += made;
        open_size += made;
    }

done:
    /* the walk's first key is the head's last */
    if (result >= 0 && (found->keys = status == ST_FINISHER
                        ? reconstruct(s, result, walk + 1, n_walk - 1)
                        : reconstruct(s, result, NULL, 0)) == NULL)
        goto out;
    found->status = status;
    found->expansions = expansions;
    found->generated = generated;
    found->peak_open = peak_open;
    rc = 0;
out:
    PyMem_Free(walk_idx);
    PyMem_Free(walk);
    if (ws->rec_cap > WS_KEEP_RECORDS || ws->later_cap > WS_KEEP_RECORDS) {
        ws_free(ws);
    } else {
        ws->spare = gd->idle;
        gd->idle = ws;
    }
    return rc;
}

static PyObject *
stsearch_run(PyObject *self, PyObject *args)
{
    (void)self;
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

    Search s;
    if (leg_open(&s, capsule, store_obj, source_ci, goal_ci) < 0)
        return NULL;
    s.h_mode = h_mode;
    s.deep = deep;
    s.start_time = start_time;

    Py_buffer hview;
    int have_hview = h_field_open(h_mode, h_arg, s.n_cells, &hview);
    if (have_hview < 0)
        return NULL;
    if (have_hview)
        s.hbuf = (const int32_t *)hview.buf;
    else if (!PyArg_ParseTuple(h_arg, "LL", &s.gx, &s.gy))
        return NULL;

    PyObject *out = NULL;
    PyObject *tried = PyList_New(0);
    Found found = {ST_EXHAUSTED, NULL, init_expansions, 0, init_peak_open};
    if (tried != NULL && search_leg(&s, source_ci, goal_ci, max_expansions,
                                    trigger, tried, &found) == 0)
        out = Py_BuildValue(
            "iOOLLL", found.status, found.keys ? found.keys : Py_None,
            tried, (long long)found.expansions,
            (long long)found.generated, (long long)found.peak_open);
    Py_XDECREF(found.keys);
    Py_XDECREF(tried);
    if (have_hview)
        PyBuffer_Release(&hview);
    return out;
}

/* ------------------------------------------------------------------ */
/* Store entry points: the paper's insertion (store_reserve) and       */
/* periodic update (store_purge), the probe python asks one key at a   */
/* time (store_probe), the counts every accounting rule reads          */
/* (store_counts) and the python layout in and out (store_new's state, */
/* store_export).  Conflict search proper is run and leg.  Each        */
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

/* Insert the ``n`` keys of a leg from ``start``: its vertices at or
 * above the floor and the move into step i, which departs at t - 1,
 * from the floor up.  The keys are the caller's to have checked.  -1
 * with MemoryError set. */
static int
store_insert(Store *st, int64_t start, const int64_t *keys, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t t = start + i;
        if (t >= st->floor
                && store_add(st, t, (uint64_t)keys[i],
                             i > 0 && t > st->floor
                             ? arrival_bit((uint64_t)keys[i - 1],
                                           (uint64_t)keys[i]) : 0) < 0)
            return -1;
    }
    return 0;
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
    rc = store_insert(st, start, keys, n);
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
/* backing store of an eager HeuristicField.  leg's tier 0 fuses the   */
/* free-flow greedy descent (FreeFlowPathCache.packed, on either field */
/* kind) with the bulk reservation audit (audit_chain semantics) and,  */
/* on a hit, the wait-following rescue (cache.follow_with_waits) over  */
/* the same probes, answering a served leg without a search; with a    */
/* trigger EATP's finisher walks on from the head.  Bit-identity with  */
/* the python bodies (FreeFlowPathCache.kernel_leg) is pinned by the   */
/* equivalence suites.                                                 */
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

/* Whether ``v`` holds int16 or int32 items, a KNN table's two dtypes. */
static int
knn_dtype(const Py_buffer *v)
{
    return v->format != NULL
        && ((v->itemsize == 2 && !strcmp(v->format, "h"))
            || (v->itemsize == 4 && (!strcmp(v->format, "i")
                                     || (sizeof(long) == 4
                                         && !strcmp(v->format, "l")))));
}

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
            || !knn_dtype(&ov)) {
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
    if (ws_reserve((void **)&level[0], &cap[0], n, sizeof(KnnLabel)) < 0)
        goto done;
    for (int32_t r = 0; r < n; r++)
        KNN_OFFER(homes[2 * r] * height + homes[2 * r + 1], r);
    for (Py_ssize_t last = 0; len[last]; last ^= 1) {
        nb = last ^ 1;
        len[nb] = 0;
        for (Py_ssize_t i = 0; i < len[last]; i++) {
            if (ws_reserve((void **)&level[nb], &cap[nb], len[nb] + 4,
                           sizeof(KnnLabel)) < 0)
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

/* A KNN table entry: a rack id (knn_fill's int16 or int32). */
static inline Py_ssize_t
knn_id(const Py_buffer *table, int wide, Py_ssize_t at)
{
    return wide ? ((const int32_t *)table->buf)[at]
        : ((const int16_t *)table->buf)[at];
}

/* learned_select: one selection wake of ATP or EATP (Alg. 2 lines    */
/* 6-19, Alg. 3 lines 8-13), equal to the python selectors             */
/* (AdaptiveTaskPlanner._ranked and _requests, the flip over           */
/* StaticRackKNN's table, most_slack_first and learn) in entries, Q    */
/* rows, LearnerStats and the RNG state.  The greedy branch walks the  */
/* world's per-picker index, pickers with work by (f_p, id), up to the */
/* budget and learns REQUEST for each, drawing nothing.  Otherwise     */
/* candidates are the selectable racks (ATP) or each idle              */
/* robot's selectable K nearest (EATP); each is keyed by lookahead's   */
/* u_wait - u_request over the Q rows as they stand before the first   */
/* step, and examined in (key, rack id) order, EATP's robots in (best  */
/* key, robot id) order, skipping racks already claimed.  An examined  */
/* rack takes QLearningAgent.step: the draw and, on an explored step,  */
/* choose((ACTION_WAIT, ACTION_REQUEST)) are the planner's own RNG, so */
/* these two are the kernel's only calls into python.  Every float is  */
/* python's expression in python's order; build.py compiles with       */
/* -ffp-contract=off so no multiply-add is fused.  Everything is       */
/* checked and every key taken before the first draw: a refused call   */
/* leaves the learner and the RNG as they were.                        */

/* Interned attribute names and the action pair, made at import. */
static PyObject *str_picker_id, *str_accumulated, *str_pending_time,
    *str_pending_items, *str_remaining, *str_queued, *str_location,
    *str_robot_id, *str_entries, *str_initial, *str_updates, *str_explored,
    *str_greedy, *str_reward;
static PyObject *actions_pair;   /* (ACTION_WAIT, ACTION_REQUEST) == (0, 1) */

/* A candidate: its examination key, rack id and Sec. V-A facts. */
typedef struct {
    double key;
    Py_ssize_t rack;
    int64_t s0, s1, delta, n_pending, overhead;
} SelCand;

/* An EATP robot with a candidate: its best key, id, position in the
 * robots argument and its candidates' span. */
typedef struct {
    double best;
    int64_t robot_id;
    Py_ssize_t pos, begin, end;
} SelRobot;

/* A state's row as this call found it (``row`` NULL: none), looked up
 * in the table on the call's first ask.  While the call runs only its
 * own steps write the rows (draw and choose are the RNG's), and a step
 * that makes a row puts it in its slot.  The memo holds a reference to
 * each row it has. */
typedef struct {
    int64_t s0, s1;
    PyObject *row;
    int used;
} SelSlot;

/* A picker's facts: s0, f_p (Picker.finish_time_estimate), whether
 * read yet. */
typedef struct {
    int64_t s0, finish;
    int seen;
} SelPicker;

/* Up to SEL_SMALL items of each of a wake's buffers live on the C
 * stack; only a larger wake allocates. */
#define SEL_SMALL 64

static void *
sel_buffer(void *small, Py_ssize_t n, size_t size)
{
    if (n <= SEL_SMALL)
        return small;
    void *buf = (size_t)n > PY_SSIZE_T_MAX / size ? NULL
        : PyMem_Malloc((size_t)n * size);
    if (buf == NULL)
        PyErr_NoMemory();
    return buf;
}

static void
sel_release(void *buf, void *small)
{
    if (buf != small)
        PyMem_Free(buf);
}

typedef struct {
    PyObject *racks, *pickers, *distance, *rows, *initial_obj;
    SelSlot *memo;
    Py_ssize_t memo_cap, memo_used;
    double initial, epsilon, discount, deferral, rate;
    int64_t width;
    SelPicker *pickers_seen;   /* a picker's facts, read once a call */
    SelSlot *memo_small;       /* the memo's first, stack-held, slots */
    /* the learner's counters, written back once a step has run */
    int64_t entries, updates, explored, greedy;
    double reward;
} SelCtx;

/* (key, id) ascending; a NaN key sorts after every number. */
static inline int
sel_before(double ka, int64_t ia, double kb, int64_t ib)
{
    if (ka < kb)
        return 1;
    if (ka > kb)
        return 0;
    if (ka != kb) {
        int na = ka != ka, nb = kb != kb;
        if (na != nb)
            return nb;
    }
    return ia < ib;
}

static int
sel_cand_cmp(const void *a, const void *b)
{
    const SelCand *x = a, *y = b;
    return sel_before(x->key, x->rack, y->key, y->rack) ? -1
        : sel_before(y->key, y->rack, x->key, x->rack);
}

static int
sel_robot_cmp(const void *a, const void *b)
{
    const SelRobot *x = a, *y = b;
    return sel_before(x->best, x->robot_id, y->best, y->robot_id) ? -1
        : sel_before(y->best, y->robot_id, x->best, x->robot_id);
}

/* python's ``a // b`` for b > 0 */
static inline int64_t
floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

static int
attr_i64(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    long long x = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

static int
set_attr_i64(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc = v == NULL ? -1 : PyObject_SetAttr(obj, name, v);
    Py_XDECREF(v);
    return rc;
}

/* The key (s0, s1) of a state's row. */
static PyObject *
sel_key(int64_t s0, int64_t s1)
{
    PyObject *x = PyLong_FromLongLong(s0), *y = PyLong_FromLongLong(s1);
    PyObject *key = x == NULL || y == NULL ? NULL : PyTuple_Pack(2, x, y);
    Py_XDECREF(x);
    Py_XDECREF(y);
    return key;
}

static inline Py_ssize_t
sel_hash(int64_t s0, int64_t s1, Py_ssize_t mask)
{
    uint64_t h = (uint64_t)s0 * 0x9E3779B97F4A7C15ULL
        ^ (uint64_t)s1 * 0xC2B2AE3D27D4EB4FULL;
    return (Py_ssize_t)(h >> 20) & mask;
}

/* The memo slot of state (s0, s1), its row looked up in the table on
 * the call's first ask (NULL with an exception).  A slot pointer holds
 * until the next sel_slot call, which may move the memo. */
static SelSlot *
sel_slot(SelCtx *c, int64_t s0, int64_t s1)
{
    if (2 * (c->memo_used + 1) > c->memo_cap) {
        Py_ssize_t cap = 2 * c->memo_cap;
        SelSlot *memo = PyMem_Calloc((size_t)cap, sizeof(SelSlot));
        if (memo == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        for (Py_ssize_t i = 0; i < c->memo_cap; i++) {
            if (!c->memo[i].used)
                continue;
            Py_ssize_t j = sel_hash(c->memo[i].s0, c->memo[i].s1, cap - 1);
            while (memo[j].used)
                j = (j + 1) & (cap - 1);
            memo[j] = c->memo[i];
        }
        sel_release(c->memo, c->memo_small);
        c->memo = memo;
        c->memo_cap = cap;
    }
    Py_ssize_t mask = c->memo_cap - 1, i = sel_hash(s0, s1, mask);
    for (; c->memo[i].used; i = (i + 1) & mask)
        if (c->memo[i].s0 == s0 && c->memo[i].s1 == s1)
            return &c->memo[i];
    PyObject *key = sel_key(s0, s1);
    if (key == NULL)
        return NULL;
    PyObject *row = PyDict_GetItemWithError(c->rows, key);
    Py_DECREF(key);
    if (row == NULL && PyErr_Occurred())
        return NULL;
    if (row != NULL && (!PyList_Check(row) || PyList_GET_SIZE(row) != 3
                        || !PyLong_Check(PyList_GET_ITEM(row, 2)))) {
        PyErr_SetString(PyExc_TypeError, "a Q row must be a [q_wait, "
                        "q_request, mask] list");
        return NULL;
    }
    c->memo[i] = (SelSlot){s0, s1, Py_XNewRef(row), 1};
    c->memo_used++;
    return &c->memo[i];
}

/* row[action] as python reads it, the initial value where no row. */
static int
sel_q(SelCtx *c, PyObject *row, int action, double *out)
{
    if (row == NULL) {
        *out = c->initial;
        return 0;
    }
    double v = PyFloat_AsDouble(PyList_GET_ITEM(row, action));
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* max_a q(row, a): ``row[1] if row[1] > row[0] else row[0]``. */
static int
sel_best(SelCtx *c, PyObject *row, double *out)
{
    double wait, request;
    if (sel_q(c, row, 0, &wait) < 0 || sel_q(c, row, 1, &request) < 0)
        return -1;
    *out = request > wait ? request : wait;
    return 0;
}

/* QLearningAgent._utilities over the candidate's two rows. */
static int
sel_utilities(SelCtx *c, const SelCand *k, PyObject *row, PyObject *ahead,
              double *u_wait, double *u_request)
{
    double now, then;
    if (sel_best(c, row, &now) < 0 || sel_best(c, ahead, &then) < 0)
        return -1;
    *u_wait = -c->deferral * (double)k->n_pending + c->discount * now;
    *u_request = -(double)k->overhead + c->discount * then;
    return 0;
}

/* A candidate's state slot and its REQUEST successor's row. */
static int
sel_rows(SelCtx *c, const SelCand *k, SelSlot **state, PyObject **ahead)
{
    int64_t a0, a1;
    if (__builtin_add_overflow(k->s0, k->delta, &a0)
            || __builtin_add_overflow(k->s1, k->delta, &a1)) {
        PyErr_SetString(PyExc_OverflowError, "state counter overflow");
        return -1;
    }
    SelSlot *slot = sel_slot(c, a0, a1);
    if (slot == NULL)
        return -1;
    *ahead = slot->row;
    *state = sel_slot(c, k->s0, k->s1);
    return *state == NULL ? -1 : 0;
}

/* Picker ``pid``'s facts, read on the call's first ask. */
static SelPicker *
sel_picker(SelCtx *c, int64_t pid)
{
    if (pid < 0 || pid >= PyList_GET_SIZE(c->pickers)) {
        PyErr_SetString(PyExc_ValueError, "a rack names a picker outside "
                        "the picker list");
        return NULL;
    }
    SelPicker *facts = &c->pickers_seen[pid];
    if (!facts->seen) {
        PyObject *picker = PyList_GET_ITEM(c->pickers, pid);
        int64_t acc, remaining, queued;
        if (attr_i64(picker, str_accumulated, &acc) < 0
                || attr_i64(picker, str_remaining, &remaining) < 0
                || attr_i64(picker, str_queued, &queued) < 0)
            return NULL;
        /* Picker.finish_time_estimate, f_p of Eq. 3 */
        *facts = (SelPicker){floor_div(acc, c->width), remaining + queued,
                             1};
    }
    return facts;
}

/* AdaptiveTaskPlanner.facts of rack ``r``. */
static int
sel_facts(SelCtx *c, Py_ssize_t r, SelCand *k)
{
    PyObject *rack = PyList_GET_ITEM(c->racks, r);
    int64_t pid, acc, pending;
    SelPicker *facts;
    if (attr_i64(rack, str_picker_id, &pid) < 0
            || (facts = sel_picker(c, pid)) == NULL
            || attr_i64(rack, str_accumulated, &acc) < 0
            || attr_i64(rack, str_pending_time, &pending) < 0)
        return -1;
    PyObject *items = PyObject_GetAttr(rack, str_pending_items);
    if (items == NULL)
        return -1;
    Py_ssize_t n_pending = PyObject_Size(items);
    Py_DECREF(items);
    if (n_pending < 0)
        return -1;
    long long d = PyLong_AsLongLong(PyList_GET_ITEM(c->distance, r));
    if (d == -1 && PyErr_Occurred())
        return -1;
    k->rack = r;
    k->s0 = facts->s0;
    k->s1 = floor_div(acc, c->width);
    k->delta = floor_div(pending, c->width);
    k->n_pending = n_pending;
    k->overhead = facts->finish >= d ? facts->finish : d;
    return 0;
}

/* sel_facts, then the candidate's lookahead key. */
static int
sel_candidate(SelCtx *c, Py_ssize_t r, SelCand *k)
{
    SelSlot *state;
    PyObject *ahead;
    double u_wait, u_request;
    if (sel_facts(c, r, k) < 0 || sel_rows(c, k, &state, &ahead) < 0
            || sel_utilities(c, k, state->row, ahead, &u_wait,
                             &u_request) < 0)
        return -1;
    k->key = u_wait - u_request;
    return 0;
}

/* QLearningAgent._update of ``action`` on the candidate's ``state``
 * slot: Eq. 5 with the action's utility as its target.  ``action``, or
 * -1 with an exception. */
static int
sel_update(SelCtx *c, const SelCand *k, SelSlot *state, double u_wait,
           double u_request, int action)
{
    double cost, target, old;
    if (action == 1) {
        cost = -(double)k->overhead;
        target = u_request;
    }
    else {
        cost = -c->deferral * (double)k->n_pending;
        target = u_wait;
    }
    PyObject *row = state->row;
    if (sel_q(c, row, action, &old) < 0)
        return -1;
    double td_error = target - old;
    PyObject *value = PyFloat_FromDouble(old + c->rate * td_error);
    if (value == NULL)
        return -1;
    if (row == NULL) {   /* QTable.write's new row, which the memo keeps */
        PyObject *key = sel_key(k->s0, k->s1);
        row = key == NULL ? NULL
            : Py_BuildValue("[OOi]", c->initial_obj, c->initial_obj, 0);
        if (row == NULL || PyDict_SetItem(c->rows, key, row) < 0) {
            Py_XDECREF(key);
            Py_XDECREF(row);
            Py_DECREF(value);
            return -1;
        }
        Py_DECREF(key);
        state->row = row;
    }
    PyList_SetItem(row, action, value);   /* steals value */
    long mask = PyLong_AsLong(PyList_GET_ITEM(row, 2));
    if (mask == -1 && PyErr_Occurred())
        return -1;
    if (!(mask >> action & 1)) {
        PyObject *bits = PyLong_FromLong(mask | 1L << action);
        if (bits == NULL)
            return -1;
        PyList_SetItem(row, 2, bits);
        c->entries++;
    }
    c->updates++;
    c->reward += cost;
    return action;
}

/* QLearningAgent.step of a candidate, or with ``draw`` NULL its greedy
 * learn of REQUEST: 1 where it took REQUEST, 0 where WAIT, -1 with an
 * exception. */
static int
sel_step(SelCtx *c, const SelCand *k, PyObject *draw, PyObject *choose)
{
    SelSlot *state;
    PyObject *ahead;
    double u_wait, u_request;
    if (sel_rows(c, k, &state, &ahead) < 0
            || sel_utilities(c, k, state->row, ahead, &u_wait,
                             &u_request) < 0)
        return -1;
    if (draw == NULL) {   /* learn(..., ACTION_REQUEST, greedy=True) */
        c->greedy++;
        return sel_update(c, k, state, u_wait, u_request, 1);
    }
    /* _act: the coin, then a random or the greedy action */
    int action;
    PyObject *coin = PyObject_CallNoArgs(draw);
    double flip = coin == NULL ? -1.0 : PyFloat_AsDouble(coin);
    Py_XDECREF(coin);
    if (flip == -1.0 && PyErr_Occurred())
        return -1;
    if (flip < c->epsilon) {
        c->explored++;
        PyObject *pick = PyObject_CallOneArg(choose, actions_pair);
        long a = pick == NULL ? -1 : PyLong_AsLong(pick);
        Py_XDECREF(pick);
        if (a == -1 && PyErr_Occurred())
            return -1;
        if (a != 0 && a != 1) {
            PyErr_SetString(PyExc_ValueError,
                            "choose must return one of the two actions");
            return -1;
        }
        action = (int)a;
    }
    else
        action = u_request >= u_wait ? 1 : 0;
    return sel_update(c, k, state, u_wait, u_request, action);
}

/* A picker with work in the greedy walk's order: its f_p, its id. */
typedef struct {
    int64_t finish, pid;
} SelSlack;

static int
sel_slack_cmp(const void *a, const void *b)
{
    const SelSlack *x = a, *y = b;
    if (x->finish != y->finish)
        return x->finish < y->finish ? -1 : 1;
    return (x->pid > y->pid) - (x->pid < y->pid);
}

/* most_slack_first's walk over ``index``, the world's (rack ids by
 * picker, selectable count by picker): the pickers with work by (f_p,
 * id), each picker's selectable racks in its list's order, up to
 * ``budget`` (all where it is negative), appended to ``out``. */
static int
sel_walk(SelCtx *c, PyObject *index, const unsigned char *selectable,
         Py_ssize_t n_racks, Py_ssize_t budget, SelSlack *slack,
         PyObject *out)
{
    PyObject *by_picker, *counts;
    Py_ssize_t n_pickers = PyList_GET_SIZE(c->pickers), n = 0;
    if (!PyTuple_Check(index) || PyTuple_GET_SIZE(index) != 2
            || !PyList_Check(by_picker = PyTuple_GET_ITEM(index, 0))
            || !PyList_Check(counts = PyTuple_GET_ITEM(index, 1))) {
        PyErr_SetString(PyExc_TypeError, "the greedy walk's index must be "
                        "a (rack ids by picker, counts by picker) pair of "
                        "lists");
        return -1;
    }
    if (PyList_GET_SIZE(by_picker) != n_pickers
            || PyList_GET_SIZE(counts) != n_pickers) {
        PyErr_SetString(PyExc_ValueError, "the greedy walk's index must "
                        "hold one entry per picker");
        return -1;
    }
    for (Py_ssize_t pid = 0; pid < n_pickers; pid++) {
        long count = PyLong_AsLong(PyList_GET_ITEM(counts, pid));
        if (count == -1 && PyErr_Occurred())
            return -1;
        if (count == 0)
            continue;
        SelPicker *facts = sel_picker(c, pid);
        if (facts == NULL)
            return -1;
        slack[n++] = (SelSlack){facts->finish, pid};
    }
    qsort(slack, (size_t)n, sizeof(SelSlack), sel_slack_cmp);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *ids = PyList_GET_ITEM(by_picker, slack[i].pid);
        if (!PyList_Check(ids)) {
            PyErr_SetString(PyExc_TypeError, "a picker's rack ids must be "
                            "a list");
            return -1;
        }
        for (Py_ssize_t j = 0; j < PyList_GET_SIZE(ids); j++) {
            PyObject *id = PyList_GET_ITEM(ids, j);
            Py_ssize_t r = PyLong_AsSsize_t(id);
            if (r == -1 && PyErr_Occurred())
                return -1;
            if (r < 0 || r >= n_racks) {
                PyErr_SetString(PyExc_ValueError, "a picker names a rack "
                                "outside the rack list");
                return -1;
            }
            if (!selectable[r])
                continue;
            if (PyList_GET_SIZE(out) == budget)
                return 0;
            if (PyList_Append(out, id) < 0)
                return -1;
        }
    }
    return 0;
}

/* Write the counters the steps moved (from ``was``) back to the table
 * and the stats. */
static int
sel_flush(const SelCtx *c, const SelCtx *was, PyObject *table,
          PyObject *stats)
{
    if (c->entries != was->entries
            && set_attr_i64(table, str_entries, c->entries) < 0)
        return -1;
    if (c->explored != was->explored
            && set_attr_i64(stats, str_explored, c->explored) < 0)
        return -1;
    if (c->greedy != was->greedy
            && set_attr_i64(stats, str_greedy, c->greedy) < 0)
        return -1;
    if (c->updates == was->updates)
        return 0;
    PyObject *reward = PyFloat_FromDouble(c->reward);
    int rc = reward == NULL
        || set_attr_i64(stats, str_updates, c->updates) < 0
        || PyObject_SetAttr(stats, str_reward, reward) < 0;
    Py_XDECREF(reward);
    return rc ? -1 : 0;
}

/* An open-addressed set of claimed rack ids (EATP); -1 is empty. */
static int
claimed_add(Py_ssize_t *set, Py_ssize_t mask, Py_ssize_t r, int insert)
{
    Py_ssize_t i = (Py_ssize_t)(((uint64_t)r * 0x9E3779B97F4A7C15ULL) >> 7)
        & mask;
    for (; set[i] != -1; i = (i + 1) & mask)
        if (set[i] == r)
            return 1;
    if (insert)
        set[i] = r;
    return 0;
}

static PyObject *
stsearch_learned_select(PyObject *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 13) {
        PyErr_Format(PyExc_TypeError, "learned_select takes 13 arguments "
                     "(%zd given)", nargs);
        return NULL;
    }
    PyObject *racks = args[0], *pickers = args[1], *distance = args[2],
        *index = args[4], *robots_obj = args[5], *params = args[7],
        *rows = args[8], *table = args[9], *stats = args[10],
        *draw = args[11], *choose = args[12];
    if (!PyList_Check(racks) || !PyList_Check(pickers)
            || !PyList_Check(distance) || !PyTuple_Check(params)
            || !PyDict_Check(rows)) {
        PyErr_SetString(PyExc_TypeError, "racks, pickers and distance must "
                        "be lists, params a tuple and rows a dict");
        return NULL;
    }
    int greedy = draw == Py_None && choose == Py_None;
    if (!greedy && (!PyCallable_Check(draw) || !PyCallable_Check(choose))) {
        PyErr_SetString(PyExc_TypeError, "draw and choose must both be "
                        "callable, or both None");
        return NULL;
    }
    Py_ssize_t budget = PyLong_AsSsize_t(args[6]);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    Py_buffer column;
    if (PyObject_GetBuffer(args[3], &column, PyBUF_SIMPLE) < 0)
        return NULL;
    SelPicker pickers_small[SEL_SMALL];
    SelSlot memo_small[SEL_SMALL];
    SelCand cands_small[SEL_SMALL];
    SelRobot served_small[SEL_SMALL];
    SelSlack slack_small[SEL_SMALL];
    Py_ssize_t claimed_small[2 * SEL_SMALL];
    SelCtx c = {.racks = racks, .pickers = pickers, .distance = distance,
                .rows = rows, .memo = memo_small, .memo_cap = SEL_SMALL,
                .memo_small = memo_small, .pickers_seen = pickers_small};
    memset(memo_small, 0, sizeof(memo_small));
    Py_buffer tv = {0};
    int have_table = 0;
    PyObject *robots = NULL, *result = NULL, *out = NULL;
    SelCand *cands = cands_small;
    SelRobot *served = served_small;
    SelSlack *slack = slack_small;
    Py_ssize_t n_cands = 0, n_served = 0, *claimed = claimed_small;
    Py_ssize_t n_racks = PyList_GET_SIZE(racks);
    Py_ssize_t n_pickers = PyList_GET_SIZE(pickers);
    const unsigned char *selectable = column.buf;
    long long width;
    if (!PyArg_ParseTuple(params, "Ldddd;params must be (bin width, "
                          "epsilon, discount, deferral weight, learning "
                          "rate)", &width, &c.epsilon, &c.discount,
                          &c.deferral, &c.rate))
        goto done;
    c.width = width;
    if (c.width < 1) {
        PyErr_SetString(PyExc_ValueError, "the bin width must be positive");
        goto done;
    }
    if (column.len != n_racks || PyList_GET_SIZE(distance) != n_racks) {
        PyErr_SetString(PyExc_ValueError, "the selectable column and the "
                        "distances must hold one entry per rack");
        goto done;
    }
    c.initial_obj = PyObject_GetAttr(table, str_initial);
    if (c.initial_obj == NULL)
        goto done;
    c.initial = PyFloat_AsDouble(c.initial_obj);
    double reward = -1.0;
    PyObject *reward_obj = NULL;
    if ((c.initial == -1.0 && PyErr_Occurred())
            || attr_i64(table, str_entries, &c.entries) < 0
            || attr_i64(stats, str_updates, &c.updates) < 0
            || attr_i64(stats, str_explored, &c.explored) < 0
            || attr_i64(stats, str_greedy, &c.greedy) < 0
            || (reward_obj = PyObject_GetAttr(stats, str_reward)) == NULL)
        goto done;
    reward = PyFloat_AsDouble(reward_obj);
    Py_DECREF(reward_obj);
    if (reward == -1.0 && PyErr_Occurred())
        goto done;
    c.reward = reward;
    const SelCtx was = c;
    c.pickers_seen = sel_buffer(pickers_small, n_pickers, sizeof(SelPicker));
    if (c.pickers_seen == NULL)
        goto done;
    memset(c.pickers_seen, 0, sizeof(SelPicker) * (size_t)n_pickers);

    if (greedy) {
        /* the greedy branch (Alg. 2 lines 6-9): the walk, then each rack
         * it took learns REQUEST, in that order */
        slack = sel_buffer(slack_small, n_pickers, sizeof(SelSlack));
        out = slack == NULL ? NULL : PyList_New(0);
        if (out == NULL || sel_walk(&c, index, selectable, n_racks, budget,
                                    slack, out) < 0)
            goto done;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(out); i++) {
            SelCand k;
            if (sel_facts(&c, PyLong_AsSsize_t(PyList_GET_ITEM(out, i)),
                          &k) < 0
                    || sel_step(&c, &k, NULL, NULL) < 0)
                goto flush;
        }
        result = Py_NewRef(out);
        goto flush;
    }

    if (index == Py_None) {
        /* ATP: every selectable rack, examined in (key, id) order */
        Py_ssize_t n_selectable = 0;
        for (Py_ssize_t r = 0; r < n_racks; r++)
            n_selectable += selectable[r] != 0;
        cands = sel_buffer(cands_small, n_selectable, sizeof(SelCand));
        if (cands == NULL)
            goto done;
        for (Py_ssize_t r = 0; r < n_racks; r++)
            if (selectable[r] && sel_candidate(&c, r, &cands[n_cands++]) < 0)
                goto done;
        qsort(cands, (size_t)n_cands, sizeof(SelCand), sel_cand_cmp);
        out = PyList_New(0);
        if (out == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < n_cands; i++) {
            int action = sel_step(&c, &cands[i], draw, choose);
            if (action < 0)
                goto flush;
            if (action == 1) {
                PyObject *id = PyLong_FromSsize_t(cands[i].rack);
                int bad = id == NULL || PyList_Append(out, id) < 0;
                Py_XDECREF(id);
                if (bad)
                    goto flush;
                if (PyList_GET_SIZE(out) == budget)
                    break;
            }
        }
        result = Py_NewRef(out);
        goto flush;
    }

    /* EATP: each idle robot's selectable K nearest */
    if (PyObject_GetBuffer(index, &tv, PyBUF_RECORDS_RO) < 0)
        goto done;
    have_table = 1;
    if (tv.ndim != 3 || !knn_dtype(&tv)) {
        PyErr_SetString(PyExc_TypeError, "the KNN table must be a (width, "
                        "height, K) int16 or int32 buffer");
        goto done;
    }
    if (!PyBuffer_IsContiguous(&tv, 'C')) {
        PyErr_SetString(PyExc_ValueError, "the KNN table must be "
                        "C-contiguous");
        goto done;
    }
    robots = PySequence_Fast(robots_obj, "robots must be a sequence");
    if (robots == NULL)
        goto done;
    Py_ssize_t n_robots = PySequence_Fast_GET_SIZE(robots);
    Py_ssize_t tw = tv.shape[0], th = tv.shape[1], k = tv.shape[2];
    int wide = tv.itemsize == 4;
    served = sel_buffer(served_small, n_robots, sizeof(SelRobot));
    cands = served == NULL || k > PY_SSIZE_T_MAX / (n_robots + 1) ? NULL
        : sel_buffer(cands_small, n_robots * k, sizeof(SelCand));
    if (cands == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n_robots; i++) {
        PyObject *robot = PySequence_Fast_GET_ITEM(robots, i);
        PyObject *cell = PyObject_GetAttr(robot, str_location);
        if (cell == NULL)
            goto done;
        Py_ssize_t x = -1, y = -1;
        if (PyTuple_Check(cell) && PyTuple_GET_SIZE(cell) == 2) {
            x = PyLong_AsSsize_t(PyTuple_GET_ITEM(cell, 0));
            y = PyLong_AsSsize_t(PyTuple_GET_ITEM(cell, 1));
        }
        else
            PyErr_SetString(PyExc_TypeError, "a robot's location must be "
                            "an (x, y) tuple");
        Py_DECREF(cell);
        if (PyErr_Occurred())
            goto done;
        if (x < 0 || x >= tw || y < 0 || y >= th) {
            PyErr_SetString(PyExc_ValueError, "a robot stands outside the "
                            "KNN table");
            goto done;
        }
        Py_ssize_t at = (x * th + y) * k, begin = n_cands;
        for (Py_ssize_t j = 0; j < k; j++) {
            Py_ssize_t r = knn_id(&tv, wide, at + j);
            if (r < 0 || r >= n_racks) {
                PyErr_SetString(PyExc_ValueError, "a KNN row names a rack "
                                "outside the rack list");
                goto done;
            }
            if (selectable[r] && sel_candidate(&c, r, &cands[n_cands++]) < 0)
                goto done;
        }
        if (n_cands == begin)
            continue;   /* no candidate: ranks nothing, claims nothing */
        SelRobot *s = &served[n_served++];
        if (attr_i64(robot, str_robot_id, &s->robot_id) < 0)
            goto done;
        qsort(cands + begin, (size_t)(n_cands - begin), sizeof(SelCand),
              sel_cand_cmp);
        s->best = cands[begin].key;
        s->pos = i;
        s->begin = begin;
        s->end = n_cands;
    }
    qsort(served, (size_t)n_served, sizeof(SelRobot), sel_robot_cmp);
    Py_ssize_t slots = 8;
    while (slots < 2 * n_served)
        slots *= 2;
    claimed = slots <= 2 * SEL_SMALL ? claimed_small
        : PyMem_Malloc(sizeof(Py_ssize_t) * (size_t)slots);
    out = claimed == NULL ? NULL : PyList_New(0);
    if (out == NULL) {
        if (claimed == NULL)
            PyErr_NoMemory();
        goto done;
    }
    memset(claimed, 0xff, sizeof(Py_ssize_t) * (size_t)slots);
    for (Py_ssize_t i = 0; i < n_served; i++) {
        for (Py_ssize_t j = served[i].begin; j < served[i].end; j++) {
            if (claimed_add(claimed, slots - 1, cands[j].rack, 0))
                continue;
            int action = sel_step(&c, &cands[j], draw, choose);
            if (action < 0)
                goto flush;
            if (action == 1) {   /* Alg. 3 line 13: one rack per robot */
                claimed_add(claimed, slots - 1, cands[j].rack, 1);
                PyObject *pair = Py_BuildValue("(nn)", served[i].pos,
                                               cands[j].rack);
                int bad = pair == NULL || PyList_Append(out, pair) < 0;
                Py_XDECREF(pair);
                if (bad)
                    goto flush;
                break;
            }
        }
    }
    result = Py_NewRef(out);
flush:
    if (c.updates != was.updates || c.explored != was.explored) {
        /* the steps taken stand, as in python, an error or not */
        PyObject *type, *value, *trace;
        PyErr_Fetch(&type, &value, &trace);
        if (sel_flush(&c, &was, table, stats) < 0) {
            Py_CLEAR(result);
            if (type != NULL)
                PyErr_Clear();
        }
        if (type != NULL)
            PyErr_Restore(type, value, trace);
    }
done:
    Py_XDECREF(out);
    Py_XDECREF(robots);
    Py_XDECREF(c.initial_obj);
    for (Py_ssize_t i = 0; i < c.memo_cap; i++)
        Py_XDECREF(c.memo[i].row);
    sel_release(c.memo, memo_small);
    if (c.pickers_seen != NULL)
        sel_release(c.pickers_seen, pickers_small);
    if (cands != NULL)
        sel_release(cands, cands_small);
    if (served != NULL)
        sel_release(served, served_small);
    if (slack != NULL)
        sel_release(slack, slack_small);
    if (claimed != NULL)
        sel_release(claimed, claimed_small);
    if (have_table)
        PyBuffer_Release(&tv);
    PyBuffer_Release(&column);
    return result;
}

/* lsap: the ILP baseline's assignment problem, solved as scipy's      */
/* rectangular_lsap (Crouse's shortest augmenting path) solves it, so  */
/* every tie — integer-valued costs tie constantly — resolves as       */
/* linear_sum_assignment resolves it.  The rules that pick among ties: */
/* the remaining columns are listed in reverse order; a column's path  */
/* cost changes only when strictly lower; the scan takes the last      */
/* unassigned column among the minima, or the first minimum when none  */
/* is unassigned; the dual update skips the current row; and a tall    */
/* matrix is solved transposed and reported by ascending row.          */

/* One shortest augmenting path from free row i: the sink column, or -1
 * when no remaining column is in reach (an infeasible matrix). */
static Py_ssize_t
lsap_augment(Py_ssize_t nr, Py_ssize_t nc, const double *cost,
             const double *u, const double *v, Py_ssize_t *path,
             const Py_ssize_t *row4col, double *spc, Py_ssize_t i,
             char *sr, char *sc, Py_ssize_t *remaining, double *p_min)
{
    double min_val = 0;
    Py_ssize_t n_rem = nc, sink = -1;
    for (Py_ssize_t it = 0; it < nc; it++) {
        remaining[it] = nc - it - 1;
        spc[it] = INFINITY;
        sc[it] = 0;
    }
    memset(sr, 0, (size_t)nr);
    while (sink == -1) {
        Py_ssize_t index = -1;
        double lowest = INFINITY;
        sr[i] = 1;
        for (Py_ssize_t it = 0; it < n_rem; it++) {
            Py_ssize_t j = remaining[it];
            double r = min_val + cost[i * nc + j] - u[i] - v[j];
            if (r < spc[j]) {
                path[j] = i;
                spc[j] = r;
            }
            if (spc[j] < lowest || (spc[j] == lowest && row4col[j] == -1)) {
                lowest = spc[j];
                index = it;
            }
        }
        min_val = lowest;
        if (min_val == INFINITY)
            return -1;
        Py_ssize_t j = remaining[index];
        if (row4col[j] == -1)
            sink = j;
        else
            i = row4col[j];
        sc[j] = 1;
        remaining[index] = remaining[--n_rem];
    }
    *p_min = min_val;
    return sink;
}

static PyObject *
stsearch_lsap(PyObject *self, PyObject *arg)
{
    (void)self;
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view, PyBUF_RECORDS_RO) < 0)
        return NULL;
    PyObject *result = NULL;
    char *block = NULL;
    if (view.ndim != 2) {
        PyErr_Format(PyExc_ValueError,
                     "expected a matrix (2-D array), got a %d array",
                     view.ndim);
        goto done;
    }
    if (view.itemsize != 8 || view.format == NULL
            || strcmp(view.format, "d")) {
        PyErr_SetString(PyExc_TypeError, "cost must be a float64 buffer");
        goto done;
    }
    if (!PyBuffer_IsContiguous(&view, 'C')) {
        PyErr_SetString(PyExc_ValueError, "cost must be C-contiguous");
        goto done;
    }
    Py_ssize_t n_rows = view.shape[0], n_cols = view.shape[1];
    Py_ssize_t n = n_rows * n_cols;
    const double *cost = view.buf;
    for (Py_ssize_t k = 0; k < n; k++)
        if (isnan(cost[k]) || cost[k] == -INFINITY) {
            PyErr_SetString(PyExc_ValueError,
                            "matrix contains invalid numeric entries");
            goto done;
        }
    int transpose = n_cols < n_rows;
    Py_ssize_t nr = transpose ? n_cols : n_rows;
    Py_ssize_t nc = transpose ? n_rows : n_cols;
    /* u, v, spc and the transposed copy; path, row4col, remaining,
     * col4row and the output pairs; the row and column marks. */
    Py_ssize_t n_doubles = nr + 2 * nc + (transpose ? n : 0);
    Py_ssize_t n_indices = 3 * nc + 3 * nr;
    block = PyMem_Malloc((size_t)(n_doubles * (Py_ssize_t)sizeof(double)
                                  + n_indices * (Py_ssize_t)sizeof(int64_t)
                                  + nr + nc));
    if (block == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *u = (double *)block, *v = u + nr, *spc = v + nc;
    if (transpose) {
        double *temp = spc + nc;
        for (Py_ssize_t i = 0; i < n_rows; i++)
            for (Py_ssize_t j = 0; j < n_cols; j++)
                temp[j * n_rows + i] = cost[i * n_cols + j];
        cost = temp;
    }
    Py_ssize_t *path = (Py_ssize_t *)(u + n_doubles);
    Py_ssize_t *row4col = path + nc, *remaining = row4col + nc;
    Py_ssize_t *col4row = remaining + nc;
    int64_t *rows_out = (int64_t *)(col4row + nr), *cols_out = rows_out + nr;
    char *sr = (char *)(cols_out + nr), *sc = sr + nr;
    for (Py_ssize_t i = 0; i < nr; i++) {
        u[i] = 0;
        col4row[i] = -1;
    }
    for (Py_ssize_t j = 0; j < nc; j++) {
        v[j] = 0;
        path[j] = -1;
        row4col[j] = -1;
    }
    for (Py_ssize_t cur = 0; cur < nr; cur++) {
        double min_val;
        Py_ssize_t sink = lsap_augment(nr, nc, cost, u, v, path, row4col,
                                       spc, cur, sr, sc, remaining, &min_val);
        if (sink < 0) {
            PyErr_SetString(PyExc_ValueError, "cost matrix is infeasible");
            goto done;
        }
        u[cur] += min_val;
        for (Py_ssize_t i = 0; i < nr; i++)
            if (sr[i] && i != cur)
                u[i] += min_val - spc[col4row[i]];
        for (Py_ssize_t j = 0; j < nc; j++)
            if (sc[j])
                v[j] -= min_val - spc[j];
        for (Py_ssize_t j = sink;;) {
            Py_ssize_t i = path[j], next = col4row[i];
            row4col[j] = i;
            col4row[i] = j;
            j = next;
            if (i == cur)
                break;
        }
    }
    if (transpose) {
        /* col4row maps each original column to a distinct original row:
         * list the pairs by row (path, spent, becomes the inverse). */
        for (Py_ssize_t r = 0; r < nc; r++)
            path[r] = -1;
        for (Py_ssize_t c = 0; c < nr; c++)
            path[col4row[c]] = c;
        Py_ssize_t m = 0;
        for (Py_ssize_t r = 0; r < nc; r++)
            if (path[r] >= 0) {
                rows_out[m] = r;
                cols_out[m++] = path[r];
            }
    }
    else {
        for (Py_ssize_t i = 0; i < nr; i++) {
            rows_out[i] = i;
            cols_out[i] = col4row[i];
        }
    }
    Py_ssize_t bytes = nr * (Py_ssize_t)sizeof(int64_t);
    result = Py_BuildValue(
        "(NN)",
        PyObject_CallFunction(array_type, "sy#", "q", (const char *)rows_out,
                              bytes),
        PyObject_CallFunction(array_type, "sy#", "q", (const char *)cols_out,
                              bytes));
done:
    PyMem_Free(block);
    PyBuffer_Release(&view);
    return result;
}

/* Both rescue caps zero is "rescue off"; otherwise each is a tick count
 * (pipeline.RESCUE_CAPS are 16 and 96), and the total sizes tier 0's
 * key buffer.  -1 with ValueError set. */
static int
caps_check(long long per_step, long long total)
{
    if (per_step < 0 || total < 0 || per_step > 65535 || total > 65535
            || (per_step == 0) != (total == 0)) {
        PyErr_SetString(PyExc_ValueError,
                        "rescue caps must be both 0 (off) or both in "
                        "[1, 65535]");
        return -1;
    }
    return 0;
}

/* Tier 0's answer: the verdict, the ``n`` keys of the leg it made (0:
 * none), the cell index the finisher walked from (-1: none) and the
 * buffers, which the caller frees. */
typedef struct {
    int verdict;
    Py_ssize_t n, tried;
    int32_t *indices;
    int64_t *keys;
} Tier0;

/* Tier 0 of the leg from ``source_ci`` at ``start_t`` over ``s``'s
 * field and store: the descent, its bulk audit (audit_chain semantics:
 * vertex at the arrival tick, reversed swap probe at the departure
 * tick, first hit wins), EATP's finisher from the trigger cell and, on
 * a hit, the rescue.  -1 with an exception set. */
static int
tier0_walk(Search *s, Py_ssize_t source_ci, int64_t start_t,
           int64_t trigger, int64_t per_step, int64_t total, Tier0 *z)
{
    const GridData *gd = s->gd;
    Probe *probe = &s->probe;
    int herr = 0;
    int64_t k = heuristic_at(s, source_ci, &herr);
    *z = (Tier0){0, 0, -1, NULL, NULL};  /* 0: no descent */
    if (herr)
        return -1;
    if (k > (int64_t)gd->n_cells)   /* the field's unreachable marker */
        return 0;
    z->indices = PyMem_Malloc((size_t)(k + 1) * sizeof(int32_t));
    z->keys = PyMem_Malloc((size_t)(k + 1 + (total > FINISH_WAIT
                                             ? total : FINISH_WAIT))
                           * sizeof(int64_t));
    if (z->indices == NULL || z->keys == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int32_t *indices = z->indices;
    int64_t *keys = z->keys;
    indices[0] = (int32_t)source_ci;
    if (descent(s, indices, k) < 0)
        return 0;

    int use_fin = trigger > 0 && k > 0;
    int64_t head = k;   /* moves to audit: all, or up to the trigger cell */
    if (use_fin)
        head = k > trigger ? k - trigger : 0;
    int blocked = 0;
    for (int64_t i = 1; i <= head && !blocked; i++) {
        /* a descent never waits, so every step is a move */
        probe->b1 = store_block(probe->st, start_t + i);
        blocked = probe_move(probe, gd, (Py_ssize_t)indices[i - 1],
                             (Py_ssize_t)indices[i]);
    }

    Py_ssize_t n = 0;
    if (!blocked) {
        /* 1: the whole descent is the leg.  2: the head audited clean
         * and EATP's finisher walks on from its last cell (no keys where
         * the walk declines). */
        for (n = 0; n <= head; n++)
            keys[n] = gd->cell_keys[indices[n]];
        z->verdict = use_fin ? 2 : 1;
        if (use_fin) {
            z->tried = indices[head];
            n = rescue_walk(probe, gd, indices + head, k - head,
                            start_t + head, FINISH_WAIT, FINISH_WAIT,
                            keys + head);
            n = n > 0 ? head + n : 0;
        }
    } else {
        /* 4: the rescue walked it with waits.  3: reject (rescue off or
         * declined) — nothing to carry, the search decides. */
        if (total > 0)
            n = rescue_walk(probe, gd, indices, k, start_t, per_step,
                            total, keys);
        z->verdict = n > 0 ? 4 : 3;
    }
    z->n = n;
    return 0;
}

/* The one call a compiled leg makes: tier 0 (with the rescue and EATP's
 * finisher); on a reject, a miss or a declined walk, the search with its
 * finisher; then the insert of the leg it made into the store.
 * The leg's keys pass the path rule once, on their way out, and go into
 * the store unchecked: the grid fits the store's layer, checked once up
 * front. */
static PyObject *
stsearch_leg(PyObject *self, PyObject *args)
{
    (void)self;
    int h_mode, deep;
    PyObject *capsule, *store_obj, *h_arg;
    Py_ssize_t source_ci, goal_ci;
    long long start_t, trigger, per_step, total, max_expansions;
    if (!PyArg_ParseTuple(args, "OOiOnnLLLLLi:leg",
                          &capsule, &store_obj, &h_mode, &h_arg, &source_ci,
                          &goal_ci, &start_t, &trigger, &per_step, &total,
                          &max_expansions, &deep))
        return NULL;
    Search s;
    if (leg_open(&s, capsule, store_obj, source_ci, goal_ci) < 0
            || caps_check(per_step, total) < 0)
        return NULL;
    Store *st = (Store *)s.probe.st;
    if (!store_key_fits(st, (uint64_t)s.gd->cell_keys[s.n_cells - 1])) {
        PyErr_SetString(PyExc_IndexError, "grid outside dense layer");
        return NULL;
    }
    Py_buffer hview;
    int have_hview = h_field_open(h_mode, h_arg, s.n_cells, &hview);
    if (have_hview < 0)
        return NULL;
    s.h_mode = h_mode;
    s.hbuf = have_hview ? (const int32_t *)hview.buf : NULL;
    s.deep = deep;
    s.start_time = start_t;

    PyObject *out = NULL, *tried = PyList_New(0), *cell = NULL;
    Found found = {-1, NULL, 0, 0, 0};  /* status -1: no search ran */
    Tier0 z = {0, 0, -1, NULL, NULL};
    if (tried == NULL
            || tier0_walk(&s, source_ci, start_t, trigger, per_step, total,
                          &z) < 0
            || (z.tried >= 0 && ((cell = PyLong_FromSsize_t(z.tried)) == NULL
                                 || PyList_Append(tried, cell) < 0)))
        goto done;
    if (z.n > 0) {
        if ((found.keys = keys_export(z.keys, z.n)) == NULL
                || store_insert(st, start_t, z.keys, z.n) < 0)
            goto done;
    } else {
        s.probe.b1 = NULL;
        if (search_leg(&s, source_ci, goal_ci, max_expansions, trigger,
                       tried, &found) < 0)
            goto done;
        if (found.keys != NULL) {
            Py_buffer view;
            if (PyObject_GetBuffer(found.keys, &view, PyBUF_SIMPLE) < 0)
                goto done;
            int rc = store_insert(st, start_t, view.buf,
                                  view.len / (Py_ssize_t)sizeof(int64_t));
            PyBuffer_Release(&view);
            if (rc < 0)
                goto done;
        }
    }
    out = Py_BuildValue("iiOOLLL", z.verdict, found.status,
                        found.keys ? found.keys : Py_None, tried,
                        (long long)found.expansions,
                        (long long)found.generated,
                        (long long)found.peak_open);
done:
    Py_XDECREF(cell);
    Py_XDECREF(found.keys);
    Py_XDECREF(tried);
    PyMem_Free(z.keys);
    PyMem_Free(z.indices);
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
    {"learned_select", (PyCFunction)(void (*)(void))stsearch_learned_select,
     METH_FASTCALL,
     "learned_select(racks, pickers, distance, column, index, robots,\n"
     "               budget, params, rows, table, stats, draw, choose)\n"
     " -> list\n"
     "One selection wake.  ``index`` None: ATP over the racks whose byte\n"
     "in ``column`` is set, up to ``budget`` REQUESTs; returns their ids.\n"
     "``index`` a knn_fill table: EATP's flip over each\n"
     "robot's selectable K nearest, one rack a robot; returns (position\n"
     "in robots, rack id) pairs.  params is (bin width, epsilon, discount,\n"
     "deferral weight, learning rate); rows, table and stats are the\n"
     "agent's QTable rows, QTable and LearnerStats, updated in place; draw\n"
     "and choose are its RNG's random and choice.  draw and choose None:\n"
     "the greedy branch, which draws nothing; ``index`` is the world's\n"
     "(rack ids by picker, selectable count by picker): up to ``budget``\n"
     "selectable racks, pickers with work by (f_p, id), a picker's racks\n"
     "in its list's order, each learning REQUEST; returns their ids.\n"
     "TypeError or ValueError for a malformed argument, before any draw\n"
     "or write."},
    {"lsap", stsearch_lsap, METH_O,
     "lsap(cost) -> (row_ind, col_ind)\n"
     "The minimum-cost assignment of the C-contiguous 2-D float64 ``cost``,\n"
     "equal to scipy.optimize.linear_sum_assignment(cost) tie for tie, as\n"
     "two array('q'); ValueError for NaN or -inf or an infeasible matrix."},
    {"leg", stsearch_leg, METH_VARARGS,
     "leg(grid_capsule, store, h_mode, h_arg, source_ci, goal_ci, start_t,\n"
     "    trigger, rescue_wait_per_step, rescue_total_wait, max_expansions,\n"
     "    deep) -> (verdict, status, keys, tried, expansions, generated,\n"
     "    peak_open)\n"
     "One leg: tier 0, the fused free-flow descent + bulk reservation\n"
     "audit + wait-following rescue (both caps 0 = off; h_mode as for\n"
     "run, h_arg unused by 1); where it made no leg, run's search (status\n"
     "as run's; -1 where tier 0 made the leg and no search ran); then the\n"
     "insert of the leg into ``store``.  Tier 0's verdicts: 0 unreachable;\n"
     "1 conflict-free; 2 the head up to h = trigger audited clean and\n"
     "EATP's finisher walked on from its last cell (a miss where the walk\n"
     "declined); 3 audit reject; 4 rescued.  ``keys`` is the leg (None\n"
     "where the search failed), ``tried`` the finisher's start cells,\n"
     "tier 0's first, and the counters the search's (0 where none ran).\n"
     "Bad arguments, and a grid outside the store's layer, raise before\n"
     "anything is inserted."},
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
    static const char *const names[] = {
        "picker_id", "accumulated_processing", "pending_processing_time",
        "pending_items", "remaining_current", "queued_processing",
        "location", "robot_id", "_entries", "initial_value", "updates",
        "explored_actions", "greedy_updates", "cumulative_reward"};
    PyObject **interned[] = {
        &str_picker_id, &str_accumulated, &str_pending_time,
        &str_pending_items, &str_remaining, &str_queued, &str_location,
        &str_robot_id, &str_entries, &str_initial, &str_updates,
        &str_explored, &str_greedy, &str_reward};
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        Py_XSETREF(*interned[i], PyUnicode_InternFromString(names[i]));
        if (*interned[i] == NULL) {
            Py_DECREF(mod);
            return NULL;
        }
    }
    Py_XSETREF(actions_pair, Py_BuildValue("(ii)", 0, 1));
    if (actions_pair == NULL) {
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
