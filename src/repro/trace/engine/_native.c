/* Scheduler, drain loop and synchronization for the repro timing
 * interleaver.
 *
 * The one fast implementation of the timing model.  Its contract is the
 * reference loop's -- ``TimingInterleaver._run_generic`` driving the
 * repro.core objects one event at a time (src/repro/trace/interleave.py)
 * -- and for the length of one ``run`` call C owns the run: the data path
 * (hits, bank/write-buffer timing, the snoopy MSI/MESI miss path with its
 * bus arbitration, instruction-cache refills), scheduling, the locks,
 * barriers and task queues, and the resuming of the application
 * generators, whose bodies are the only python that runs in between: C
 * calls no other python function.  A run never carries a probe: any probe
 * keeps the run on the reference loop, whose callbacks are the one
 * implementation of what a probe records.  Everything here must stay
 * observably identical to the reference loop -- the differential verifier
 * diffs fingerprints and error messages.
 *
 * Ownership: python containers are the machine's state *at rest*; during
 * a ``run`` C works on its own copy, and nothing in python reads or
 * writes the machine until it returns.
 *
 *   - tag/state arrays (the SCCs' and each processor's icache's), bank
 *     free times, the bus clock: ``array('q')`` storage C reads and writes
 *     in place through buffer views (an SCC's share of them is its ``Scc``
 *     view);
 *   - the ready queue: ``Ctx.rq``, a window of one-cycle buckets with a
 *     heap of ``(time, seq, pid)`` triples for overflow (the "scheduler"
 *     section), read from ``interleaver._heap`` when the drive starts and
 *     written back to it -- whatever is still ready -- at the end;
 *   - in-flight fills, write buffers and lost lines: each SCC's ``Words``
 *     -- per-index ``fill_line``/``fill_ready``, a heap of retire times
 *     per bank and an open-addressing set of lines --, imported from
 *     ``scc._inflight``, ``interconnect._write_buffers`` and
 *     ``scc._lost_lines`` and written back to them (the "words" section
 *     has the argument);
 *   - the processes (clock, blocked/finished flags, pending response and
 *     chunk) and the locks and barriers with their wait queues: the
 *     wrapper flattens ``_processes``, ``_locks`` and ``_barriers`` into
 *     words and lists of the plan and rebuilds them from what the call
 *     leaves there (the "processes" section).
 *
 * What C still touches as python objects, all off the data path: the
 * task-queue deques, and what a generator yields -- a ``PackedChunk``,
 * whose words are read in place or copied, or an event object, encoded
 * here into a cursor of one event.  A hit, a miss and a switch of
 * processes touch C words only.
 *
 * ``run(plan)`` is one call: it parses the plan (``ctx_setup``: every
 * buffer acquired once; a plan it refuses is left as it was), runs every
 * process until none is ready -- all finished, or the rest blocked for
 * good, which the caller tells apart -- or until what the reference loop
 * would raise at the same event (``ctx_drive``), writes the working copy
 * back into the plan's containers (``ctx_export``) and drops the views,
 * raise or no raise, so an aborted run leaves what the reference loop
 * leaves.
 *
 * Five more sections share the build and the ``ABI_VERSION`` guard.  The
 * fused multi-configuration ladder (``ladder``) is a second driver of
 * the same memory system: each of its rungs is a ``Machine`` of one
 * ``Scc`` on a bus of its own, parsed from the machine plan a run's is
 * parsed from and counted into the same rows, and its misses, upgrades
 * and icache refills are the "coherence" section's, called as ``run``
 * calls them.
 * The row-profile kernel (``row_profile``, diffed as the ``profile``
 * engine) and the SPEC-stream kernel (``spec_burst``: one
 * multiprogramming quantum, written from the application's own uniform
 * batches) share nothing else.  MP3D's and Barnes-Hut's processes
 * (``mp3d_processes``, ``barnes_processes``) are two kinds of one C
 * process (the "processes" section: a header, a row of what differs, one
 * ``next()`` yielding ``PackedChunk(array('q'))``), iterators any
 * consumer can resume and the only ones ``run`` knows: it steps them
 * itself, whichever kind, so an MP3D or Barnes-Hut run executes no python
 * at all.  Each is introduced by its own
 * banner below.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#define OP_READ 1
#define OP_WRITE 2
#define OP_COMPUTE 3
#define OP_IFETCH 4
#define OP_LOCK_ACQ 5
#define OP_LOCK_REL 6
#define OP_BARRIER 7
#define OP_ENQUEUE 8
#define OP_DEQUEUE 9
#define OP_READ_SPAN 10
#define OP_WRITE_SPAN 11

/* packed.OP_WIDTH: the words of a record, its opcode's included, by
 * opcode (0 is no opcode) */
static const int OP_WIDTH[] = {0, 2, 2, 2, 3, 2, 2, 3, 3, 2, 4, 4};
#define OP_WIDTH_MAX 4

#define ST_SHARED 1     /* repro.core.cache.SHARED */
#define ST_MODIFIED 2   /* repro.core.cache.MODIFIED */
#define ST_EXCLUSIVE 3  /* repro.core.cache.EXCLUSIVE */

#define ABI_VERSION "20"  /* == engine/native.py NATIVE_VERSION */

/* A machine plan's scalars (engine/native.py's ``machine_plan`` writes
 * them from the config), in order: ``run`` and ``ladder`` read the same
 * words. */
enum {
    K_LINE_SHIFT, K_NBANKS, K_BANK_CYCLE, K_STALL_ON_WRITES, K_WB_DEPTH,
    K_IC_LAT, K_ILINE_SHIFT, K_LIMIT, K_BUS_OCC, K_UPGRADE_OCC,
    K_MEM_LATENCY, K_MESI, K_LOCK_OVERHEAD, K_BARRIER_OVERHEAD, K_FIELDS
};

/* A machine plan's ``misc`` words: events executed, ``interleaver._seq``
 * (in both directions), the latest finish so far, generators resumed. */
enum { X_EVENTS, X_SEQ, X_FINISH, X_RESUMES, X_FIELDS };

/* A process's at-rest words (the wrapper's ``pstate``), in and out. */
enum {
    P_TIME, P_BLOCKED, P_BLOCK_START, P_FINISHED, P_CHUNK_POS, P_CHUNK_SUB,
    P_FIELDS
};

/* SnoopyBus._clock */
#define BUS_BUSY_UNTIL 0
#define BUS_TRANSACTIONS 1
#define BUS_BUSY_CYCLES 2

/* Per-cluster SccStats deltas; slot order is engine/native.py's
 * ``_SCC_FIELDS``. */
enum {
    S_READS, S_READ_MISSES, S_WRITES, S_WRITE_MISSES, S_UPGRADES,
    S_INVALIDATIONS_SENT, S_INVALIDATIONS_RECEIVED, S_INTERVENTIONS,
    S_WRITEBACKS, S_EVICTIONS, S_COHERENCE_READ_MISSES,
    S_BANK_CONFLICT_CYCLES, S_BUS_WAIT_CYCLES, S_WRITE_BUFFER_STALL_CYCLES,
    S_FIELDS
};

static PyObject *g_deque = NULL;      /* collections.deque */
static PyObject *s_append = NULL;
static PyObject *s_popleft = NULL;

/* Where a process stands in its installed chunk. */
typedef struct {
    const long long *data;    /* the chunk's words; NULL when none */
    long long end;            /* how many */
    long long pos, sub;       /* next opcode; offset inside a span */
    PyObject *owner;          /* ``process.chunk`` at rest: the sequence
                                 behind ``data``; NULL for ``one`` */
    Py_buffer view;           /* on ``owner``, an ``array('q')`` ... */
    long long *copy;          /* ... or C's own copy of a ``list`` */
    long long one[3];         /* ... or one event object, encoded */
} Cursor;

/* One ready process: the reference loop's ``(time, seq, pid)`` heap
 * entry.  ``seq`` is unique, so the order on ``(time, seq)`` is total and
 * pop order does not depend on heap layout. */
typedef struct {
    long long time, seq, pid;
} Ready;

#define RQ_W 256                /* window buckets, one cycle each */
#define RQ_MASK (RQ_W - 1)
#define RQ_WORDS (RQ_W / 64)

/* A process's place in the ready queue. */
typedef struct {
    long long seq;            /* its window entry's */
    int next;                 /* the pid behind it in its bucket (-1: last) */
    int queued;               /* ready: in the window or the heap */
} RqLink;

/* The ready queue (the "scheduler" section has the argument). */
typedef struct {
    long long base;           /* clock of the last pop; never decreases */
    long long wmin;           /* the window's earliest clock */
    long long earliest;       /* the queue's; LLONG_MAX: empty */
    int n, n_window, n_heap;
    unsigned long long occupied[RQ_WORDS];
    int head[RQ_W], tail[RQ_W];         /* [time & RQ_MASK] */
    RqLink *link;             /* [pid] */
    Ready *heap;              /* the overflow: a binary min-heap */
} ReadyQ;

#define FILL_NONE LLONG_MIN     /* ``fill_ready`` of a slot with no fill */

/* What C keeps for one SCC during a driver's call (the "words"
 * section). */
typedef struct {
    long long *fill_line, *fill_ready;  /* [index]; one block with ``wb`` */
    long long *wb;            /* [bank * (depth + 1)]: how many entries,
                                 then their retire times as a min-heap */
    long long *lost;          /* [lost_cap]: the lost lines, LOST_EMPTY
                                 between them; NULL before the first */
    size_t lost_cap, lost_n;  /* a power of two, or 0; lines held */
    long long lines, nbanks, depth;
    PyObject *inflight, *wbufs, *lost_at_rest;  /* the at-rest forms (the
                                                   plan's) */
} Words;

/* One shared cluster cache as the protocol sees it -- a cluster of a
 * ``run``, a rung of the ladder: python's own tag/state storage worked on
 * in place, the words C keeps for it, the row its events are counted in
 * and the bus it sits on. */
typedef struct {
    long long *states, *tags; /* [index] */
    long long mask, shift;    /* index = line & mask, tag = line >> shift */
    Words words;
    long long *bank_free;     /* [bank] */
    long long *stats;         /* S_* */
    long long *bus;           /* BUS_* */
} Scc;

/* One processor's ``InstructionCache.array``, worked on in place. */
typedef struct {
    long long *states, *tags;
    long long mask, shift;    /* index = line & mask, tag = line >> shift */
} Icache;

/* What C counted for each processor, by pid -- the deltas of the
 * counters the reference loop bumps as it goes, which engine/native.py's
 * ``settle`` adds up -- and the ``misc`` words. */
typedef struct {
    long long *refs, *busy, *stall, *finish, *sync, *icfetch, *icmiss,
              *icstall;
    long long *misc;          /* X_* */
} Deltas;

/* One machine plan (``machine_setup``): the SCCs that snoop one another
 * -- every one on the same bus, with the same geometry --, the
 * processors' icaches and deltas, and the constants of the config. */
typedef struct {
    Scc *sccs;
    int n;
    int nproc;
    const long long *scal;    /* K_*, as the plan holds them */
    long long line_shift, nbanks, bank_cycle, wb_depth;
    long long bank_mask;      /* nbanks - 1 when a power of two, else -1 */
    long long iline_shift, ic_lat, limit;
    long long bus_occ, upgrade_occ, mem_latency;
    long long lock_overhead, barrier_overhead;
    int mesi, stall_on_writes;
    Icache *icaches;          /* [pid]; NULL: no icache is modelled */
    Deltas d;
} Machine;

/* The ``array('q')`` storage a context works on in place: buffer views
 * taken at setup, dropped together. */
typedef struct {
    Py_buffer *bufs;
    int n, cap;               /* taken; room for */
} Views;

/* One application process during a ``run``. */
typedef struct {
    PyObject *generator;      /* borrowed from the plan */
    PyObject *response;       /* owned: what its next resume is sent (a
                                 dequeued item); NULL: nothing */
    long long time;           /* its clock, whenever it is not running */
    long long block_start;
    int blocked, finished;
    int next;                 /* the pid behind it in the wait queue it
                                 stands in (-1: last); IN_NO_QUEUE */
    Cursor cursor;
} Proc;

#define IN_NO_QUEUE (-2)

/* One lock or barrier: who holds it and who waits, first come first,
 * chained through ``Proc.next`` -- a blocked process waits in one place. */
typedef struct {
    long long id;
    long long holder;         /* a lock's; -1: free */
    long long latest;         /* a barrier's latest arrival so far */
    int head, tail, count;
} WaitQ;

/* ``_locks`` / ``_barriers``: the queues in order of first use (a dict's
 * order), found through an open-addressing index of ``rank + 1``. */
typedef struct {
    WaitQ *q;
    size_t n;
    unsigned *slots;
    size_t n_slots;           /* a power of two, or 0 before first use */
    PyObject *at_rest;        /* a run's: the plan's list of them */
} SyncTable;

/* How one event class is packed: its opcode and operand attributes. */
typedef struct {
    PyTypeObject *type;
    long long op;
    int n;
    PyObject *names[2];
} EventCode;

#define N_EVENT_CODES 9

typedef struct {
    int nproc;
    Machine m;                /* one SCC per cluster */
    long long *pstate;        /* [pid * P_FIELDS] */
    long long *proc_cluster;
    Proc *procs;              /* by pid */
    SyncTable locks, barriers;
    PyObject *queues;
    PyObject *chunks, *responses;       /* at-rest lists, by pid */
    PyTypeObject *chunk_type; /* PackedChunk */
    PyObject *chunk_data;     /* "data" */
    PyObject *array_type, *sync_error;
    EventCode codes[N_EVENT_CODES];
    ReadyQ rq;                /* room for every process, once */
    PyObject *ready_at_rest;        /* interleaver._heap */
    Views views;
} Ctx;

/* ---------------------------------------------------------------- utils */

/* Install ``chunk`` -- a ``PackedChunk``'s data, any int sequence -- on an
 * empty cursor.  An ``array('q')`` is read in place; a ``list`` -- what the
 * workloads' builders produce -- is copied into words of C's own, with the
 * errors ``array('q', chunk)`` raises for an element that is no int64
 * (TypeError, OverflowError); anything else goes through that very call
 * (``array_type``) first.  A chunk is fully consumed before its generator
 * resumes, so neither form is visible to a workload that reuses its
 * builder. */
static int
cursor_install(Cursor *cur, PyObject *chunk, PyObject *array_type)
{
    if (PyList_CheckExact(chunk)) {
        Py_ssize_t n = PyList_GET_SIZE(chunk);
        long long *copy = PyMem_Malloc(n ? 8 * (size_t)n : 1);
        if (!copy) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t k = 0; k < n; k++) {
            copy[k] = PyLong_AsLongLong(PyList_GET_ITEM(chunk, k));
            if (copy[k] == -1 && PyErr_Occurred()) {
                PyMem_Free(copy);
                return -1;
            }
        }
        cur->data = cur->copy = copy;
        cur->end = n;
        Py_INCREF(chunk);
    }
    else {
        if (Py_IS_TYPE(chunk, (PyTypeObject *)array_type)
            && PyObject_GetBuffer(chunk, &cur->view, PyBUF_FORMAT) == 0
            && strcmp(cur->view.format, "q") == 0) {
            Py_INCREF(chunk);
        }
        else {
            PyBuffer_Release(&cur->view);       /* (an array of another type) */
            if (PyErr_Occurred())
                return -1;
            chunk = PyObject_CallFunction(array_type, "sO", "q", chunk);
            if (!chunk)
                return -1;
            if (PyObject_GetBuffer(chunk, &cur->view, PyBUF_SIMPLE) < 0) {
                Py_DECREF(chunk);
                return -1;
            }
        }
        cur->data = (const long long *)cur->view.buf;
        cur->end = (long long)(cur->view.len / 8);
    }
    cur->owner = chunk;
    cur->pos = 0;
    cur->sub = 0;
    return 0;
}

static void
cursor_drop(Cursor *cur)
{
    PyBuffer_Release(&cur->view);       /* no-op when there is none */
    PyMem_Free(cur->copy);
    Py_CLEAR(cur->owner);
    cur->copy = NULL;
    cur->data = NULL;
    cur->end = cur->pos = cur->sub = 0;
}

/* A writable view on the int64 slots of ``obj`` ... */
static long long *
acquire_ll(Views *views, PyObject *obj)
{
    if (views->n == views->cap) {
        PyErr_SetString(PyExc_ValueError, "plan holds too many arrays");
        return NULL;
    }
    Py_buffer *view = &views->bufs[views->n];
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE) < 0)
        return NULL;
    views->n++;
    return (long long *)view->buf;
}

/* ... of exactly ``n`` slots (layouts C indexes by constant). */
static long long *
acquire_ll_n(Views *views, PyObject *obj, Py_ssize_t n)
{
    long long *buf = acquire_ll(views, obj);
    if (buf && views->bufs[views->n - 1].len != 8 * n) {
        PyErr_Format(PyExc_ValueError, "plan array must hold %zd slots", n);
        return NULL;
    }
    return buf;
}

static void
views_release(Views *views)
{
    while (views->n)
        PyBuffer_Release(&views->bufs[--views->n]);
}

/* Where an int64 key starts probing an open-addressing table. */
static inline size_t
ll_hash(long long key)
{
    return (size_t)(((unsigned long long)key * 0x9E3779B97F4A7C15ULL) >> 32);
}

static int
get_ll_item(PyObject *seq, Py_ssize_t i, long long *out)
{
    PyObject *obj = PySequence_GetItem(seq, i);
    if (!obj)
        return -1;
    *out = PyLong_AsLongLong(obj);
    Py_DECREF(obj);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* A view on ``obj``'s contiguous items of ``size`` bytes each, signed
 * integers (``floats`` false) or float64s, writable when C writes them;
 * returns how many. */
static Py_ssize_t
typed_view(PyObject *obj, Py_buffer *view, Py_ssize_t size, int floats,
           int writable, const char *what)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    size_t len = strlen(view->format);
    if (view->itemsize != size || len == 0
            || !strchr(floats ? "d" : "ilq", view->format[len - 1])) {
        PyErr_Format(PyExc_ValueError, "%s must be %zd-byte %s", what, size,
                     floats ? "floats" : "integers");
        PyBuffer_Release(view);
        return -1;
    }
    return view->len / size;
}

/* ---------------------------------------------------------------- words */

/* An SCC's in-flight fills (``scc._inflight``: line -> cycle its fill
 * lands), write buffers (``interconnect._write_buffers``: per bank, a
 * heapq of retire times) and lost lines (``scc._lost_lines``: the lines a
 * remote write invalidated here, whose next miss is a coherence miss) as
 * C keeps them during a driver's call, and the ``Scc`` view
 * they belong to.  The python containers stay the at-rest form and the
 * reference loop's; only ``words_setup``, ``words_import`` and
 * ``words_export`` touch them.
 *
 * Fills are two words per SCC slot: the line being filled there and when
 * it lands.  Exact, because every SCC that gets here is direct-mapped and
 * a line with an outstanding fill is resident
 * (``SharedClusterCache.stale_inflight``'s invariant, which the wrapper
 * checks on a non-empty dict before ``run``): at most one fill is
 * outstanding at an index.  A bank's write buffer is ``depth + 1`` words:
 * how many entries it holds, then their retire times as a binary min-heap
 * rooted at word 1.  Heap layout may differ from heapq's, but the multiset
 * and its minimum -- all ``reserve_write_slot`` observes -- do not.
 *
 * The lost lines are a set of int64 lines, open addressing from
 * ``ll_hash`` with linear probing, doubled once half full.  A probe ends
 * at the first empty slot, so a deletion leaves no tombstone: the entries
 * behind it shift back over the hole.  LOST_EMPTY marks an empty slot;
 * no line is LLONG_MIN, ``addr >> line_shift`` with a shift of at least
 * one (``run`` refuses a machine of one-byte lines, and a set that
 * holds it). */

#define WBUF_MAX (1 << 16)      /* banks of an SCC, entries of a bank */

#define LOST_EMPTY LLONG_MIN    /* a lost-line slot with no line */
#define LOST_MIN_SLOTS 16

/* Empty words for an SCC of ``mask + 1`` lines whose state at rest is
 * ``inflight`` (a dict), ``wbufs`` (a list of ``nbanks`` lists) and
 * ``lost`` (a set). */
static int
words_setup(Words *w, long long mask, long long nbanks, long long depth,
            PyObject *inflight, PyObject *wbufs, PyObject *lost)
{
    if (!PyDict_CheckExact(inflight) || !PyList_CheckExact(wbufs)
        || !PySet_CheckExact(lost)) {
        PyErr_SetString(PyExc_TypeError, "in-flight fills must be a dict, "
                        "write buffers a list of lists, lost lines a set");
        return -1;
    }
    if (mask < 0 || mask >= PY_SSIZE_T_MAX / 32
        || nbanks < 1 || nbanks > WBUF_MAX
        || depth < 1 || depth > WBUF_MAX) {
        PyErr_SetString(PyExc_ValueError, "index mask, bank count or "
                        "write-buffer depth out of range");
        return -1;
    }
    if (PyList_GET_SIZE(wbufs) != nbanks) {
        PyErr_Format(PyExc_ValueError, "need %lld write buffers", nbanks);
        return -1;
    }
    for (Py_ssize_t bank = 0; bank < nbanks; bank++) {
        if (!PyList_CheckExact(PyList_GET_ITEM(wbufs, bank))) {
            PyErr_SetString(PyExc_TypeError, "a write buffer must be a list");
            return -1;
        }
    }
    size_t lines = (size_t)mask + 1;
    w->fill_line = PyMem_Calloc(2 * lines + (size_t)(nbanks * (depth + 1)),
                                sizeof(long long));
    if (!w->fill_line) {
        PyErr_NoMemory();
        return -1;
    }
    w->fill_ready = w->fill_line + lines;
    w->wb = w->fill_ready + lines;
    for (size_t idx = 0; idx < lines; idx++)
        w->fill_ready[idx] = FILL_NONE;
    w->lines = mask + 1;
    w->nbanks = nbanks;
    w->depth = depth;
    w->inflight = inflight;
    w->wbufs = wbufs;
    w->lost_at_rest = lost;
    return 0;
}

/* ``inflight[line] = ready``; the slot's previous entry is its victim's,
 * which ``_install`` drops. */
static inline void
fill_set(Words *w, long long line, long long idx, long long ready)
{
    w->fill_line[idx] = line;
    w->fill_ready[idx] = ready;
}

/* ``inflight.pop(line, None)`` */
static inline void
fill_drop(Words *w, long long line, long long idx)
{
    if (w->fill_line[idx] == line)
        w->fill_ready[idx] = FILL_NONE;
}

/* Completion of a hit at ``start``: it merges with a fill still in
 * flight (``scc.fill_ready_time``; landed fills are forgotten here). */
static inline long long
fill_done(Words *w, long long line, long long idx, long long start)
{
    long long *ready = &w->fill_ready[idx];
    if (*ready == FILL_NONE || w->fill_line[idx] != line)
        return start + 1;
    if (*ready <= start) {
        *ready = FILL_NONE;
        return start + 1;
    }
    return *ready + 1;
}

/* The order a bank's stores leave its buffer in: oldest retire first. */
static inline int
wbuf_before(long long a, long long b)
{
    return a < b;
}

/* ``heapq.heappush`` on one bank's words */
static inline void
wbuf_push(long long *heap, long long retire)
{
    long long pos = ++heap[0];
    while (pos > 1 && wbuf_before(retire, heap[pos >> 1])) {
        heap[pos] = heap[pos >> 1];
        pos >>= 1;
    }
    heap[pos] = retire;
}

/* ``heapq.heappop`` (the bank holds at least one entry) */
static inline long long
wbuf_pop(long long *heap)
{
    long long n = --heap[0], top = heap[1], last = heap[n + 1], pos = 1;
    for (long long child = 2; child <= n; child = 2 * pos) {
        if (child < n && wbuf_before(heap[child + 1], heap[child]))
            child++;
        if (!wbuf_before(heap[child], last))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = last;
    return top;
}

/* ``BankInterconnect.reserve_write_slot`` for a store that reaches
 * ``bank`` at ``now`` and is performed at ``retire``: retire what has
 * landed, stall on the oldest entry when the buffer is still full (it is
 * later than ``now``, or it had just been retired), enter the store.
 * Returns the stall.  The callers settle ``write_stall_cycles`` from their own deltas. */
static inline long long
wbuf_reserve(Words *w, long long bank, long long now, long long retire)
{
    long long *heap = w->wb + bank * (w->depth + 1);
    while (heap[0] && heap[1] <= now)
        wbuf_pop(heap);
    long long stall = heap[0] >= w->depth ? wbuf_pop(heap) - now : 0;
    wbuf_push(heap, retire > now + stall ? retire : now + stall);
    return stall;
}

/* The slot ``line`` is in, or the empty one it would go in (the table
 * has slots). */
static inline size_t
lost_slot(const Words *w, long long line)
{
    size_t mask = w->lost_cap - 1;
    size_t at = ll_hash(line) & mask;
    while (w->lost[at] != line && w->lost[at] != LOST_EMPTY)
        at = (at + 1) & mask;
    return at;
}

/* Twice the slots (LOST_MIN_SLOTS at first), every line placed again. */
static int
lost_grow(Words *w)
{
    size_t old_cap = w->lost_cap, cap = old_cap ? 2 * old_cap
                                                : LOST_MIN_SLOTS;
    long long *old = w->lost;
    long long *slots = PyMem_Malloc(cap * sizeof(long long));
    if (!slots) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t at = 0; at < cap; at++)
        slots[at] = LOST_EMPTY;
    w->lost = slots;
    w->lost_cap = cap;
    for (size_t at = 0; at < old_cap; at++) {
        if (old[at] != LOST_EMPTY)
            slots[lost_slot(w, old[at])] = old[at];
    }
    PyMem_Free(old);
    return 0;
}

/* ``scc.note_lost(line)`` */
static int
lost_note(Words *w, long long line)
{
    if (2 * (w->lost_n + 1) > w->lost_cap && lost_grow(w) < 0)
        return -1;
    size_t at = lost_slot(w, line);
    if (w->lost[at] == LOST_EMPTY) {
        w->lost[at] = line;
        w->lost_n++;
    }
    return 0;
}

/* ``scc.consume_lost(line)``: 1 when the line was marked.  An entry
 * behind the hole moves into it when the hole is on its probe path --
 * between its home slot and its own, cyclically -- and leaves its own
 * slot the hole; the run of entries ends at an empty slot. */
static inline int
lost_consume(Words *w, long long line)
{
    if (!w->lost_n)
        return 0;
    long long *slots = w->lost;
    size_t mask = w->lost_cap - 1;
    size_t hole = lost_slot(w, line);
    if (slots[hole] == LOST_EMPTY)
        return 0;
    for (size_t at = (hole + 1) & mask; slots[at] != LOST_EMPTY;
         at = (at + 1) & mask) {
        size_t home = ll_hash(slots[at]) & mask;
        if (((at - home) & mask) >= ((at - hole) & mask)) {
            slots[hole] = slots[at];
            hole = at;
        }
    }
    slots[hole] = LOST_EMPTY;
    w->lost_n--;
    return 1;
}

/* Read the containers into the (empty) words, leaving them as they are:
 * what a ``run`` starts from.  A ladder pass has nothing to read -- its
 * rungs are fresh, and one that began mid-machine would need the windows
 * its skew arithmetic keeps, which no container holds.  A lost line that
 * is no int, is beyond int64 or is LOST_EMPTY is refused: the words are
 * C's alone until ``words_export``, so a refusal leaves every container
 * as it was. */
static int
words_import(Words *w)
{
    PyObject *lines = PyObject_GetIter(w->lost_at_rest);
    if (!lines)
        return -1;
    PyObject *item;
    while ((item = PyIter_Next(lines))) {
        long long line = LOST_EMPTY;
        if (!PyLong_Check(item))
            PyErr_SetString(PyExc_TypeError, "lost lines must be ints");
        else if ((line = PyLong_AsLongLong(item)) == LOST_EMPTY)
            PyErr_Format(PyExc_ValueError, "no address maps to lost line "
                         "%lld", line);
        Py_DECREF(item);
        if (PyErr_Occurred() || lost_note(w, line) < 0)
            break;
    }
    Py_DECREF(lines);
    if (PyErr_Occurred())
        return -1;

    PyObject *key, *value;
    Py_ssize_t at = 0;
    while (PyDict_Next(w->inflight, &at, &key, &value)) {
        long long line = PyLong_AsLongLong(key);
        if (line == -1 && PyErr_Occurred())
            return -1;
        long long ready = PyLong_AsLongLong(value);
        if (ready == -1 && PyErr_Occurred())
            return -1;
        fill_set(w, line, line & (w->lines - 1), ready);
    }
    for (long long bank = 0; bank < w->nbanks; bank++) {
        PyObject *buf = PyList_GET_ITEM(w->wbufs, bank);
        if (PyList_GET_SIZE(buf) > w->depth) {
            PyErr_Format(PyExc_ValueError, "write buffer of bank %lld holds "
                         "more than its %lld entries", bank, w->depth);
            return -1;
        }
        for (Py_ssize_t k = 0; k < PyList_GET_SIZE(buf); k++) {
            long long retire = PyLong_AsLongLong(PyList_GET_ITEM(buf, k));
            if (retire == -1 && PyErr_Occurred())
                return -1;
            wbuf_push(w->wb + bank * (w->depth + 1), retire);
        }
    }
    return 0;
}

static PyObject *
words_list(const long long *words, long long n)
{
    PyObject *list = PyList_New((Py_ssize_t)n);
    for (long long k = 0; list && k < n; k++) {
        PyObject *item = PyLong_FromLongLong(words[k]);
        if (!item)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, k, item);
    }
    return list;
}

/* ... and write the words back: the dict, every bank's list and the set
 * (the same objects, which python holds) become exactly what the
 * reference loop would have left in them -- a heap rooted at word 1 is a
 * heapq list. */
static int
words_export(Words *w)
{
    if (PySet_Clear(w->lost_at_rest) < 0)
        return -1;
    for (size_t at = 0; at < w->lost_cap; at++) {
        if (w->lost[at] == LOST_EMPTY)
            continue;
        PyObject *k = PyLong_FromLongLong(w->lost[at]);
        int rc = k ? PySet_Add(w->lost_at_rest, k) : -1;
        Py_XDECREF(k);
        if (rc < 0)
            return -1;
    }
    PyDict_Clear(w->inflight);
    for (long long idx = 0; idx < w->lines; idx++) {
        if (w->fill_ready[idx] == FILL_NONE)
            continue;
        PyObject *k = PyLong_FromLongLong(w->fill_line[idx]);
        PyObject *v = k ? PyLong_FromLongLong(w->fill_ready[idx]) : NULL;
        int rc = v ? PyDict_SetItem(w->inflight, k, v) : -1;
        Py_XDECREF(k);
        Py_XDECREF(v);
        if (rc < 0)
            return -1;
    }
    for (long long bank = 0; bank < w->nbanks; bank++) {
        const long long *heap = w->wb + bank * (w->depth + 1);
        PyObject *buf = PyList_GET_ITEM(w->wbufs, bank);
        PyObject *held = words_list(heap + 1, heap[0]);
        int rc = held ? PyList_SetSlice(buf, 0, PyList_GET_SIZE(buf), held)
                      : -1;
        Py_XDECREF(held);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* One SCC's entry of a machine plan, a cluster of ``run``'s or a
 * rung of ``ladder``'s: ``(states, tags, index_mask, tag_shift,
 * inflight, write_buffers, lost_lines, bank free times, bus clock, S_*
 * row)``.  The words come back empty; the caller imports the
 * containers, or insists that they are empty. */
static int
scc_setup(Scc *scc, Views *views, PyObject *entry, long long nbanks,
          long long depth)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 10) {
        PyErr_SetString(PyExc_TypeError, "an SCC entry must be a 10-tuple");
        return -1;
    }
    if (get_ll_item(entry, 2, &scc->mask) < 0
        || get_ll_item(entry, 3, &scc->shift) < 0
        || words_setup(&scc->words, scc->mask, nbanks, depth,
                       PyTuple_GET_ITEM(entry, 4),
                       PyTuple_GET_ITEM(entry, 5),
                       PyTuple_GET_ITEM(entry, 6)) < 0)
        return -1;
    Py_ssize_t lines = (Py_ssize_t)scc->words.lines;
    if (!(scc->states = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 0),
                                     lines))
        || !(scc->tags = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 1),
                                      lines))
        || !(scc->bank_free = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 7),
                                           (Py_ssize_t)nbanks))
        || !(scc->bus = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 8), 3))
        || !(scc->stats = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 9),
                                       S_FIELDS)))
        return -1;
    return 0;
}

/* -------------------------------------------------------------- machine */

/* A machine plan's icache entries: none when the machine models no
 * instruction cache, else one ``(states, tags, index_mask, tag_shift)``
 * per processor -- its ``InstructionCache.array``, worked on in place. */
static int
icaches_setup(Machine *m, Views *views, PyObject *ic_tuple)
{
    Py_ssize_t n = PyTuple_GET_SIZE(ic_tuple);
    if (n == 0)
        return 0;
    if (n != m->nproc) {
        PyErr_SetString(PyExc_TypeError,
                        "icaches must be a tuple with none or one entry per "
                        "processor");
        return -1;
    }
    if (!(m->icaches = PyMem_Calloc(m->nproc, sizeof(Icache)))) {
        PyErr_NoMemory();
        return -1;
    }
    for (int p = 0; p < m->nproc; p++) {
        PyObject *entry = PyTuple_GET_ITEM(ic_tuple, p);
        Icache *ic = &m->icaches[p];
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 4) {
            PyErr_SetString(PyExc_TypeError, "an icache entry must be "
                            "(states, tags, index_mask, tag_shift)");
            return -1;
        }
        if (get_ll_item(entry, 2, &ic->mask) < 0
            || get_ll_item(entry, 3, &ic->shift) < 0)
            return -1;
        if (ic->mask < 0 || ic->mask >= PY_SSIZE_T_MAX / 8
            || (ic->mask & (ic->mask + 1)) || ic->shift < 0
            || ic->shift > 62) {
            PyErr_SetString(PyExc_ValueError,
                            "icache index mask or tag shift out of range");
            return -1;
        }
        if (!(ic->states = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 0),
                                        ic->mask + 1))
            || !(ic->tags = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 1),
                                         ic->mask + 1)))
            return -1;
    }
    return 0;
}

/* A machine plan -- engine/native.py's ``machine_plan``, the same for
 * ``run`` and for each rung of ``ladder``: ``(scalars, SCC
 * entries, icache entries, deltas)``.  The scalars are the K_* words; an
 * SCC entry (``scc_setup``) per cluster, every one on the machine's one
 * bus; the icache entries are ``icaches_setup``'s; the deltas are the
 * eight ``Deltas`` rows of a word per processor, then the ``misc``
 * words. */
static int
machine_setup(Machine *m, Views *views, PyObject *plan)
{
    PyObject *sccs, *ics, *rows;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 4
        || !PyTuple_Check(sccs = PyTuple_GET_ITEM(plan, 1))
        || !PyTuple_Check(ics = PyTuple_GET_ITEM(plan, 2))
        || !PyTuple_Check(rows = PyTuple_GET_ITEM(plan, 3))
        || PyTuple_GET_SIZE(rows) != 9) {
        PyErr_SetString(PyExc_TypeError, "a machine plan must be (scalars, "
                        "SCCs, icaches, deltas)");
        return -1;
    }
    const long long *k = acquire_ll_n(views, PyTuple_GET_ITEM(plan, 0),
                                      K_FIELDS);
    if (!k)
        return -1;
    m->scal = k;
    m->line_shift = k[K_LINE_SHIFT];
    m->nbanks = k[K_NBANKS];
    m->bank_mask = m->nbanks > 0 && !(m->nbanks & (m->nbanks - 1))
        ? m->nbanks - 1 : -1;
    m->bank_cycle = k[K_BANK_CYCLE];
    m->stall_on_writes = k[K_STALL_ON_WRITES] != 0;
    m->wb_depth = k[K_WB_DEPTH];
    m->ic_lat = k[K_IC_LAT];
    m->iline_shift = k[K_ILINE_SHIFT];
    m->limit = k[K_LIMIT];
    m->bus_occ = k[K_BUS_OCC];
    m->upgrade_occ = k[K_UPGRADE_OCC];
    m->mem_latency = k[K_MEM_LATENCY];
    m->mesi = k[K_MESI] != 0;
    m->lock_overhead = k[K_LOCK_OVERHEAD];
    m->barrier_overhead = k[K_BARRIER_OVERHEAD];

    Deltas *d = &m->d;
    if (!(d->refs = acquire_ll(views, PyTuple_GET_ITEM(rows, 0))))
        return -1;
    Py_ssize_t nproc = views->bufs[views->n - 1].len / 8;
    if (nproc > INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "too many processors");
        return -1;
    }
    m->nproc = (int)nproc;
    long long **row[] = {&d->busy, &d->stall, &d->finish, &d->sync,
                         &d->icfetch, &d->icmiss, &d->icstall};
    for (int r = 0; r < 7; r++) {
        if (!(*row[r] = acquire_ll_n(views, PyTuple_GET_ITEM(rows, r + 1),
                                     nproc)))
            return -1;
    }
    if (!(d->misc = acquire_ll_n(views, PyTuple_GET_ITEM(rows, 8),
                                 X_FIELDS)))
        return -1;

    m->n = (int)PyTuple_GET_SIZE(sccs);
    if (!(m->sccs = PyMem_Calloc(m->n ? m->n : 1, sizeof(Scc)))) {
        PyErr_NoMemory();
        return -1;
    }
    for (int c = 0; c < m->n; c++) {
        if (scc_setup(&m->sccs[c], views, PyTuple_GET_ITEM(sccs, c),
                      m->nbanks, m->wb_depth) < 0)
            return -1;
    }
    return icaches_setup(m, views, ics);
}

/* Every SCC's words (one block, and the lost lines' table), the SCCs and
 * the icaches. */
static void
machine_free(Machine *m)
{
    for (int k = 0; m->sccs && k < m->n; k++) {
        PyMem_Free(m->sccs[k].words.fill_line);
        PyMem_Free(m->sccs[k].words.lost);
    }
    PyMem_Free(m->sccs);
    PyMem_Free(m->icaches);
}

/* How many views ``machine_setup`` takes on ``plan``, at most: a short
 * count would be its ValueError, never an overrun. */
static Py_ssize_t
machine_views(PyObject *plan)
{
    Py_ssize_t n = 1 + 9;       /* the scalars, the delta rows */
    if (PyTuple_Check(plan) && PyTuple_GET_SIZE(plan) == 4) {
        PyObject *sccs = PyTuple_GET_ITEM(plan, 1);
        PyObject *ics = PyTuple_GET_ITEM(plan, 2);
        n += PyTuple_Check(sccs) ? 5 * PyTuple_GET_SIZE(sccs) : 0;
        n += PyTuple_Check(ics) ? 2 * PyTuple_GET_SIZE(ics) : 0;
    }
    return n;
}

/* Room for ``cap`` views. */
static int
views_init(Views *views, Py_ssize_t cap)
{
    if (cap > INT_MAX || !(views->bufs = PyMem_Calloc(cap,
                                                      sizeof(Py_buffer)))) {
        PyErr_NoMemory();
        return -1;
    }
    views->cap = (int)cap;
    return 0;
}

/* ------------------------------------------------------------ coherence */

/* The snoopy write-invalidate protocol of repro.core.coherence: what
 * ``CoherenceController.read_line`` / ``write_line`` do past their hit
 * branches, written once
 * for a ``Machine``: the clusters of a ``run``, or one rung of the ladder,
 * whose single SCC has nobody to snoop -- every loop over the others
 * runs zero times there.  The bus clock is the python object's own
 * storage, and an instruction-cache refill queues on it like any miss.
 * Every SCC of a machine has the same geometry: ``idx``/``tag`` address
 * all of them. */

/* ``SnoopyBus.acquire``: FCFS on one busy-until stamp; returns the cycle
 * the bus was granted. */
static inline long long
bus_acquire(const Scc *scc, long long now, long long occupancy)
{
    long long *bus = scc->bus;
    long long grant = bus[BUS_BUSY_UNTIL] > now ? bus[BUS_BUSY_UNTIL] : now;
    bus[BUS_BUSY_UNTIL] = grant + occupancy;
    bus[BUS_TRANSACTIONS]++;
    bus[BUS_BUSY_CYCLES] += occupancy;
    return grant;
}

/* ``_snoop_downgrade``: a read miss turns remote MODIFIED/EXCLUSIVE
 * copies SHARED; whether any other SCC holds the line. */
static inline int
snoop_downgrade(Machine *m, long long cl, long long idx, long long tag)
{
    int held = 0;
    for (int c = 0; c < m->n; c++) {
        long long *states = m->sccs[c].states;
        if (c == cl || !states[idx] || m->sccs[c].tags[idx] != tag)
            continue;
        held = 1;
        if (states[idx] == ST_MODIFIED)
            m->sccs[cl].stats[S_INTERVENTIONS]++;
        states[idx] = ST_SHARED;
    }
    return held;
}

/* ``_invalidate_remote``: a write kills every other SCC's copy. */
static inline int
invalidate_remote(Machine *m, long long cl, long long line, long long idx,
                  long long tag)
{
    long long killed = 0;
    for (int c = 0; c < m->n; c++) {
        Scc *other = &m->sccs[c];
        if (c == cl)
            continue;
        /* Before, and whatever, the residency check: a stale entry could
         * satisfy a later miss to another tag at this index. */
        fill_drop(&other->words, line, idx);
        if (!other->states[idx] || other->tags[idx] != tag)
            continue;
        other->states[idx] = 0;
        if (lost_note(&other->words, line) < 0)
            return -1;
        other->stats[S_INVALIDATIONS_RECEIVED]++;
        killed++;
    }
    m->sccs[cl].stats[S_INVALIDATIONS_SENT] += killed;
    return 0;
}

/* ``_install`` after a miss (a valid slot holds another tag): the fill
 * lands at ``ready``.  A dirty victim's write-back takes the bus at the
 * request time ``start`` -- arbitration is in arrival order, a
 * reservation dated at fill completion would stall every later requester
 * -- and nobody waits on it. */
static inline void
install(Machine *m, long long cl, long long line, long long idx,
        long long state, long long start, long long ready)
{
    Scc *scc = &m->sccs[cl];
    long long victim_state = scc->states[idx];
    scc->tags[idx] = line >> scc->shift;
    scc->states[idx] = state;
    /* (this also drops the victim's fill: the slot's only possible one) */
    fill_set(&scc->words, line, idx, ready);
    if (victim_state) {
        scc->stats[S_EVICTIONS]++;
        if (victim_state == ST_MODIFIED) {
            scc->stats[S_WRITEBACKS]++;
            (void)bus_acquire(scc, start, m->bus_occ);  /* the write-back */
        }
    }
}

/* ``read_line`` on a miss; ``done`` is when the processor carries on. */
static inline void
read_miss(Machine *m, long long cl, long long line, long long idx,
          long long start, long long *done)
{
    Scc *scc = &m->sccs[cl];
    long long *st = scc->stats;
    st[S_READ_MISSES]++;
    st[S_COHERENCE_READ_MISSES] += lost_consume(&scc->words, line);
    long long grant = bus_acquire(scc, start, m->bus_occ);
    st[S_BUS_WAIT_CYCLES] += grant - start;
    long long fill = grant + m->mem_latency;
    long long state = ST_SHARED;
    if (!snoop_downgrade(m, cl, idx, line >> scc->shift) && m->mesi)
        state = ST_EXCLUSIVE;   /* nobody else has it */
    install(m, cl, line, idx, state, start, fill);
    *done = fill + 1;
}

/* ``write_line`` on a SHARED hit (``resident``: an upgrade broadcast, no
 * data moves) or a miss (fetch with ownership).  Either way the store
 * drains from the write buffer: the processor carries on at
 * ``start + 1`` and ``retire`` is when the store is performed. */
static inline int
write_shared_or_miss(Machine *m, long long cl, long long line, long long idx,
                     int resident, long long start, long long *retire)
{
    Scc *scc = &m->sccs[cl];
    long long *st = scc->stats;
    long long tag = line >> scc->shift;
    if (resident) {
        st[S_UPGRADES]++;
        /* (an upgrade's bus wait is not counted: nothing waits on it) */
        *retire = bus_acquire(scc, start, m->upgrade_occ) + m->upgrade_occ;
        if (invalidate_remote(m, cl, line, idx, tag) < 0)
            return -1;
        scc->states[idx] = ST_MODIFIED;
        return 0;
    }
    st[S_WRITE_MISSES]++;
    (void)lost_consume(&scc->words, line);          /* not a read miss */
    long long grant = bus_acquire(scc, start, m->bus_occ);
    st[S_BUS_WAIT_CYCLES] += grant - start;
    *retire = grant + m->mem_latency;
    if (invalidate_remote(m, cl, line, idx, tag) < 0)
        return -1;
    install(m, cl, line, idx, ST_MODIFIED, start, *retire);
    return 0;
}

/* One read/write reference; mirrors ``MultiprocessorSystem.data_access``. */
static int
do_access(Ctx *ctx, long long cl, long long pid, int is_read,
          long long addr, long long *time_io)
{
    Machine *m = &ctx->m;
    Scc *scc = &m->sccs[cl];
    long long time = *time_io;
    long long line = addr >> m->line_shift;
    long long bank;     /* python %: floored, which a mask is too */
    if (m->bank_mask >= 0) {
        bank = line & m->bank_mask;
    }
    else {
        bank = line % m->nbanks;
        if (bank < 0)
            bank += m->nbanks;
    }
    long long *st = scc->stats;
    long long *bank_free = scc->bank_free;
    long long free_t = bank_free[bank];
    long long start;
    if (free_t > time) {
        st[S_BANK_CONFLICT_CYCLES] += free_t - time;
        start = free_t;
    }
    else {
        start = time;
    }
    bank_free[bank] = start + m->bank_cycle;
    long long idx = line & scc->mask;
    long long *states = scc->states;
    int resident = states[idx] && scc->tags[idx] == (line >> scc->shift);
    long long done;
    if (is_read) {
        st[S_READS]++;
        if (resident)
            done = fill_done(&scc->words, line, idx, start);
        else
            read_miss(m, cl, line, idx, start, &done);
    }
    else {
        long long retire;
        st[S_WRITES]++;
        if (resident && states[idx] >= ST_MODIFIED) {
            /* MODIFIED, or EXCLUSIVE's silent upgrade: no bus traffic */
            states[idx] = ST_MODIFIED;
            done = fill_done(&scc->words, line, idx, start);
            retire = done;
        }
        else {
            if (write_shared_or_miss(m, cl, line, idx, resident, start,
                                     &retire) < 0)
                return -1;
            done = start + 1;
        }
        if (m->stall_on_writes) {
            if (retire > done)
                done = retire;
        }
        else {
            long long stall = wbuf_reserve(&scc->words, bank, done, retire);
            st[S_WRITE_BUFFER_STALL_CYCLES] += stall;
            done += stall;
        }
    }
    m->d.refs[pid]++;
    m->d.busy[pid]++;
    m->d.stall[pid] += done - time - 1;
    m->d.finish[pid] = done;
    *time_io = done;
    return 0;
}

/* ``count`` instructions from ``addr`` on a machine that models
 * instruction caches; mirrors ``MultiprocessorSystem.ifetch``:
 * ``InstructionCache.fetch`` installs the missing lines in ``pid``'s own
 * icache, each miss is a bus transaction requested when the one before
 * it has arrived, and ``account_ifetch`` charges the instructions, then
 * the refill stall.  The caller refused ``count < 1``. */
static void
proc_ifetch(Ctx *ctx, long long cl, long long pid, long long addr,
            long long count, long long *time_io)
{
    Machine *m = &ctx->m;
    Icache *ic = &m->icaches[pid];
    long long *states = ic->states, *tags = ic->tags;
    long long mask = ic->mask, shift = ic->shift;
    long long first = addr >> m->iline_shift;
    long long last = (addr + count * 4 - 1) >> m->iline_shift;
    long long misses = 0;
    for (long long line = first; line <= last; line++) {
        long long idx = line & mask;
        if (!states[idx] || tags[idx] != line >> shift) {
            tags[idx] = line >> shift;
            states[idx] = ST_SHARED;
            misses++;
        }
    }
    m->d.icfetch[pid] += last - first + 1;
    m->d.icmiss[pid] += misses;
    long long now = *time_io, stall = 0;
    for (long long k = 0; k < misses; k++) {
        long long grant = bus_acquire(&m->sccs[cl], now + stall, m->bus_occ);
        stall = grant + m->ic_lat - now;
    }
    m->d.busy[pid] += count;
    m->d.icstall[pid] += stall;
    *time_io = now + count + stall;
}

/* ------------------------------------------------------------ scheduler */

/* The ready queue is C's: the reference loop's heap of ``(time, seq,
 * pid)`` entries, kept as an exact monotone bucket queue with room for
 * every process once (``RqLink.queued``: waking a queued process raises
 * what ``_push`` raises, and ``sched_drain`` refuses a pid listed twice).
 *
 * Its window is RQ_W one-cycle buckets over ``[base, base + RQ_W)``,
 * where ``base`` is the clock of the last pop.  Bucket ``time & RQ_MASK``
 * is a FIFO of pids chained through ``RqLink.next``, with a head, a tail
 * and a bit in ``occupied``.  ``seq`` is assigned at push and only grows,
 * so a bucket's FIFO order is its ``(time, seq)`` order.  Its overflow is
 * a binary min-heap of ``Ready`` triples on ``(time, seq)``: the entries
 * drained from rest, and pushes before ``base`` or at ``base + RQ_W`` and
 * beyond.  A pop takes the earlier, by ``ready_before``, of the window's
 * first head and the heap's top, so the order is the reference loop's
 * whatever either half holds; ``base`` never decreases (nothing ready is
 * earlier than what was popped), so the window's entries stay inside it.
 * A preempted process comes back a line fetch and its bus wait ahead of
 * the pop -- 1 to 255 cycles, nearly always -- so a switch
 * (``sched_switch``) is one FIFO link, one unlink and a search of four
 * bitmap words; ``earliest`` caches the clock ``run`` preempts against.
 *
 * ``interleaver._heap`` is the queue at rest: ``add_process`` (and an
 * earlier run that aborted) left ``(time, seq, pid)`` tuples there,
 * ``run`` moves them over on entry and writes back whatever
 * is still ready, in pop order -- a sorted list is a heapq list -- so an
 * aborted run leaves the entries the reference loop leaves. */

/* ``(time, seq) < (time, seq)``, written without a short circuit: which
 * way a sift's comparison goes is data, not a pattern a branch predictor
 * learns. */
static inline int
ready_before(const Ready *a, const Ready *b)
{
    return (a->time < b->time) | ((a->time == b->time) & (a->seq < b->seq));
}

/* ``heapq.heappush`` onto the overflow */
static void
heap_push(ReadyQ *q, Ready item)
{
    Ready *heap = q->heap;
    int pos = q->n_heap++;
    while (pos > 0) {
        int parent = (pos - 1) >> 1;
        if (!ready_before(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* ``heapq.heappop`` off the (non-empty) overflow */
static Ready
heap_pop(ReadyQ *q)
{
    Ready *heap = q->heap;
    Ready top = heap[0];
    Ready item = heap[--q->n_heap];
    int n = q->n_heap, pos = 0;
    for (;;) {
        int child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ready_before(&heap[child + 1], &heap[child]))
            child++;
        if (!ready_before(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    if (pos < n)    /* (not when the pop emptied the heap) */
        heap[pos] = item;
    return top;
}

/* The first occupied bucket at or after ``from``, in clock order; the
 * window is not empty. */
static inline int
window_first(const ReadyQ *q, int from)
{
    int w = from >> 6;
    unsigned long long bits = q->occupied[w] & (~0ULL << (from & 63));
    for (int k = 0; !bits && k < RQ_WORDS; k++) {
        w = (w + 1) & (RQ_WORDS - 1);
        bits = q->occupied[w];
    }
    return w << 6 | __builtin_ctzll(bits);
}

/* ``pid``, ready at ``time`` inside the window, to the tail of its
 * bucket's FIFO */
static inline void
bucket_link(ReadyQ *q, long long time, long long seq, long long pid)
{
    int s = (int)(time & RQ_MASK);
    unsigned long long bit = 1ULL << (s & 63);
    RqLink *link = &q->link[pid];
    link->seq = seq;
    link->next = -1;
    if (q->occupied[s >> 6] & bit) {
        q->link[q->tail[s]].next = (int)pid;
    }
    else {
        q->occupied[s >> 6] |= bit;
        q->head[s] = (int)pid;
    }
    q->tail[s] = (int)pid;
    q->n_window++;
}

/* The head of bucket ``s`` -- the window's earliest, at ``wmin`` -- out
 * of its FIFO, and ``wmin`` moved on to the next occupied bucket when it
 * was the last there and the window holds more. */
static inline void
bucket_unlink(ReadyQ *q, int s)
{
    q->head[s] = q->link[q->head[s]].next;
    q->n_window--;
    if (q->head[s] < 0) {
        q->occupied[s >> 6] &= ~(1ULL << (s & 63));
        if (q->n_window)
            q->wmin += (window_first(q, s) - s) & RQ_MASK;
    }
}

/* ``_push`` of a process that is not queued */
static void
sched_push(Ctx *ctx, long long time, long long pid)
{
    ReadyQ *q = &ctx->rq;
    long long seq = ++ctx->m.d.misc[X_SEQ];
    q->link[pid].queued = 1;
    q->n++;
    if (time < q->earliest)
        q->earliest = time;
    if (time < q->base || time - q->base >= RQ_W) {
        Ready item = {time, seq, pid};
        heap_push(q, item);
        return;
    }
    bucket_link(q, time, seq, pid);
    if (q->n_window == 1 || time < q->wmin)
        q->wmin = time;
}

/* The bookkeeping of every pop: ``out`` has left its half. */
static inline Ready
sched_popped(ReadyQ *q, Ready out)
{
    q->link[out.pid].queued = 0;
    q->n--;
    if (out.time > q->base)
        q->base = out.time;
    q->earliest = q->n_window ? q->wmin : LLONG_MAX;
    if (q->n_heap && q->heap[0].time < q->earliest)
        q->earliest = q->heap[0].time;
    return out;
}

/* ``heapq.heappop`` (the queue is not empty) */
static Ready
sched_pop(Ctx *ctx)
{
    ReadyQ *q = &ctx->rq;
    if (q->n_window) {
        int s = (int)(q->wmin & RQ_MASK);
        int pid = q->head[s];
        Ready head = {q->wmin, q->link[pid].seq, pid};
        if (!q->n_heap || ready_before(&head, &q->heap[0])) {
            bucket_unlink(q, s);
            return sched_popped(q, head);
        }
    }
    return sched_popped(q, heap_pop(q));
}

/* A preemption: ``sched_pop``, then ``sched_push(ctx, time, pid)`` of the
 * process that ran, whose ``time`` is past the earliest clock.  Nearly
 * always the earliest entry is the window's head, ahead of the whole
 * heap, and ``time`` is inside the window the pop moves ``base`` to:
 * then the head leaves its bucket and ``pid`` joins its own (another:
 * ``time`` is later) in one exchange, which leaves ``n`` as it was.  The
 * pushed entry takes its ``seq`` as a push does. */
static Ready
sched_switch(Ctx *ctx, long long time, long long pid)
{
    ReadyQ *q = &ctx->rq;
    long long wmin = q->wmin;
    if (!q->n_window || time - wmin >= RQ_W
        || (q->n_heap && q->heap[0].time <= wmin)) {
        Ready next = sched_pop(ctx);
        sched_push(ctx, time, pid);
        return next;
    }
    int s = (int)(wmin & RQ_MASK);
    int out = q->head[s];
    Ready next = {wmin, q->link[out].seq, out};
    q->link[out].queued = 0;
    q->link[pid].queued = 1;
    q->base = wmin;
    /* (linked first: the window is not empty when ``wmin`` moves on) */
    bucket_link(q, time, ++ctx->m.d.misc[X_SEQ], pid);
    bucket_unlink(q, s);
    q->earliest = q->n_heap && q->heap[0].time < q->wmin ? q->heap[0].time
                                                         : q->wmin;
    return next;
}

/* Empty ``interleaver._heap`` into the overflow.  All or nothing: an
 * entry that is not a ``(time, seq, pid)`` of this machine, or a process
 * that is ready already -- running it twice could link it into a bucket
 * twice -- leaves both as they were. */
static int
sched_drain(Ctx *ctx)
{
    ReadyQ *q = &ctx->rq;
    PyObject *box = ctx->ready_at_rest;
    Py_ssize_t n = PyList_GET_SIZE(box), k;
    if (n == 0)
        return 0;
    if (n > ctx->nproc - q->n) {
        PyErr_SetString(PyExc_RuntimeError,
                        "more ready entries than processes");
        return -1;
    }
    Ready *in = q->heap + q->n_heap;        /* parsed, not yet pushed */
    for (k = 0; k < n; k++) {
        PyObject *entry = PyList_GET_ITEM(box, k);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "scheduler heap entries must be (time, seq, pid)");
            goto refused;
        }
        if (get_ll_item(entry, 0, &in[k].time) < 0
            || get_ll_item(entry, 1, &in[k].seq) < 0
            || get_ll_item(entry, 2, &in[k].pid) < 0)
            goto refused;
        if (in[k].pid < 0 || in[k].pid >= ctx->nproc) {
            PyErr_Format(PyExc_RuntimeError,
                         "process id %lld outside the machine", in[k].pid);
            goto refused;
        }
        if (q->link[in[k].pid].queued) {
            PyErr_Format(PyExc_ValueError,
                         "process %lld is in the ready heap twice",
                         in[k].pid);
            goto refused;
        }
        q->link[in[k].pid].queued = 1;
    }
    if (PyList_SetSlice(box, 0, n, NULL) < 0)
        goto refused;
    for (k = 0; k < n; k++) {
        q->n++;
        heap_push(q, q->heap[q->n_heap]);
    }
    if (q->heap[0].time < q->earliest)
        q->earliest = q->heap[0].time;
    return 0;
refused:
    while (k--)
        q->link[in[k].pid].queued = 0;
    return -1;
}

/* Hand what is still ready back to ``interleaver._heap``, which ``run``
 * left empty, in pop order. */
static int
sched_export(Ctx *ctx)
{
    while (ctx->rq.n) {
        Ready r = sched_pop(ctx);
        PyObject *entry = Py_BuildValue("(LLL)", r.time, r.seq, r.pid);
        int rc = entry ? PyList_Append(ctx->ready_at_rest, entry) : -1;
        Py_XDECREF(entry);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------ processes */

/* What the reference loop does around the data path, for one process at
 * a time: ``_lock_acquire`` / ``_lock_release`` / ``_barrier`` / ``_wake``
 * with their accounting (``account_compute`` for a lock operation's busy
 * cycles, ``account_sync`` for the stall of whoever is woken), and
 * ``_advance``'s resuming of the generator with its task-queue branches
 * and its packing of an event object.  ``_locks`` and ``_barriers``
 * are ``SyncTable``s here; the wrapper hands them over, and takes them
 * back, as lists of ``(id, holder or -1, [waiting pids])`` in dict order. */

/* The slot ``id`` is indexed at, or the empty one it would go in. */
static size_t
sync_slot(const SyncTable *t, long long id)
{
    size_t mask = t->n_slots - 1;
    size_t at = ll_hash(id) & mask;
    while (t->slots[at] && t->q[t->slots[at] - 1].id != id)
        at = (at + 1) & mask;
    return at;
}

/* ``table.get(id)``, or with ``create`` ``table.setdefault(id, ...)``. */
static WaitQ *
sync_lookup(SyncTable *t, long long id, int create)
{
    size_t at = t->n_slots ? sync_slot(t, id) : 0;
    if (t->n_slots && t->slots[at])
        return &t->q[t->slots[at] - 1];
    if (!create)
        return NULL;
    if (2 * (t->n + 1) > t->n_slots) {
        /* twice the slots, room for half as many queues, every queue
         * indexed again */
        size_t n_slots = t->n_slots ? 2 * t->n_slots : 64;
        WaitQ *q = PyMem_Realloc(t->q, n_slots / 2 * sizeof(WaitQ));
        if (q)
            t->q = q;
        unsigned *slots = q ? PyMem_Calloc(n_slots, sizeof(unsigned)) : NULL;
        if (!slots) {
            PyErr_NoMemory();
            return NULL;
        }
        PyMem_Free(t->slots);
        t->slots = slots;
        t->n_slots = n_slots;
        for (size_t rank = 0; rank < t->n; rank++)
            slots[sync_slot(t, t->q[rank].id)] = (unsigned)rank + 1;
        at = sync_slot(t, id);
    }
    t->slots[at] = (unsigned)++t->n;
    WaitQ *q = &t->q[t->n - 1];
    q->id = id;
    q->holder = -1;
    q->latest = 0;
    q->head = q->tail = -1;
    q->count = 0;
    return q;
}

/* ``waiting.append(pid)`` */
static void
waitq_append(Ctx *ctx, WaitQ *q, long long pid)
{
    ctx->procs[pid].next = -1;
    if (q->count++)
        ctx->procs[q->tail].next = (int)pid;
    else
        q->head = (int)pid;
    q->tail = (int)pid;
}

/* ``waiting.popleft()`` */
static long long
waitq_pop(Ctx *ctx, WaitQ *q)
{
    int pid = q->head;
    q->head = ctx->procs[pid].next;
    ctx->procs[pid].next = IN_NO_QUEUE;
    q->count--;
    return pid;
}

/* ``pid`` blocks at ``time``, behind whoever waits on ``q`` already. */
static void
proc_block(Ctx *ctx, WaitQ *q, long long pid, long long time)
{
    Proc *proc = &ctx->procs[pid];
    proc->blocked = 1;
    proc->block_start = proc->time = time;
    waitq_append(ctx, q, pid);
}

/* ``account_compute`` and the clock: ``cycles`` of straight-line work. */
static inline void
proc_compute(Ctx *ctx, long long pid, long long cycles, long long *time)
{
    ctx->m.d.busy[pid] += cycles;
    *time += cycles;
}

/* ``_wake``: the blocked process carries on at ``resume``; what it waited
 * is synchronization stall. */
static int
proc_wake(Ctx *ctx, long long pid, long long resume)
{
    Proc *proc = &ctx->procs[pid];
    if (resume < proc->time)
        resume = proc->time;
    ctx->m.d.sync[pid] += resume - proc->block_start;
    proc->time = resume;
    proc->blocked = 0;
    if (ctx->rq.link[pid].queued) {
        PyErr_Format(PyExc_RuntimeError, "process %lld scheduled twice", pid);
        return -1;
    }
    sched_push(ctx, resume, pid);
    return 0;
}

/* ``_lock_acquire``: 1 when ``pid`` got the lock (``*time`` moved past the
 * operation), 0 when it blocked, -1 on error. */
static int
lock_acquire(Ctx *ctx, long long pid, long long lock_id, long long *time)
{
    WaitQ *lock = sync_lookup(&ctx->locks, lock_id, 1);
    if (!lock)
        return -1;
    if (lock->holder >= 0) {
        proc_block(ctx, lock, pid, *time);
        return 0;
    }
    lock->holder = pid;
    proc_compute(ctx, pid, ctx->m.lock_overhead, time);
    return 1;
}

/* ``_lock_release``: the lock goes to the longest waiter, who pays the
 * operation too. */
static int
lock_release(Ctx *ctx, long long pid, long long lock_id, long long *time)
{
    WaitQ *lock = sync_lookup(&ctx->locks, lock_id, 0);
    if (!lock || lock->holder != pid) {
        PyErr_Format(ctx->sync_error, "process %lld released lock %lld it "
                     "does not hold", pid, lock_id);
        return -1;
    }
    proc_compute(ctx, pid, ctx->m.lock_overhead, time);
    if (!lock->count) {
        lock->holder = -1;
        return 0;
    }
    lock->holder = waitq_pop(ctx, lock);
    return proc_wake(ctx, lock->holder, *time + ctx->m.lock_overhead);
}

/* ``_barrier``: ``pid`` blocks; the arrival that completes the count
 * releases everyone, itself included, at the latest arrival plus the
 * overhead. */
static int
barrier_arrive(Ctx *ctx, long long pid, long long barrier_id,
               long long count, long long time)
{
    if (count < 1) {
        PyErr_SetString(ctx->sync_error, "barrier count must be >= 1");
        return -1;
    }
    WaitQ *barrier = sync_lookup(&ctx->barriers, barrier_id, 1);
    if (!barrier)
        return -1;
    if (barrier->count == 0 || time > barrier->latest)
        barrier->latest = time;
    proc_block(ctx, barrier, pid, time);
    if (barrier->count > count) {
        PyErr_Format(ctx->sync_error, "barrier %lld exceeded its count %lld",
                     barrier_id, count);
        return -1;
    }
    if (barrier->count == count) {
        long long release = barrier->latest + ctx->m.barrier_overhead;
        while (barrier->count) {
            if (proc_wake(ctx, waitq_pop(ctx, barrier), release) < 0)
                return -1;
        }
    }
    return 0;
}

/* ``[(id, holder or -1, [pids])]`` into an empty table. */
static int
sync_import(Ctx *ctx, SyncTable *t, PyObject *queues)
{
    if (!PyList_CheckExact(queues)) {
        PyErr_SetString(PyExc_TypeError, "locks and barriers must be lists");
        return -1;
    }
    t->at_rest = queues;
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(queues); k++) {
        PyObject *entry = PyList_GET_ITEM(queues, k);
        long long id, holder;
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3
            || !PyList_CheckExact(PyTuple_GET_ITEM(entry, 2))) {
            PyErr_SetString(PyExc_TypeError,
                            "a wait queue must be (id, holder, [pids])");
            return -1;
        }
        if (get_ll_item(entry, 0, &id) < 0
            || get_ll_item(entry, 1, &holder) < 0)
            return -1;
        WaitQ *q = sync_lookup(t, id, 1);
        if (!q)
            return -1;
        q->holder = holder;
        PyObject *pids = PyTuple_GET_ITEM(entry, 2);
        for (Py_ssize_t w = 0; w < PyList_GET_SIZE(pids); w++) {
            long long pid;
            if (get_ll_item(pids, w, &pid) < 0)
                return -1;
            if (pid < 0 || pid >= ctx->nproc
                || ctx->procs[pid].next != IN_NO_QUEUE) {
                PyErr_Format(PyExc_ValueError, "process %lld cannot wait "
                             "on %lld: unknown, or waiting already", pid, id);
                return -1;
            }
            if (q->count == 0 || ctx->procs[pid].time > q->latest)
                q->latest = ctx->procs[pid].time;
            waitq_append(ctx, q, pid);
        }
    }
    return 0;
}

/* ... and back into that list, in order of first use. */
static int
sync_export(Ctx *ctx, const SyncTable *t)
{
    PyObject *queues = PyList_New((Py_ssize_t)t->n);
    for (size_t k = 0; queues && k < t->n; k++) {
        const WaitQ *q = &t->q[k];
        PyObject *pids = PyList_New(q->count);
        int pid = q->head;
        for (Py_ssize_t w = 0; pids && w < q->count; w++) {
            PyObject *item = PyLong_FromLong(pid);
            if (!item)
                Py_CLEAR(pids);
            else
                PyList_SET_ITEM(pids, w, item);
            pid = ctx->procs[pid].next;
        }
        PyObject *entry = pids ? Py_BuildValue("(LLN)", q->id, q->holder,
                                               pids) : NULL;
        if (!entry)
            Py_CLEAR(queues);
        else
            PyList_SET_ITEM(queues, k, entry);
    }
    int rc = queues ? PyList_SetSlice(t->at_rest, 0, PY_SSIZE_T_MAX,
                                      queues) : -1;
    Py_XDECREF(queues);
    return rc;
}

/* ``self._queues.setdefault(key, deque())``: a new reference. */
static PyObject *
queue_of(Ctx *ctx, PyObject *key)
{
    PyObject *queue = PyDict_GetItemWithError(ctx->queues, key);
    if (queue)
        return Py_NewRef(queue);
    if (PyErr_Occurred())
        return NULL;
    queue = PyObject_CallNoArgs(g_deque);
    if (queue && PyDict_SetItem(ctx->queues, key, queue) < 0)
        Py_CLEAR(queue);
    return queue;
}

/* ``self._queues.setdefault(key, deque()).append(item)`` */
static int
queue_push(Ctx *ctx, PyObject *key, PyObject *item)
{
    PyObject *queue = queue_of(ctx, key);
    PyObject *done = queue ? PyObject_CallMethodObjArgs(queue, s_append,
                                                        item, NULL) : NULL;
    Py_XDECREF(queue);
    Py_XDECREF(done);
    return done ? 0 : -1;
}

/* ``queue.popleft() if queue else None``, looked up without creating:
 * polls on a missing queue allocate nothing.  A new reference. */
static PyObject *
queue_pop(Ctx *ctx, PyObject *key)
{
    PyObject *queue = PyDict_GetItemWithError(ctx->queues, key);
    int waiting = queue ? PyObject_IsTrue(queue) : 0;
    if (waiting < 0 || (!queue && PyErr_Occurred()))
        return NULL;
    if (!waiting)
        Py_RETURN_NONE;
    return PyObject_CallMethodObjArgs(queue, s_popleft, NULL);
}

/* An event object ``proc``'s generator yielded.  The task-queue pair is
 * executed here and now -- it carries python objects, and moves no clock
 * -- and anything else is encoded into the cursor's own words, a chunk of
 * one: an operand no int64 holds is refused before anything is counted. */
static int
proc_event(Ctx *ctx, long long pid, Proc *proc, PyObject *event)
{
    const EventCode *code = ctx->codes;
    while (code < ctx->codes + N_EVENT_CODES && !Py_IS_TYPE(event, code->type))
        code++;
    if (code == ctx->codes + N_EVENT_CODES) {
        ctx->m.d.misc[X_EVENTS]++;
        PyErr_Format(PyExc_TypeError, "process %lld yielded %R, not a trace "
                     "event", pid, event);
        return -1;
    }
    PyObject *operands[2] = {NULL, NULL};
    int rc = 0;
    for (int k = 0; k < code->n && rc == 0; k++) {
        if (!(operands[k] = PyObject_GetAttr(event, code->names[k])))
            rc = -1;
    }
    if (rc == 0 && code->op == OP_ENQUEUE) {
        ctx->m.d.misc[X_EVENTS]++;
        if (operands[1] == Py_None) {
            /* An enqueued None would be indistinguishable from the
             * empty-queue dequeue response. */
            PyErr_Format(ctx->sync_error, "process %lld enqueued None on "
                         "queue %S; None is the empty-queue response",
                         pid, operands[0]);
            rc = -1;
        }
        else {
            rc = queue_push(ctx, operands[0], operands[1]);
        }
    }
    else if (rc == 0 && code->op == OP_DEQUEUE) {
        ctx->m.d.misc[X_EVENTS]++;
        PyObject *item = queue_pop(ctx, operands[0]);
        if (!item)
            rc = -1;
        else if (item == Py_None)
            Py_DECREF(item);
        else
            proc->response = item;
    }
    else if (rc == 0) {
        Cursor *cur = &proc->cursor;
        cur->one[0] = code->op;
        for (int k = 0; k < code->n && rc == 0; k++) {
            cur->one[k + 1] = PyLong_AsLongLong(operands[k]);
            if (cur->one[k + 1] == -1 && PyErr_Occurred())
                rc = -1;
        }
        if (rc == 0) {
            cur->data = cur->one;
            cur->end = code->n + 1;
        }
    }
    Py_XDECREF(operands[0]);
    Py_XDECREF(operands[1]);
    return rc;
}

/* The C workloads' processes -- MP3D's and Barnes-Hut's, the last two
 * sections -- are one kind of iterator: a process struct
 * begins with ``PROCESS_HEAD``, its run struct with ``RunHead``, and a
 * ``ProcKind`` row holds what differs.  One step writes the process's next
 * chunk into its own words; ``next()`` wraps them, and ``run`` reads them
 * in place (``proc_refill``). */
typedef struct {
    int index;                  /* its type's, in the module's state */
    const char *name;           /* its type's */
    Py_ssize_t size;            /* its process struct's */
    long long words;            /* the room a process's chunk starts with */
    /* one resume: the next chunk into the process's words, how many; 0
     * once the process has ended, -1 on error */
    long long (*step)(PyObject *self);
    void (*free_run)(void *run);        /* its views, memory and struct */
} ProcKind;

enum { KIND_MP3D, KIND_BARNES_HUT, N_KINDS };

/* What every C process begins with. */
#define PROCESS_HEAD \
    PyObject_HEAD \
    PyObject *owner;            /* the run's capsule */ \
    const ProcKind *kind; \
    void *run;                  /* what the run's processes share */ \
    long long proc;             /* the processor it runs on */ \
    long long *words, cap;      /* its chunk, room for ``cap`` words */

typedef struct {
    PROCESS_HEAD
} Process;

/* What every C workload's run begins with. */
typedef struct {
    const ProcKind *kind;
    PyObject *chunk_type, *zero;        /* PackedChunk, array('q', [0]) */
} RunHead;

static const char RUN_NAME[] = "repro.trace.engine._native.processes";

/* The module's state: a process type per kind, made at init. */
typedef struct {
    PyTypeObject *process_types[N_KINDS];
} ModuleState;

/* ``next(process)``: one step, its chunk as ``chunk_type(array('q'))``. */
static PyObject *
process_next(PyObject *self)
{
    Process *p = (Process *)self;
    long long n = p->kind->step(self);
    if (n <= 0)
        return NULL;    /* ended (no error set), or failed */
    const RunHead *run = p->run;
    PyObject *data = PySequence_Repeat(run->zero, (Py_ssize_t)n);
    PyObject *chunk = NULL;
    Py_buffer view;
    if (data && PyObject_GetBuffer(data, &view, PyBUF_WRITABLE) == 0) {
        memcpy(view.buf, p->words, (size_t)n * sizeof *p->words);
        PyBuffer_Release(&view);
        chunk = PyObject_CallOneArg(run->chunk_type, data);
    }
    Py_XDECREF(data);
    return chunk;
}

/* ``process.send(value)``: ``value`` is ignored, as the python twins'
 * yields ignore theirs. */
static PyObject *
process_send(PyObject *self, PyObject *value)
{
    (void)value;
    PyObject *chunk = process_next(self);
    if (!chunk && !PyErr_Occurred())
        PyErr_SetNone(PyExc_StopIteration);
    return chunk;
}

static PyMethodDef process_methods[] = {
    {"send", process_send, METH_O,
     "Resume the process (the value sent is ignored): its next chunk."},
    {NULL, NULL, 0, NULL},
};

static void
process_dealloc(PyObject *self)
{
    PyTypeObject *type = Py_TYPE(self);
    PyMem_Free(((Process *)self)->words);
    Py_XDECREF(((Process *)self)->owner);
    type->tp_free(self);
    Py_DECREF(type);
}

static void
run_free(PyObject *capsule)
{
    RunHead *run = PyCapsule_GetPointer(capsule, RUN_NAME);
    if (!run)
        return;
    Py_XDECREF(run->chunk_type);
    Py_XDECREF(run->zero);
    run->kind->free_run(run);
}

/* The tail of every C workload's constructor: a list of ``n_procs``
 * processes of ``kind`` over ``run``, its inputs all checked, whose
 * ``next()`` wraps a chunk in ``chunk_type``.  The run is the capsule's
 * made here, or freed, whatever happens. */
static PyObject *
processes_new(PyObject *module, const ProcKind *kind, RunHead *run,
              PyObject *chunk_type, long long n_procs)
{
    run->kind = kind;
    PyObject *capsule = PyCapsule_New(run, RUN_NAME, run_free);
    if (!capsule) {
        kind->free_run(run);
        return NULL;
    }
    PyObject *array_mod = PyImport_ImportModule("array"), *result = NULL;
    run->chunk_type = Py_NewRef(chunk_type);
    run->zero = array_mod ? PyObject_CallMethod(array_mod, "array", "s(i)",
                                                "q", 0) : NULL;
    Py_XDECREF(array_mod);
    PyTypeObject *type = ((ModuleState *)PyModule_GetState(module))
                             ->process_types[kind->index];
    if (run->zero)
        result = PyList_New((Py_ssize_t)n_procs);
    for (long long proc = 0; result && proc < n_procs; proc++) {
        Process *p = (Process *)type->tp_alloc(type, 0);
        if (p) {
            PyList_SET_ITEM(result, proc, (PyObject *)p);
            p->owner = Py_NewRef(capsule);
            p->kind = kind;
            p->run = run;
            p->proc = proc;
            p->cap = kind->words;
            p->words = PyMem_Malloc((size_t)p->cap * sizeof *p->words);
            if (!p->words)
                PyErr_NoMemory();
        }
        if (!p || !p->words)
            Py_CLEAR(result);
    }
    Py_DECREF(capsule);
    return result;
}

/* ``_advance``'s resume: run ``proc``'s generator until it yields events
 * to drain (1: its cursor is installed) or ends (0); -1 on error, the
 * generator's own included.  Its clock does not move in here.  A C
 * process is not resumed: C steps it, and its chunk is read where it was
 * written (what it is sent it ignores, as its python twin does). */
static int
proc_refill(Ctx *ctx, long long pid, Proc *proc)
{
    if (Py_TYPE(proc->generator)->tp_iternext == process_next) {
        Process *p = (Process *)proc->generator;
        Py_CLEAR(proc->response);
        long long n = p->kind->step(proc->generator);
        if (n > 0) {
            proc->cursor.data = p->words;
            proc->cursor.end = n;
        }
        return n > 0 ? 1 : (int)n;
    }
    while (!proc->cursor.data) {
        PyObject *yielded;
        ctx->m.d.misc[X_RESUMES]++;
        PySendResult sent = PyIter_Send(
            proc->generator, proc->response ? proc->response : Py_None,
            &yielded);
        if (sent == PYGEN_ERROR)
            return -1;
        Py_CLEAR(proc->response);
        if (sent == PYGEN_RETURN) {
            Py_DECREF(yielded);
            return 0;
        }
        int rc;
        if (Py_IS_TYPE(yielded, ctx->chunk_type)) {
            PyObject *data = PyObject_GetAttr(yielded, ctx->chunk_data);
            rc = data ? cursor_install(&proc->cursor, data, ctx->array_type)
                      : -1;
            Py_XDECREF(data);
        }
        else {
            rc = proc_event(ctx, pid, proc, yielded);
        }
        Py_DECREF(yielded);
        if (rc < 0)
            return -1;
    }
    return 1;
}

/* ------------------------------------------------------------ lifecycle */

static void
ctx_free(Ctx *ctx)
{
    for (int p = 0; ctx->procs && p < ctx->nproc; p++) {
        cursor_drop(&ctx->procs[p].cursor);
        Py_CLEAR(ctx->procs[p].response);
    }
    views_release(&ctx->views);
    PyMem_Free(ctx->views.bufs);
    machine_free(&ctx->m);
    PyMem_Free(ctx->rq.heap);
    PyMem_Free(ctx->rq.link);
    PyMem_Free(ctx->procs);
    PyMem_Free(ctx->locks.q);
    PyMem_Free(ctx->locks.slots);
    PyMem_Free(ctx->barriers.q);
    PyMem_Free(ctx->barriers.slots);
    PyMem_Free(ctx);
}

/* The end of a driver's call, given the error its drive raised
 * (``drive``, fetched; NULLs if none) and how the write-back that followed
 * went (``exported``: 0, or -1 with its error set): ``None``, the drive's
 * error, or the write-back's with the drive's as its ``__context__`` --
 * what a python ``finally`` around the drive leaves. */
static PyObject *
drive_end(PyObject *drive[3], int exported)
{
    if (!drive[0])
        return exported < 0 ? NULL : Py_NewRef(Py_None);
    if (exported < 0) {
        PyObject *type, *value, *trace;
        PyErr_Fetch(&type, &value, &trace);   /* before python runs */
        PyErr_NormalizeException(&type, &value, &trace);
        PyErr_NormalizeException(&drive[0], &drive[1], &drive[2]);
        if (drive[2])
            PyException_SetTraceback(drive[1], drive[2]);
        PyException_SetContext(value, drive[1]);    /* steals it */
        Py_DECREF(drive[0]);
        Py_XDECREF(drive[2]);
        PyErr_Restore(type, value, trace);
        return NULL;
    }
    PyErr_Restore(drive[0], drive[1], drive[2]);
    return NULL;
}

/* The plan's vocabulary entry: ``(PackedChunk, "data", array.array,
 * SyncProtocolError, codes)`` with one ``(class, opcode, operand names)``
 * per event class -- what a generator may yield, and how C reads it. */
static int
vocabulary_setup(Ctx *ctx, PyObject *spec)
{
    PyObject *codes;
    if (!PyTuple_Check(spec) || PyTuple_GET_SIZE(spec) != 5
        || !PyType_Check(PyTuple_GET_ITEM(spec, 0))
        || !PyUnicode_Check(PyTuple_GET_ITEM(spec, 1))
        || !PyType_Check(PyTuple_GET_ITEM(spec, 2))
        || !PyExceptionClass_Check(PyTuple_GET_ITEM(spec, 3))
        || !PyTuple_Check(codes = PyTuple_GET_ITEM(spec, 4))
        || PyTuple_GET_SIZE(codes) != N_EVENT_CODES) {
        PyErr_SetString(PyExc_TypeError, "vocabulary must be (chunk class, "
                        "data attribute, array class, error class, codes)");
        return -1;
    }
    ctx->chunk_type = (PyTypeObject *)PyTuple_GET_ITEM(spec, 0);
    ctx->chunk_data = PyTuple_GET_ITEM(spec, 1);
    ctx->array_type = PyTuple_GET_ITEM(spec, 2);
    ctx->sync_error = PyTuple_GET_ITEM(spec, 3);
    for (int k = 0; k < N_EVENT_CODES; k++) {
        PyObject *entry = PyTuple_GET_ITEM(codes, k), *names;
        EventCode *code = &ctx->codes[k];
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3
            || !PyType_Check(PyTuple_GET_ITEM(entry, 0))
            || !PyTuple_Check(names = PyTuple_GET_ITEM(entry, 2))
            || PyTuple_GET_SIZE(names) > 2) {
            PyErr_SetString(PyExc_TypeError, "an event code must be "
                            "(class, opcode, operand names)");
            return -1;
        }
        code->type = (PyTypeObject *)PyTuple_GET_ITEM(entry, 0);
        if (get_ll_item(entry, 1, &code->op) < 0)
            return -1;
        code->n = (int)PyTuple_GET_SIZE(names);
        for (int a = 0; a < code->n; a++) {
            if (!PyUnicode_Check(code->names[a] = PyTuple_GET_ITEM(names, a))) {
                PyErr_SetString(PyExc_TypeError,
                                "operand names must be strings");
                return -1;
            }
        }
    }
    return 0;
}

/* The plan's scheduling entry: ``(heap, proc_cluster, generators, pstate,
 * chunks, responses)`` -- the processes at rest, by pid (``None`` where
 * the machine has a processor and the run no process for it).  A process
 * the last run left mid-chunk, or with a response to send, carries on
 * from there. */
static int
procs_setup(Ctx *ctx, PyObject *sched)
{
    if (!PyTuple_Check(sched) || PyTuple_GET_SIZE(sched) != 6) {
        PyErr_SetString(PyExc_TypeError, "scheduling entry must be (heap, "
                        "clusters, generators, pstate, chunks, responses)");
        return -1;
    }
    ctx->ready_at_rest = PyTuple_GET_ITEM(sched, 0);
    if (!PyList_CheckExact(ctx->ready_at_rest)) {
        PyErr_SetString(PyExc_TypeError, "scheduler heap must be a list");
        return -1;
    }
    Py_ssize_t nproc = ctx->m.nproc;
    if (!(ctx->proc_cluster = acquire_ll_n(&ctx->views,
                                           PyTuple_GET_ITEM(sched, 1),
                                           nproc)))
        return -1;
    PyObject *generators = PyTuple_GET_ITEM(sched, 2);
    ctx->chunks = PyTuple_GET_ITEM(sched, 4);
    ctx->responses = PyTuple_GET_ITEM(sched, 5);
    if (!PyList_CheckExact(generators)
        || PyList_GET_SIZE(generators) != nproc
        || !PyList_CheckExact(ctx->chunks)
        || PyList_GET_SIZE(ctx->chunks) != nproc
        || !PyList_CheckExact(ctx->responses)
        || PyList_GET_SIZE(ctx->responses) != nproc) {
        PyErr_SetString(PyExc_TypeError, "generators, chunks and responses "
                        "must be lists with an entry per processor");
        return -1;
    }
    if (!(ctx->pstate = acquire_ll_n(&ctx->views, PyTuple_GET_ITEM(sched, 3),
                                     nproc * P_FIELDS)))
        return -1;
    ctx->procs = PyMem_Calloc(nproc ? nproc : 1, sizeof(Proc));
    ctx->rq.heap = PyMem_Calloc(nproc ? nproc : 1, sizeof(Ready));
    ctx->rq.link = PyMem_Calloc(nproc ? nproc : 1, sizeof(RqLink));
    ctx->rq.earliest = LLONG_MAX;
    if (!ctx->procs || !ctx->rq.heap || !ctx->rq.link) {
        PyErr_NoMemory();
        return -1;
    }
    ctx->nproc = (int)nproc;
    for (Py_ssize_t p = 0; p < nproc; p++) {
        Proc *proc = &ctx->procs[p];
        const long long *at_rest = ctx->pstate + p * P_FIELDS;
        proc->generator = PyList_GET_ITEM(generators, p);
        proc->time = at_rest[P_TIME];
        proc->blocked = at_rest[P_BLOCKED] != 0;
        proc->block_start = at_rest[P_BLOCK_START];
        proc->finished = at_rest[P_FINISHED] != 0;
        proc->next = IN_NO_QUEUE;
        PyObject *response = PyList_GET_ITEM(ctx->responses, p);
        if (response != Py_None) {
            Py_INCREF(response);
            proc->response = response;
        }
        PyObject *chunk = PyList_GET_ITEM(ctx->chunks, p);
        if (chunk == Py_None)
            continue;
        Cursor *cur = &proc->cursor;
        if (cursor_install(cur, chunk, ctx->array_type) < 0)
            return -1;
        cur->pos = at_rest[P_CHUNK_POS];
        cur->sub = at_rest[P_CHUNK_SUB];
        if (cur->pos < 0 || cur->pos > cur->end || cur->sub < 0) {
            PyErr_Format(PyExc_ValueError, "process %zd stands outside its "
                         "chunk", p);
            return -1;
        }
    }
    return 0;
}

/* plan: ``(machine, queues, scheduling, sync, vocabulary)``, as
 * engine/native.py's ``run`` builds it: a machine plan
 * (``machine_setup``) of one SCC per cluster, and the entries parsed
 * here.  A plan it refuses is left as it was. */
static Ctx *
ctx_setup(PyObject *plan)
{
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 5) {
        PyErr_SetString(PyExc_TypeError, "plan must be a 5-tuple");
        return NULL;
    }
    PyObject *machine = PyTuple_GET_ITEM(plan, 0);
    PyObject *queues = PyTuple_GET_ITEM(plan, 1);
    PyObject *sched = PyTuple_GET_ITEM(plan, 2);
    PyObject *sync = PyTuple_GET_ITEM(plan, 3);
    PyObject *vocabulary = PyTuple_GET_ITEM(plan, 4);

    Ctx *ctx = PyMem_Calloc(1, sizeof(Ctx));
    if (!ctx) {
        PyErr_NoMemory();
        return NULL;
    }
    if (views_init(&ctx->views, machine_views(machine) + 2) < 0
        || machine_setup(&ctx->m, &ctx->views, machine) < 0)
        goto fail;
    if (ctx->m.line_shift < 1) {
        /* (a line could be LOST_EMPTY) */
        PyErr_SetString(PyExc_ValueError,
                        "a run needs lines of more than one byte");
        goto fail;
    }
    for (int c = 0; c < ctx->m.n; c++) {
        if (words_import(&ctx->m.sccs[c].words) < 0)
            goto fail;
    }
    ctx->queues = queues;
    if (!PyDict_CheckExact(ctx->queues)) {
        PyErr_SetString(PyExc_TypeError, "task queues must be a dict");
        goto fail;
    }
    if (vocabulary_setup(ctx, vocabulary) < 0 || procs_setup(ctx, sched) < 0)
        goto fail;
    if (!PyTuple_Check(sync) || PyTuple_GET_SIZE(sync) != 2
        || sync_import(ctx, &ctx->locks, PyTuple_GET_ITEM(sync, 0)) < 0
        || sync_import(ctx, &ctx->barriers, PyTuple_GET_ITEM(sync, 1)) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "sync entry must be (locks, barriers)");
        goto fail;
    }
    return ctx;

fail:
    ctx_free(ctx);
    return NULL;
}

/* Every process back to its at-rest form: its words, the chunk it stands
 * in (an encoded event object is consumed by the time anything can stop
 * the run; the words a C process wrote become a list) and the
 * response it has yet to be sent. */
static int
procs_export(Ctx *ctx)
{
    for (Py_ssize_t p = 0; p < ctx->nproc; p++) {
        Proc *proc = &ctx->procs[p];
        const Cursor *cur = &proc->cursor;
        long long *at_rest = ctx->pstate + p * P_FIELDS;
        PyObject *chunk = cur->owner;
        if (chunk)
            Py_INCREF(chunk);
        else if (cur->data && cur->data != cur->one)
            chunk = words_list(cur->data, cur->end);
        else
            chunk = Py_NewRef(Py_None);
        if (!chunk)
            return -1;
        PyObject *response = proc->response ? proc->response : Py_None;
        at_rest[P_TIME] = proc->time;
        at_rest[P_BLOCKED] = proc->blocked;
        at_rest[P_BLOCK_START] = proc->block_start;
        at_rest[P_FINISHED] = proc->finished;
        at_rest[P_CHUNK_POS] = chunk != Py_None ? cur->pos : 0;
        at_rest[P_CHUNK_SUB] = chunk != Py_None ? cur->sub : 0;
        Py_INCREF(response);
        if (PyList_SetItem(ctx->chunks, p, chunk) < 0
            || PyList_SetItem(ctx->responses, p, response) < 0)
            return -1;
    }
    return 0;
}

/* The end of C's ownership: the ready entries, the in-flight fills, the
 * write buffers, the processes, the locks and the barriers go back to the
 * python containers they came from. */
static int
ctx_export(Ctx *ctx)
{
    if (sched_export(ctx) < 0 || procs_export(ctx) < 0)
        return -1;
    for (int c = 0; c < ctx->m.n; c++) {
        if (words_export(&ctx->m.sccs[c].words) < 0)
            return -1;
    }
    if (sync_export(ctx, &ctx->locks) < 0)
        return -1;
    return sync_export(ctx, &ctx->barriers);
}

/* ----------------------------------------------------------------- run */

/* Whether ``data`` ends inside the record at ``i``, short of the words
 * ``OP_WIDTH`` gives its opcode.  Both drivers raise there what the
 * reference loop's read of the missing operand raises, ``IndexError``,
 * unless the record is a span of no element, which it skips without
 * reading its stride. */
static inline int
record_cut(const long long *data, long long i, long long end)
{
    long long op = data[i];
    return end - i < OP_WIDTH_MAX && op >= OP_READ && op <= OP_WRITE_SPAN
           && end - i < OP_WIDTH[op];
}

/* Why the process that is running stops: the earliest ready process has
 * fallen behind it, or it blocked or finished. */
enum { RUN_ON, RUN_PREEMPTED, RUN_OVER };

/* ``TimingInterleaver._run_generic``: always advance the earliest ready
 * process, until it blocks, ends or falls behind the next-earliest.  The
 * running process's clock is ``time``; ``Proc.time`` catches up whenever
 * it stops. */
static int
ctx_drive(Ctx *ctx)
{
    long long limit = ctx->m.limit;
    long long *misc = ctx->m.d.misc;
    long long time = 0, pid = -1, i = 0, sub = 0;
    Cursor *cur = NULL;
    int state = RUN_OVER;

    if (sched_drain(ctx) < 0)
        return -1;
    for (;;) {      /* one round per scheduled process */
        Ready next;
        if (state == RUN_PREEMPTED) {
            /* ``time`` exceeds the earliest clock, so the pushed entry
             * could not be the one that comes back out: what ``_push``
             * followed by the reference loop's ``heappop`` leaves.  The
             * pop goes first, so the push finds ``base`` at the clock of
             * the process that runs next. */
            ctx->procs[pid].time = time;
            next = sched_switch(ctx, time, pid);
        }
        else if (ctx->rq.n == 0) {
            return 0;
        }
        else {
            next = sched_pop(ctx);
        }
        time = next.time;
        pid = next.pid;
        Proc *proc = &ctx->procs[pid];
        cur = &proc->cursor;
        long long cl = ctx->proc_cluster[pid];
        /* clock of the earliest ready process */
        long long next_time = ctx->rq.earliest;
        state = RUN_ON;

        while (state == RUN_ON) {
            const long long *data = cur->data;
            long long end = cur->end;
            i = cur->pos;
            sub = cur->sub;
            while (state == RUN_ON && i < end) {
                long long op = data[i];
                if (record_cut(data, i, end)) {
                    /* where the reference loop reads what is missing: a
                     * span's size first, its stride once the clock is
                     * checked; anything else's operands once the clock
                     * is checked and the event counted -- a lock's or a
                     * barrier's past the record, an enqueue's item once
                     * its key's queue exists */
                    int span = op == OP_READ_SPAN || op == OP_WRITE_SPAN;
                    if (span && end - i == 3 && sub >= data[i + 2]) {
                        i += 4;
                        sub = 0;
                        continue;
                    }
                    if ((!span || end - i == 3) && time > limit)
                        goto limit_exceeded;
                    if (!span)
                        misc[X_EVENTS]++;
                    if (op == OP_LOCK_ACQ || op == OP_LOCK_REL
                        || op == OP_BARRIER) {
                        i += OP_WIDTH[op];
                    }
                    else if (op == OP_ENQUEUE && end - i == 2) {
                        PyObject *key = PyLong_FromLongLong(data[i + 1]);
                        PyObject *queue = key ? queue_of(ctx, key) : NULL;
                        Py_XDECREF(key);
                        if (!queue)
                            goto fail;
                        Py_DECREF(queue);
                    }
                    PyErr_SetString(PyExc_IndexError,
                                    "array index out of range");
                    goto fail;
                }
                if (op == OP_READ || op == OP_WRITE || op == OP_COMPUTE) {
                    if (time > limit)
                        goto limit_exceeded;
                    long long operand = data[i + 1];
                    i += 2;
                    misc[X_EVENTS]++;
                    if (op == OP_COMPUTE) {
                        if (operand < 0) {      /* ``account_compute`` */
                            PyErr_SetString(PyExc_ValueError, "compute "
                                            "cycles must be non-negative");
                            goto fail;
                        }
                        proc_compute(ctx, pid, operand, &time);
                    }
                    else if (do_access(ctx, cl, pid, op == OP_READ, operand,
                                       &time) < 0) {
                        goto fail;
                    }
                }
                else if (op == OP_READ_SPAN || op == OP_WRITE_SPAN) {
                    long long base = data[i + 1];
                    long long size = data[i + 2];
                    long long stride = data[i + 3];
                    if (size > 0 && stride <= 0) {
                        /* the element loop would never end */
                        if (time > limit)
                            goto limit_exceeded;
                        PyErr_Format(PyExc_ValueError,
                                     "non-positive span stride at %lld", i);
                        goto fail;
                    }
                    int is_read = op == OP_READ_SPAN;
                    while (sub < size) {
                        if (time > limit)
                            goto limit_exceeded;
                        misc[X_EVENTS]++;
                        if (do_access(ctx, cl, pid, is_read, base + sub,
                                      &time) < 0)
                            goto fail;
                        sub += stride;
                        if (time > next_time)
                            break;
                    }
                    if (sub >= size) {
                        i += 4;
                        sub = 0;
                    }
                }
                else if (op == OP_IFETCH) {
                    if (time > limit)
                        goto limit_exceeded;
                    misc[X_EVENTS]++;
                    long long addr = data[i + 1];
                    long long count = data[i + 2];
                    if (!ctx->m.icaches) {
                        i += 3;
                        proc_compute(ctx, pid, count, &time);
                    }
                    else if (count < 1) {
                        PyErr_SetString(PyExc_ValueError,
                                        "must fetch at least one instruction");
                        goto fail;
                    }
                    else {
                        i += 3;
                        proc_ifetch(ctx, cl, pid, addr, count, &time);
                    }
                }
                else if (op == OP_ENQUEUE || op == OP_DEQUEUE) {
                    if (time > limit)
                        goto limit_exceeded;
                    misc[X_EVENTS]++;
                    PyObject *key = PyLong_FromLongLong(data[i + 1]);
                    PyObject *item = NULL;
                    int rc = -1;
                    if (key && op == OP_DEQUEUE) {
                        /* Replay-only: pop and discard (the recorded stream
                         * already contains the branch the response chose). */
                        item = queue_pop(ctx, key);
                        rc = item ? 0 : -1;
                    }
                    else if (key) {
                        item = PyLong_FromLongLong(data[i + 2]);
                        rc = item ? queue_push(ctx, key, item) : -1;
                    }
                    Py_XDECREF(key);
                    Py_XDECREF(item);
                    if (rc < 0)
                        goto fail;
                    i += op == OP_ENQUEUE ? 3 : 2;
                }
                else if (op == OP_LOCK_ACQ || op == OP_LOCK_REL
                         || op == OP_BARRIER) {
                    if (time > limit)
                        goto limit_exceeded;
                    misc[X_EVENTS]++;
                    long long id = data[i + 1];
                    int running;
                    if (op == OP_BARRIER) {
                        running = barrier_arrive(ctx, pid, id, data[i + 2],
                                                 time);
                        i += 3;
                    }
                    else {
                        running = op == OP_LOCK_ACQ
                            ? lock_acquire(ctx, pid, id, &time)
                            : lock_release(ctx, pid, id, &time) < 0 ? -1 : 1;
                        i += 2;
                    }
                    if (running < 0)
                        goto fail;
                    /* (a lock handed to the process releasing it -- only
                     * a state no run leaves has it waiting on a lock it
                     * holds -- schedules it: ``_advance`` stops then) */
                    if (!running || ctx->rq.link[pid].queued)
                        state = RUN_OVER;
                    /* whoever was woken may be the earliest now */
                    next_time = ctx->rq.earliest;
                }
                else {
                    if (time > limit)
                        goto limit_exceeded;
                    PyErr_Format(PyExc_ValueError,
                                 "unknown packed opcode %lld at %lld", op, i);
                    goto fail;
                }
                if (state == RUN_ON && time > next_time)
                    state = RUN_PREEMPTED;
            }
            cur->pos = i;
            cur->sub = sub;
            if (state != RUN_ON)
                break;
            /* The chunk is drained, or none is installed yet: resume the
             * generator (``_advance``), which may be the end of it. */
            cursor_drop(cur);
            i = sub = 0;
            if (time > limit)
                goto limit_exceeded;
            int alive = proc_refill(ctx, pid, proc);
            if (alive < 0)
                goto fail;
            if (!alive) {
                proc->finished = 1;
                proc->time = time;
                if (time > misc[X_FINISH])
                    misc[X_FINISH] = time;
                state = RUN_OVER;
            }
        }
    }

limit_exceeded:
    PyErr_Format(PyExc_RuntimeError, "simulation exceeded %lld cycles",
                 limit);
fail:
    /* the process at fault is left where the reference loop leaves it:
     * popped, and standing at the event that raised */
    cur->pos = i;
    cur->sub = sub;
    ctx->procs[pid].time = time;
    return -1;
}

/* ``run(plan)``: the whole run in one call, written back into the plan
 * whether or not it raised. */
static PyObject *
native_run(PyObject *self, PyObject *plan)
{
    (void)self;
    Ctx *ctx = ctx_setup(plan);
    if (!ctx)
        return NULL;
    PyObject *drive[3] = {NULL, NULL, NULL};
    if (ctx_drive(ctx) < 0)
        PyErr_Fetch(&drive[0], &drive[1], &drive[2]);
    int exported = ctx_export(ctx);
    ctx_free(ctx);
    return drive_end(drive, exported);
}

/* ==================================================================== */
/* Fused multi-configuration ladder (repro.trace.multiconfig)           */
/* ==================================================================== */

/* The fused pass of repro.trace.multiconfig, its only implementation:
 * one pass over a single-process tape driving every rung of an SCC
 * ladder at once.  The contract is per-size replay on the reference
 * loop, statistic for statistic and error for error; why the shortcuts
 * below are exact is told once, in DESIGN.md section 11.  Per-size
 * timing is a skew against the shared base clock; hits with no live
 * fill/write-buffer window anywhere (``hot_n == 0``) cost a single
 * smallest-size tag probe.
 *
 * A rung *is* a machine: ``machine_setup`` parses its plan as it parses
 * a run's -- a ``Machine`` of one ``Scc`` and one processor, on its own
 * system's bus clock, counting into the ``S_*`` and ``Deltas`` rows
 * ``settle`` adds up -- and what happens to it on a miss, an upgrade or
 * an icache refill is the "coherence" section's ``bus_acquire``,
 * ``install`` and ``write_shared_or_miss``, called at the rung's local
 * time.  With one cluster there is nothing to snoop and no line to lose,
 * so the event loop touches no python object -- and, like a run, a pass
 * carries no probe.  The rungs fetch through the first rung's icache,
 * which ``lctx_export`` copies to the others.  The ladder's own is
 * what only a ladder has: the inclusion prefix, the shared clock folded
 * into per-size finish times (``l_fold``, ``skew``), the live windows
 * that say when a rung's hits can stall (``fill_live``, ``wb_live``,
 * ``hot``).  ``l_slow_read`` / ``l_slow_write`` are therefore not
 * ``do_access``: per-process clocks with bank arbitration, and one shared
 * clock with a skew per rung, are two algorithms over the same view.
 *
 * ``ladder(plan, tape)`` runs the whole tape in one call, its queue and sync
 * opcodes included, by the reference loop's rules for one process: an
 * enqueue or dequeue moves no clock; a lock costs ``lock_overhead``
 * busy cycles, and re-acquiring one it holds deadlocks it; a barrier of
 * count 1 is ``barrier_overhead`` of sync stall, and any other count
 * raises; the errors are the plan's classes, with the reference loop's
 * messages.  A non-positive span stride raises ValueError instead of
 * spinning (the ladder has no cycle limit to bail it out).
 *
 * The ownership rule is ``run``'s, one way: a rung's ``_inflight`` dict,
 * write-buffer lists and lost-line set are empty when the call starts
 * (``lctx_setup`` refuses anything else: nothing could supply the live
 * windows of a pass begun mid-machine, and a rung has nobody to
 * invalidate its lines) and written when it ends, raise or no raise.  A
 * rung tracks the fills of write misses only: the processor waits out a
 * read miss's fill, so its one process can never meet it in flight, and
 * the quiet path would never get to forget it -- a rung's read miss
 * therefore hands ``install`` ``FILL_NONE`` where ``read_miss`` hands it
 * the fill time.
 */

typedef struct {
    int n_sizes;
    Machine *rungs;           /* [rung]: one SCC, one processor */
    long long *skew, *folded, *fill_live, *wb_live, *hot;   /* [rung] */
    PyObject *deadlock_error, *sync_error;
    Views views;
} LCtx;

/* Fold the shared clock into rung ``s`` and return its local time. */
static inline long long
l_fold(LCtx *c, int s, long long base, long long uref)
{
    long long sk = c->skew[s];
    if (uref > c->folded[s]) {
        long long f = uref + sk;
        long long *fin = c->rungs[s].d.finish;
        if (f > *fin)
            *fin = f;
    }
    c->folded[s] = uref;
    return base + sk;
}

static inline void
l_update_hot(LCtx *c, int s, long long done, long long *hot_n)
{
    if (c->fill_live[s] > done || c->wb_live[s] > done) {
        if (!c->hot[s]) {
            c->hot[s] = 1;
            (*hot_n)++;
        }
    }
    else if (c->hot[s]) {
        c->hot[s] = 0;
        (*hot_n)--;
    }
}

/* ``wbuf_reserve`` on rung ``s``, plus the live-window watermark: the
 * store just entered is the last to retire. */
static inline long long
l_reserve(LCtx *c, int s, long long bank, long long now, long long retire)
{
    Scc *scc = c->rungs[s].sccs;
    long long stall = wbuf_reserve(&scc->words, bank, now, retire);
    if (retire < now + stall)
        retire = now + stall;
    if (retire > c->wb_live[s])
        c->wb_live[s] = retire;
    scc->stats[S_WRITE_BUFFER_STALL_CYCLES] += stall;
    return stall;
}

/* A reference of rung ``s`` issued at ``t`` let its processor carry on at
 * ``done``: the stall, the rung's new skew, and whether it is still
 * inside a live window. */
static inline void
l_complete(LCtx *c, int s, long long base, long long t, long long done,
           long long *hot_n)
{
    Deltas *d = &c->rungs[s].d;
    d->stall[0] += done - t - 1;
    d->finish[0] = done;
    c->skew[s] = done - base - 1;
    l_update_hot(c, s, done, hot_n);
}

/* Per-size processing for a read that is not uniformly quiet. */
static void
l_slow_read(LCtx *c, long long line, long long base, long long uref,
            long long *hot_n)
{
    int s = 0;
    int n = c->n_sizes;
    for (; s < n; s++) {                    /* misses: ladder prefix */
        Machine *rung = &c->rungs[s];
        Scc *scc = rung->sccs;
        long long index = line & scc->mask;
        if (scc->states[index]
            && scc->tags[index] == (line >> scc->shift))
            break;
        /* ``read_miss`` with nobody to snoop, no line to have lost and no
         * fill recorded (see above): the victim's goes all the same */
        long long t = l_fold(c, s, base, uref);
        scc->stats[S_READ_MISSES]++;
        long long grant = bus_acquire(scc, t, rung->bus_occ);
        scc->stats[S_BUS_WAIT_CYCLES] += grant - t;
        install(rung, 0, line, index, rung->mesi ? ST_EXCLUSIVE : ST_SHARED,
                t, FILL_NONE);
        l_complete(c, s, base, t, grant + rung->mem_latency + 1, hot_n);
    }
    for (; *hot_n && s < n; s++) {          /* hits inside live windows */
        if (!c->hot[s])
            continue;
        Scc *scc = c->rungs[s].sccs;
        long long t = l_fold(c, s, base, uref);
        long long done = t + 1;
        if (c->fill_live[s] > t)
            done = fill_done(&scc->words, line, line & scc->mask, t);
        l_complete(c, s, base, t, done, hot_n);
    }
}

/* A buffered store of rung ``s`` issued at ``t``, performed at ``retire``:
 * the processor carries on a cycle later, plus any write-buffer stall. */
static inline void
l_store(LCtx *c, int s, long long bank, long long base, long long t,
        long long retire, long long *hot_n)
{
    long long done = t + 1 + l_reserve(c, s, bank, t + 1, retire);
    l_complete(c, s, base, t, done, hot_n);
}

/* Per-size processing for a write that is not uniformly quiet. */
static int
l_slow_write(LCtx *c, long long line, long long bank, long long base,
             long long uref, long long *hot_n)
{
    int s = 0;
    int n = c->n_sizes;
    for (; s < n; s++) {                    /* misses: ladder prefix */
        Scc *scc = c->rungs[s].sccs;
        long long index = line & scc->mask;
        if (scc->states[index]
            && scc->tags[index] == (line >> scc->shift))
            break;
        long long t = l_fold(c, s, base, uref), fetch_done;
        if (write_shared_or_miss(&c->rungs[s], 0, line, index, 0, t,
                                 &fetch_done) < 0)
            return -1;
        if (fetch_done > c->fill_live[s])
            c->fill_live[s] = fetch_done;
        l_store(c, s, bank, base, t, fetch_done, hot_n);
    }
    for (; s < n; s++) {                    /* resident sizes */
        Scc *scc = c->rungs[s].sccs;
        long long index = line & scc->mask;
        long long state = scc->states[index];
        if (state == ST_SHARED) {           /* upgrade broadcast */
            long long t = l_fold(c, s, base, uref), retire;
            if (write_shared_or_miss(&c->rungs[s], 0, line, index, 1, t,
                                     &retire) < 0)
                return -1;
            l_store(c, s, bank, base, t, retire, hot_n);
        }
        else {
            if (state != ST_MODIFIED)       /* MESI silent E -> M */
                scc->states[index] = ST_MODIFIED;
            if (c->hot[s]) {
                long long t = l_fold(c, s, base, uref);
                long long done = t + 1;
                if (c->fill_live[s] > t)
                    done = fill_done(&scc->words, line, index, t);
                if (c->wb_live[s] > done)
                    done += l_reserve(c, s, bank, done, done);
                l_complete(c, s, base, t, done, hot_n);
            }
        }
    }
    return 0;
}

static void
lctx_free(LCtx *ctx)
{
    views_release(&ctx->views);
    for (int s = 0; ctx->rungs && s < ctx->n_sizes; s++)
        machine_free(&ctx->rungs[s]);
    PyMem_Free(ctx->rungs);
    PyMem_Free(ctx->skew);
    PyMem_Free(ctx->views.bufs);
    PyMem_Free(ctx);
}

/* plan: ``(rungs, errors)`` -- a machine plan (``machine_setup``) per
 * rung, smallest first, each of one SCC and one processor, with the
 * first rung's scalars and icache geometry, and with an empty
 * ``_inflight`` dict, empty write-buffer lists and an empty lost-line set
 * (a rung starts as a fresh machine; they are written at the end); and
 * ``(DeadlockError, SyncProtocolError)``, what a misused lock or barrier
 * raises. */
static LCtx *
lctx_setup(PyObject *plan)
{
    PyObject *rungs, *errors;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 2
        || !PyTuple_Check(rungs = PyTuple_GET_ITEM(plan, 0))
        || PyTuple_GET_SIZE(rungs) < 1
        || !PyTuple_Check(errors = PyTuple_GET_ITEM(plan, 1))
        || PyTuple_GET_SIZE(errors) != 2
        || !PyExceptionClass_Check(PyTuple_GET_ITEM(errors, 0))
        || !PyExceptionClass_Check(PyTuple_GET_ITEM(errors, 1))) {
        PyErr_SetString(PyExc_TypeError, "ladder plan must be (rungs, "
                        "(deadlock error, protocol error))");
        return NULL;
    }
    LCtx *ctx = PyMem_Calloc(1, sizeof(LCtx));
    if (!ctx) {
        PyErr_NoMemory();
        return NULL;
    }
    int n = (int)PyTuple_GET_SIZE(rungs);
    ctx->deadlock_error = PyTuple_GET_ITEM(errors, 0);
    ctx->sync_error = PyTuple_GET_ITEM(errors, 1);
    ctx->rungs = PyMem_Calloc(n, sizeof(Machine));
    ctx->skew = PyMem_Calloc(5 * (size_t)n, sizeof(long long));
    if (!ctx->rungs || !ctx->skew) {
        PyErr_NoMemory();
        goto fail;
    }
    ctx->n_sizes = n;
    ctx->folded = ctx->skew + n;
    ctx->fill_live = ctx->folded + n;
    ctx->wb_live = ctx->fill_live + n;
    ctx->hot = ctx->wb_live + n;
    Py_ssize_t n_views = 0;
    for (int s = 0; s < n; s++)
        n_views += machine_views(PyTuple_GET_ITEM(rungs, s));
    if (views_init(&ctx->views, n_views) < 0)
        goto fail;

    const Machine *first = ctx->rungs;
    for (int s = 0; s < n; s++) {
        Machine *rung = &ctx->rungs[s];
        if (machine_setup(rung, &ctx->views, PyTuple_GET_ITEM(rungs, s)) < 0)
            goto fail;
        if (rung->n != 1 || rung->nproc != 1) {
            PyErr_SetString(PyExc_ValueError, "a ladder rung must be a "
                            "machine of one SCC and one processor");
            goto fail;
        }
        if (memcmp(rung->scal, first->scal, K_FIELDS * sizeof(long long))
            || !rung->icaches != !first->icaches
            || (rung->icaches
                && rung->icaches->mask != first->icaches->mask)) {
            PyErr_SetString(PyExc_ValueError, "the rungs of a ladder must "
                            "differ in their SCC size alone");
            goto fail;
        }
        const Words *w = &rung->sccs->words;
        int fresh = PyDict_GET_SIZE(w->inflight) == 0
                    && PySet_GET_SIZE(w->lost_at_rest) == 0;
        for (Py_ssize_t bank = 0; fresh && bank < w->nbanks; bank++)
            fresh = PyList_GET_SIZE(PyList_GET_ITEM(w->wbufs, bank)) == 0;
        if (!fresh) {
            PyErr_SetString(PyExc_ValueError, "a ladder rung must start "
                            "with no fill in flight, no buffered write and "
                            "no line lost");
            goto fail;
        }
    }
    return ctx;

fail:
    lctx_free(ctx);
    return NULL;
}

/* The end of the pass, completed or aborted: every rung's icache gets the
 * first rung's lines, and its fills and write buffers go to the
 * containers of its SCC -- what ``check_invariants`` then checks. */
static int
lctx_export(LCtx *ctx)
{
    const Icache *ic = ctx->rungs[0].icaches;
    for (int s = 0; s < ctx->n_sizes; s++) {
        if (ic && s) {
            size_t bytes = 8 * (size_t)(ic->mask + 1);
            memmove(ctx->rungs[s].icaches->states, ic->states, bytes);
            memmove(ctx->rungs[s].icaches->tags, ic->tags, bytes);
        }
        if (words_export(&ctx->rungs[s].sccs->words) < 0)
            return -1;
    }
    return 0;
}

/* The whole pass: ``tape``, an ``array('q')`` of one process's opcodes,
 * through every rung, and each rung's counters into its rows. */
static int
lctx_drain(LCtx *ctx, PyObject *tape)
{
    Py_buffer cview;
    if (PyObject_GetBuffer(tape, &cview, PyBUF_SIMPLE) < 0)
        return -1;
    const long long *data = (const long long *)cview.buf;
    long long end = (long long)(cview.len / 8);

    const Machine *first = ctx->rungs;
    long long i = 0, base = 0, uref = 0, ev = 0, n_reads = 0, n_writes = 0;
    long long u_busy = 0, sync_stall = 0, hot_n = 0;
    long long ic_misses = 0, ic_fetch_lines = 0;
    long long line_shift = first->line_shift;
    long long nbanks = first->nbanks;
    long long mask0 = first->sccs->mask;
    long long shift0 = first->sccs->shift;
    long long *states0 = first->sccs->states;
    long long *tags0 = first->sccs->tags;
    SyncTable locks = {0};
    int result = -1;

    while (i < end) {
        long long op = data[i];
        if (record_cut(data, i, end)) {
            if ((op == OP_READ_SPAN || op == OP_WRITE_SPAN) && end - i == 3
                && data[i + 2] <= 0) {
                i += 4;
                continue;
            }
            PyErr_SetString(PyExc_IndexError, "array index out of range");
            goto out;
        }
        if (op == OP_READ) {
            long long line = data[i + 1] >> line_shift;
            i += 2;
            ev++;
            long long index = line & mask0;
            if (!(hot_n == 0 && states0[index]
                  && tags0[index] == (line >> shift0)))
                l_slow_read(ctx, line, base, uref, &hot_n);
            n_reads++;
            base++;
            uref = base;
        }
        else if (op == OP_WRITE) {
            long long line = data[i + 1] >> line_shift;
            i += 2;
            ev++;
            long long index = line & mask0;
            if (!(hot_n == 0 && states0[index] == ST_MODIFIED
                  && tags0[index] == (line >> shift0))) {
                long long bank = line % nbanks;
                if (bank < 0)
                    bank += nbanks;
                if (l_slow_write(ctx, line, bank, base, uref, &hot_n) < 0)
                    goto out;
            }
            n_writes++;
            base++;
            uref = base;
        }
        else if (op == OP_COMPUTE) {
            long long cycles = data[i + 1];
            i += 2;
            ev++;
            if (cycles < 0) {
                /* ``account_compute`` refuses it, before a cycle is
                 * charged at any size */
                PyErr_SetString(PyExc_ValueError,
                                "compute cycles must be non-negative");
                goto out;
            }
            u_busy += cycles;
            base += cycles;
        }
        else if (op == OP_IFETCH) {
            long long count = data[i + 2];
            ev++;
            if (!first->icaches) {
                u_busy += count;
                base += count;
                i += 3;
                continue;
            }
            if (count < 1) {
                /* ``InstructionCache.fetch`` refuses it, before a cycle is
                 * charged at any size */
                PyErr_SetString(PyExc_ValueError,
                                "must fetch at least one instruction");
                goto out;
            }
            long long addr = data[i + 1];
            i += 3;
            long long first_line = addr >> first->iline_shift;
            long long last = (addr + count * 4 - 1) >> first->iline_shift;
            long long *ic_states = first->icaches->states;
            long long *ic_tags = first->icaches->tags;
            long long ic_mask = first->icaches->mask;
            long long ic_shift = first->icaches->shift;
            long long ln = first_line;
            while (ln <= last) {
                long long ii = ln & ic_mask;
                if (ic_states[ii] && ic_tags[ii] == (ln >> ic_shift))
                    ln++;
                else
                    break;
            }
            if (ln > last) {
                /* Every line resident: no refills at any size. */
                ic_fetch_lines += last - first_line + 1;
                u_busy += count;
                base += count;
                continue;
            }
            long long misses = 0;
            for (ln = first_line; ln <= last; ln++) {
                ic_fetch_lines++;
                long long ii = ln & ic_mask;
                if (!(ic_states[ii]
                      && ic_tags[ii] == (ln >> ic_shift))) {
                    ic_tags[ii] = ln >> ic_shift;
                    ic_states[ii] = ST_SHARED;
                    misses++;
                }
            }
            ic_misses += misses;
            /* The refills queue on each rung's bus one after the other,
             * each requested when the one before it has arrived
             * (``MultiprocessorSystem.ifetch``). */
            for (int s = 0; s < ctx->n_sizes; s++) {
                Machine *rung = &ctx->rungs[s];
                long long t = l_fold(ctx, s, base, uref);
                long long stall = 0;
                for (long long m = 0; m < misses; m++) {
                    long long grant = bus_acquire(rung->sccs, t + stall,
                                                  rung->bus_occ);
                    stall = grant + rung->ic_lat - t;
                }
                rung->d.icstall[0] += stall;
                ctx->skew[s] += stall;
                l_update_hot(ctx, s, t + count + stall, &hot_n);
            }
            u_busy += count;
            base += count;
        }
        else if (op == OP_READ_SPAN || op == OP_WRITE_SPAN) {
            long long span_base = data[i + 1];
            long long size = data[i + 2];
            long long stride = data[i + 3];
            if (size > 0 && stride <= 0) {
                /* The loop below would spin forever. */
                PyErr_Format(PyExc_ValueError,
                             "non-positive span stride at %lld", i);
                goto out;
            }
            i += 4;
            int is_read = op == OP_READ_SPAN;
            long long offset = 0;
            while (offset < size) {
                ev++;
                long long line = (span_base + offset) >> line_shift;
                long long index = line & mask0;
                if (is_read) {
                    if (!(hot_n == 0 && states0[index]
                          && tags0[index] == (line >> shift0)))
                        l_slow_read(ctx, line, base, uref, &hot_n);
                    n_reads++;
                }
                else {
                    if (!(hot_n == 0 && states0[index] == ST_MODIFIED
                          && tags0[index] == (line >> shift0))) {
                        long long bank = line % nbanks;
                        if (bank < 0)
                            bank += nbanks;
                        if (l_slow_write(ctx, line, bank, base, uref,
                                         &hot_n) < 0)
                            goto out;
                    }
                    n_writes++;
                }
                base++;
                uref = base;
                offset += stride;
            }
        }
        else if (op == OP_ENQUEUE || op == OP_DEQUEUE) {
            /* One process: nothing reads a task queue's contents. */
            i += op == OP_ENQUEUE ? 3 : 2;
            ev++;
        }
        else if (op == OP_LOCK_ACQ || op == OP_LOCK_REL) {
            long long id = data[i + 1];
            i += 2;
            ev++;
            WaitQ *lock = sync_lookup(&locks, id, op == OP_LOCK_ACQ);
            if (op == OP_LOCK_ACQ) {
                if (!lock)
                    goto out;
                if (lock->holder == 0) {
                    /* it waits on itself: what ``run`` then reports */
                    PyErr_Format(ctx->deadlock_error, "processes [0] "
                                 "blocked forever (locks={%lld: 0})", id);
                    goto out;
                }
                lock->holder = 0;
            }
            else if (!lock || lock->holder < 0) {
                PyErr_Format(ctx->sync_error, "process 0 released lock "
                             "%lld it does not hold", id);
                goto out;
            }
            else {
                lock->holder = -1;
            }
            u_busy += first->lock_overhead;
            base += first->lock_overhead;
        }
        else if (op == OP_BARRIER) {
            long long count = data[i + 2];
            i += 3;
            ev++;
            if (count < 1) {
                PyErr_SetString(ctx->sync_error,
                                "barrier count must be >= 1");
                goto out;
            }
            if (count > 1) {
                /* nobody else can arrive; it holds no lock anyone waits on */
                PyErr_SetString(ctx->deadlock_error,
                                "processes [0] blocked forever (locks={})");
                goto out;
            }
            sync_stall += first->barrier_overhead;
            base += first->barrier_overhead;
        }
        else {
            PyErr_Format(PyExc_ValueError,
                         "unknown packed opcode %lld at %lld", op, i);
            goto out;
        }
    }

    /* What every rung did alike, and where each one finished. */
    for (int s = 0; s < ctx->n_sizes; s++) {
        Machine *rung = &ctx->rungs[s];
        Deltas *d = &rung->d;
        (void)l_fold(ctx, s, base, uref);
        rung->sccs->stats[S_READS] += n_reads;
        rung->sccs->stats[S_WRITES] += n_writes;
        d->refs[0] += n_reads + n_writes;
        d->busy[0] += n_reads + n_writes + u_busy;
        d->sync[0] += sync_stall;
        d->icfetch[0] += ic_fetch_lines;
        d->icmiss[0] += ic_misses;
        d->misc[X_EVENTS] += ev;
        d->misc[X_FINISH] = base + ctx->skew[s];
    }
    result = 0;
out:
    PyMem_Free(locks.q);
    PyMem_Free(locks.slots);
    PyBuffer_Release(&cview);
    return result;
}

/* ``ladder(plan, tape)``: the whole pass in one call, written back into
 * the rungs whether or not it raised. */
static PyObject *
native_ladder(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *plan, *tape;
    if (!PyArg_ParseTuple(args, "OO", &plan, &tape))
        return NULL;
    LCtx *ctx = lctx_setup(plan);
    if (!ctx)
        return NULL;
    PyObject *drive[3] = {NULL, NULL, NULL};
    if (lctx_drain(ctx, tape) < 0)
        PyErr_Fetch(&drive[0], &drive[1], &drive[2]);
    int exported = lctx_export(ctx);
    lctx_free(ctx);
    return drive_end(drive, exported);
}

/* ==================================================================== */
/* Row profiles (repro.model.profile)                                   */
/* ==================================================================== */

/* The numeric half of ``build_row_profile``: ``row_profile`` takes one
 * row's packed streams and its geometry and returns, as flat tuples and
 * lists, everything the payload is assembled from -- each process's work
 * summary, each cluster's stack-distance histogram, the coherence ladder
 * (totals and read misses by process per rung) and each cluster's
 * exposure: what ``predict_point`` reads, and nothing else.  The
 * contract is the reference kernel in src/repro/model/profile.py,
 * function for function -- ``extract_process`` (pf_walk),
 * ``merge_refs`` (pf_merge), ``_histogram_of`` over
 * ``trace.analysis._distances_from_lines`` (pf_histogram),
 * ``coherence_ladder`` (pf_ladder), ``_sharing_summary`` (pf_sharing) --
 * and the payloads must stay byte-identical, errors included: the
 * differ's ``profile`` engine and tests/model compare them.
 *
 * Unlike ``run`` this section reads tapes it cannot trust (a profile is
 * built from the on-disk trace cache): every record is checked to be
 * known, whole and walkable before an operand is read, every table is
 * sized from what the walk found, and every allocation is checked.  It
 * touches no python object between parsing its arguments and building
 * its result.
 *
 * Every data reference becomes a ``Ref``.  Lines are interned to dense
 * ids as they are walked (one open-addressing table for the row), so the
 * passes after the walk -- a histogram per cluster, the exposure (none
 * on a row of one cluster) -- index arrays instead of hashing.  Where
 * python's integers would outgrow 64 bits (a span or fetch running past
 * the address space, 2^26 references in one row: past that a product in
 * the exposure term stops being an exact double) the kernel raises
 * OverflowError rather than differ.
 */

#define PF_MAX_REFS_LOG2 26
#define PF_MAX_REFS (1LL << PF_MAX_REFS_LOG2)
#define PF_EXACT 128            /* profile._EXACT_DISTANCES = 2^7 */
#define PF_PER_OCTAVE_LOG2 3    /* profile._BUCKETS_PER_OCTAVE = 8 */
#define PF_BUCKETS \
    (PF_EXACT + ((PF_MAX_REFS_LOG2 - 7) << PF_PER_OCTAVE_LOG2))
#define PF_INSTRUCTION_BYTES 4  /* repro.core.icache.INSTRUCTION_BYTES */

/* One process's work summary; slot order is profile._SUMMARY_FIELDS. */
enum {
    PF_READS, PF_WRITES, PF_INSTRUCTIONS, PF_COMPUTE, PF_LOCKS,
    PF_BARRIERS, PF_EVENTS, PF_ICACHE_MISSES,
    PF_SUMMARY
};

typedef struct {
    long long line;
    unsigned id;                /* dense: rank of first appearance */
    unsigned proc : 31;         /* index into the sorted processor ids */
    unsigned write : 1;
} Ref;

typedef struct {
    Ref *refs;
    long long n, cap;
} RefVec;

typedef struct {
    long long line;
    unsigned id_plus_1;         /* 0: empty slot */
} LineSlot;

typedef struct {
    LineSlot *slots;
    size_t cap;                 /* a power of two, or 0 before first use */
    unsigned count;
} LineTable;

/* Read/write-split stack-distance histogram (``_BucketedHistogram``). */
typedef struct {
    long long cold[2];
    long long buckets[PF_BUCKETS][2];
} Hist;

typedef struct {
    double key;                 /* position / length */
    int seq;
} MergeSlot;

/* ``count`` zeroed slots (calloc checks the product). */
static void *
pf_alloc(size_t count, size_t size)
{
    void *block = calloc(count ? count : 1, size);
    if (!block)
        PyErr_NoMemory();
    return block;
}

static long long *
pf_alloc_filled(size_t count, long long value)
{
    long long *block = pf_alloc(count, sizeof(long long));
    if (block)
        for (size_t i = 0; i < count; i++)
            block[i] = value;
    return block;
}

static inline long long
pf_floor_div(long long a, long long b)      /* b > 0 */
{
    long long q = a / b;
    return a % b < 0 ? q - 1 : q;
}

static int
pf_lines_grow(LineTable *t)
{
    size_t cap = t->cap ? t->cap * 2 : 1024;
    LineSlot *slots = pf_alloc(cap, sizeof(LineSlot));
    if (!slots)
        return -1;
    for (size_t i = 0; i < t->cap; i++) {
        if (!t->slots[i].id_plus_1)
            continue;
        size_t j = ll_hash(t->slots[i].line) & (cap - 1);
        while (slots[j].id_plus_1)
            j = (j + 1) & (cap - 1);
        slots[j] = t->slots[i];
    }
    free(t->slots);
    t->slots = slots;
    t->cap = cap;
    return 0;
}

/* The dense id of ``line``, interning it on first sight. */
static int
pf_lines_intern(LineTable *t, long long line, unsigned *id)
{
    if ((size_t)t->count * 2 >= t->cap && pf_lines_grow(t) < 0)
        return -1;
    size_t mask = t->cap - 1;
    size_t i = ll_hash(line) & mask;
    while (t->slots[i].id_plus_1) {
        if (t->slots[i].line == line) {
            *id = t->slots[i].id_plus_1 - 1;
            return 0;
        }
        i = (i + 1) & mask;
    }
    t->slots[i].line = line;
    t->slots[i].id_plus_1 = ++t->count;
    *id = t->count - 1;
    return 0;
}

/* Room for ``extra`` more references, counted against the row's bound. */
static int
pf_refs_reserve(RefVec *v, long long extra, long long *row_refs)
{
    if (extra > PF_MAX_REFS - *row_refs) {
        PyErr_Format(PyExc_OverflowError,
                     "row holds more than 2^%d data references",
                     PF_MAX_REFS_LOG2);
        return -1;
    }
    *row_refs += extra;
    if (v->n + extra > v->cap) {
        long long cap = v->cap ? v->cap * 2 : 256;
        if (cap < v->n + extra)
            cap = v->n + extra;
        Ref *refs = realloc(v->refs, (size_t)cap * sizeof(Ref));
        if (!refs) {
            PyErr_NoMemory();
            return -1;
        }
        v->refs = refs;
        v->cap = cap;
    }
    return 0;
}

/* ``extract_process``: one stream's data references (appended to ``out``)
 * and work summary.  ``ilines`` 0: no instruction cache modelled. */
static int
pf_walk(const long long *data, long long end, unsigned proc,
        long long line_shift, long long ilines, long long iline_size,
        LineTable *table, RefVec *out, long long *row_refs, long long *sum)
{
    long long *itags = NULL;
    long long i = 0;
    if (ilines && !(itags = pf_alloc_filled((size_t)ilines, -1)))
        return -1;
    while (i < end) {
        long long op = data[i];
        if (op < OP_READ || op > OP_WRITE_SPAN) {
            PyErr_Format(PyExc_ValueError,
                         "unknown packed opcode %lld at word %lld", op, i);
            goto fail;
        }
        int width = OP_WIDTH[op];
        if (width > end - i) {
            PyErr_Format(PyExc_ValueError,
                         "truncated packed record at word %lld", i);
            goto fail;
        }
        sum[PF_EVENTS]++;
        if (op == OP_READ || op == OP_WRITE
                || op == OP_READ_SPAN || op == OP_WRITE_SPAN) {
            long long base = data[i + 1], count = 1, stride = 0;
            unsigned write = op == OP_WRITE || op == OP_WRITE_SPAN;
            if (width == 4) {
                long long size = data[i + 2];
                long long furthest;
                stride = data[i + 3];
                if (size > 0 && stride <= 0) {
                    PyErr_Format(PyExc_ValueError,
                                 "non-positive span stride at %lld", i);
                    goto fail;
                }
                /* elements walked: a non-positive size is none */
                count = size > 0 ? (size - 1) / stride + 1 : 0;
                if (count && __builtin_add_overflow(
                        base, (count - 1) * stride, &furthest))
                    goto overflow;
                sum[PF_EVENTS] += count - 1;
            }
            if (pf_refs_reserve(out, count, row_refs) < 0)
                goto fail;
            for (long long k = 0; k < count; k++) {
                Ref *ref = &out->refs[out->n];
                ref->line = (base + k * stride) >> line_shift;
                ref->proc = proc;
                ref->write = write;
                if (pf_lines_intern(table, ref->line, &ref->id) < 0)
                    goto fail;
                out->n++;
            }
            sum[write ? PF_WRITES : PF_READS] += count;
        }
        else if (op == OP_IFETCH) {
            long long addr = data[i + 1], count = data[i + 2];
            if (__builtin_add_overflow(sum[PF_INSTRUCTIONS], count,
                                       &sum[PF_INSTRUCTIONS]))
                goto overflow;
            if (itags) {
                long long last;     /* (the loop must step past it) */
                if (__builtin_mul_overflow(count, PF_INSTRUCTION_BYTES,
                                           &last)
                        || __builtin_add_overflow(addr, last, &last)
                        || __builtin_sub_overflow(last, 1, &last)
                        || last == LLONG_MAX)
                    goto overflow;
                last = pf_floor_div(last, iline_size);
                for (long long line = pf_floor_div(addr, iline_size);
                        line <= last; line++) {
                    long long slot = line & (ilines - 1);
                    if (itags[slot] != line) {
                        itags[slot] = line;
                        sum[PF_ICACHE_MISSES]++;
                    }
                }
            }
        }
        else if (op == OP_COMPUTE) {
            if (__builtin_add_overflow(sum[PF_COMPUTE], data[i + 1],
                                       &sum[PF_COMPUTE]))
                goto overflow;
        }
        else if (op == OP_LOCK_ACQ || op == OP_LOCK_REL)
            sum[PF_LOCKS]++;
        else if (op == OP_BARRIER)
            sum[PF_BARRIERS]++;
        i += width;
    }
    free(itags);
    return 0;

overflow:
    PyErr_Format(PyExc_OverflowError,
                 "packed operands at word %lld overflow 64 bits", i);
fail:
    free(itags);
    return -1;
}

static inline int
pf_slot_less(MergeSlot a, MergeSlot b)
{
    return a.key < b.key || (a.key == b.key && a.seq < b.seq);
}

/* ``merge_refs``: each step takes the next item of the sequence least far
 * through itself.  ``heapq`` on ``(position / length, index)`` pops a
 * total order (no two keys are equal), so any min-heap pops the same
 * one; this one replaces its root instead of popping and pushing.
 * ``heap`` and ``pos`` are scratch for ``k`` sequences. */
static long long
pf_merge(const Ref *const *seqs, const long long *lens, int k,
         MergeSlot *heap, long long *pos, Ref *out)
{
    int size = 0;
    long long n = 0;
    for (int s = 0; s < k; s++) {
        pos[s] = 0;
        if (lens[s]) {      /* equal keys, ascending index: a heap */
            heap[size].key = 0.0;
            heap[size++].seq = s;
        }
    }
    while (size) {
        int s = heap[0].seq;
        MergeSlot item;
        out[n++] = seqs[s][pos[s]++];
        if (pos[s] < lens[s]) {
            item.key = (double)pos[s] / (double)lens[s];
            item.seq = s;
        }
        else if (--size)
            item = heap[size];
        else
            break;
        int hole = 0;
        for (;;) {
            int child = 2 * hole + 1;
            if (child >= size)
                break;
            if (child + 1 < size
                    && pf_slot_less(heap[child + 1], heap[child]))
                child++;
            if (!pf_slot_less(heap[child], item))
                break;
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = item;
    }
    return n;
}

static inline int
pf_bucket(long long distance)
{
    if (distance < PF_EXACT)
        return (int)distance;
    int octave = 7;
    while (distance >> (octave + 1))
        octave++;
    return PF_EXACT + ((octave - 7) << PF_PER_OCTAVE_LOG2)
        + (int)((distance - (1LL << octave))
                >> (octave - PF_PER_OCTAVE_LOG2));
}

/* ``bucket_floor`` of every distance ``pf_bucket`` sends to ``bucket``. */
static inline long long
pf_bucket_floor(int bucket)
{
    if (bucket < PF_EXACT)
        return bucket;
    int octave = 7 + ((bucket - PF_EXACT) >> PF_PER_OCTAVE_LOG2);
    long long sub = (bucket - PF_EXACT) & ((1 << PF_PER_OCTAVE_LOG2) - 1);
    return (1LL << octave) + (sub << (octave - PF_PER_OCTAVE_LOG2));
}

/* Bennett-Kruskal over ``refs``: a Fenwick tree over positions marks
 * each line's most recent occurrence.  ``tree`` is scratch for ``n + 1``
 * slots; ``last`` (by line id) is all -1 on entry and on return.  The
 * reference's second query, the marks before ``position``, is every mark
 * there is: the distinct lines seen so far. */
static void
pf_histogram(const Ref *refs, long long n, int *last, int *tree, Hist *h)
{
    int marks = 0;
    memset(h, 0, sizeof(Hist));
    memset(tree, 0, (size_t)(n + 1) * sizeof(int));
    for (long long position = 0; position < n; position++) {
        const Ref *ref = &refs[position];
        long long previous = last[ref->id];
        long long at;
        if (previous < 0) {
            h->cold[ref->write]++;
            marks++;
        }
        else {
            /* distinct lines touched strictly after the previous access */
            long long distance = marks;
            for (at = previous + 1; at > 0; at -= at & -at)
                distance -= tree[at];
            h->buckets[pf_bucket(distance)][ref->write]++;
            for (at = previous + 1; at <= n; at += at & -at)
                tree[at]--;
        }
        for (at = position + 1; at <= n; at += at & -at)
            tree[at]++;
        last[ref->id] = (int)position;
    }
    for (long long position = 0; position < n; position++)
        last[refs[position].id] = -1;
}

/* ``(cold_reads, cold_writes, [[floor, reads, writes], ...])`` */
static PyObject *
pf_histogram_object(const Hist *h)
{
    PyObject *buckets = PyList_New(0);
    if (!buckets)
        return NULL;
    for (int b = 0; b < PF_BUCKETS; b++) {
        if (!h->buckets[b][0] && !h->buckets[b][1])
            continue;
        PyObject *row = Py_BuildValue("[LLL]", pf_bucket_floor(b),
                                      h->buckets[b][0], h->buckets[b][1]);
        if (!row || PyList_Append(buckets, row) < 0) {
            Py_XDECREF(row);
            Py_DECREF(buckets);
            return NULL;
        }
        Py_DECREF(row);
    }
    return Py_BuildValue("(LLN)", h->cold[0], h->cold[1], buckets);
}

static PyObject *
pf_ll_list(const long long *values, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list && i < n; i++) {
        PyObject *value = PyLong_FromLongLong(values[i]);
        if (!value) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

/* ``coherence_ladder`` over the globally merged stream: per rung
 * ``(read_misses, write_misses, invalidations, [read misses by
 * process])``.  Empty slots hold -1, as the reference's do. */
static PyObject *
pf_ladder(const Ref *refs, long long n, const int *proc_cluster,
          int n_procs, int n_clusters, const long long *rung_lines,
          int n_rungs)
{
    PyObject *result = NULL;
    size_t n_arrays = (size_t)n_clusters * n_rungs;
    long long **tags = pf_alloc(n_arrays, sizeof(long long *));
    long long *shift = pf_alloc(n_rungs, sizeof(long long));
    /* per rung: the three totals, then read misses by process */
    size_t row = 3 + (size_t)n_procs;
    long long *counts = pf_alloc((size_t)n_rungs * row, sizeof(long long));
    if (!tags || !shift || !counts)
        goto done;
    for (int rung = 0; rung < n_rungs; rung++)
        while (rung_lines[rung] >> (shift[rung] + 1))
            shift[rung]++;
    for (size_t a = 0; a < n_arrays; a++)
        if (!(tags[a] = pf_alloc_filled(
                (size_t)rung_lines[a % n_rungs], -1)))
            goto done;

    for (long long position = 0; n_rungs && position < n; position++) {
        const Ref *ref = &refs[position];
        long long line = ref->line;
        int cluster = proc_cluster[ref->proc];
        long long **own = tags + (size_t)cluster * n_rungs;
        /* Inclusion: resident at a rung means resident at every larger
         * one, so the probe stops at the first rung that holds it. */
        for (int rung = 0; rung < n_rungs; rung++) {
            long long *slot = &own[rung][line & (rung_lines[rung] - 1)];
            if (*slot == line >> shift[rung])
                break;
            *slot = line >> shift[rung];
            counts[rung * row + ref->write]++;
            if (!ref->write)
                counts[rung * row + 3 + ref->proc]++;
        }
        if (!ref->write)
            continue;
        for (int other = 0; other < n_clusters; other++) {
            if (other == cluster)
                continue;
            long long **remote = tags + (size_t)other * n_rungs;
            for (int rung = 0; rung < n_rungs; rung++) {
                long long *slot =
                    &remote[rung][line & (rung_lines[rung] - 1)];
                if (*slot == line >> shift[rung]) {
                    *slot = -1;
                    counts[rung * row + 2]++;
                }
            }
        }
    }

    if (!(result = PyList_New(n_rungs)))
        goto done;
    for (int rung = 0; rung < n_rungs; rung++) {
        const long long *c = counts + rung * row;
        PyObject *reads = pf_ll_list(c + 3, n_procs);
        PyObject *entry = reads ? Py_BuildValue("(LLLN)", c[0], c[1], c[2],
                                                reads) : NULL;
        if (!entry) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, rung, entry);
    }

done:
    for (size_t a = 0; tags && a < n_arrays; a++)
        free(tags[a]);
    free(tags);
    free(shift);
    free(counts);
    return result;
}

/* ``_sharing_summary`` over the globally merged stream: a list of the
 * clusters' exposures.  Exposure is a float sum, so its order is part of
 * the contract: per cluster, one term per shared line in the order the
 * merged stream first touches the lines (the reference's dict order),
 * each term one correctly rounded int / int division.  A row of one
 * cluster has no remote writer: ``[0.0]`` without a pass. */
static PyObject *
pf_sharing(const Ref *refs, long long n, unsigned n_lines,
           const int *proc_cluster, int n_clusters)
{
    PyObject *result = NULL;
    size_t width = 2 * (size_t)n_clusters;
    long long n_touched = 0;
    double *exposure = pf_alloc((size_t)n_clusters, sizeof(double));
    /* [line id][cluster][reads, writes] */
    long long *counts = NULL;
    unsigned *touched = NULL;           /* line ids by first touch */
    unsigned char *seen = NULL;
    if (!exposure)
        goto done;
    if (n_clusters > 1
            && (!(counts = pf_alloc((size_t)n_lines * width,
                                    sizeof(long long)))
                || !(touched = pf_alloc(n_lines, sizeof(unsigned)))
                || !(seen = pf_alloc(n_lines, 1))))
        goto done;

    for (long long position = 0; counts && position < n; position++) {
        const Ref *ref = &refs[position];
        if (!seen[ref->id]) {
            seen[ref->id] = 1;
            touched[n_touched++] = ref->id;
        }
        counts[ref->id * width + 2 * proc_cluster[ref->proc]
               + ref->write]++;
    }

    for (long long t = 0; t < n_touched; t++) {
        const long long *c = counts + touched[t] * width;
        long long all_writes = 0;
        int present = 0;
        for (int cluster = 0; cluster < n_clusters; cluster++) {
            present += c[2 * cluster] + c[2 * cluster + 1] > 0;
            all_writes += c[2 * cluster + 1];
        }
        if (present < 2)
            continue;
        for (int cluster = 0; cluster < n_clusters; cluster++) {
            long long reads = c[2 * cluster];
            long long local = reads + c[2 * cluster + 1];
            long long remote_writes = all_writes - c[2 * cluster + 1];
            /* both operands < 2^53 (PF_MAX_REFS): exact doubles */
            if (remote_writes && reads)
                exposure[cluster] += (double)(reads * remote_writes)
                    / (double)(remote_writes + local);
        }
    }

    if (!(result = PyList_New(n_clusters)))
        goto done;
    for (int cluster = 0; cluster < n_clusters; cluster++) {
        PyObject *value = PyFloat_FromDouble(exposure[cluster]);
        if (!value) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, cluster, value);
    }

done:
    free(exposure);
    free(counts);
    free(touched);
    free(seen);
    return result;
}

/* row_profile(streams, procs, line_shift, clusters, procs_per_cluster,
 *             icache, tracked)
 *
 * ``streams``: a tuple of ``array('q')`` tapes, one per entry of
 * ``procs`` (the ascending processor ids); ``icache``: None or ``(lines,
 * line_size)``; ``tracked``: the ladder's ascending power-of-two line
 * counts.  Returns ``(summaries, cluster_histograms, ladder,
 * exposure)``, lists by process index, cluster, rung and cluster -- the
 * shapes ``profile._row_payload`` reads. */
static PyObject *
native_row_profile(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *streams, *procs, *icache, *tracked;
    long long line_shift, clusters, ppc, ilines = 0, iline_size = 1;
    if (!PyArg_ParseTuple(args, "O!OLLLOO", &PyTuple_Type, &streams,
                          &procs, &line_shift, &clusters, &ppc, &icache,
                          &tracked))
        return NULL;
    Py_ssize_t n_procs = PyTuple_GET_SIZE(streams);
    Py_ssize_t n_rungs = PySequence_Size(tracked);
    if (n_rungs < 0)
        return NULL;
    if (PySequence_Size(procs) != n_procs) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "row_profile needs one stream per processor");
        return NULL;
    }
    if (icache != Py_None
            && !PyArg_ParseTuple(icache, "LL", &ilines, &iline_size))
        return NULL;
    if (line_shift < 0 || line_shift > 62 || clusters < 0
            || clusters > INT_MAX / 2 || ppc < 1 || n_procs > INT_MAX / 2
            || n_rungs > INT_MAX / 2 || iline_size < 1
            || (icache != Py_None && ilines < 1)) {
        PyErr_SetString(PyExc_ValueError,
                        "row_profile geometry out of range");
        return NULL;
    }
    int n_clusters = (int)clusters;

    PyObject *result = NULL;
    PyObject *summaries = NULL, *cluster_hists = NULL;
    PyObject *ladder = NULL, *exposure = NULL;
    Py_ssize_t n_views = 0;
    long long row_refs = 0, global_n = 0, longest = 0;
    LineTable table = {NULL, 0, 0};
    Hist *hist = NULL;
    Ref *global = NULL;
    int *last = NULL, *tree = NULL;
    int n_seqs = (int)n_procs > n_clusters ? (int)n_procs : n_clusters;

    Py_buffer *views = pf_alloc(n_procs, sizeof(Py_buffer));
    RefVec *proc_refs = pf_alloc(n_procs, sizeof(RefVec));
    RefVec *cluster_refs = pf_alloc(n_clusters, sizeof(RefVec));
    int *proc_cluster = pf_alloc(n_procs, sizeof(int));
    long long *rung_lines = pf_alloc(n_rungs, sizeof(long long));
    long long *sums = pf_alloc((size_t)n_procs * PF_SUMMARY,
                               sizeof(long long));
    const Ref **seqs = pf_alloc(n_seqs, sizeof(Ref *));
    long long *lens = pf_alloc(n_seqs, sizeof(long long));
    long long *pos = pf_alloc(n_seqs, sizeof(long long));
    MergeSlot *heap = pf_alloc(n_seqs, sizeof(MergeSlot));
    if (!views || !proc_refs || !cluster_refs || !proc_cluster
            || !rung_lines || !sums || !seqs || !lens || !pos || !heap
            || !(hist = pf_alloc(1, sizeof(Hist))))
        goto done;

    for (Py_ssize_t p = 0; p < n_procs; p++) {
        long long id;
        if (get_ll_item(procs, p, &id) < 0)
            goto done;
        /* ``proc // procs_per_cluster`` names a cluster, or the process
         * is profiled on its own only */
        proc_cluster[p] = id >= 0 && id / ppc < clusters
            ? (int)(id / ppc) : -1;
    }
    for (Py_ssize_t r = 0; r < n_rungs; r++)
        if (get_ll_item(tracked, r, &rung_lines[r]) < 0)
            goto done;

    /* The walk: every tape error surfaces here, in stream order. */
    for (Py_ssize_t p = 0; p < n_procs; p++) {
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(streams, p), &views[p],
                               PyBUF_SIMPLE) < 0)
            goto done;
        n_views++;
        if (views[p].len % 8) {
            PyErr_SetString(PyExc_ValueError,
                            "packed streams are arrays of 64-bit words");
            goto done;
        }
        if (pf_walk((const long long *)views[p].buf, views[p].len / 8,
                    (unsigned)p, line_shift, ilines, iline_size, &table,
                    &proc_refs[p], &row_refs,
                    sums + p * PF_SUMMARY) < 0)
            goto done;
    }
    for (Py_ssize_t r = 0; r < n_rungs; r++) {
        if (rung_lines[r] < 1 || rung_lines[r] & (rung_lines[r] - 1)) {
            PyErr_SetString(PyExc_ValueError,
                            "tracked line counts must be powers of two");
            goto done;
        }
        if (r && rung_lines[r] < rung_lines[r - 1]) {
            PyErr_SetString(PyExc_ValueError,
                            "tracked line counts must be ascending");
            goto done;
        }
    }

    /* Per-cluster merged streams (what each shared cache sees), then
     * the global one (what the bus sees). */
    for (int cluster = 0; cluster < n_clusters; cluster++) {
        int k = 0;
        long long total = 0;
        for (Py_ssize_t p = 0; p < n_procs; p++) {
            if (proc_cluster[p] != cluster)
                continue;
            seqs[k] = proc_refs[p].refs;
            lens[k++] = proc_refs[p].n;
            total += proc_refs[p].n;
        }
        RefVec *merged = &cluster_refs[cluster];
        if (!(merged->refs = pf_alloc((size_t)total, sizeof(Ref))))
            goto done;
        merged->n = pf_merge(seqs, lens, k, heap, pos, merged->refs);
        global_n += merged->n;
        if (merged->n > longest)
            longest = merged->n;
    }
    for (int cluster = 0; cluster < n_clusters; cluster++) {
        seqs[cluster] = cluster_refs[cluster].refs;
        lens[cluster] = cluster_refs[cluster].n;
    }
    if (!(global = pf_alloc((size_t)global_n, sizeof(Ref))))
        goto done;
    pf_merge(seqs, lens, n_clusters, heap, pos, global);

    if (!(last = pf_alloc(table.count, sizeof(int)))
            || !(tree = pf_alloc((size_t)longest + 1, sizeof(int))))
        goto done;
    memset(last, 0xff, table.count * sizeof(int));

    if (!(summaries = PyList_New(n_procs))
            || !(cluster_hists = PyList_New(n_clusters)))
        goto done;
    for (Py_ssize_t p = 0; p < n_procs; p++) {
        const long long *s = sums + p * PF_SUMMARY;
        PyObject *summary = Py_BuildValue(
            "(LLLLLLLL)", s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]);
        if (!summary)
            goto done;
        PyList_SET_ITEM(summaries, p, summary);
    }
    for (int cluster = 0; cluster < n_clusters; cluster++) {
        pf_histogram(cluster_refs[cluster].refs, cluster_refs[cluster].n,
                     last, tree, hist);
        PyObject *object = pf_histogram_object(hist);
        if (!object)
            goto done;
        PyList_SET_ITEM(cluster_hists, cluster, object);
    }
    if (!(ladder = pf_ladder(global, global_n, proc_cluster, (int)n_procs,
                             n_clusters, rung_lines, (int)n_rungs))
            || !(exposure = pf_sharing(global, global_n, table.count,
                                       proc_cluster, n_clusters)))
        goto done;
    result = PyTuple_Pack(4, summaries, cluster_hists, ladder, exposure);

done:
    Py_XDECREF(summaries);
    Py_XDECREF(cluster_hists);
    Py_XDECREF(ladder);
    Py_XDECREF(exposure);
    for (Py_ssize_t p = 0; p < n_views; p++)
        PyBuffer_Release(&views[p]);
    for (Py_ssize_t p = 0; proc_refs && p < n_procs; p++)
        free(proc_refs[p].refs);
    for (int cluster = 0; cluster_refs && cluster < n_clusters; cluster++)
        free(cluster_refs[cluster].refs);
    free(views);
    free(proc_refs);
    free(cluster_refs);
    free(proc_cluster);
    free(rung_lines);
    free(sums);
    free(seqs);
    free(lens);
    free(pos);
    free(heap);
    free(hist);
    free(global);
    free(last);
    free(tree);
    free(table.slots);
    return result;
}

/* ==================================================================== */
/* SPEC streams (repro.workloads.spec)                                  */
/* ==================================================================== */

/* A multiprogramming quantum is one ``SpecApp``'s next ``n``
 * instructions, packed.  ``spec_burst`` writes them straight onto the
 * end of an ``array('q')``, draw for draw what ``burst_packed`` in
 * tests/oracles/spec.py appends (the reference tests/workloads/test_spec.py
 * compares this against).  The randomness
 * stays numpy's: the application's current uniform batch is read in
 * place, and when its 2,048 draws run out C calls the application's
 * ``_refill``, which returns the next batch -- lazily, before the draw
 * that needs it, as ``_draw`` does.
 *
 * The layout stays in python: the profile's fractions and the segment
 * bases and sizes come in as numbers, the cursors as a tuple, the
 * recently-used hot lines as the application's ``array('q')`` of 48.
 * Every input is checked before a word is written, each uniform of a
 * batch included (a draw indexes the recent lines), so a bad one raises
 * ValueError or TypeError; a refill that fails mid-quantum trims the
 * words this call appended and writes no state back.  On success the
 * recent lines are written back in place and the new cursors returned.
 */

#define SB_BATCH 2048           /* spec._BATCH */
#define SB_RECENT 48            /* len(SpecApp._recent) */
#define SB_BLOCK 8              /* spec._BASIC_BLOCK: instructions */
#define SB_BLOCK_BYTES (SB_BLOCK * 4)
#define SB_REFS_MAX 64.0        /* refs_per_instruction accepted */
#define SB_LIMIT (1LL << 60)    /* bases, sizes and cursors below this */

enum { SB_STACK, SB_SCAN, SB_WRITE, SB_LOCALITY, SB_REFS, SB_FRACTIONS };
enum {
    SG_CODE_BASE, SG_CODE, SG_STACK_BASE, SG_STACK, SG_HEAP_BASE, SG_HOT,
    SG_SCAN_BASE, SG_SCAN, SG_FIELDS
};
enum {
    SC_CODE, SC_LOOP_REMAINING, SC_LOOP_START, SC_LOOP_LENGTH, SC_SCAN,
    SC_FIELDS
};

typedef struct {
    PyObject *refill;
    PyObject *batch;            /* owned; ``view`` is on it */
    Py_buffer view;
    const double *u;
    Py_ssize_t index;
    int failed;
} SbDraws;

static const double sb_no_draws[SB_BATCH];

/* Take ``obj`` as the current batch: 2,048 float64 uniforms in [0, 1). */
static int
sb_take(SbDraws *d, PyObject *obj)
{
    Py_buffer view;
    if (PyObject_GetBuffer(obj, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT)
            < 0)
        return -1;
    size_t len = strlen(view.format);
    if (view.itemsize != 8 || len == 0 || view.format[len - 1] != 'd'
            || view.len != SB_BATCH * 8) {
        PyErr_Format(PyExc_ValueError,
                     "a uniform batch is %d float64 values", SB_BATCH);
        PyBuffer_Release(&view);
        return -1;
    }
    const double *u = view.buf;
    for (Py_ssize_t i = 0; i < SB_BATCH; i++)
        if (!(u[i] >= 0.0 && u[i] < 1.0)) {
            PyErr_Format(PyExc_ValueError,
                         "uniform %zd of the batch is outside [0, 1)", i);
            PyBuffer_Release(&view);
            return -1;
        }
    if (d->batch) {
        PyBuffer_Release(&d->view);
        Py_DECREF(d->batch);
    }
    Py_INCREF(obj);
    d->batch = obj;
    d->view = view;
    d->u = u;
    return 0;
}

/* The batch ran out: ``refill()``'s.  A failure leaves the error set and
 * draws zeros until the caller sees ``failed`` at the end of the block. */
static void
sb_refill(SbDraws *d)
{
    d->index = 0;
    if (d->failed)
        return;
    PyObject *batch = PyObject_CallNoArgs(d->refill);
    if (!batch || sb_take(d, batch) < 0) {
        d->failed = 1;
        d->u = sb_no_draws;
    }
    Py_XDECREF(batch);
}

static inline double
sb_draw(SbDraws *d)
{
    if (d->index >= SB_BATCH)
        sb_refill(d);
    return d->u[d->index++];
}

/* ``int(u * n)`` for a draw ``u`` in [0, 1) and 0 <= n < 2**60. */
static inline long long
sb_scaled(SbDraws *d, long long n)
{
    return (long long)(sb_draw(d) * (double)n);
}

/* Most words a quantum of ``n`` instructions can write: per block its
 * fetch and at most ``int(refs * block) + 1`` two-word references. */
static long long
sb_bound(long long n, double refs)
{
    long long full = n / SB_BLOCK, tail = n % SB_BLOCK;
    long long per_block = 3 + 2 * ((long long)(refs * SB_BLOCK) + 1);
    if (full > (PY_SSIZE_T_MAX / 8 - per_block) / per_block)
        return -1;
    return full * per_block
           + (tail ? 3 + 2 * ((long long)(refs * (double)tail) + 1) : 0);
}

/* spec_burst(out, n, fractions, segments, cursors, recent, recent_fill,
 *            batch, index, refill)
 *
 * ``fractions``: ``(stack, scan, write, locality, refs_per_instruction)``;
 * ``segments``: ``(code_base, code_bytes, stack_base, stack_bytes,
 * heap_base, hot_bytes, scan_base, scan_bytes)``; ``cursors``:
 * ``(code, loop_remaining, loop_start, loop_length, scan)``; ``recent``:
 * ``array('q')`` of 48 hot-set offsets, the first ``recent_fill`` of them
 * in use; ``batch``/``index``: the current uniforms and the next one's
 * index (2,048: exhausted).  Appends the quantum to ``out`` and returns
 * ``(*cursors, recent_fill, index)`` as they end. */
static PyObject *
native_spec_burst(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *out, *fractions, *segments, *cursors, *recent_obj, *batch;
    PyObject *refill;
    Py_ssize_t n, index;
    long long fill;
    if (!PyArg_ParseTuple(args, "OnO!O!O!OLOnO", &out, &n, &PyTuple_Type,
                          &fractions, &PyTuple_Type, &segments,
                          &PyTuple_Type, &cursors, &recent_obj, &fill,
                          &batch, &index, &refill))
        return NULL;

    PyObject *result = NULL, *array_mod = NULL, *array_type = NULL;
    PyObject *typecode = NULL, *tail = NULL;
    Py_buffer recent_view, out_view;
    int have_recent = 0, have_out = 0;
    Py_ssize_t start = -1, bound = 0, written = 0;
    SbDraws d = {refill, NULL, {0}, NULL, index, 0};
    double f[SB_FRACTIONS];
    long long seg[SG_FIELDS], cur[SC_FIELDS], recent[SB_RECENT];

    if (!(array_mod = PyImport_ImportModule("array"))
            || !(array_type = PyObject_GetAttrString(array_mod, "array")))
        goto done;
    if (Py_TYPE(out) != (PyTypeObject *)array_type
            || !(typecode = PyObject_GetAttrString(out, "typecode"))
            || PyUnicode_CompareWithASCIIString(typecode, "q") != 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "a SPEC quantum is written into an array('q')");
        goto done;
    }
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "a quantum is a non-negative instruction count");
        goto done;
    }
    if (PyTuple_GET_SIZE(fractions) != SB_FRACTIONS
            || PyTuple_GET_SIZE(segments) != SG_FIELDS
            || PyTuple_GET_SIZE(cursors) != SC_FIELDS) {
        PyErr_Format(PyExc_ValueError,
                     "need %d fractions, %d segment numbers and %d "
                     "cursors", SB_FRACTIONS, SG_FIELDS, SC_FIELDS);
        goto done;
    }
    for (int k = 0; k < SB_FRACTIONS; k++) {
        f[k] = PyFloat_AsDouble(PyTuple_GET_ITEM(fractions, k));
        if (f[k] == -1.0 && PyErr_Occurred())
            goto done;
    }
    if (!(f[SB_REFS] >= 0.0 && f[SB_REFS] <= SB_REFS_MAX)) {
        PyErr_Format(PyExc_ValueError,
                     "refs_per_instruction must lie in [0, %d]",
                     (int)SB_REFS_MAX);
        goto done;
    }
    for (int k = 0; k < SG_FIELDS; k++) {
        if (get_ll_item(segments, k, &seg[k]) < 0)
            goto done;
        /* odd slots are sizes, even ones bases */
        if (seg[k] < (k & 1) || seg[k] >= SB_LIMIT) {
            PyErr_SetString(PyExc_ValueError,
                            "a segment base must lie in [0, 2**60) and its "
                            "size in [1, 2**60)");
            goto done;
        }
    }
    for (int k = 0; k < SC_FIELDS; k++) {
        if (get_ll_item(cursors, k, &cur[k]) < 0)
            goto done;
        if (cur[k] < 0 || cur[k] >= SB_LIMIT) {
            PyErr_SetString(PyExc_ValueError,
                            "a stream cursor must lie in [0, 2**60)");
            goto done;
        }
    }
    if (PyObject_GetBuffer(recent_obj, &recent_view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                           | PyBUF_WRITABLE) < 0)
        goto done;
    have_recent = 1;
    size_t flen = strlen(recent_view.format);
    if (recent_view.itemsize != 8 || flen == 0
            || !strchr("lq", recent_view.format[flen - 1])
            || recent_view.len != SB_RECENT * 8) {
        PyErr_Format(PyExc_ValueError,
                     "the recent hot lines are %d int64 offsets", SB_RECENT);
        goto done;
    }
    memcpy(recent, recent_view.buf, sizeof recent);
    for (int k = 0; k < SB_RECENT; k++)
        if (recent[k] < 0 || recent[k] >= SB_LIMIT) {
            PyErr_SetString(PyExc_ValueError,
                            "a recent hot-line offset must lie in "
                            "[0, 2**60)");
            goto done;
        }
    if (fill < 0 || fill > SB_RECENT) {
        PyErr_Format(PyExc_ValueError,
                     "recent_fill %lld is outside [0, %d]", fill, SB_RECENT);
        goto done;
    }
    if (index < 0 || index > SB_BATCH) {
        PyErr_Format(PyExc_ValueError,
                     "uniform index %zd is outside [0, %d]", index,
                     SB_BATCH);
        goto done;
    }
    if (!PyCallable_Check(refill)) {
        PyErr_SetString(PyExc_TypeError, "refill must be callable");
        goto done;
    }
    if (sb_take(&d, batch) < 0)
        goto done;
    if ((bound = sb_bound(n, f[SB_REFS])) < 0) {
        PyErr_NoMemory();
        goto done;
    }

    /* Room for the most the quantum can write, trimmed after. */
    if ((start = PySequence_Size(out)) < 0)
        goto done;
    if (bound > PY_SSIZE_T_MAX / 8 - start) {
        start = -1;
        PyErr_NoMemory();
        goto done;
    }
    PyObject *zero = PyObject_CallFunction(array_type, "s(i)", "q", 0);
    if (!zero) {
        start = -1;
        goto done;
    }
    tail = PySequence_Repeat(zero, bound);
    Py_DECREF(zero);
    PyObject *grown = tail ? PySequence_InPlaceConcat(out, tail) : NULL;
    if (!grown) {
        start = -1;
        goto done;
    }
    Py_DECREF(grown);
    if (PyObject_GetBuffer(out, &out_view, PyBUF_WRITABLE) < 0)
        goto done;
    have_out = 1;

    const double stack_fraction = f[SB_STACK];
    const double scan_cut = f[SB_STACK] + f[SB_SCAN];
    const double write_fraction = f[SB_WRITE];
    const double locality = f[SB_LOCALITY];
    const double refs = f[SB_REFS];
    long long *words = (long long *)out_view.buf + start, *at = words;
    for (Py_ssize_t remaining = n; remaining > 0 && !d.failed;) {
        long long block = remaining < SB_BLOCK ? remaining : SB_BLOCK;
        /* _next_code_addr: walk the loop body, or branch to a new one */
        if (cur[SC_LOOP_REMAINING] > 0) {
            cur[SC_CODE] += SB_BLOCK_BYTES;
            if (cur[SC_CODE] >= cur[SC_LOOP_START] + cur[SC_LOOP_LENGTH]) {
                cur[SC_CODE] = cur[SC_LOOP_START];
                cur[SC_LOOP_REMAINING] -= 1;
            }
        } else {
            cur[SC_LOOP_START] = sb_scaled(&d, seg[SG_CODE])
                                 / SB_BLOCK_BYTES * SB_BLOCK_BYTES;
            cur[SC_LOOP_LENGTH] = SB_BLOCK_BYTES * (2 + sb_scaled(&d, 14));
            cur[SC_LOOP_REMAINING] = 2 + sb_scaled(&d, 30);
            cur[SC_CODE] = cur[SC_LOOP_START];
        }
        *at++ = OP_IFETCH;
        *at++ = seg[SG_CODE_BASE] + cur[SC_CODE] % seg[SG_CODE];
        *at++ = block;
        remaining -= block;
        double expected = refs * (double)block;
        long long count = (long long)expected;
        if (sb_draw(&d) < expected - (double)count)
            count += 1;
        for (long long r = 0; r < count; r++) {
            double where = sb_draw(&d);
            long long addr;
            if (where < stack_fraction) {
                addr = seg[SG_STACK_BASE]
                       + (sb_scaled(&d, seg[SG_STACK]) & ~7LL);
            } else if (where < scan_cut) {
                addr = seg[SG_SCAN_BASE] + cur[SC_SCAN];
                cur[SC_SCAN] = (cur[SC_SCAN] + 16) % seg[SG_SCAN];
            } else {
                /* _hot_addr: a recent line, or a new one made recent */
                long long offset;
                if (sb_draw(&d) < locality) {
                    offset = recent[sb_scaled(&d, fill)];
                } else {
                    offset = sb_scaled(&d, seg[SG_HOT]) & ~15LL;
                    if (fill < SB_RECENT)
                        recent[fill++] = offset;
                    else
                        recent[sb_scaled(&d, SB_RECENT)] = offset;
                }
                /* the word of the line: the draws' parity, after them */
                addr = seg[SG_HEAP_BASE] + offset + (d.index % 2) * 8;
            }
            *at++ = sb_draw(&d) < write_fraction ? OP_WRITE : OP_READ;
            *at++ = addr;
        }
    }
    written = at - words;
    if (d.failed)
        goto done;
    memcpy(recent_view.buf, recent, sizeof recent);
    result = Py_BuildValue("(LLLLLLn)", cur[SC_CODE],
                           cur[SC_LOOP_REMAINING], cur[SC_LOOP_START],
                           cur[SC_LOOP_LENGTH], cur[SC_SCAN], fill, d.index);

done:
    if (have_out)
        PyBuffer_Release(&out_view);
    if (have_recent)
        PyBuffer_Release(&recent_view);
    if (start >= 0) {
        /* keep what was written -- all of it, or on failure none */
        Py_ssize_t keep = start + (result ? written : 0);
        PyObject *type, *value, *trace;
        PyErr_Fetch(&type, &value, &trace);
        if (PySequence_DelSlice(out, keep, start + bound) < 0)
            Py_CLEAR(result);
        else
            PyErr_Restore(type, value, trace);
    }
    if (d.batch) {
        PyBuffer_Release(&d.view);
        Py_DECREF(d.batch);
    }
    Py_XDECREF(tail);
    Py_XDECREF(typecode);
    Py_XDECREF(array_type);
    Py_XDECREF(array_mod);
    return result;
}

/* ==================================================================== */
/* MP3D processes (repro.workloads.mp3d)                                */
/* ==================================================================== */

/* An MP3D stream is race-dependent throughout: a cell's partner slot and
 * a collision partner's velocity are read and written by every processor,
 * so what a process emits next depends on what the others did first, and
 * none of it can be written ahead or remembered.  C can run the processes
 * instead.  ``mp3d_processes`` makes one iterator per processor over a run
 * state they share: the particles' positions and velocities (float64,
 * three per particle) and the cells' partner slots (int64), read and
 * written in place in the caller's buffers, the pre-drawn collision
 * uniforms (float64, one per step and particle) and the region bases.
 *
 * An iterator is ``MP3DRun.process`` of tests/oracles/mp3d.py, resume for
 * resume -- the reference tests/workloads/test_mp3d.py holds this to, event
 * for event.  Its chunks end where that generator's do --
 * after the move compute, after the partner-slot read, after the collide
 * compute, after the collide writes, the trailing partner-slot write
 * carried into the next particle's first chunk -- and each step does what
 * the python resume does there: ``_advance``, ``_in_wedge``,
 * ``cell_index_of`` and ``_collide`` (both new velocities from the old
 * ones) in the same IEEE operations, in the same order; the build asks for
 * ``-ffp-contract=off``, so no ``a * b + c`` becomes a fused multiply-add.
 * One liberty: a step's tail -- the last partner-slot write, barrier 0,
 * processor 0's locked bookkeeping, barrier 1 -- is one chunk here and up
 * to eight yields there; no state moves between them.
 *
 * An iterator is a C process (the "processes" section) of the MP3D kind:
 * driven through ``next()`` / ``send()`` -- the reference loop, a
 * ``StreamRecorder``, ``PyIter_Send`` -- it yields each chunk as
 * ``chunk_type(array('q'))``, and ``run`` steps it itself and reads the
 * chunk where it was written.  Every input is checked before a process
 * exists, and the physics keeps what it was given in range (positions in
 * the tunnel, velocities finite).
 */

#define M3_PARTICLE 48          /* _PARTICLE_RECORD: pos @0, vel @24 */
#define M3_VEL 24
#define M3_CELL 32              /* _CELL_RECORD: accumulators, partner @24 */
#define M3_PARTNER 24
#define M3_TABLE 2048           /* _TABLE_SIZE */
#define M3_MOVE 60              /* _MOVE_COMPUTE */
#define M3_COLLIDE 60           /* _COLLIDE_COMPUTE */
#define M3_ACCUM 15             /* _ACCUM_COMPUTE */
#define M3_BOOKKEEPING 20
#define M3_LOCK 0               /* _GLOBAL_LOCK */
#define M3_WORDS 24             /* the longest chunk: a step's tail */
#define M3_COUNT_MAX (1LL << 32)        /* particles, steps */
#define M3_DIM_MAX (1LL << 20)          /* cells along one axis */
#define M3_PROCS_MAX (1LL << 16)
#define M3_SPEED_MAX 1024.0     /* |velocity| accepted: walls reflect a
                                   particle back within |v| / 2 folds */
#define M3_LIMIT (1LL << 60)    /* region bases below this */

enum { M3_POS, M3_VELS, M3_PARTNERS, M3_DRAWS, M3_VIEWS };

/* What a run's processes share; its capsule is theirs. */
typedef struct {
    RunHead head;
    Py_buffer views[M3_VIEWS];
    double *pos, *vel;          /* [particle * 3 + axis] */
    long long *partner;         /* [cell]: the last particle seen, or -1 */
    const double *draws;        /* [step * n + particle] */
    long long n, steps, nx, ny, nz, n_procs;
    double p_col;
    long long pbase, cbase, gbase, tbase;
} M3Run;

/* Where a process stands: what its next step does. */
enum { M3_STEP, M3_ADVANCE, M3_PAIR, M3_COLLIDE_NOW, M3_SETTLE };

typedef struct {
    PROCESS_HEAD
    long long step, particle, cell, partner;
    long long carry;            /* the last particle's partner slot, to be
                                   written first; -1: none */
    int phase;
} M3Process;

static void
m3_free(void *run)
{
    M3Run *r = run;
    for (int k = 0; k < M3_VIEWS; k++)
        PyBuffer_Release(&r->views[k]);
    PyMem_Free(r);
}

/* ``_in_wedge``: a ramp in the middle of the tunnel floor. */
static inline int
m3_in_wedge(const double *pos)
{
    return 0.45 <= pos[0] && pos[0] <= 0.75 && pos[1] <= (pos[0] - 0.45) * 1.2;
}

/* ``_advance``: a ballistic move, reflecting walls in y and z (as often as
 * it takes: a speed above 1 carries a particle past the far wall too),
 * re-entry in x, and the wedge. */
static void
m3_advance(M3Run *r, long long particle)
{
    double *pos = r->pos + 3 * particle, *vel = r->vel + 3 * particle;
    pos[0] += vel[0];
    pos[1] += vel[1];
    pos[2] += vel[2];
    for (int axis = 1; axis < 3; axis++) {
        for (;;) {
            if (pos[axis] < 0.0) {
                pos[axis] = -pos[axis];
                vel[axis] = -vel[axis];
            }
            else if (pos[axis] > 1.0) {
                pos[axis] = 2.0 - pos[axis];
                vel[axis] = -vel[axis];
            }
            else {
                break;
            }
        }
    }
    while (pos[0] > 1.0)
        pos[0] -= 1.0;
    while (pos[0] < 0.0)
        pos[0] += 1.0;
    if (m3_in_wedge(pos)) {
        vel[0] = -fabs(vel[0]) * 0.8;
        vel[1] = fabs(vel[1]) + 0.02;
    }
}

/* ``min(int(x * n), n - 1)`` for a coordinate the walls keep in [0, 1];
 * anything else is clamped into the grid, never cast out of range. */
static inline long long
m3_coordinate(double x, long long n)
{
    double scaled = x * (double)n;
    if (!(scaled >= 0.0))
        return 0;
    if (scaled >= (double)(n - 1))
        return n - 1;
    return (long long)scaled;
}

/* ``cell_index_of`` */
static long long
m3_cell(const M3Run *r, long long particle)
{
    const double *pos = r->pos + 3 * particle;
    return (m3_coordinate(pos[0], r->nx) * r->ny
            + m3_coordinate(pos[1], r->ny)) * r->nz
           + m3_coordinate(pos[2], r->nz);
}

/* ``_collide``: both new velocities from the old ones. */
static void
m3_collide(M3Run *r, long long particle, long long partner)
{
    double *v1 = r->vel + 3 * particle, *v2 = r->vel + 3 * partner;
    for (int k = 0; k < 3; k++) {
        double a = v1[k], b = v2[k];
        v1[k] = 0.5 * (a + b) + 0.5 * (b - a);
        v2[k] = 0.5 * (a + b) + 0.5 * (a - b);
    }
}

/* ``words`` (``size`` bytes of them) after the first ``n`` of ``w``; the
 * new count. */
static inline int
m3_put(long long *w, int n, const long long *words, size_t size)
{
    memcpy(w + n, words, size);
    return n + (int)(size / sizeof *words);
}

/* The particle's first chunk -- load it, look the cross-section table up,
 * charge the move -- behind the partner-slot write the last one carried;
 * past the processor's last particle, the step's tail instead. */
static int
m3_begin(M3Process *p)
{
    const M3Run *r = p->run;
    long long *w = p->words;
    int n = 0;
    if (p->carry >= 0) {
        w[n++] = OP_WRITE;
        w[n++] = p->carry;
    }
    if (p->particle < r->n) {
        long long paddr = r->pbase + p->particle * M3_PARTICLE;
        long long slot = (p->particle * 37 + p->step * 11) % (M3_TABLE / 8);
        const long long load[] = {
            OP_READ_SPAN, paddr, M3_PARTICLE, 8,
            OP_READ, r->tbase + slot * 8,
            OP_READ, r->tbase + (slot * 8 + 256) % M3_TABLE,
            OP_COMPUTE, M3_MOVE,
        };
        p->phase = M3_ADVANCE;
        return m3_put(w, n, load, sizeof load);
    }
    const long long arrive[] = {OP_BARRIER, 0, r->n_procs};
    const long long bookkeeping[] = {
        OP_LOCK_ACQ, M3_LOCK, OP_READ, r->gbase, OP_COMPUTE, M3_BOOKKEEPING,
        OP_WRITE, r->gbase, OP_LOCK_REL, M3_LOCK,
    };
    const long long leave[] = {OP_BARRIER, 1, r->n_procs};
    n = m3_put(w, n, arrive, sizeof arrive);
    if (p->proc == 0)
        n = m3_put(w, n, bookkeeping, sizeof bookkeeping);
    p->step++;
    p->phase = M3_STEP;
    return m3_put(w, n, leave, sizeof leave);
}

/* The cell remembers the particle, whose slot write the next chunk
 * carries, and the next particle begins. */
static int
m3_settle(M3Process *p)
{
    M3Run *r = p->run;
    r->partner[p->cell] = p->particle;
    p->carry = r->cbase + p->cell * M3_CELL + M3_PARTNER;
    p->particle += r->n_procs;
    return m3_begin(p);
}

/* One resume of ``MP3DRun.process``: the MP3D kind's step. */
static long long
m3_step(PyObject *self)
{
    M3Process *p = (M3Process *)self;
    M3Run *r = p->run;
    long long *w = p->words;
    long long paddr = r->pbase + p->particle * M3_PARTICLE;
    int n;
    switch (p->phase) {
    case M3_STEP:
        if (p->step >= r->steps)
            return 0;
        p->particle = p->proc;
        p->carry = -1;
        n = m3_begin(p);
        break;
    case M3_ADVANCE: {
        /* write the moved position, update the space cell's accumulators,
         * read its partner slot */
        m3_advance(r, p->particle);
        p->cell = m3_cell(r, p->particle);
        long long caddr = r->cbase + p->cell * M3_CELL;
        const long long update[] = {
            OP_WRITE_SPAN, paddr, 24, 8,
            OP_READ_SPAN, caddr, 24, 8,
            OP_COMPUTE, M3_ACCUM,
            OP_WRITE_SPAN, caddr, 24, 8,
            OP_READ, caddr + M3_PARTNER,
        };
        n = m3_put(w, 0, update, sizeof update);
        p->phase = M3_PAIR;
        break;
    }
    case M3_PAIR: {
        /* pair with the last particle that visited the cell, whoever
         * owns it */
        long long partner = r->partner[p->cell];
        if (partner < -1 || partner >= r->n) {
            PyErr_Format(PyExc_ValueError, "cell %lld names particle %lld "
                         "of %lld", p->cell, partner, r->n);
            return -1;
        }
        if (partner < 0 || partner == p->particle
                || !(r->draws[p->step * r->n + p->particle] < r->p_col)) {
            n = m3_settle(p);
            break;
        }
        p->partner = partner;
        const long long load[] = {
            OP_READ_SPAN, r->pbase + partner * M3_PARTICLE + M3_VEL, 24, 8,
            OP_COMPUTE, M3_COLLIDE,
        };
        n = m3_put(w, 0, load, sizeof load);
        p->phase = M3_COLLIDE_NOW;
        break;
    }
    case M3_COLLIDE_NOW: {
        m3_collide(r, p->particle, p->partner);
        long long vaddr = r->pbase + p->partner * M3_PARTICLE + M3_VEL;
        long long mine = paddr + M3_VEL;
        const long long store[] = {
            OP_WRITE, vaddr, OP_WRITE, mine,
            OP_WRITE, vaddr + 8, OP_WRITE, mine + 8,
            OP_WRITE, vaddr + 16, OP_WRITE, mine + 16,
        };
        n = m3_put(w, 0, store, sizeof store);
        p->phase = M3_SETTLE;
        break;
    }
    default:    /* M3_SETTLE */
        n = m3_settle(p);
        break;
    }
    return n;
}

static const ProcKind M3_KIND = {
    KIND_MP3D, "repro.trace.engine._native.Mp3dProcess", sizeof(M3Process),
    M3_WORDS, m3_step, m3_free,
};

/* mp3d_processes(pos, vel, cell_partner, draws, steps, grid, n_procs,
 *                collision_probability, bases, chunk_type)
 *
 * ``pos``/``vel``: writable float64, three per particle; ``cell_partner``:
 * writable int64, one per cell of the ``(nx, ny, nz)`` grid; ``draws``:
 * float64, ``steps`` rows of one per particle; ``bases``: the particles',
 * space cells', globals' and cross-section table's; ``chunk_type``: what
 * ``next()`` wraps a chunk's ``array('q')`` in.  Returns a list of one
 * process per processor. */
static PyObject *
native_mp3d_processes(PyObject *module, PyObject *args)
{
    PyObject *objs[M3_VIEWS], *grid, *bases, *chunk_type;
    long long steps, n_procs, dims[3];
    double p_col;
    if (!PyArg_ParseTuple(args, "OOOOLO!LdO!O", &objs[M3_POS],
                          &objs[M3_VELS], &objs[M3_PARTNERS],
                          &objs[M3_DRAWS], &steps, &PyTuple_Type, &grid,
                          &n_procs, &p_col, &PyTuple_Type, &bases,
                          &chunk_type))
        return NULL;
    const int floats[M3_VIEWS] = {1, 1, 0, 1};
    const int writable[M3_VIEWS] = {1, 1, 1, 0};
    const char *names[M3_VIEWS] = {"positions", "velocities",
                                   "cell partners", "collision draws"};

    M3Run *r = PyMem_Calloc(1, sizeof(M3Run));
    if (!r)
        return PyErr_NoMemory();
    Py_ssize_t lens[M3_VIEWS];
    for (int k = 0; k < M3_VIEWS; k++)
        if ((lens[k] = typed_view(objs[k], &r->views[k], 8, floats[k],
                                  writable[k], names[k])) < 0)
            goto fail;
    r->pos = r->views[M3_POS].buf;
    r->vel = r->views[M3_VELS].buf;
    r->partner = r->views[M3_PARTNERS].buf;
    r->draws = r->views[M3_DRAWS].buf;
    r->n = lens[M3_POS] / 3;
    if (lens[M3_POS] % 3 || r->n < 1 || r->n > M3_COUNT_MAX
            || lens[M3_VELS] != lens[M3_POS]) {
        PyErr_SetString(PyExc_ValueError, "positions and velocities must "
                        "be three floats for each of the same particles");
        goto fail;
    }
    if (steps < 1 || steps > M3_COUNT_MAX || lens[M3_DRAWS] % r->n
            || lens[M3_DRAWS] / r->n != steps) {
        PyErr_SetString(PyExc_ValueError, "need one collision draw per step "
                        "and particle");
        goto fail;
    }
    if (PyTuple_GET_SIZE(grid) != 3 || PyTuple_GET_SIZE(bases) != 4) {
        PyErr_SetString(PyExc_ValueError,
                        "the grid is three sizes and the bases four");
        goto fail;
    }
    for (int k = 0; k < 3; k++) {
        if (get_ll_item(grid, k, &dims[k]) < 0)
            goto fail;
        if (dims[k] < 2 || dims[k] > M3_DIM_MAX) {
            PyErr_SetString(PyExc_ValueError, "grid dimensions must lie in "
                            "[2, 2**20]");
            goto fail;
        }
    }
    r->nx = dims[0];
    r->ny = dims[1];
    r->nz = dims[2];
    if (lens[M3_PARTNERS] != r->nx * r->ny * r->nz) {
        PyErr_Format(PyExc_ValueError, "a %lldx%lldx%lld grid has %lld "
                     "cell partners", r->nx, r->ny, r->nz,
                     r->nx * r->ny * r->nz);
        goto fail;
    }
    if (n_procs < 1 || n_procs > M3_PROCS_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "processors must number [1, 2**16]");
        goto fail;
    }
    if (!(p_col >= 0.0 && p_col <= 1.0)) {
        PyErr_SetString(PyExc_ValueError,
                        "collision_probability must lie in [0, 1]");
        goto fail;
    }
    long long *base[4] = {&r->pbase, &r->cbase, &r->gbase, &r->tbase};
    for (int k = 0; k < 4; k++) {
        if (get_ll_item(bases, k, base[k]) < 0)
            goto fail;
        if (*base[k] < 0 || *base[k] >= M3_LIMIT) {
            PyErr_SetString(PyExc_ValueError,
                            "region bases must lie in [0, 2**60)");
            goto fail;
        }
    }
    for (Py_ssize_t k = 0; k < lens[M3_POS]; k++) {
        if (!(r->pos[k] >= 0.0 && r->pos[k] <= 1.0)) {
            PyErr_Format(PyExc_ValueError, "particle %zd is outside the "
                         "tunnel", k / 3);
            goto fail;
        }
        if (!(fabs(r->vel[k]) <= M3_SPEED_MAX)) {
            PyErr_Format(PyExc_ValueError, "particle %zd's velocity must "
                         "be finite and at most %d along each axis", k / 3,
                         (int)M3_SPEED_MAX);
            goto fail;
        }
    }
    for (Py_ssize_t k = 0; k < lens[M3_PARTNERS]; k++)
        if (r->partner[k] < -1 || r->partner[k] >= r->n) {
            PyErr_Format(PyExc_ValueError, "cell %zd names particle %lld "
                         "of %lld", k, r->partner[k], r->n);
            goto fail;
        }
    if (!PyType_Check(chunk_type)) {
        PyErr_SetString(PyExc_TypeError, "chunk_type must be a class");
        goto fail;
    }
    r->steps = steps;
    r->n_procs = n_procs;
    r->p_col = p_col;
    return processes_new(module, &M3_KIND, &r->head, chunk_type, n_procs);

fail:
    m3_free(r);
    return NULL;
}

/* ==================================================================== */
/* Barnes-Hut processes (repro.workloads.barnes_hut)                    */
/* ==================================================================== */

/* A Barnes-Hut step builds an octree under per-cell lock races, sums it
 * level by level, deals the bodies out in tree order and walks the tree
 * once per body.  Which record a cell lands in, and which slot a bucket
 * gives a body, follow the interleaving, so no run's words can be written
 * ahead of it.  ``barnes_processes`` runs the processes in C instead: one
 * iterator per processor over a run state they share -- the bodies'
 * positions and velocities (float64, three per body) and their costs
 * (int64: the seeded interaction counts, then each force phase's), read
 * and written in place in the caller's buffers, their masses, theta, the
 * softening length, dt, the step count, the clusters and processors per
 * cluster the bodies are dealt to, and the region bases.  C owns the rest:
 * the octree (every record of the cell array: centre, half, depth, eight
 * child slots, centre of mass and mass), each processor's cell pool, the
 * levels, the partition and the accelerations.
 *
 * An iterator is ``BarnesHutRun.process`` of tests/oracles/barnes_hut.py,
 * resume for resume -- the reference tests/workloads/test_barnes_hut.py
 * holds this to, event for event.
 * Every chunk ends where that generator's does, so each touch of the tree
 * in the insert phase (the optimistic slot read, the re-read under the
 * cell's lock, a subcell's private write before it is published, a
 * bucket's free-slot scan) and each slot it mutates happen at the same
 * resume; so do processor 0's reset, level collection and partition, and
 * every other processor's read of its body count for the partition
 * compute -- which, as the generator's does, may come before processor 0
 * has dealt the step's bodies and charge the last deal.  The force phase
 * needs no plan: nothing it reads moves between barriers 4 and 5, so each
 * processor walks the tree for its own bodies (``_gravity``, in the same
 * IEEE operations and the same stack order; the build asks for
 * ``-ffp-contract=off``) and writes each visit's words about the record it
 * visits as it goes.
 *
 * An iterator is a C process (the "processes" section) of the Barnes-Hut
 * kind: driven through ``next()`` / ``send()`` it yields each chunk as
 * ``chunk_type(array('q'))``, and ``run`` steps it itself and reads the
 * chunk where it was written.  Every input is checked before a process
 * exists; a cost rewritten out of range mid-run is refused by the
 * partition that reads it.
 */

#define BH_BODY 96              /* _BODY_RECORD: pos @0, vel @32, acc @64 */
#define BH_VEL 32
#define BH_ACC 64
#define BH_CELL 112             /* _CELL_RECORD: com @0, children @48 */
#define BH_CHILDREN 48
#define BH_CELLS_PER_BODY 4     /* the cell array's records per body */
#define BH_INTERACTION 22       /* _INTERACTION_COMPUTE */
#define BH_OPEN_TEST 8          /* _OPEN_TEST_COMPUTE */
#define BH_LEAPFROG 16          /* _UPDATE_COMPUTE */
#define BH_INSERT 6             /* _INSERT_COMPUTE */
#define BH_PARTITION 40         /* _PARTITION_COMPUTE */
#define BH_LOCK_BASE 100        /* _CELL_LOCK_BASE */
#define BH_MAX_DEPTH 32         /* _MAX_DEPTH */
#define BH_VISIT 10             /* the most words one node visit writes */
#define BH_WORDS 64             /* a chunk's room to begin with (bh_room
                                   grows it) */
#define BH_BODIES_MAX (1LL << 24)
#define BH_COST_MAX (1LL << 28) /* so a deal's sums are exact doubles */
#define BH_STEPS_MAX (1LL << 32)
#define BH_PROCS_MAX (1LL << 16)
#define BH_LIMIT (1LL << 60)    /* the records end at or below this */

enum { BH_POS, BH_VELS, BH_MASSES, BH_COSTS, BH_VIEWS };

/* One record of the cell array.  A child slot holds 0 (empty), ``b + 1``
 * (body ``b``) or ``-(c + 1)`` (cell ``c``): a node, as the walks' stacks
 * hold them too. */
typedef struct {
    double centre[3], half, com[3], mass;
    long long depth;
    int children[8];
} BhCell;

/* What a run's processes share; its capsule is theirs. */
typedef struct {
    RunHead head;
    Py_buffer views[BH_VIEWS];
    double *pos, *vel;          /* [body * 3 + axis] */
    const double *mass;         /* [body] */
    long long *cost;            /* [body] */
    double *acc;                /* [body * 3 + axis] */
    long long n, steps, n_procs, clusters, per_cluster;
    double theta2, eps2, dt;
    long long bbase, cbase;
    BhCell *cells;              /* [index]: the cell array */
    long long n_cells, pool;    /* records, and records per processor */
    long long root;             /* -1 before processor 0's first reset */
    long long *pool_next;       /* [proc] */
    long long *assign, *first;  /* processor p's bodies are assign[first[p]
                                   : first[p + 1]], in the order dealt */
    long long *ordered;         /* the bodies in tree order */
    long long *levels, *level_first;    /* the cells of depth d are
                                   levels[level_first[d] : level_first[d + 1]] */
    long long n_levels;
    long long *stack;           /* a walk's: room for the root and every
                                   child slot of the cell array */
} BhRun;

/* Where a process stands: what its next resume does. */
enum {
    BH_STEP, BH_ROOT, BH_BARRIER1, BH_INSERT_BEGIN, BH_INSERT_BUCKET,
    BH_INSERT_SLOT, BH_INSERT_LOCKED, BH_INSERT_SPLIT, BH_BARRIER2,
    BH_COLLECT, BH_SUMMARIZE_BEGIN, BH_SUMMARIZE, BH_BARRIER7, BH_BARRIER4,
    BH_FORCE, BH_BARRIER5, BH_UPDATE, BH_BARRIER6, BH_ENDED,
};

typedef struct {
    PROCESS_HEAD
    long long step, depth;      /* depth: the level summed next */
    int phase;
    /* the insert phase: how many of its bodies the processor has taken,
     * the one descending, the cell it stands in, the slot it reads there
     * and what it found, and the subcell a split makes */
    long long taken, body, cell, octant, child, subcell;
} BhProcess;

static void
bh_free(void *run)
{
    BhRun *r = run;
    for (int k = 0; k < BH_VIEWS; k++)
        PyBuffer_Release(&r->views[k]);
    PyMem_Free(r->acc);
    PyMem_Free(r->cells);
    PyMem_Free(r->pool_next);
    PyMem_Free(r->assign);
    PyMem_Free(r->first);
    PyMem_Free(r->ordered);
    PyMem_Free(r->levels);
    PyMem_Free(r->level_first);
    PyMem_Free(r->stack);
    PyMem_Free(r);
}

static inline long long
bh_body_addr(const BhRun *r, long long body)
{
    return r->bbase + body * BH_BODY;
}

static inline long long
bh_cell_addr(const BhRun *r, long long cell)
{
    return r->cbase + cell * BH_CELL;
}

static inline long long
bh_slot_addr(const BhRun *r, long long cell, long long slot)
{
    return bh_cell_addr(r, cell) + BH_CHILDREN + slot * 8;
}

/* Room for ``more`` words after the first ``n`` of the process's chunk. */
static int
bh_room(BhProcess *p, long long n, long long more)
{
    if (n + more <= p->cap)
        return 0;
    long long cap = 2 * p->cap > n + more ? 2 * p->cap : n + more;
    long long *words = PyMem_Realloc(p->words, (size_t)cap * sizeof *words);
    if (!words) {
        PyErr_NoMemory();
        return -1;
    }
    p->words = words;
    p->cap = cap;
    return 0;
}

/* ``x ** 2`` as python computes it (libm's ``pow``, which a compiler
 * would fold into ``x * x``); -1 on error. */
static int
bh_square(double x, double *out)
{
    PyObject *base = PyFloat_FromDouble(x), *two = PyLong_FromLong(2);
    PyObject *power = base && two ? PyNumber_Power(base, two, Py_None) : NULL;
    Py_XDECREF(base);
    Py_XDECREF(two);
    if (!power)
        return -1;
    *out = PyFloat_AsDouble(power);
    Py_DECREF(power);
    return 0;
}

/* ``_new_cell``: the next record of ``proc``'s pool, empty. */
static long long
bh_new_cell(BhRun *r, long long proc, const double *centre, double half,
            long long depth)
{
    long long index = r->pool_next[proc];
    if (index >= (proc + 1) * r->pool) {
        PyErr_Format(PyExc_RuntimeError,
                     "cell pool of processor %lld exhausted", proc);
        return -1;
    }
    r->pool_next[proc] = index + 1;
    BhCell *c = &r->cells[index];
    double at[3] = {centre[0], centre[1], centre[2]};
    memset(c, 0, sizeof *c);
    memcpy(c->centre, at, sizeof at);
    c->half = half;
    c->depth = depth;
    return index;
}

/* ``slot_of``: the octant of ``pos`` -- or, in a bucket (a cell at the
 * depth bound), the first free slot, and the last one once full. */
static long long
bh_slot_of(const BhCell *c, const double *pos)
{
    long long slot = 0;
    if (c->depth < BH_MAX_DEPTH) {
        for (int axis = 0; axis < 3; axis++)
            if (pos[axis] >= c->centre[axis])
                slot |= 1 << axis;
        return slot;
    }
    while (slot < 7 && c->children[slot])
        slot++;
    return slot;
}

/* ``subcell_cube``: the cube a body in ``slot`` of ``c`` splits into (a
 * bucket overflows into another bucket on its own cube). */
static void
bh_subcell_cube(const BhCell *c, long long slot, double *centre,
                double *half)
{
    if (c->depth >= BH_MAX_DEPTH) {
        memcpy(centre, c->centre, sizeof c->centre);
        *half = c->half;
        return;
    }
    double quarter = c->half / 2.0;
    for (int axis = 0; axis < 3; axis++)
        centre[axis] = c->centre[axis]
                       + (slot & (1 << axis) ? quarter : -quarter);
    *half = c->half / 2.0;
}

/* ``_reset_tree``: the pools empty, and a root out of processor 0's over
 * every body (``_bounding_cube``: python's ``min`` and ``max``, the first
 * body first). */
static int
bh_reset_tree(BhRun *r)
{
    double low[3], high[3], centre[3];
    for (long long p = 0; p < r->n_procs; p++)
        r->pool_next[p] = p * r->pool;
    for (int axis = 0; axis < 3; axis++) {
        low[axis] = high[axis] = r->pos[axis];
        for (long long b = 1; b < r->n; b++) {
            double x = r->pos[3 * b + axis];
            if (x < low[axis])
                low[axis] = x;
            if (x > high[axis])
                high[axis] = x;
        }
        centre[axis] = (low[axis] + high[axis]) / 2.0;
    }
    double spread = high[0] - low[0];
    for (int axis = 1; axis < 3; axis++)
        if (high[axis] - low[axis] > spread)
            spread = high[axis] - low[axis];
    double half = spread / 2.0;
    long long root = bh_new_cell(r, 0, centre, half * 1.0001 + 1e-9, 0);
    if (root < 0)
        return -1;
    r->root = root;
    return 0;
}

/* ``_insert_phase`` from where the process stands to its next yield (1:
 * the chunk is ``*n`` words), or to its end (0: ``*n`` words of the last
 * body still to flush); -1 on error.  Every resume begins a chunk, which
 * never holds more than ten words. */
static int
bh_insert(BhProcess *p, long long *n)
{
    BhRun *r = p->run;
    long long *w = p->words, k = 0, lock, slot;
    double centre[3], half;
    BhCell *c;
    switch (p->phase) {
    case BH_INSERT_BUCKET:
        goto slot_of;
    case BH_INSERT_SLOT:
        goto slot_read;
    case BH_INSERT_LOCKED:
        goto locked;
    case BH_INSERT_SPLIT:
        goto publish;
    default:    /* BH_INSERT_BEGIN */
        p->taken = 0;
    }
body:
    if (r->first[p->proc] + p->taken == r->first[p->proc + 1]) {
        *n = k;
        return 0;
    }
    if (r->root < 0) {
        PyErr_SetString(PyExc_RuntimeError,
                        "no tree to insert into: processor 0 seeds it");
        return -1;
    }
    p->body = r->assign[r->first[p->proc] + p->taken++];
    w[k++] = OP_READ;
    w[k++] = bh_body_addr(r, p->body);
    p->cell = r->root;
descend:
    if (r->cells[p->cell].depth >= BH_MAX_DEPTH && k) {
        /* a bucket's slot depends on who got there first */
        p->phase = BH_INSERT_BUCKET;
        goto yield;
    }
slot_of:
    p->octant = bh_slot_of(&r->cells[p->cell], r->pos + 3 * p->body);
    w[k++] = OP_COMPUTE;
    w[k++] = BH_INSERT;
    w[k++] = OP_READ;
    w[k++] = bh_slot_addr(r, p->cell, p->octant);
    p->phase = BH_INSERT_SLOT;
    goto yield;
slot_read:
    p->child = r->cells[p->cell].children[p->octant];
    if (p->child < 0) {
        p->cell = -p->child - 1;
        goto descend;
    }
    /* the slot is empty or holds a body: mutate it under the cell lock */
    w[k++] = OP_LOCK_ACQ;
    w[k++] = BH_LOCK_BASE + p->cell;
    w[k++] = OP_READ;
    w[k++] = bh_slot_addr(r, p->cell, p->octant);
    p->phase = BH_INSERT_LOCKED;
    goto yield;
locked:
    c = &r->cells[p->cell];
    lock = BH_LOCK_BASE + p->cell;
    slot = bh_slot_addr(r, p->cell, p->octant);
    p->child = c->children[p->octant];
    if (p->child < 0) {
        /* raced: someone installed a subtree here meanwhile */
        w[k++] = OP_LOCK_REL;
        w[k++] = lock;
        p->cell = -p->child - 1;
        goto descend;
    }
    if (!p->child) {
        c->children[p->octant] = (int)(p->body + 1);
        w[k++] = OP_WRITE;
        w[k++] = slot;
        w[k++] = OP_LOCK_REL;
        w[k++] = lock;
        goto body;
    }
    /* the slot holds a body: split it into a subcell -- private until it
     * is published -- and resume the descent inside */
    bh_subcell_cube(c, p->octant, centre, &half);
    p->subcell = bh_new_cell(r, p->proc, centre, half, c->depth + 1);
    if (p->subcell < 0)
        return -1;
    c = &r->cells[p->subcell];
    slot = bh_slot_of(c, r->pos + 3 * (p->child - 1));
    c->children[slot] = (int)p->child;
    w[k++] = OP_READ;
    w[k++] = bh_body_addr(r, p->child - 1);
    w[k++] = OP_WRITE;
    w[k++] = bh_slot_addr(r, p->subcell, slot);
    p->phase = BH_INSERT_SPLIT;
    goto yield;
publish:
    r->cells[p->cell].children[p->octant] = (int)(-p->subcell - 1);
    w[k++] = OP_WRITE;
    w[k++] = bh_slot_addr(r, p->cell, p->octant);
    w[k++] = OP_LOCK_REL;
    w[k++] = BH_LOCK_BASE + p->cell;
    p->cell = p->subcell;
    goto descend;
yield:
    *n = k;
    return 1;
}

/* ``_collect_levels``: the cells by depth, each level in the order a
 * depth-first walk pops them (counted, then placed, by a second walk). */
static void
bh_collect_levels(BhRun *r)
{
    long long *stack = r->stack, *first = r->level_first, top, depths = 0;
    memset(first, 0, (size_t)(r->n_cells + 1) * sizeof *first);
    for (int place = 0; place < 2; place++) {
        top = 0;
        stack[top++] = r->root;
        while (top) {
            const BhCell *c = &r->cells[stack[--top]];
            if (place) {
                r->levels[first[c->depth]++] = stack[top];
            }
            else {
                first[c->depth + 1]++;
                if (c->depth + 1 > depths)
                    depths = c->depth + 1;
            }
            for (int slot = 0; slot < 8; slot++)
                if (c->children[slot] < 0)
                    stack[top++] = -c->children[slot] - 1;
        }
        for (long long d = 0; !place && d < depths; d++)
            first[d + 1] += first[d];
    }
    for (long long d = depths; d > 0; d--)
        first[d] = first[d - 1];
    first[0] = 0;
    r->n_levels = depths;
}

/* ``_summarize_phase``'s level ``p->depth``: the processor's block of its
 * cells, each its children's centre of mass (``_summarize_cell``); how
 * many words, -1 on error. */
static long long
bh_summarize(BhProcess *p)
{
    BhRun *r = p->run;
    const long long *level = r->levels + r->level_first[p->depth];
    long long size = r->level_first[p->depth + 1] - r->level_first[p->depth];
    long long lo = p->proc * size / r->n_procs;
    long long hi = (p->proc + 1) * size / r->n_procs, n = 0;
    if (bh_room(p, 0, (hi - lo) * 20) < 0)
        return -1;
    long long *w = p->words;
    for (long long k = lo; k < hi; k++) {
        BhCell *c = &r->cells[level[k]];
        double mass = 0.0, com[3] = {0.0, 0.0, 0.0};
        for (int slot = 0; slot < 8; slot++) {
            long long child = c->children[slot], addr;
            const double *at;
            double child_mass;
            if (!child)
                continue;
            if (child < 0) {
                const BhCell *sub = &r->cells[-child - 1];
                addr = bh_cell_addr(r, -child - 1);
                child_mass = sub->mass;
                at = sub->com;
            }
            else {
                addr = bh_body_addr(r, child - 1);
                child_mass = r->mass[child - 1];
                at = r->pos + 3 * (child - 1);
            }
            w[n++] = OP_READ;
            w[n++] = addr;
            mass += child_mass;
            for (int axis = 0; axis < 3; axis++)
                com[axis] += child_mass * at[axis];
        }
        if (mass > 0.0)
            for (int axis = 0; axis < 3; axis++)
                com[axis] /= mass;
        c->mass = mass;
        memcpy(c->com, com, sizeof com);
        w[n++] = OP_WRITE;
        w[n++] = bh_cell_addr(r, level[k]);
        w[n++] = OP_COMPUTE;
        w[n++] = BH_INTERACTION;
    }
    return n;
}

/* ``_cost_chunks`` into the clusters, then each cluster's chunk dealt
 * round robin to its processors (``_cluster_partition``); -1 when a cost
 * it reads is out of range. */
static int
bh_deal(BhRun *r, const long long *ordered, long long count)
{
    long long total = 0, k = 0, placed = 0;
    for (long long j = 0; j < count; j++) {
        long long cost = r->cost[ordered[j]];
        if (cost < 1 || cost > BH_COST_MAX) {
            PyErr_Format(PyExc_ValueError, "body %lld's cost %lld lies "
                         "outside [1, 2**28]", ordered[j], cost);
            return -1;
        }
        total += cost;
    }
    double target = (double)total / (double)r->clusters, accumulated = 0.0;
    for (long long cluster = 0; cluster < r->clusters; cluster++) {
        long long begin = k;
        /* the bodies whose zone -- min(int(accumulated / target),
         * clusters - 1), which never decreases -- is this cluster */
        while (k < count) {
            double zone = accumulated / target;
            if (zone < (double)(r->clusters - 1) ? (long long)zone > cluster
                                                 : cluster < r->clusters - 1)
                break;
            accumulated += (double)r->cost[ordered[k++]];
        }
        for (long long port = 0; port < r->per_cluster; port++) {
            r->first[cluster * r->per_cluster + port] = placed;
            for (long long j = begin + port; j < k; j += r->per_cluster)
                r->assign[placed++] = ordered[j];
        }
    }
    r->first[r->n_procs] = placed;
    return 0;
}

/* ``_partition``: the bodies in tree order (``_tree_ordered_bodies``),
 * dealt. */
static int
bh_partition(BhRun *r)
{
    long long *stack = r->stack, top = 0, count = 0;
    stack[top++] = -r->root - 1;
    while (top) {
        long long node = stack[--top];
        if (node > 0) {
            r->ordered[count++] = node - 1;
            continue;
        }
        const BhCell *c = &r->cells[-node - 1];
        for (int slot = 7; slot >= 0; slot--)
            if (c->children[slot])
                stack[top++] = c->children[slot];
    }
    return bh_deal(r, r->ordered, count);
}

/* The force phase of the processor's bodies: ``_gravity`` for each --
 * its acceleration and cost, and the words of its walk about the records
 * it visits; how many words, -1 on error. */
static long long
bh_force(BhProcess *p)
{
    BhRun *r = p->run;
    long long *stack = r->stack, n = 0;
    for (long long j = r->first[p->proc]; j < r->first[p->proc + 1]; j++) {
        long long body = r->assign[j], self = bh_body_addr(r, body);
        long long top = 0, interactions = 0, *w;
        const double *at = r->pos + 3 * body;
        double bx = at[0], by = at[1], bz = at[2];
        double ax = 0.0, ay = 0.0, az = 0.0;
        if (bh_room(p, n, 2) < 0)
            return -1;
        p->words[n++] = OP_READ;
        p->words[n++] = self;
        stack[top++] = -r->root - 1;
        while (top) {
            long long node = stack[--top], addr;
            double dx, dy, dz, dist2, mass;
            if (node == body + 1)
                continue;
            if (bh_room(p, n, BH_VISIT) < 0)
                return -1;
            w = p->words + n;
            if (node > 0) {
                /* another body: read its position, interact */
                const double *src = r->pos + 3 * (node - 1);
                addr = bh_body_addr(r, node - 1);
                dx = src[0] - bx;
                dy = src[1] - by;
                dz = src[2] - bz;
                dist2 = dx * dx + dy * dy + dz * dz + r->eps2;
                mass = r->mass[node - 1];
                w[0] = OP_READ;
                w[1] = addr;
                w[2] = OP_READ;
                w[3] = addr + 16;
                w[4] = OP_COMPUTE;
                w[5] = BH_INTERACTION;
                n += 6;
            }
            else {
                const BhCell *c = &r->cells[-node - 1];
                addr = bh_cell_addr(r, -node - 1);
                dx = c->com[0] - bx;
                dy = c->com[1] - by;
                dz = c->com[2] - bz;
                dist2 = dx * dx + dy * dy + dz * dz + r->eps2;
                double size = 2.0 * c->half;
                w[0] = OP_READ;
                w[1] = addr;
                w[2] = OP_READ;
                w[3] = addr + 16;
                w[4] = OP_COMPUTE;
                w[5] = BH_OPEN_TEST;
                if (!(size * size < dist2 * r->theta2)) {
                    /* too close: read the child slots and descend */
                    w[6] = OP_READ;
                    w[7] = addr + BH_CHILDREN;
                    w[8] = OP_READ;
                    w[9] = addr + BH_CHILDREN + 32;
                    n += 10;
                    for (int slot = 0; slot < 8; slot++)
                        if (c->children[slot])
                            stack[top++] = c->children[slot];
                    continue;
                }
                /* far enough: its centre of mass stands for its bodies */
                mass = c->mass;
                w[6] = OP_COMPUTE;
                w[7] = BH_INTERACTION;
                n += 8;
            }
            double inv = mass / (dist2 * sqrt(dist2));
            ax += dx * inv;
            ay += dy * inv;
            az += dz * inv;
            interactions++;
        }
        if (bh_room(p, n, 4) < 0)
            return -1;
        w = p->words + n;
        w[0] = OP_WRITE;
        w[1] = self + BH_ACC;
        w[2] = OP_WRITE;
        w[3] = self + BH_ACC + 16;
        n += 4;
        r->acc[3 * body] = ax;
        r->acc[3 * body + 1] = ay;
        r->acc[3 * body + 2] = az;
        r->cost[body] = interactions > 1 ? interactions : 1;
    }
    return n;
}

/* ``_update_phase``: the leapfrog step of the processor's bodies; how many
 * words, -1 on error. */
static long long
bh_update(BhProcess *p)
{
    BhRun *r = p->run;
    long long from = r->first[p->proc], to = r->first[p->proc + 1], n = 0;
    if (bh_room(p, 0, 16 * (to - from)) < 0)
        return -1;
    for (long long j = from; j < to; j++) {
        long long body = r->assign[j], at = bh_body_addr(r, body);
        double *pos = r->pos + 3 * body, *vel = r->vel + 3 * body;
        const double *acc = r->acc + 3 * body;
        for (int axis = 0; axis < 3; axis++) {
            vel[axis] += acc[axis] * r->dt;
            pos[axis] += vel[axis] * r->dt;
        }
        const long long step[] = {
            OP_READ, at + BH_ACC, OP_READ, at + BH_VEL,
            OP_WRITE, at + BH_VEL, OP_WRITE, at + BH_VEL + 16,
            OP_READ, at, OP_WRITE, at, OP_WRITE, at + 16,
            OP_COMPUTE, BH_LEAPFROG,
        };
        memcpy(p->words + n, step, sizeof step);
        n += 16;
    }
    return n;
}

/* ``Barrier(id, n)`` as the chunk, and what the resume after it does. */
static long long
bh_barrier(BhProcess *p, long long id, int next)
{
    p->words[0] = OP_BARRIER;
    p->words[1] = id;
    p->words[2] = ((const BhRun *)p->run)->n_procs;
    p->phase = next;
    return 3;
}

/* One resume of ``BarnesHutRun.process``: the Barnes-Hut kind's step
 * (after an error the process has ended, as a generator that raised has).
 * A phase whose chunk is empty yields nothing: its resume carries on to
 * the barrier after it. */
static long long
bh_step(PyObject *self)
{
    BhProcess *p = (BhProcess *)self;
    BhRun *r = p->run;
    long long n = 0;
    int more;
    for (;;) {
        switch (p->phase) {
        case BH_STEP:
            if (p->step == r->steps) {
                p->phase = BH_ENDED;
                return 0;
            }
            n = bh_barrier(p, 0, BH_ROOT);
            goto yield;
        case BH_ROOT:
            if (p->proc == 0) {
                if (bh_reset_tree(r) < 0)
                    goto fail;
                p->words[0] = OP_WRITE;
                p->words[1] = bh_cell_addr(r, r->root) + BH_CHILDREN;
                p->phase = BH_BARRIER1;
                n = 2;
                goto yield;
            }
            /* fall through */
        case BH_BARRIER1:
            n = bh_barrier(p, 1, BH_INSERT_BEGIN);
            goto yield;
        case BH_INSERT_BEGIN:
        case BH_INSERT_BUCKET:
        case BH_INSERT_SLOT:
        case BH_INSERT_LOCKED:
        case BH_INSERT_SPLIT:
            if ((more = bh_insert(p, &n)) < 0)
                goto fail;
            if (more)
                goto yield;
            p->phase = BH_BARRIER2;
            if (n)
                goto yield;
            break;
        case BH_BARRIER2:
            n = bh_barrier(p, 2, BH_COLLECT);
            goto yield;
        case BH_COLLECT:
            if (p->proc == 0)
                bh_collect_levels(r);
            n = bh_barrier(p, 3, BH_SUMMARIZE_BEGIN);
            goto yield;
        case BH_SUMMARIZE_BEGIN:
            p->depth = r->n_levels - 1;
            p->phase = BH_SUMMARIZE;
            break;
        case BH_SUMMARIZE:
            if (p->depth < 0) {
                if (p->proc == 0 && bh_partition(r) < 0)
                    goto fail;
                p->words[0] = OP_COMPUTE;
                p->words[1] = BH_PARTITION * (r->first[p->proc + 1]
                                              - r->first[p->proc]);
                p->phase = BH_BARRIER4;
                n = 2;
                goto yield;
            }
            if ((n = bh_summarize(p)) < 0)
                goto fail;
            p->phase = BH_BARRIER7;
            if (n)
                goto yield;
            break;
        case BH_BARRIER7:
            p->depth--;
            n = bh_barrier(p, 7, BH_SUMMARIZE);
            goto yield;
        case BH_BARRIER4:
            n = bh_barrier(p, 4, BH_FORCE);
            goto yield;
        case BH_FORCE:
            if ((n = bh_force(p)) < 0)
                goto fail;
            p->phase = BH_BARRIER5;
            if (n)
                goto yield;
            break;
        case BH_BARRIER5:
            n = bh_barrier(p, 5, BH_UPDATE);
            goto yield;
        case BH_UPDATE:
            if ((n = bh_update(p)) < 0)
                goto fail;
            p->phase = BH_BARRIER6;
            if (n)
                goto yield;
            break;
        case BH_BARRIER6:
            p->step++;
            n = bh_barrier(p, 6, BH_STEP);
            goto yield;
        default:    /* BH_ENDED */
            return 0;
        }
    }
yield:
    return n;
fail:
    p->phase = BH_ENDED;
    return -1;
}

static const ProcKind BH_KIND = {
    KIND_BARNES_HUT, "repro.trace.engine._native.BarnesHutProcess",
    sizeof(BhProcess), BH_WORDS, bh_step, bh_free,
};

/* barnes_processes(pos, vel, mass, cost, steps, theta, softening, dt,
 *                  n_procs, partition, bases, chunk_type)
 *
 * ``pos``/``vel``: writable float64, three per body; ``mass``: float64,
 * one per body; ``cost``: writable int64, one per body; ``partition``:
 * ``(clusters, processors per cluster)``, whose product is ``n_procs``;
 * ``bases``: the bodies' records' and the cells' (four per body);
 * ``chunk_type``: what ``next()`` wraps a chunk's ``array('q')`` in.
 * Returns a list of one process per processor. */
static PyObject *
native_barnes_processes(PyObject *module, PyObject *args)
{
    PyObject *objs[BH_VIEWS], *partition, *bases, *chunk_type;
    long long steps, n_procs;
    double knobs[3];
    if (!PyArg_ParseTuple(args, "OOOOLdddLO!O!O", &objs[BH_POS],
                          &objs[BH_VELS], &objs[BH_MASSES], &objs[BH_COSTS],
                          &steps, &knobs[0], &knobs[1], &knobs[2], &n_procs,
                          &PyTuple_Type, &partition, &PyTuple_Type, &bases,
                          &chunk_type))
        return NULL;
    const int floats[BH_VIEWS] = {1, 1, 1, 0};
    const int writable[BH_VIEWS] = {1, 1, 0, 1};
    const char *names[BH_VIEWS] = {"positions", "velocities", "masses",
                                   "costs"};
    const char *knob_names[3] = {"theta", "softening", "dt"};

    BhRun *r = PyMem_Calloc(1, sizeof(BhRun));
    if (!r)
        return PyErr_NoMemory();
    Py_ssize_t lens[BH_VIEWS];
    for (int k = 0; k < BH_VIEWS; k++)
        if ((lens[k] = typed_view(objs[k], &r->views[k], 8, floats[k],
                                  writable[k], names[k])) < 0)
            goto fail;
    r->pos = r->views[BH_POS].buf;
    r->vel = r->views[BH_VELS].buf;
    r->mass = r->views[BH_MASSES].buf;
    r->cost = r->views[BH_COSTS].buf;
    r->n = lens[BH_POS] / 3;
    if (lens[BH_POS] % 3 || r->n < 2 || r->n > BH_BODIES_MAX
            || lens[BH_VELS] != lens[BH_POS] || lens[BH_MASSES] != r->n
            || lens[BH_COSTS] != r->n) {
        PyErr_SetString(PyExc_ValueError, "need three positions, three "
                        "velocities, a mass and a cost for each of 2 to "
                        "2**24 bodies");
        goto fail;
    }
    if (steps < 1 || steps > BH_STEPS_MAX) {
        PyErr_SetString(PyExc_ValueError, "steps must lie in [1, 2**32]");
        goto fail;
    }
    for (int k = 0; k < 3; k++)
        if (!(knobs[k] > 0.0 && knobs[k] < INFINITY)) {
            PyErr_Format(PyExc_ValueError, "%s must be finite and positive",
                         knob_names[k]);
            goto fail;
        }
    if (n_procs < 1 || n_procs > BH_PROCS_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "processors must number [1, 2**16]");
        goto fail;
    }
    if (PyTuple_GET_SIZE(partition) != 2 || PyTuple_GET_SIZE(bases) != 2) {
        PyErr_SetString(PyExc_ValueError,
                        "the partition is two counts and the bases two");
        goto fail;
    }
    if (get_ll_item(partition, 0, &r->clusters) < 0
            || get_ll_item(partition, 1, &r->per_cluster) < 0)
        goto fail;
    if (r->clusters < 1 || r->clusters > n_procs || r->per_cluster < 1
            || r->per_cluster > n_procs
            || r->clusters * r->per_cluster != n_procs) {
        PyErr_Format(PyExc_ValueError, "%lld clusters of %lld processors "
                     "are not %lld processors", r->clusters, r->per_cluster,
                     n_procs);
        goto fail;
    }
    r->n_cells = BH_CELLS_PER_BODY * r->n;
    long long *base[2] = {&r->bbase, &r->cbase};
    const long long extent[2] = {r->n * BH_BODY, r->n_cells * BH_CELL};
    for (int k = 0; k < 2; k++) {
        if (get_ll_item(bases, k, base[k]) < 0)
            goto fail;
        if (*base[k] < 0 || *base[k] > BH_LIMIT - extent[k]) {
            PyErr_SetString(PyExc_ValueError, "the bodies' and the cells' "
                            "records must lie in [0, 2**60)");
            goto fail;
        }
    }
    for (long long b = 0; b < r->n; b++) {
        for (int axis = 0; axis < 3; axis++)
            if (!isfinite(r->pos[3 * b + axis])
                    || !isfinite(r->vel[3 * b + axis])) {
                PyErr_Format(PyExc_ValueError, "body %lld's position and "
                             "velocity must be finite", b);
                goto fail;
            }
        if (!isfinite(r->mass[b])) {
            PyErr_Format(PyExc_ValueError, "body %lld's mass must be finite",
                         b);
            goto fail;
        }
        if (r->cost[b] < 1 || r->cost[b] > BH_COST_MAX) {
            PyErr_Format(PyExc_ValueError, "body %lld's cost %lld lies "
                         "outside [1, 2**28]", b, r->cost[b]);
            goto fail;
        }
    }
    if (!PyType_Check(chunk_type)) {
        PyErr_SetString(PyExc_TypeError, "chunk_type must be a class");
        goto fail;
    }
    if (bh_square(knobs[0], &r->theta2) < 0
            || bh_square(knobs[1], &r->eps2) < 0)
        goto fail;
    r->dt = knobs[2];
    r->steps = steps;
    r->n_procs = n_procs;
    r->pool = r->n_cells / n_procs;
    r->root = -1;
    size_t refs = 8 * (size_t)r->n_cells + 1;
    if (!(r->acc = PyMem_Calloc(3 * (size_t)r->n, sizeof(double)))
            || !(r->cells = PyMem_Calloc((size_t)r->n_cells, sizeof(BhCell)))
            || !(r->pool_next = PyMem_Calloc((size_t)n_procs,
                                             sizeof(long long)))
            || !(r->first = PyMem_Calloc((size_t)n_procs + 1,
                                         sizeof(long long)))
            || !(r->assign = PyMem_Calloc(refs, sizeof(long long)))
            || !(r->ordered = PyMem_Calloc(refs, sizeof(long long)))
            || !(r->stack = PyMem_Calloc(refs, sizeof(long long)))
            || !(r->levels = PyMem_Calloc((size_t)r->n_cells,
                                          sizeof(long long)))
            || !(r->level_first = PyMem_Calloc((size_t)r->n_cells + 1,
                                               sizeof(long long)))) {
        PyErr_NoMemory();
        goto fail;
    }
    /* ``_cluster_partition`` of the bodies in index order */
    for (long long b = 0; b < r->n; b++)
        r->ordered[b] = b;
    if (bh_deal(r, r->ordered, r->n) < 0)
        goto fail;
    return processes_new(module, &BH_KIND, &r->head, chunk_type, n_procs);

fail:
    bh_free(r);
    return NULL;
}

/* --------------------------------------------------------------- module */

static PyMethodDef methods[] = {
    {"run", native_run, METH_O,
     "Run a plan's processes until none is ready; write it all back."},
    {"ladder", native_ladder, METH_VARARGS,
     "Run the fused ladder over a whole tape; write its rungs back."},
    {"row_profile", native_row_profile, METH_VARARGS,
     "Reduce one row's packed streams to the numbers of its RowProfile."},
    {"spec_burst", native_spec_burst, METH_VARARGS,
     "Append one SPEC application's next quantum to an array('q')."},
    {"mp3d_processes", native_mp3d_processes, METH_VARARGS,
     "One MP3D process per processor over a run state they share."},
    {"barnes_processes", native_barnes_processes, METH_VARARGS,
     "One Barnes-Hut process per processor over a run state they share."},
    {NULL, NULL, 0, NULL},
};

/* The C processes' kinds, a type each. */
static const ProcKind *const PROC_KINDS[] = {&M3_KIND, &BH_KIND};

static void
module_free(void *module)
{
    ModuleState *state = PyModule_GetState((PyObject *)module);
    for (int k = 0; state && k < N_KINDS; k++)
        Py_CLEAR(state->process_types[k]);
}

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_native",
    "C scheduler, inner loop and synchronization for the timing "
    "interleaver, its fused ladder, the row-profile kernel, the "
    "SPEC-stream kernel and MP3D's and Barnes-Hut's processes.",
    sizeof(ModuleState), methods, NULL, NULL, NULL, module_free,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *collections = PyImport_ImportModule("collections");
    if (!collections)
        return NULL;
    g_deque = PyObject_GetAttrString(collections, "deque");
    Py_DECREF(collections);
    if (!g_deque)
        return NULL;
    s_append = PyUnicode_InternFromString("append");
    s_popleft = PyUnicode_InternFromString("popleft");
    if (!s_append || !s_popleft)
        return NULL;
    PyType_Slot slots[] = {
        {Py_tp_dealloc, process_dealloc},
        {Py_tp_iter, PyObject_SelfIter},
        {Py_tp_iternext, process_next},
        {Py_tp_methods, process_methods},
        {0, NULL},
    };
    PyObject *module = PyModule_Create(&moduledef);
    if (!module)
        return NULL;
    ModuleState *state = PyModule_GetState(module);
    for (int k = 0; k < N_KINDS; k++) {
        const ProcKind *kind = PROC_KINDS[k];
        PyType_Spec spec = {
            kind->name, (int)kind->size, 0,
            Py_TPFLAGS_DEFAULT | Py_TPFLAGS_DISALLOW_INSTANTIATION, slots,
        };
        if (!(state->process_types[kind->index] =
                  (PyTypeObject *)PyType_FromSpec(&spec))) {
            Py_DECREF(module);
            return NULL;
        }
    }
    if (PyModule_AddStringConstant(module, "ABI_VERSION", ABI_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
