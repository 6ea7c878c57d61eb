/* Scheduler, drain loop and synchronization for the repro timing
 * interleaver.
 *
 * The one fast implementation of the timing model.  Its contract is the
 * reference loop's -- ``TimingInterleaver._run_generic`` driving the
 * repro.core objects one event at a time (src/repro/trace/interleave.py)
 * -- and between ``setup`` and ``release`` C owns the run: the data path
 * (hits, bank/write-buffer timing, the snoopy MSI/MESI miss path with its
 * bus arbitration), scheduling, the locks, barriers and task queues, and
 * the resuming of the application generators, whose bodies are the only
 * python that runs in between (instruction-cache refills, the one callback
 * left, aside).  Under the standard ``InstrumentationProbe`` C also owns
 * observability of what it executes: the "metrics" section bins what the
 * python objects would have told the probe, and the wrapper folds it into
 * the probe's registry once, after the run.  Everything here must stay
 * observably identical to the reference loop -- the differential verifier
 * diffs fingerprints, error messages and (probed) every counter and bin.
 *
 * Ownership: python containers are the machine's state *at rest*; between
 * ``setup`` and ``release`` C works on its own copy, and nothing in
 * python reads or writes the machine in between.
 *
 *   - tag/state arrays, bank free times, the bus clock: ``array('q')``
 *     storage C reads and writes in place through buffer views (an
 *     SCC's share of them is its ``Scc`` view);
 *   - the ready heap: ``(time, seq, pid)`` triples in ``Ctx.ready``,
 *     read from ``interleaver._heap`` when ``run`` starts and written back
 *     to it -- whatever is still ready -- at ``release``;
 *   - in-flight fills and write buffers: each SCC's ``Words`` -- per-index
 *     ``fill_line``/``fill_ready`` and a heap of retire times per bank --
 *     imported from ``scc._inflight`` and ``interconnect._write_buffers``
 *     at ``setup`` and written back to them at ``release`` (the "words"
 *     section has the argument);
 *   - the processes (clock, blocked/finished flags, pending response and
 *     chunk) and the locks and barriers with their wait queues: the
 *     wrapper flattens ``_processes``, ``_locks`` and ``_barriers`` into
 *     words and lists for ``setup`` and rebuilds them from what
 *     ``release`` leaves and returns (the "processes" section).
 *
 * What C still touches as python objects, all off the hit path: the
 * lost-line sets (``scc._lost_lines``) on misses, the task-queue deques,
 * and what a generator yields -- a ``PackedChunk``, whose words are read
 * in place or copied, or an event object, encoded here into a cursor of
 * one event.
 *
 * Protocol: ``setup(plan)`` parses the plan tuple into a context capsule
 * with all buffers acquired once.  ``run(ctx)`` runs every process until
 * none is ready -- all finished, or the rest blocked for good, which the
 * caller tells apart -- or raises what the reference loop would raise at
 * the same event.  ``release(ctx)`` writes the working copy back, returns
 * the locks and barriers, and drops the buffer views deterministically;
 * after an exception too, so an aborted run leaves what the reference
 * loop leaves.
 *
 * Three more sections share the build and the ``ABI_VERSION`` guard.  The
 * fused multi-configuration ladder (``ladder_*``) is a second driver of
 * the same memory system: each of its rungs is a ``Machine`` of one
 * ``Scc`` on a bus of its own, and its misses, upgrades and icache
 * refills are the "coherence" section's, called as ``run`` calls them.
 * The row-profile kernel (``row_profile``, diffed as the ``profile``
 * engine) and the force-phase kernel (``force_words``: Barnes-Hut's
 * remembered walks relocated onto one run's cells) share nothing else.
 * Each is introduced by its own banner below.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
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

#define ST_SHARED 1     /* repro.core.cache.SHARED */
#define ST_MODIFIED 2   /* repro.core.cache.MODIFIED */
#define ST_EXCLUSIVE 3  /* repro.core.cache.EXCLUSIVE */

#define ABI_VERSION "10"  /* == engine/native.py NATIVE_VERSION */

/* What ``ladder_drain`` returns: the tape is drained, or the opcode at
 * ``regs[0]`` is python's to handle. */
#define STATUS_EXHAUSTED 0
#define STATUS_SYNC 2

/* The wrapper's ``misc`` words: events executed, ``interleaver._seq``
 * (in both directions), the latest finish so far. */
enum { X_EVENTS, X_SEQ, X_FINISH, X_FIELDS };

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

/* Probe counters of one run (``InstrumentationProbe``'s registry
 * counters); slot order is engine/native.py's ``_METRIC_FIELDS``. */
enum {
    M_BUS_TRANSACTIONS, M_BUS_BUSY_CYCLES, M_BUS_WAIT_CYCLES,
    M_BANK_ACCESSES, M_BANK_CONFLICT_EVENTS, M_WRITE_BUFFER_STALLS,
    M_WRITE_BUFFER_STALL_CYCLES, M_CACHE_HITS, M_CACHE_MISSES,
    M_INVALIDATIONS,
    M_FIELDS
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

#define FILL_NONE LLONG_MIN     /* ``fill_ready`` of a slot with no fill */

/* What C keeps for one SCC between ``setup`` and ``release`` (the "words"
 * section). */
typedef struct {
    long long *fill_line, *fill_ready;  /* [index]; one block with ``wb`` */
    long long *wb;            /* [bank * (depth + 1)]: how many entries,
                                 then their retire times as a min-heap */
    long long lines, nbanks, depth;
    PyObject *inflight, *wbufs;         /* the at-rest forms (the plan's) */
} Words;

/* One timeline's bins: int64 slots of a python ``bytearray`` the
 * wrapper allocated empty.  It grows by ``PyByteArray_Resize`` -- C holds
 * no buffer view on it -- so ``bins`` is re-read after every resize. */
typedef struct {
    PyObject *buf;
    long long *bins;
    Py_ssize_t n;
} Series;

/* What the standard probe records, for the events C executes.  Series
 * layout (the wrapper's, in this order): the bus trio, one conflict
 * series per (cluster, bank), one write-buffer high-water series per
 * cluster, busy then memory-stall then sync-stall series per processor. */
typedef struct {
    long long width;          /* cycles per bin */
    long long *counts;        /* M_* */
    Series *series;
    Series *bus_occupancy, *bus_wait, *bus_invalidations;
    Series *conflict;         /* [cluster * nbanks + bank] */
    Series *write_buffer;     /* [cluster] */
    Series *busy, *memory, *sync;       /* [pid] */
} Metrics;

/* One shared cluster cache as the protocol sees it -- a cluster of a
 * ``run``, a rung of the ladder: python's own tag/state storage worked on
 * in place, the words C keeps for it, the row its events are counted in
 * and the bus it sits on. */
typedef struct {
    long long *states, *tags; /* [index] */
    long long mask, shift;    /* index = line & mask, tag = line >> shift */
    Words words;
    long long *stats;         /* S_* */
    PyObject *lost;           /* ``scc._lost_lines``; NULL where no other
                                 SCC can take a line away (a rung) */
    long long *bus;           /* BUS_* */
} Scc;

/* The SCCs that snoop one another -- every one on the same bus, with the
 * same geometry -- and the protocol's constants. */
typedef struct {
    Scc *sccs;
    int n;
    long long bus_occ, upgrade_occ, mem_latency;
    int mesi;
    Metrics *mx;              /* NULL: no probe attached */
} Machine;

/* The ``array('q')`` storage a context works on in place: buffer views
 * taken at setup, dropped together. */
typedef struct {
    Py_buffer *bufs;          /* room for every view the plan needs */
    int n;
} Views;

/* One application process between ``setup`` and ``release``. */
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
    PyObject *plan;           /* strong ref; keeps every borrowed ptr alive */
    int nproc;
    int n_icaches;
    int released;
    long long line_shift, nbanks, bank_cycle;
    long long bank_mask;      /* nbanks - 1 when a power of two, else -1 */
    long long iline_shift, limit;
    long long lock_overhead, barrier_overhead;
    int stall_on_writes, icache_mode;
    Machine m;                /* one SCC per cluster */
    long long **bank_free;    /* [cluster] */
    long long **ic_states, **ic_tags;
    long long *ic_mask, *ic_shift;
    long long *d_refs, *d_busy, *d_stall, *d_finish, *d_icfetch, *d_sync;
    long long *misc;          /* X_* */
    long long *pstate;        /* [pid * P_FIELDS] */
    long long *proc_cluster;
    Proc *procs;              /* by pid */
    SyncTable locks, barriers;
    PyObject *ifetch, *queues;
    PyObject *chunks, *responses;       /* at-rest lists, by pid */
    PyTypeObject *chunk_type; /* PackedChunk */
    PyObject *chunk_data;     /* "data" */
    PyObject *array_type, *sync_error;
    EventCode codes[N_EVENT_CODES];
    Ready *ready;             /* binary min-heap, room for every process */
    int n_ready;
    PyObject *ready_at_rest;        /* interleaver._heap */
    Views views;
} Ctx;

static const char CTX_NAME[] = "repro.trace.engine._native.ctx";

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

/* -------------------------------------------------------------- metrics */

/* What the python objects tell their probe, recorded here for the events
 * C executes: transcriptions of ``Timeline.add_span`` / ``add_at`` /
 * ``add_sample`` (repro.instrument.timeline) over integer bins, and of
 * ``InstrumentationProbe``'s callbacks on top of them, called where
 * ``SnoopyBus``, ``BankInterconnect``, ``CoherenceController`` and
 * ``ProcessorState`` call theirs.  Every mass the probe records is a
 * whole number of cycles or copies, so the wrapper's merge into the
 * probe's float bins is exact in any order.  Call sites test the machine's
 * ``mx`` first: an unprobed run pays that one never-taken branch per site,
 * and so does a ladder rung, which never carries a probe. */

/* A clock no bin can hold: negative (python would index its bin list
 * from the end), or past what a buffer can address. */
static int
series_range_error(void)
{
    PyErr_SetString(PyExc_ValueError, "cycle outside the timeline range");
    return -1;
}

static int
series_grow(Series *s, long long index)
{
    if (index < 0 || index >= PY_SSIZE_T_MAX / 8)
        return series_range_error();
    Py_ssize_t n = (Py_ssize_t)index + 1;
    if (PyByteArray_Resize(s->buf, 8 * n) < 0)
        return -1;
    s->bins = (long long *)PyByteArray_AS_STRING(s->buf);
    memset(s->bins + s->n, 0, 8 * (size_t)(n - s->n));
    s->n = n;
    return 0;
}

/* ``Timeline._grow_to``: make bin ``index`` addressable. */
static inline int
series_reach(Series *s, long long index)
{
    if ((unsigned long long)index < (unsigned long long)s->n)
        return 0;
    return series_grow(s, index);
}

/* ``Timeline.add_span``: one unit per cycle of ``[start, end)``, split
 * across the bins the span overlaps. */
static int
series_add_span(Series *s, long long width, long long start, long long end)
{
    if (end <= start)
        return 0;
    if (start < 0)
        return series_range_error();
    long long first = start / width;
    long long room = (first + 1) * width - start;   /* left in that bin */
    if (end - start <= room) {
        if (series_reach(s, first) < 0)
            return -1;
        s->bins[first] += end - start;
        return 0;
    }
    long long last = (end - 1) / width;
    if (series_reach(s, last) < 0)
        return -1;
    s->bins[first] += room;
    for (long long k = first + 1; k < last; k++)
        s->bins[k] += width;
    s->bins[last] += end - last * width;
    return 0;
}

/* ``Timeline.add_at`` */
static int
series_add_at(Series *s, long long width, long long t, long long value)
{
    long long index = t / width;
    if (series_reach(s, index) < 0)
        return -1;
    s->bins[index] += value;
    return 0;
}

/* ``Timeline.add_sample`` in ``max`` mode: the bin's high-water mark. */
static int
series_add_sample(Series *s, long long width, long long t, long long value)
{
    long long index = t / width;
    if (series_reach(s, index) < 0)
        return -1;
    if (value > s->bins[index])
        s->bins[index] = value;
    return 0;
}

/* ``bus_acquire``: occupancy from the grant, queueing before it. */
static int
mx_bus_acquire(Metrics *mx, long long now, long long grant,
               long long occupancy)
{
    mx->counts[M_BUS_TRANSACTIONS]++;
    mx->counts[M_BUS_BUSY_CYCLES] += occupancy;
    mx->counts[M_BUS_WAIT_CYCLES] += grant - now;
    if (series_add_span(mx->bus_occupancy, mx->width, grant,
                        grant + occupancy) < 0)
        return -1;
    return series_add_span(mx->bus_wait, mx->width, now, grant);
}

/* ``bank_access`` on conflict series ``slot``; the claim made at ``now``
 * got the bank at ``start``. */
static int
mx_bank_access(Metrics *mx, long long slot, long long now, long long start)
{
    mx->counts[M_BANK_ACCESSES]++;
    if (start == now)
        return 0;
    mx->counts[M_BANK_CONFLICT_EVENTS]++;
    return series_add_span(&mx->conflict[slot], mx->width, now, start);
}

/* ``write_buffer``: the cluster's depth high-water; stalls are counted. */
static int
mx_write_buffer(Metrics *mx, long long cl, long long now, long long depth,
                long long stall)
{
    if (stall) {
        mx->counts[M_WRITE_BUFFER_STALLS]++;
        mx->counts[M_WRITE_BUFFER_STALL_CYCLES] += stall;
    }
    return series_add_sample(&mx->write_buffer[cl], mx->width, now, depth);
}

/* ``proc_busy``: straight-line execution (``account_compute``, and
 * ``account_ifetch`` where C executes the fetch). */
static inline int
mx_proc_busy(Metrics *mx, long long pid, long long start, long long cycles)
{
    return series_add_span(&mx->busy[pid], mx->width, start, start + cycles);
}

/* ``ProcessorState.account_reference``'s two spans: the issue slot is
 * busy, whatever follows it until ``complete`` is memory stall. */
static int
mx_reference(Metrics *mx, long long pid, long long issued,
             long long complete)
{
    if (mx_proc_busy(mx, pid, issued, 1) < 0)
        return -1;
    return series_add_span(&mx->memory[pid], mx->width, issued + 1,
                           complete);
}

/* ---------------------------------------------------------------- words */

/* An SCC's in-flight fills (``scc._inflight``: line -> cycle its fill
 * lands) and write buffers (``interconnect._write_buffers``: per bank, a
 * heapq of retire times) as C keeps them between ``setup`` and
 * ``release``, and the ``Scc`` view they belong to.  The python containers
 * stay the at-rest form and the reference loop's; only ``words_setup``,
 * ``words_import`` and ``words_export`` touch them.
 *
 * Fills are two words per SCC slot: the line being filled there and when
 * it lands.  Exact, because every SCC that gets here is direct-mapped and
 * a line with an outstanding fill is resident
 * (``SharedClusterCache.stale_inflight``'s invariant, which the wrapper
 * checks on a non-empty dict before ``setup``): at most one fill is
 * outstanding at an index.  A bank's write buffer is ``depth + 1`` words:
 * how many entries it holds, then their retire times as a binary min-heap
 * rooted at word 1.  Heap layout may differ from heapq's, but the multiset
 * and its minimum -- all ``reserve_write_slot`` observes -- do not. */

#define WBUF_MAX (1 << 16)      /* banks of an SCC, entries of a bank */

/* Empty words for an SCC of ``mask + 1`` lines whose state at rest is
 * ``inflight`` (a dict) and ``wbufs`` (a list of ``nbanks`` lists). */
static int
words_setup(Words *w, long long mask, long long nbanks, long long depth,
            PyObject *inflight, PyObject *wbufs)
{
    if (!PyDict_CheckExact(inflight) || !PyList_CheckExact(wbufs)) {
        PyErr_SetString(PyExc_TypeError, "in-flight fills must be a dict, "
                        "write buffers a list of lists");
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
 * Returns the stall; ``wbuf_held`` is then what the probe samples.  The
 * callers settle ``write_stall_cycles`` from their own deltas. */
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

static inline long long
wbuf_held(const Words *w, long long bank)
{
    return w->wb[bank * (w->depth + 1)];
}

/* Read the containers into the (empty) words, leaving them as they are:
 * what a ``run`` starts from.  A ladder pass has nothing to read -- its
 * rungs are fresh, and one that began mid-machine would need the windows
 * its skew arithmetic keeps, which no container holds. */
static int
words_import(Words *w)
{
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

/* ... and write the words back: the dict and every bank's list (the same
 * objects, which python holds) become exactly what the reference loop
 * would have left in them -- a heap rooted at word 1 is a heapq list. */
static int
words_export(Words *w)
{
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

/* One SCC's entry of a plan, the same for a cluster of ``setup`` and a
 * rung of ``ladder_setup`` (engine/native.py's ``scc_plan`` builds it):
 * ``(states, tags, index_mask, tag_shift, inflight, write_buffers,
 * lost_lines or None, bus clock, S_* row)``.  The words come back empty;
 * the caller imports the containers, or insists that they are empty. */
static int
scc_setup(Scc *scc, Views *views, PyObject *entry, long long nbanks,
          long long depth)
{
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 9) {
        PyErr_SetString(PyExc_TypeError, "an SCC entry must be a 9-tuple");
        return -1;
    }
    if (get_ll_item(entry, 2, &scc->mask) < 0
        || get_ll_item(entry, 3, &scc->shift) < 0
        || words_setup(&scc->words, scc->mask, nbanks, depth,
                       PyTuple_GET_ITEM(entry, 4),
                       PyTuple_GET_ITEM(entry, 5)) < 0)
        return -1;
    Py_ssize_t lines = (Py_ssize_t)scc->words.lines;
    PyObject *lost = PyTuple_GET_ITEM(entry, 6);
    if (lost != Py_None && !PySet_CheckExact(lost)) {
        PyErr_SetString(PyExc_TypeError, "lost lines must be a set or None");
        return -1;
    }
    scc->lost = lost == Py_None ? NULL : lost;
    if (!(scc->states = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 0),
                                     lines))
        || !(scc->tags = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 1),
                                      lines))
        || !(scc->bus = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 7), 3))
        || !(scc->stats = acquire_ll_n(views, PyTuple_GET_ITEM(entry, 8),
                                       S_FIELDS)))
        return -1;
    return 0;
}

/* ``n`` SCCs' words (each one block), and their array. */
static void
sccs_free(Scc *sccs, int n)
{
    for (int k = 0; sccs && k < n; k++)
        PyMem_Free(sccs[k].words.fill_line);
    PyMem_Free(sccs);
}

/* ``scc._lost_lines`` stays the python set: misses only. */

/* ``scc.note_lost(line)`` */
static int
lost_note(PyObject *lost, long long line)
{
    PyObject *k = PyLong_FromLongLong(line);
    if (!k)
        return -1;
    int rc = PySet_Add(lost, k);
    Py_DECREF(k);
    return rc;
}

/* ``scc.consume_lost(line)``: 1 when the line was marked, -1 on error. */
static inline int
lost_consume(PyObject *lost, long long line)
{
    if (!lost || PySet_GET_SIZE(lost) == 0)
        return 0;
    PyObject *k = PyLong_FromLongLong(line);
    if (!k)
        return -1;
    int rc = PySet_Discard(lost, k);
    Py_DECREF(k);
    return rc;
}

static long long
call_ifetch(Ctx *ctx, long long pid, long long addr, long long count,
            long long time, int *err)
{
    PyObject *a0 = PyLong_FromLongLong(pid);
    PyObject *a1 = a0 ? PyLong_FromLongLong(addr) : NULL;
    PyObject *a2 = a1 ? PyLong_FromLongLong(count) : NULL;
    PyObject *a3 = a2 ? PyLong_FromLongLong(time) : NULL;
    if (!a0 || !a1 || !a2 || !a3) {
        Py_XDECREF(a0);
        Py_XDECREF(a1);
        Py_XDECREF(a2);
        Py_XDECREF(a3);
        *err = 1;
        return 0;
    }
    PyObject *res = PyObject_CallFunctionObjArgs(
        ctx->ifetch, a0, a1, a2, a3, NULL);
    Py_DECREF(a0);
    Py_DECREF(a1);
    Py_DECREF(a2);
    Py_DECREF(a3);
    if (!res) {
        *err = 1;
        return 0;
    }
    long long v = PyLong_AsLongLong(res);
    Py_DECREF(res);
    if (v == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    return v;
}

/* ------------------------------------------------------------ coherence */

/* The snoopy write-invalidate protocol of repro.core.coherence: what
 * ``CoherenceController.read_line`` / ``write_line`` do past their hit
 * branches (their probe hooks are the "metrics" section's), written once
 * for a ``Machine``: the clusters of a ``run``, or one rung of the ladder,
 * whose single SCC has nobody to snoop -- every loop over the others
 * runs zero times there.  The bus clock is the python object's own
 * storage, so an icache refill python handles, called back from ``run``,
 * sees, and leaves, the current bus.  Every SCC of a machine has the same
 * geometry: ``idx``/``tag`` address all of them. */

/* ``SnoopyBus.acquire``: FCFS on one busy-until stamp; ``grant`` is the
 * cycle the bus was granted. */
static inline int
bus_acquire(Machine *m, const Scc *scc, long long now, long long occupancy,
            long long *grant)
{
    long long *bus = scc->bus;
    *grant = bus[BUS_BUSY_UNTIL] > now ? bus[BUS_BUSY_UNTIL] : now;
    bus[BUS_BUSY_UNTIL] = *grant + occupancy;
    bus[BUS_TRANSACTIONS]++;
    bus[BUS_BUSY_CYCLES] += occupancy;
    if (m->mx)
        return mx_bus_acquire(m->mx, now, *grant, occupancy);
    return 0;
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

/* ``_invalidate_remote``: a write whose bus transaction was granted at
 * ``grant`` kills every other SCC's copy. */
static inline int
invalidate_remote(Machine *m, long long cl, long long line, long long idx,
                  long long tag, long long grant)
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
        if (lost_note(other->lost, line) < 0)
            return -1;
        other->stats[S_INVALIDATIONS_RECEIVED]++;
        killed++;
    }
    m->sccs[cl].stats[S_INVALIDATIONS_SENT] += killed;
    if (killed && m->mx) {
        /* ``invalidation``: stamped with the grant, as ``write_line`` does */
        m->mx->counts[M_INVALIDATIONS] += killed;
        return series_add_at(m->mx->bus_invalidations, m->mx->width,
                             grant, killed);
    }
    return 0;
}

/* ``_install`` after a miss (a valid slot holds another tag): the fill
 * lands at ``ready``.  A dirty victim's write-back takes the bus at the
 * request time ``start`` -- arbitration is in arrival order, a
 * reservation dated at fill completion would stall every later requester
 * -- and nobody waits on it. */
static inline int
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
            long long unawaited;
            scc->stats[S_WRITEBACKS]++;
            if (bus_acquire(m, scc, start, m->bus_occ, &unawaited) < 0)
                return -1;
        }
    }
    return 0;
}

/* ``read_line`` on a miss; ``done`` is when the processor carries on. */
static inline int
read_miss(Machine *m, long long cl, long long line, long long idx,
          long long start, long long *done)
{
    Scc *scc = &m->sccs[cl];
    long long *st = scc->stats;
    st[S_READ_MISSES]++;
    int lost = lost_consume(scc->lost, line);
    if (lost < 0)
        return -1;
    st[S_COHERENCE_READ_MISSES] += lost;
    long long grant;
    if (bus_acquire(m, scc, start, m->bus_occ, &grant) < 0)
        return -1;
    st[S_BUS_WAIT_CYCLES] += grant - start;
    long long fill = grant + m->mem_latency;
    long long state = ST_SHARED;
    if (!snoop_downgrade(m, cl, idx, line >> scc->shift) && m->mesi)
        state = ST_EXCLUSIVE;   /* nobody else has it */
    if (install(m, cl, line, idx, state, start, fill) < 0)
        return -1;
    *done = fill + 1;
    return 0;
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
    long long grant;
    if (resident) {
        st[S_UPGRADES]++;
        /* (an upgrade's bus wait is not counted: nothing waits on it) */
        if (bus_acquire(m, scc, start, m->upgrade_occ, &grant) < 0)
            return -1;
        *retire = grant + m->upgrade_occ;
        if (invalidate_remote(m, cl, line, idx, tag, grant) < 0)
            return -1;
        scc->states[idx] = ST_MODIFIED;
        return 0;
    }
    st[S_WRITE_MISSES]++;
    if (lost_consume(scc->lost, line) < 0)          /* not a read miss */
        return -1;
    if (bus_acquire(m, scc, start, m->bus_occ, &grant) < 0)
        return -1;
    st[S_BUS_WAIT_CYCLES] += grant - start;
    *retire = grant + m->mem_latency;
    if (invalidate_remote(m, cl, line, idx, tag, grant) < 0)
        return -1;
    return install(m, cl, line, idx, ST_MODIFIED, start, *retire);
}

/* One read/write reference; mirrors ``MultiprocessorSystem.data_access``. */
static int
do_access(Ctx *ctx, long long cl, long long pid, int is_read,
          long long addr, long long *time_io)
{
    Machine *m = &ctx->m;
    Metrics *mx = m->mx;
    Scc *scc = &m->sccs[cl];
    long long time = *time_io;
    long long line = addr >> ctx->line_shift;
    long long bank;     /* python %: floored, which a mask is too */
    if (ctx->bank_mask >= 0) {
        bank = line & ctx->bank_mask;
    }
    else {
        bank = line % ctx->nbanks;
        if (bank < 0)
            bank += ctx->nbanks;
    }
    long long *st = scc->stats;
    long long *bank_free = ctx->bank_free[cl];
    long long free_t = bank_free[bank];
    long long start;
    if (free_t > time) {
        st[S_BANK_CONFLICT_CYCLES] += free_t - time;
        start = free_t;
    }
    else {
        start = time;
    }
    bank_free[bank] = start + ctx->bank_cycle;
    if (mx && mx_bank_access(mx, cl * ctx->nbanks + bank, time, start) < 0)
        return -1;
    long long idx = line & scc->mask;
    long long *states = scc->states;
    int resident = states[idx] && scc->tags[idx] == (line >> scc->shift);
    if (mx)     /* ``cache_access``: a SHARED write hit (upgrade) is a hit */
        mx->counts[resident ? M_CACHE_HITS : M_CACHE_MISSES]++;
    long long done;
    if (is_read) {
        st[S_READS]++;
        if (resident) {
            done = fill_done(&scc->words, line, idx, start);
        }
        else if (read_miss(m, cl, line, idx, start, &done) < 0) {
            return -1;
        }
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
        if (ctx->stall_on_writes) {
            if (retire > done)
                done = retire;
        }
        else {
            long long stall = wbuf_reserve(&scc->words, bank, done, retire);
            if (mx && mx_write_buffer(mx, cl, done,
                                      wbuf_held(&scc->words, bank),
                                      stall) < 0)
                return -1;
            st[S_WRITE_BUFFER_STALL_CYCLES] += stall;
            done += stall;
        }
    }
    ctx->d_refs[pid]++;
    ctx->d_busy[pid]++;
    ctx->d_stall[pid] += done - time - 1;
    ctx->d_finish[pid] = done;
    *time_io = done;
    return mx ? mx_reference(mx, pid, time, done) : 0;
}

/* ------------------------------------------------------------ scheduler */

/* The ready heap is C's: a binary min-heap of ``Ready`` triples ordered
 * on ``(time, seq)``, with room for every process (a process is ready at
 * most once).  ``interleaver._heap`` is its form at rest: ``add_process``
 * (and an earlier run that aborted) left ``(time, seq, pid)`` tuples
 * there, ``run`` moves them over on entry, and ``release`` writes back
 * whatever is still ready, so an aborted run leaves the entries the
 * reference loop leaves. */

/* ``(time, seq) < (time, seq)``, written without a short circuit: which
 * way a sift's comparison goes is data, not a pattern a branch predictor
 * learns. */
static inline int
ready_before(const Ready *a, const Ready *b)
{
    return (a->time < b->time) | ((a->time == b->time) & (a->seq < b->seq));
}

/* ``heapq.heappush`` */
static void
sched_push(Ctx *ctx, Ready item)
{
    Ready *heap = ctx->ready;
    int pos = ctx->n_ready++;
    while (pos > 0) {
        int parent = (pos - 1) >> 1;
        if (!ready_before(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* Take the earliest entry off the (non-empty) heap and put ``*self`` in
 * its place -- heapq.heappushpop for an entry known to sort after the
 * root: one sift for a preempted process's push and the pop that follows
 * it -- or, when ``self`` is NULL, the heap's last entry (heapq.heappop). */
static Ready
sched_switch(Ctx *ctx, const Ready *self)
{
    Ready *heap = ctx->ready;
    Ready top = heap[0];
    Ready item = self ? *self : heap[--ctx->n_ready];
    int n = ctx->n_ready, pos = 0;
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

/* Empty ``interleaver._heap`` into the heap.  All or nothing: an entry that
 * is not a ``(time, seq, pid)`` of this machine leaves both as they were. */
static int
sched_drain(Ctx *ctx)
{
    PyObject *box = ctx->ready_at_rest;
    Py_ssize_t n = PyList_GET_SIZE(box);
    if (n == 0)
        return 0;
    if (n > ctx->nproc - ctx->n_ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "more ready entries than processes");
        return -1;
    }
    Ready *in = ctx->ready + ctx->n_ready;      /* parsed, not yet pushed */
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *entry = PyList_GET_ITEM(box, k);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "scheduler heap entries must be (time, seq, pid)");
            return -1;
        }
        if (get_ll_item(entry, 0, &in[k].time) < 0
            || get_ll_item(entry, 1, &in[k].seq) < 0
            || get_ll_item(entry, 2, &in[k].pid) < 0)
            return -1;
        if (in[k].pid < 0 || in[k].pid >= ctx->nproc) {
            PyErr_Format(PyExc_RuntimeError,
                         "process id %lld outside the machine", in[k].pid);
            return -1;
        }
    }
    if (PyList_SetSlice(box, 0, n, NULL) < 0)
        return -1;
    for (Py_ssize_t k = 0; k < n; k++)
        sched_push(ctx, ctx->ready[ctx->n_ready]);
    return 0;
}

/* Hand what is still ready back to ``interleaver._heap``, which ``run``
 * left empty: the heap's array, in order, is a heapq list. */
static int
sched_export(Ctx *ctx)
{
    for (int k = 0; k < ctx->n_ready; k++) {
        const Ready *r = &ctx->ready[k];
        PyObject *entry = Py_BuildValue("(LLL)", r->time, r->seq, r->pid);
        int rc = entry ? PyList_Append(ctx->ready_at_rest, entry) : -1;
        Py_XDECREF(entry);
        if (rc < 0)
            return -1;
    }
    ctx->n_ready = 0;
    return 0;
}

/* ------------------------------------------------------------ processes */

/* What the reference loop does around the data path, for one process at
 * a time: ``_lock_acquire`` / ``_lock_release`` / ``_barrier`` / ``_wake``
 * with their accounting (``account_compute`` for a lock operation's busy
 * cycles, ``account_sync`` for the stall of whoever is woken, and what
 * each tells the probe), ``_dispatch``'s task-queue branches, and
 * ``_advance``'s resuming of the generator.  ``_locks`` and ``_barriers``
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
static inline int
proc_compute(Ctx *ctx, long long pid, long long cycles, long long *time)
{
    ctx->d_busy[pid] += cycles;
    if (ctx->m.mx && mx_proc_busy(ctx->m.mx, pid, *time, cycles) < 0)
        return -1;
    *time += cycles;
    return 0;
}

/* ``_wake``: the blocked process carries on at ``resume``; what it waited
 * is synchronization stall. */
static int
proc_wake(Ctx *ctx, long long pid, long long resume)
{
    Proc *proc = &ctx->procs[pid];
    Metrics *mx = ctx->m.mx;
    if (resume < proc->time)
        resume = proc->time;
    ctx->d_sync[pid] += resume - proc->block_start;
    if (mx && series_add_span(&mx->sync[pid], mx->width, proc->block_start,
                              resume) < 0)
        return -1;
    proc->time = resume;
    proc->blocked = 0;
    Ready woken = {resume, ++ctx->misc[X_SEQ], pid};
    sched_push(ctx, woken);
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
    return proc_compute(ctx, pid, ctx->lock_overhead, time) < 0 ? -1 : 1;
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
    if (proc_compute(ctx, pid, ctx->lock_overhead, time) < 0)
        return -1;
    if (!lock->count) {
        lock->holder = -1;
        return 0;
    }
    lock->holder = waitq_pop(ctx, lock);
    return proc_wake(ctx, lock->holder, *time + ctx->lock_overhead);
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
        long long release = barrier->latest + ctx->barrier_overhead;
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

/* ... and back out, in order of first use. */
static PyObject *
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
    return queues;
}

/* ``self._queues.setdefault(key, deque()).append(item)`` */
static int
queue_push(Ctx *ctx, PyObject *key, PyObject *item)
{
    PyObject *queue = PyDict_GetItemWithError(ctx->queues, key);
    if (queue) {
        Py_INCREF(queue);
    }
    else {
        if (PyErr_Occurred())
            return -1;
        queue = PyObject_CallNoArgs(g_deque);
        if (!queue || PyDict_SetItem(ctx->queues, key, queue) < 0) {
            Py_XDECREF(queue);
            return -1;
        }
    }
    PyObject *done = PyObject_CallMethodObjArgs(queue, s_append, item, NULL);
    Py_DECREF(queue);
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
        ctx->misc[X_EVENTS]++;
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
        ctx->misc[X_EVENTS]++;
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
        ctx->misc[X_EVENTS]++;
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

/* ``_advance``'s resume: run ``proc``'s generator until it yields events
 * to drain (1: its cursor is installed) or ends (0); -1 on error, the
 * generator's own included.  Its clock does not move in here. */
static int
proc_refill(Ctx *ctx, long long pid, Proc *proc)
{
    while (!proc->cursor.data) {
        PyObject *yielded;
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
ctx_release(Ctx *ctx)
{
    if (ctx->released)
        return;
    ctx->released = 1;
    for (int p = 0; ctx->procs && p < ctx->nproc; p++) {
        cursor_drop(&ctx->procs[p].cursor);
        Py_CLEAR(ctx->procs[p].response);
    }
    views_release(&ctx->views);
    Py_CLEAR(ctx->plan);
}

static void
ctx_free(Ctx *ctx)
{
    ctx_release(ctx);
    PyMem_Free(ctx->views.bufs);
    sccs_free(ctx->m.sccs, ctx->m.n);
    PyMem_Free(ctx->bank_free);
    PyMem_Free(ctx->ready);
    PyMem_Free(ctx->ic_states);
    PyMem_Free(ctx->ic_mask);
    PyMem_Free(ctx->procs);
    PyMem_Free(ctx->locks.q);
    PyMem_Free(ctx->locks.slots);
    PyMem_Free(ctx->barriers.q);
    PyMem_Free(ctx->barriers.slots);
    if (ctx->m.mx)
        PyMem_Free(ctx->m.mx->series);
    PyMem_Free(ctx->m.mx);
    PyMem_Free(ctx);
}

static void
ctx_destructor(PyObject *capsule)
{
    Ctx *ctx = (Ctx *)PyCapsule_GetPointer(capsule, CTX_NAME);
    if (ctx)
        ctx_free(ctx);
}

/* The plan's metrics entry: ``(bin_width, counts, series)`` -- an
 * ``array('q')`` of ``M_FIELDS`` counters and a tuple of empty
 * ``bytearray`` objects in ``Metrics``' layout.  Needs the geometry and
 * the processor count, so it is parsed last. */
static int
metrics_setup(Ctx *ctx, PyObject *spec)
{
    if (!PyTuple_Check(spec) || PyTuple_GET_SIZE(spec) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "metrics must be (bin_width, counts, series)");
        return -1;
    }
    Metrics *mx = ctx->m.mx = PyMem_Calloc(1, sizeof(Metrics));
    if (!mx) {
        PyErr_NoMemory();
        return -1;
    }
    if (get_ll_item(spec, 0, &mx->width) < 0)
        return -1;
    if (mx->width < 1) {
        PyErr_SetString(PyExc_ValueError, "bin_width must be >= 1");
        return -1;
    }
    if (!(mx->counts = acquire_ll_n(&ctx->views, PyTuple_GET_ITEM(spec, 1),
                                    M_FIELDS)))
        return -1;
    PyObject *bufs = PyTuple_GET_ITEM(spec, 2);
    Py_ssize_t banks = (Py_ssize_t)(ctx->m.n * ctx->nbanks);
    Py_ssize_t n = 3 + banks + ctx->m.n + 3 * (Py_ssize_t)ctx->nproc;
    if (!PyTuple_Check(bufs) || PyTuple_GET_SIZE(bufs) != n) {
        PyErr_Format(PyExc_ValueError,
                     "metrics plan must hold %zd series", n);
        return -1;
    }
    if (!(mx->series = PyMem_Calloc(n, sizeof(Series)))) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *buf = PyTuple_GET_ITEM(bufs, k);
        if (!PyByteArray_CheckExact(buf) || PyByteArray_GET_SIZE(buf)) {
            PyErr_SetString(PyExc_TypeError,
                            "metrics series must be empty bytearrays");
            return -1;
        }
        mx->series[k].buf = buf;
    }
    mx->bus_occupancy = mx->series;
    mx->bus_wait = mx->series + 1;
    mx->bus_invalidations = mx->series + 2;
    mx->conflict = mx->series + 3;
    mx->write_buffer = mx->conflict + banks;
    mx->busy = mx->write_buffer + ctx->m.n;
    mx->memory = mx->busy + ctx->nproc;
    mx->sync = mx->memory + ctx->nproc;
    return 0;
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
    if (!(ctx->proc_cluster = acquire_ll(&ctx->views,
                                         PyTuple_GET_ITEM(sched, 1))))
        return -1;
    Py_ssize_t nproc = ctx->views.bufs[ctx->views.n - 1].len / 8;
    PyObject *generators = PyTuple_GET_ITEM(sched, 2);
    ctx->chunks = PyTuple_GET_ITEM(sched, 4);
    ctx->responses = PyTuple_GET_ITEM(sched, 5);
    if (nproc > INT_MAX / 2
        || !PyList_CheckExact(generators)
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
    ctx->ready = PyMem_Calloc(nproc ? nproc : 1, sizeof(Ready));
    if (!ctx->procs || !ctx->ready) {
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

/* plan: engine/native.py's ``run`` builds it, in the order parsed here;
 * ``per_cluster`` holds an SCC entry (``scc_setup``) per cluster, every
 * one on the machine's one bus clock. */
static PyObject *
native_setup(PyObject *self, PyObject *plan)
{
    (void)self;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 10) {
        PyErr_SetString(PyExc_TypeError, "plan must be a 10-tuple");
        return NULL;
    }
    PyObject *per_cluster = PyTuple_GET_ITEM(plan, 0);
    PyObject *banks = PyTuple_GET_ITEM(plan, 1);
    PyObject *callbacks = PyTuple_GET_ITEM(plan, 2);
    PyObject *scal = PyTuple_GET_ITEM(plan, 3);
    PyObject *ic_tuple = PyTuple_GET_ITEM(plan, 4);
    PyObject *deltas = PyTuple_GET_ITEM(plan, 5);
    PyObject *sched = PyTuple_GET_ITEM(plan, 6);
    PyObject *sync = PyTuple_GET_ITEM(plan, 7);
    PyObject *vocabulary = PyTuple_GET_ITEM(plan, 8);
    PyObject *metrics = PyTuple_GET_ITEM(plan, 9);

    Ctx *ctx = PyMem_Calloc(1, sizeof(Ctx));
    if (!ctx)
        return PyErr_NoMemory();
    Machine *m = &ctx->m;
    int n_cl = (int)PyTuple_GET_SIZE(per_cluster);
    ctx->n_icaches = (int)PyTuple_GET_SIZE(ic_tuple);

    int max_views = 5 * n_cl + 2 * ctx->n_icaches + 16;
    ctx->views.bufs = PyMem_Calloc(max_views, sizeof(Py_buffer));
    m->sccs = PyMem_Calloc(n_cl, sizeof(Scc));
    ctx->bank_free = PyMem_Calloc(n_cl, sizeof(long long *));
    int nic = ctx->n_icaches > 0 ? ctx->n_icaches : 1;
    ctx->ic_states = PyMem_Calloc(2 * nic, sizeof(long long *));
    ctx->ic_mask = PyMem_Calloc(2 * nic, sizeof(long long));
    if (!ctx->views.bufs || !m->sccs || !ctx->bank_free
        || !ctx->ic_states || !ctx->ic_mask) {
        ctx_free(ctx);
        return PyErr_NoMemory();
    }
    m->n = n_cl;
    ctx->ic_tags = ctx->ic_states + nic;
    ctx->ic_shift = ctx->ic_mask + nic;

    ctx->plan = plan;
    Py_INCREF(plan);

    long long sc[14];
    for (Py_ssize_t k = 0; k < 14; k++) {
        if (get_ll_item(scal, k, &sc[k]) < 0)
            goto fail;
    }
    ctx->line_shift = sc[0];
    ctx->nbanks = sc[1];
    ctx->bank_mask = sc[1] > 0 && !(sc[1] & (sc[1] - 1)) ? sc[1] - 1 : -1;
    ctx->bank_cycle = sc[2];
    ctx->stall_on_writes = (int)sc[3];
    ctx->icache_mode = (int)sc[5];
    ctx->iline_shift = sc[6];
    ctx->limit = sc[7];
    m->bus_occ = sc[8];
    m->upgrade_occ = sc[9];
    m->mem_latency = sc[10];
    m->mesi = (int)sc[11];
    ctx->lock_overhead = sc[12];
    ctx->barrier_overhead = sc[13];

    for (int c = 0; c < n_cl; c++) {
        Scc *scc = &m->sccs[c];
        if (scc_setup(scc, &ctx->views, PyTuple_GET_ITEM(per_cluster, c),
                      ctx->nbanks, sc[4]) < 0
            || words_import(&scc->words) < 0)
            goto fail;
        if (!scc->lost) {       /* another cluster's write must land in it */
            PyErr_SetString(PyExc_TypeError,
                            "a cluster's lost lines must be a set");
            goto fail;
        }
        if (!(ctx->bank_free[c] = acquire_ll_n(
                  &ctx->views, PyTuple_GET_ITEM(banks, c),
                  (Py_ssize_t)ctx->nbanks)))
            goto fail;
    }
    for (int p = 0; p < ctx->n_icaches; p++) {
        PyObject *entry = PyTuple_GET_ITEM(ic_tuple, p);
        if (!(ctx->ic_states[p] =
                  acquire_ll(&ctx->views, PyTuple_GET_ITEM(entry, 0))))
            goto fail;
        if (!(ctx->ic_tags[p] =
                  acquire_ll(&ctx->views, PyTuple_GET_ITEM(entry, 1))))
            goto fail;
        if (get_ll_item(entry, 2, &ctx->ic_mask[p]) < 0)
            goto fail;
        if (get_ll_item(entry, 3, &ctx->ic_shift[p]) < 0)
            goto fail;
    }
    ctx->ifetch = PyTuple_GET_ITEM(callbacks, 0);
    ctx->queues = PyTuple_GET_ITEM(callbacks, 1);
    if (!PyDict_CheckExact(ctx->queues)) {
        PyErr_SetString(PyExc_TypeError, "task queues must be a dict");
        goto fail;
    }

    if (vocabulary_setup(ctx, vocabulary) < 0 || procs_setup(ctx, sched) < 0)
        goto fail;
    long long **dptr[6] = {
        &ctx->d_refs, &ctx->d_busy, &ctx->d_stall, &ctx->d_finish,
        &ctx->d_icfetch, &ctx->d_sync,
    };
    for (int k = 0; k < 6; k++) {
        if (!(*dptr[k] = acquire_ll_n(&ctx->views,
                                      PyTuple_GET_ITEM(deltas, k),
                                      ctx->nproc)))
            goto fail;
    }
    if (!(ctx->misc = acquire_ll_n(&ctx->views, PyTuple_GET_ITEM(deltas, 6),
                                   X_FIELDS)))
        goto fail;
    if (!PyTuple_Check(sync) || PyTuple_GET_SIZE(sync) != 2
        || sync_import(ctx, &ctx->locks, PyTuple_GET_ITEM(sync, 0)) < 0
        || sync_import(ctx, &ctx->barriers, PyTuple_GET_ITEM(sync, 1)) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError,
                            "sync entry must be (locks, barriers)");
        goto fail;
    }
    if (metrics != Py_None && metrics_setup(ctx, metrics) < 0)
        goto fail;

    PyObject *capsule = PyCapsule_New(ctx, CTX_NAME, ctx_destructor);
    if (!capsule)
        goto fail;
    return capsule;

fail:
    ctx_free(ctx);
    return NULL;
}

/* Every process back to its at-rest form: its words, the chunk it stands
 * in (an encoded event object is consumed by the time anything can stop
 * the run) and the response it has yet to be sent. */
static int
procs_export(Ctx *ctx)
{
    for (Py_ssize_t p = 0; p < ctx->nproc; p++) {
        Proc *proc = &ctx->procs[p];
        long long *at_rest = ctx->pstate + p * P_FIELDS;
        PyObject *chunk = proc->cursor.owner ? proc->cursor.owner : Py_None;
        PyObject *response = proc->response ? proc->response : Py_None;
        at_rest[P_TIME] = proc->time;
        at_rest[P_BLOCKED] = proc->blocked;
        at_rest[P_BLOCK_START] = proc->block_start;
        at_rest[P_FINISHED] = proc->finished;
        at_rest[P_CHUNK_POS] = proc->cursor.owner ? proc->cursor.pos : 0;
        at_rest[P_CHUNK_SUB] = proc->cursor.owner ? proc->cursor.sub : 0;
        Py_INCREF(chunk);
        Py_INCREF(response);
        if (PyList_SetItem(ctx->chunks, p, chunk) < 0
            || PyList_SetItem(ctx->responses, p, response) < 0)
            return -1;
    }
    return 0;
}

/* The end of C's ownership: the ready entries, the in-flight fills, the
 * write buffers and the processes go back to the python containers they
 * came from, the locks and barriers are returned -- ``(locks, barriers)``,
 * in ``setup``'s form -- and the views are dropped. */
static PyObject *
native_release(PyObject *self, PyObject *capsule)
{
    (void)self;
    Ctx *ctx = (Ctx *)PyCapsule_GetPointer(capsule, CTX_NAME);
    if (!ctx)
        return NULL;
    if (ctx->released) {
        PyErr_SetString(PyExc_RuntimeError, "context released already");
        return NULL;
    }
    int failed = sched_export(ctx) < 0 || procs_export(ctx) < 0;
    for (int c = 0; !failed && c < ctx->m.n; c++)
        failed = words_export(&ctx->m.sccs[c].words) < 0;
    PyObject *locks = failed ? NULL : sync_export(ctx, &ctx->locks);
    PyObject *barriers = locks ? sync_export(ctx, &ctx->barriers) : NULL;
    ctx_release(ctx);
    if (!barriers) {
        Py_XDECREF(locks);
        return NULL;
    }
    return Py_BuildValue("(NN)", locks, barriers);
}

/* ----------------------------------------------------------------- run */

/* Why the process that is running stops: the earliest ready process has
 * fallen behind it, or it blocked or finished. */
enum { RUN_ON, RUN_PREEMPTED, RUN_OVER };

/* ``TimingInterleaver._run_generic``: always advance the earliest ready
 * process, until it blocks, ends or falls behind the next-earliest.  The
 * running process's clock is ``time``; ``Proc.time`` catches up whenever
 * it stops. */
static PyObject *
native_run(PyObject *self, PyObject *capsule)
{
    (void)self;
    Ctx *ctx = (Ctx *)PyCapsule_GetPointer(capsule, CTX_NAME);
    if (!ctx)
        return NULL;
    if (ctx->released) {
        PyErr_SetString(PyExc_RuntimeError, "run on released context");
        return NULL;
    }

    long long limit = ctx->limit;
    long long *misc = ctx->misc;
    long long time = 0, pid = -1, i = 0, sub = 0;
    Cursor *cur = NULL;
    int state = RUN_OVER;

    if (sched_drain(ctx) < 0)
        return NULL;
    for (;;) {      /* one round per scheduled process */
        Ready next;
        if (state == RUN_PREEMPTED) {
            /* ``time`` exceeds the top's clock, so the pushed entry
             * cannot be the one that comes back out: what ``_push``
             * followed by the reference loop's ``heappop`` leaves. */
            Ready preempted = {time, ++misc[X_SEQ], pid};
            ctx->procs[pid].time = time;
            next = sched_switch(ctx, &preempted);
        }
        else if (ctx->n_ready == 0) {
            Py_RETURN_NONE;
        }
        else {
            next = sched_switch(ctx, NULL);
        }
        time = next.time;
        pid = next.pid;
        Proc *proc = &ctx->procs[pid];
        cur = &proc->cursor;
        long long cl = ctx->proc_cluster[pid];
        /* clock of the earliest ready process */
        long long next_time = ctx->n_ready ? ctx->ready[0].time : LLONG_MAX;
        state = RUN_ON;

        while (state == RUN_ON) {
            const long long *data = cur->data;
            long long end = cur->end;
            i = cur->pos;
            sub = cur->sub;
            while (state == RUN_ON && i < end) {
                long long op = data[i];
                if (op == OP_READ || op == OP_WRITE || op == OP_COMPUTE) {
                    if (time > limit)
                        goto limit_exceeded;
                    long long operand = data[i + 1];
                    i += 2;
                    misc[X_EVENTS]++;
                    if (op == OP_COMPUTE) {
                        if (operand
                            && proc_compute(ctx, pid, operand, &time) < 0)
                            goto fail;
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
                    long long iline = addr >> ctx->iline_shift;
                    long long ilast =
                        (addr + count * 4 - 1) >> ctx->iline_shift;
                    i += 3;
                    if (ctx->icache_mode == 1) {
                        /* lines resident in the inline icache cost nothing */
                        const long long *istates = ctx->ic_states[pid];
                        const long long *itags = ctx->ic_tags[pid];
                        long long imask = ctx->ic_mask[pid];
                        long long ishift = ctx->ic_shift[pid];
                        while (iline <= ilast && istates[iline & imask]
                               && itags[iline & imask] == (iline >> ishift))
                            iline++;
                    }
                    if (ctx->icache_mode == 0
                        || (ctx->icache_mode == 1 && iline > ilast)) {
                        if (ctx->icache_mode)
                            ctx->d_icfetch[pid] +=
                                ilast - (addr >> ctx->iline_shift) + 1;
                        if (proc_compute(ctx, pid, count, &time) < 0)
                            goto fail;
                    }
                    else {
                        int err = 0;
                        time = call_ifetch(ctx, pid, addr, count, time, &err);
                        if (err)
                            goto fail;
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
                    if (!running)
                        state = RUN_OVER;
                    /* whoever was woken may be the earliest now */
                    next_time = ctx->n_ready ? ctx->ready[0].time : LLONG_MAX;
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
    return NULL;
}

/* ==================================================================== */
/* Fused multi-configuration ladder (repro.trace.multiconfig)           */
/* ==================================================================== */

/* The fused pass of repro.trace.multiconfig (its only implementation;
 * the module docstring there carries the exactness argument): one pass
 * over a single-process tape driving every rung of an SCC ladder at once.
 * Per-size timing is a skew against the shared base clock; hits with no
 * live fill/write-buffer window anywhere (``hot_n == 0``) cost a single
 * smallest-size tag probe.  The wrapper
 * (``multiconfig._fused_pass_native``) owns plan construction, the
 * python-side synchronization handlers (status 2), and the statistics
 * flush; every array here is ``array('q')`` storage it allocated.
 *
 * The contract is per-size replay on the reference loop, statistic for
 * statistic.  A rung *is* a machine -- a ``Machine`` of one ``Scc``, on
 * its own system's bus clock, counting into an ``S_*`` row -- and what
 * happens to it on a miss, an upgrade or an icache refill is the
 * "coherence" section's ``bus_acquire``, ``install`` and
 * ``write_shared_or_miss``, called at the rung's local time; with one
 * cluster there is nothing to snoop and no line to lose (``lost`` is
 * NULL), so the event loop touches no python object.  The ladder's own is
 * what only a ladder has: the inclusion prefix, the shared clock folded
 * into per-size finish times (``l_fold``, ``skew``), the live windows
 * that say when a rung's hits can stall (``fill_live``, ``wb_live``,
 * ``hot``).  ``l_slow_read`` / ``l_slow_write`` are therefore not
 * ``do_access``: per-process clocks with bank arbitration, and one shared
 * clock with a skew per rung, are two algorithms over the same view.
 *
 * The ownership rule is ``run``'s, one way: a rung's ``_inflight`` dict
 * and write-buffer lists are empty from ``ladder_setup`` (which refuses
 * anything else: nothing could supply the live windows of a pass begun
 * mid-machine) until ``ladder_release`` writes them.  A rung tracks the
 * fills of write misses only: the processor waits out a read miss's fill,
 * so its one process can never meet it in flight, and the quiet path
 * would never get to forget it -- a rung's read miss therefore hands
 * ``install`` ``FILL_NONE`` where ``read_miss`` hands it the fill time.
 * A non-positive span stride raises ValueError instead of spinning (the
 * ladder has no cycle limit to bail it out).
 */

typedef struct {
    PyObject *plan;
    int n_sizes;
    int released;
    long long line_shift, nbanks, ic_lat;
    long long model_icache, il_shift, ic_mask, ic_shift;
    Machine *rungs;           /* [rung]: the machine of ... */
    Scc *sccs;                /* ... its one SCC, ``sccs[rung]`` */
    long long *skew, *fin, *folded, *fill_live, *wb_live, *hot;
    long long *d_stall, *d_ic;
    long long *ic_states, *ic_tags;
    long long *regs;    /* i, base, uref, ev, n_reads, n_writes, u_busy,
                           hot_n, ic_misses, ic_fetch_lines */
    Views views;
} LCtx;

static const char LCTX_NAME[] = "repro.trace.engine._native.ladder";

/* Fold the shared clock into rung ``s`` and return its local time. */
static inline long long
l_fold(LCtx *c, int s, long long base, long long uref)
{
    long long sk = c->skew[s];
    if (uref > c->folded[s]) {
        long long f = uref + sk;
        if (f > c->fin[s])
            c->fin[s] = f;
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
    long long stall = wbuf_reserve(&c->sccs[s].words, bank, now, retire);
    if (retire < now + stall)
        retire = now + stall;
    if (retire > c->wb_live[s])
        c->wb_live[s] = retire;
    c->sccs[s].stats[S_WRITE_BUFFER_STALL_CYCLES] += stall;
    return stall;
}

/* A reference of rung ``s`` issued at ``t`` let its processor carry on at
 * ``done``: the stall, the rung's new skew, and whether it is still
 * inside a live window. */
static inline void
l_complete(LCtx *c, int s, long long base, long long t, long long done,
           long long *hot_n)
{
    c->d_stall[s] += done - t - 1;
    c->fin[s] = done;
    c->skew[s] = done - base - 1;
    l_update_hot(c, s, done, hot_n);
}

/* Per-size processing for a read that is not uniformly quiet. */
static int
l_slow_read(LCtx *c, long long line, long long base, long long uref,
            long long *hot_n)
{
    int s = 0;
    int n = c->n_sizes;
    for (; s < n; s++) {                    /* misses: ladder prefix */
        Scc *scc = &c->sccs[s];
        long long index = line & scc->mask;
        if (scc->states[index]
            && scc->tags[index] == (line >> scc->shift))
            break;
        /* ``read_miss`` with nobody to snoop, no line to have lost and no
         * fill recorded (see above): the victim's goes all the same */
        Machine *rung = &c->rungs[s];
        long long t = l_fold(c, s, base, uref), grant;
        scc->stats[S_READ_MISSES]++;
        if (bus_acquire(rung, scc, t, rung->bus_occ, &grant) < 0)
            return -1;
        scc->stats[S_BUS_WAIT_CYCLES] += grant - t;
        if (install(rung, 0, line, index,
                    rung->mesi ? ST_EXCLUSIVE : ST_SHARED, t, FILL_NONE) < 0)
            return -1;
        l_complete(c, s, base, t, grant + rung->mem_latency + 1, hot_n);
    }
    for (; *hot_n && s < n; s++) {          /* hits inside live windows */
        if (!c->hot[s])
            continue;
        Scc *scc = &c->sccs[s];
        long long t = l_fold(c, s, base, uref);
        long long done = t + 1;
        if (c->fill_live[s] > t)
            done = fill_done(&scc->words, line, line & scc->mask, t);
        l_complete(c, s, base, t, done, hot_n);
    }
    return 0;
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
        Scc *scc = &c->sccs[s];
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
        Scc *scc = &c->sccs[s];
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
lctx_release(LCtx *ctx)
{
    if (ctx->released)
        return;
    ctx->released = 1;
    views_release(&ctx->views);
    Py_CLEAR(ctx->plan);
}

static void
lctx_free(LCtx *ctx)
{
    lctx_release(ctx);
    sccs_free(ctx->sccs, ctx->n_sizes);
    PyMem_Free(ctx->rungs);
    PyMem_Free(ctx->views.bufs);
    PyMem_Free(ctx);
}

static void
lctx_destructor(PyObject *capsule)
{
    LCtx *ctx = (LCtx *)PyCapsule_GetPointer(capsule, LCTX_NAME);
    if (ctx)
        lctx_free(ctx);
}

/* plan: (per_size, scal, state, ic, regs)
 *   per_size -- an SCC entry (``scc_setup``) per rung, smallest first,
 *               each on its own system's bus clock and with no lost-line
 *               set; its ``_inflight`` dict and write-buffer lists must be
 *               empty -- a rung starts as a fresh machine -- and are
 *               written at ``ladder_release``
 *   scal     -- array('q'): line_shift, nbanks, wb_depth, bus_occ,
 *               upgrade_occ, mem_latency, mesi, ic_lat, model_icache,
 *               il_shift, ic_mask, ic_shift
 *   state    -- tuple of array('q') per-size arrays: skew, fin, folded,
 *               fill_live, wb_live, hot, d_stall, d_ic
 *   ic       -- (ic_states, ic_tags) array('q') pair, or () when the
 *               icache is unmodelled
 *   regs     -- array('q'): i, base, uref, ev, n_reads, n_writes,
 *               u_busy, hot_n, ic_misses, ic_fetch_lines
 */
static PyObject *
native_ladder_setup(PyObject *self, PyObject *plan)
{
    (void)self;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 5) {
        PyErr_SetString(PyExc_TypeError, "ladder plan must be a 5-tuple");
        return NULL;
    }
    PyObject *per_size = PyTuple_GET_ITEM(plan, 0);
    PyObject *scal = PyTuple_GET_ITEM(plan, 1);
    PyObject *state = PyTuple_GET_ITEM(plan, 2);
    PyObject *ic = PyTuple_GET_ITEM(plan, 3);
    PyObject *regs = PyTuple_GET_ITEM(plan, 4);

    LCtx *ctx = PyMem_Calloc(1, sizeof(LCtx));
    if (!ctx)
        return PyErr_NoMemory();
    int n = (int)PyTuple_GET_SIZE(per_size);

    int max_views = 4 * n + 16;
    ctx->views.bufs = PyMem_Calloc(max_views, sizeof(Py_buffer));
    ctx->rungs = PyMem_Calloc(n, sizeof(Machine));
    ctx->sccs = PyMem_Calloc(n, sizeof(Scc));
    if (!ctx->views.bufs || !ctx->rungs || !ctx->sccs) {
        lctx_free(ctx);
        return PyErr_NoMemory();
    }
    ctx->n_sizes = n;

    ctx->plan = plan;
    Py_INCREF(plan);

    long long sc[12];
    for (Py_ssize_t k = 0; k < 12; k++) {
        if (get_ll_item(scal, k, &sc[k]) < 0)
            goto fail;
    }
    ctx->line_shift = sc[0];
    ctx->nbanks = sc[1];
    ctx->ic_lat = sc[7];
    ctx->model_icache = sc[8];
    ctx->il_shift = sc[9];
    ctx->ic_mask = sc[10];
    ctx->ic_shift = sc[11];

    for (int s = 0; s < n; s++) {
        Machine *rung = &ctx->rungs[s];
        Scc *scc = rung->sccs = &ctx->sccs[s];
        rung->n = 1;
        rung->bus_occ = sc[3];
        rung->upgrade_occ = sc[4];
        rung->mem_latency = sc[5];
        rung->mesi = (int)sc[6];
        if (scc_setup(scc, &ctx->views, PyTuple_GET_ITEM(per_size, s),
                      ctx->nbanks, sc[2]) < 0)
            goto fail;
        const Words *w = &scc->words;
        int fresh = PyDict_GET_SIZE(w->inflight) == 0;
        for (Py_ssize_t bank = 0; fresh && bank < w->nbanks; bank++)
            fresh = PyList_GET_SIZE(PyList_GET_ITEM(w->wbufs, bank)) == 0;
        if (!fresh) {
            PyErr_SetString(PyExc_ValueError, "a ladder rung must start "
                            "with no fill in flight and no buffered write");
            goto fail;
        }
    }

    long long **sptr[8] = {
        &ctx->skew, &ctx->fin, &ctx->folded, &ctx->fill_live,
        &ctx->wb_live, &ctx->hot, &ctx->d_stall, &ctx->d_ic,
    };
    for (int k = 0; k < 8; k++) {
        if (!(*sptr[k] = acquire_ll_n(&ctx->views,
                                      PyTuple_GET_ITEM(state, k), n)))
            goto fail;
    }
    if (ctx->model_icache) {
        if (!(ctx->ic_states = acquire_ll_n(
                  &ctx->views, PyTuple_GET_ITEM(ic, 0), ctx->ic_mask + 1)))
            goto fail;
        if (!(ctx->ic_tags = acquire_ll_n(
                  &ctx->views, PyTuple_GET_ITEM(ic, 1), ctx->ic_mask + 1)))
            goto fail;
    }
    if (!(ctx->regs = acquire_ll_n(&ctx->views, regs, 10)))
        goto fail;

    PyObject *capsule = PyCapsule_New(ctx, LCTX_NAME, lctx_destructor);
    if (!capsule)
        goto fail;
    return capsule;

fail:
    lctx_free(ctx);
    return NULL;
}

/* The end of the pass, completed or aborted: every rung's fills and write
 * buffers go to the containers of its SCC -- what ``check_invariants``
 * then checks -- before the views are dropped, as ``release`` does. */
static PyObject *
native_ladder_release(PyObject *self, PyObject *capsule)
{
    (void)self;
    LCtx *ctx = (LCtx *)PyCapsule_GetPointer(capsule, LCTX_NAME);
    if (!ctx)
        return NULL;
    if (!ctx->released) {
        int failed = 0;
        for (int s = 0; !failed && s < ctx->n_sizes; s++)
            failed = words_export(&ctx->sccs[s].words) < 0;
        lctx_release(ctx);
        if (failed)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
native_ladder_drain(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *capsule, *chunk;
    if (!PyArg_ParseTuple(args, "OO", &capsule, &chunk))
        return NULL;
    LCtx *ctx = (LCtx *)PyCapsule_GetPointer(capsule, LCTX_NAME);
    if (!ctx)
        return NULL;
    if (ctx->released) {
        PyErr_SetString(PyExc_RuntimeError, "drain on released context");
        return NULL;
    }
    Py_buffer cview;
    if (PyObject_GetBuffer(chunk, &cview, PyBUF_SIMPLE) < 0)
        return NULL;
    const long long *data = (const long long *)cview.buf;
    long long end = (long long)(cview.len / 8);

    long long *regs = ctx->regs;
    long long i = regs[0];
    long long base = regs[1];
    long long uref = regs[2];
    long long ev = regs[3];
    long long n_reads = regs[4];
    long long n_writes = regs[5];
    long long u_busy = regs[6];
    long long hot_n = regs[7];
    long long ic_misses = regs[8];
    long long ic_fetch_lines = regs[9];
    long long line_shift = ctx->line_shift;
    long long nbanks = ctx->nbanks;
    long long mask0 = ctx->sccs[0].mask;
    long long shift0 = ctx->sccs[0].shift;
    long long *states0 = ctx->sccs[0].states;
    long long *tags0 = ctx->sccs[0].tags;
    int status = STATUS_EXHAUSTED;
    PyObject *result = NULL;

    while (i < end) {
        long long op = data[i];
        if (op == OP_READ) {
            long long line = data[i + 1] >> line_shift;
            i += 2;
            ev++;
            long long index = line & mask0;
            if (!(hot_n == 0 && states0[index]
                  && tags0[index] == (line >> shift0))
                && l_slow_read(ctx, line, base, uref, &hot_n) < 0)
                goto out;
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
            if (cycles) {
                u_busy += cycles;
                base += cycles;
            }
        }
        else if (op == OP_IFETCH) {
            long long count = data[i + 2];
            ev++;
            if (!ctx->model_icache) {
                u_busy += count;
                base += count;
                i += 3;
                continue;
            }
            long long addr = data[i + 1];
            i += 3;
            long long first = addr >> ctx->il_shift;
            long long last =
                (addr + count * 4 - 1) >> ctx->il_shift;
            long long *ic_states = ctx->ic_states;
            long long *ic_tags = ctx->ic_tags;
            long long ic_mask = ctx->ic_mask;
            long long ic_shift = ctx->ic_shift;
            long long ln = first;
            while (ln <= last) {
                long long ii = ln & ic_mask;
                if (ic_states[ii] && ic_tags[ii] == (ln >> ic_shift))
                    ln++;
                else
                    break;
            }
            if (ln > last) {
                /* Every line resident: no refills at any size. */
                ic_fetch_lines += last - first + 1;
                u_busy += count;
                base += count;
                continue;
            }
            long long misses = 0;
            for (ln = first; ln <= last; ln++) {
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
                    long long grant;
                    if (bus_acquire(rung, rung->sccs, t + stall,
                                    rung->bus_occ, &grant) < 0)
                        goto out;
                    stall = grant + ctx->ic_lat - t;
                }
                ctx->d_ic[s] += stall;
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
                          && tags0[index] == (line >> shift0))
                        && l_slow_read(ctx, line, base, uref, &hot_n) < 0)
                        goto out;
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
        else {
            /* Queue, synchronization or unknown opcode: python side. */
            status = STATUS_SYNC;
            break;
        }
    }

    result = PyLong_FromLong(status);
out:    /* (with an error set, too: the registers say how far the pass got) */
    regs[0] = i;
    regs[1] = base;
    regs[2] = uref;
    regs[3] = ev;
    regs[4] = n_reads;
    regs[5] = n_writes;
    regs[6] = u_busy;
    regs[7] = hot_n;
    regs[8] = ic_misses;
    regs[9] = ic_fetch_lines;
    PyBuffer_Release(&cview);
    return result;
}

/* ==================================================================== */
/* Row profiles (repro.model.profile)                                   */
/* ==================================================================== */

/* The numeric half of ``build_row_profile``: ``row_profile`` takes one
 * row's packed streams and its geometry and returns, as flat tuples and
 * lists, everything the payload is assembled from.  The contract is the
 * reference kernel in src/repro/model/profile.py, function for function
 * -- ``extract_process`` (pf_walk), ``merge_refs`` (pf_merge),
 * ``_histogram_of`` over ``trace.analysis._distances_from_lines``
 * (pf_histogram), ``coherence_ladder`` (pf_ladder), ``_sharing_summary``
 * (pf_sharing) -- and the payloads must stay byte-identical, errors
 * included: the differ's ``profile`` engine and tests/model compare them.
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
 * passes after the walk -- a histogram per process and per cluster, the
 * sharing summary -- index arrays instead of hashing.  Where python's
 * integers would outgrow 64 bits (a span or fetch running past the
 * address space, 2^26 references in one row: past that a product in the
 * exposure term stops being an exact double) the kernel raises
 * OverflowError rather than differ.
 */

#define PF_MAX_REFS_LOG2 26
#define PF_MAX_REFS (1LL << PF_MAX_REFS_LOG2)
#define PF_EXACT 128            /* profile._EXACT_DISTANCES = 2^7 */
#define PF_PER_OCTAVE_LOG2 3    /* profile._BUCKETS_PER_OCTAVE = 8 */
#define PF_BUCKETS \
    (PF_EXACT + ((PF_MAX_REFS_LOG2 - 7) << PF_PER_OCTAVE_LOG2))
#define PF_INSTRUCTION_BYTES 4  /* repro.core.icache.INSTRUCTION_BYTES */

/* packed.OP_WIDTH, by opcode */
static const int PF_WIDTH[] = {0, 2, 2, 2, 3, 2, 2, 3, 3, 2, 4, 4};

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
        int width = PF_WIDTH[op];
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
 * process], [write misses by process])``.  Empty slots hold -1, as the
 * reference's do. */
static PyObject *
pf_ladder(const Ref *refs, long long n, const int *proc_cluster,
          int n_procs, int n_clusters, const long long *rung_lines,
          int n_rungs)
{
    PyObject *result = NULL;
    size_t n_arrays = (size_t)n_clusters * n_rungs;
    long long **tags = pf_alloc(n_arrays, sizeof(long long *));
    long long *shift = pf_alloc(n_rungs, sizeof(long long));
    /* per rung: the three totals, then read and write misses by process */
    size_t row = 3 + 2 * (size_t)n_procs;
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
            counts[rung * row + 3 + ref->write * n_procs + ref->proc]++;
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
        PyObject *writes = pf_ll_list(c + 3 + n_procs, n_procs);
        PyObject *entry = NULL;
        if (reads && writes)
            entry = Py_BuildValue("(LLLOO)", c[0], c[1], c[2],
                                  reads, writes);
        Py_XDECREF(reads);
        Py_XDECREF(writes);
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

/* ``_sharing_summary`` over the globally merged stream:
 * ``(shared_lines, interprocess_reuses, [(writers, lines), ...],
 * [exposure by cluster])``.  Exposure is a float sum, so its order is
 * part of the contract: per cluster, one term per shared line in the
 * order the merged stream first touches the lines (the reference's
 * dict order), each term one correctly rounded int / int division. */
static PyObject *
pf_sharing(const Ref *refs, long long n, unsigned n_lines,
           const int *proc_cluster, int n_procs, int n_clusters)
{
    PyObject *result = NULL, *writer_sets = NULL, *exposure_list = NULL;
    size_t words = ((size_t)n_procs + 63) / 64;
    size_t width = n_clusters > 1 ? 2 * (size_t)n_clusters : 0;
    long long shared_lines = 0, reuses = 0;
    long long n_touched = 0;
    long long *toucher = pf_alloc_filled(n_lines, -1);
    unsigned long long *writers =
        pf_alloc((size_t)n_lines * words, sizeof(unsigned long long));
    /* [line id][cluster][reads, writes]; only kept with several clusters */
    long long *counts =
        pf_alloc((size_t)n_lines * width, sizeof(long long));
    unsigned *touched = pf_alloc(n_lines, sizeof(unsigned));
    long long *by_writers =
        pf_alloc((size_t)n_procs + 1, sizeof(long long));
    double *exposure = pf_alloc((size_t)n_clusters, sizeof(double));
    if (!toucher || !writers || !counts || !touched || !by_writers
            || !exposure)
        goto done;

    for (long long position = 0; position < n; position++) {
        const Ref *ref = &refs[position];
        if (ref->write)
            writers[ref->id * words + ref->proc / 64] |=
                1ULL << (ref->proc % 64);
        if (toucher[ref->id] < 0)
            touched[n_touched++] = ref->id;
        else if (toucher[ref->id] != ref->proc)
            reuses++;
        toucher[ref->id] = ref->proc;
        if (width)
            counts[ref->id * width + 2 * proc_cluster[ref->proc]
                   + ref->write]++;
    }

    for (long long t = 0; t < n_touched; t++) {
        unsigned id = touched[t];
        int n_writers = 0;
        for (size_t w = 0; w < words; w++)
            for (unsigned long long bits = writers[id * words + w]; bits;
                    bits &= bits - 1)
                n_writers++;
        by_writers[n_writers]++;
        if (!width)
            continue;
        const long long *c = counts + id * width;
        long long all_writes = 0;
        int present = 0;
        for (int cluster = 0; cluster < n_clusters; cluster++) {
            present += c[2 * cluster] + c[2 * cluster + 1] > 0;
            all_writes += c[2 * cluster + 1];
        }
        if (present < 2)
            continue;
        shared_lines++;
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

    if (!(writer_sets = PyList_New(0))
            || !(exposure_list = PyList_New(n_clusters)))
        goto done;
    for (int k = 1; k <= n_procs; k++) {
        if (!by_writers[k])
            continue;
        PyObject *pair = Py_BuildValue("(iL)", k, by_writers[k]);
        if (!pair || PyList_Append(writer_sets, pair) < 0) {
            Py_XDECREF(pair);
            goto done;
        }
        Py_DECREF(pair);
    }
    for (int cluster = 0; cluster < n_clusters; cluster++) {
        PyObject *value = PyFloat_FromDouble(exposure[cluster]);
        if (!value)
            goto done;
        PyList_SET_ITEM(exposure_list, cluster, value);
    }
    result = Py_BuildValue("(LLOO)", shared_lines, reuses, writer_sets,
                           exposure_list);

done:
    Py_XDECREF(writer_sets);
    Py_XDECREF(exposure_list);
    free(toucher);
    free(writers);
    free(counts);
    free(touched);
    free(by_writers);
    free(exposure);
    return result;
}

/* row_profile(streams, procs, line_shift, clusters, procs_per_cluster,
 *             icache, tracked)
 *
 * ``streams``: a tuple of ``array('q')`` tapes, one per entry of
 * ``procs`` (the ascending processor ids); ``icache``: None or ``(lines,
 * line_size)``; ``tracked``: the ladder's ascending power-of-two line
 * counts.  Returns ``(summaries, process_histograms,
 * cluster_histograms, ladder, sharing)``, lists by process index,
 * cluster and rung -- the shapes ``profile._row_payload`` reads. */
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
    PyObject *summaries = NULL, *process_hists = NULL, *cluster_hists = NULL;
    PyObject *ladder = NULL, *sharing = NULL;
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
        if (proc_refs[p].n > longest)
            longest = proc_refs[p].n;
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
            || !(process_hists = PyList_New(n_procs))
            || !(cluster_hists = PyList_New(n_clusters)))
        goto done;
    for (Py_ssize_t p = 0; p < n_procs; p++) {
        const long long *s = sums + p * PF_SUMMARY;
        PyObject *summary = Py_BuildValue(
            "(LLLLLLLL)", s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]);
        if (!summary)
            goto done;
        PyList_SET_ITEM(summaries, p, summary);
        pf_histogram(proc_refs[p].refs, proc_refs[p].n, last, tree, hist);
        PyObject *object = pf_histogram_object(hist);
        if (!object)
            goto done;
        PyList_SET_ITEM(process_hists, p, object);
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
            || !(sharing = pf_sharing(global, global_n, table.count,
                                      proc_cluster, (int)n_procs,
                                      n_clusters)))
        goto done;
    result = PyTuple_Pack(5, summaries, process_hists, cluster_hists,
                          ladder, sharing);

done:
    Py_XDECREF(summaries);
    Py_XDECREF(process_hists);
    Py_XDECREF(cluster_hists);
    Py_XDECREF(ladder);
    Py_XDECREF(sharing);
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
/* Force-phase words (repro.workloads.barnes_hut)                       */
/* ==================================================================== */

/* A ``BarnesHut`` object remembers each tree's force walks with no
 * address in them (a ``_ForcePlan``: one int32 ``node * 4 + kind`` per
 * node visit, body ``b``'s walk at ``visits[starts[b]:starts[b + 1]]``),
 * and every run relocates them onto the cells its own insert races
 * allocated.  ``force_words`` is that relocation: the walks of the run's
 * bodies in processor order, every word written once, straight into the
 * ``array('q')`` chunk each processor yields.  The contract is numpy's
 * ``barnes_hut._expand``, word for word: what ``REPRO_NATIVE=0`` runs and
 * what tests/workloads compares this against.
 *
 * C knows no record layout.  A walk is the ``begin`` pattern about the
 * walking body's record, one pattern per visit by its kind about the node
 * the visit names (kind 0 a body, kinds 1 and 2 a cell), then the ``end``
 * pattern about the walking body again; a pattern is ``(words,
 * relative)``, word ``k`` written as ``words[k] + relative[k] * address``
 * (wrapping, as numpy's int64 arithmetic does).  Every input is checked
 * before an output exists -- lengths, non-decreasing ``starts``, every
 * body of ``order`` and every node a visit names inside its table, every
 * kind below 3, ``owned`` adding up to ``order`` -- so a bad one raises
 * ValueError and leaves nothing half written.
 */

#define FW_KINDS 3              /* visit kinds; a plan word's low two bits */
#define FW_PATTERN_MAX 16       /* words in one pattern */

typedef struct {
    Py_ssize_t n;
    long long words[FW_PATTERN_MAX], relative[FW_PATTERN_MAX];
} FwPattern;

/* Pattern ``obj``: a ``(words, relative)`` pair of equal-length int
 * sequences. */
static int
fw_pattern(PyObject *obj, FwPattern *p)
{
    PyObject *words, *relative;
    if (!PyArg_ParseTuple(obj, "OO", &words, &relative))
        return -1;
    Py_ssize_t n = PySequence_Size(words);
    if (n < 0)
        return -1;
    if (n > FW_PATTERN_MAX || PySequence_Size(relative) != n) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError,
                         "a force pattern is at most %d words, each with "
                         "a relative flag", FW_PATTERN_MAX);
        return -1;
    }
    p->n = n;
    for (Py_ssize_t k = 0; k < n; k++)
        if (get_ll_item(words, k, &p->words[k]) < 0
                || get_ll_item(relative, k, &p->relative[k]) < 0)
            return -1;
    return 0;
}

/* A read-only view on ``obj``'s contiguous signed integers of ``size``
 * bytes each; returns how many. */
static Py_ssize_t
fw_view(PyObject *obj, Py_buffer *view, Py_ssize_t size, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    size_t len = strlen(view->format);
    if (view->itemsize != size || len == 0
            || !strchr("ilq", view->format[len - 1])) {
        PyErr_Format(PyExc_ValueError, "%s must be %zd-byte integers",
                     what, size);
        PyBuffer_Release(view);
        return -1;
    }
    return view->len / size;
}

static inline long long *
fw_write(long long *out, const FwPattern *p, long long address)
{
    unsigned long long a = (unsigned long long)address;
    for (Py_ssize_t k = 0; k < p->n; k++)
        out[k] = (long long)((unsigned long long)p->words[k]
                             + (unsigned long long)p->relative[k] * a);
    return out + p->n;
}

/* force_words(visits, starts, order, owned, body_address, cell_address,
 *             patterns)
 *
 * ``visits``: the plan's int32 words; ``starts``: int64, one per body and
 * one past the last; ``order``: int64 body indexes, processor by
 * processor, ``owned[p]`` of them processor ``p``'s; ``body_address`` and
 * ``cell_address``: int64 record addresses by body index and by a cell's
 * pre-order number; ``patterns``: ``(begin, end, kind 0, kind 1, kind
 * 2)``.  Returns a list of one ``array('q')`` per processor. */
static PyObject *
native_force_words(PyObject *self, PyObject *args)
{
    (void)self;
    enum { V_VISITS, V_STARTS, V_ORDER, V_BODY, V_CELL, V_COUNT };
    const Py_ssize_t sizes[V_COUNT] = {4, 8, 8, 8, 8};
    const char *names[V_COUNT] = {"visits", "starts", "order",
                                  "body addresses", "cell addresses"};
    PyObject *objs[V_COUNT], *owned_seq, *patterns;
    if (!PyArg_ParseTuple(args, "OOOOOOO!", &objs[V_VISITS],
                          &objs[V_STARTS], &objs[V_ORDER], &owned_seq,
                          &objs[V_BODY], &objs[V_CELL], &PyTuple_Type,
                          &patterns))
        return NULL;

    PyObject *result = NULL, *array_mod = NULL, *zero = NULL;
    Py_buffer views[V_COUNT];
    Py_ssize_t lens[V_COUNT];
    int n_views = 0;
    long long *owned = NULL, *walk_words = NULL, *proc_words = NULL;
    FwPattern pats[2 + FW_KINDS];

    for (; n_views < V_COUNT; n_views++)
        if ((lens[n_views] = fw_view(objs[n_views], &views[n_views],
                                     sizes[n_views], names[n_views])) < 0)
            goto done;
    const int *visits = views[V_VISITS].buf;
    const long long *starts = views[V_STARTS].buf;
    const long long *order = views[V_ORDER].buf;
    const long long *tables[FW_KINDS] = {
        views[V_BODY].buf, views[V_CELL].buf, views[V_CELL].buf};
    const Py_ssize_t table_lens[FW_KINDS] = {
        lens[V_BODY], lens[V_CELL], lens[V_CELL]};
    Py_ssize_t n_bodies = lens[V_BODY], n_order = lens[V_ORDER];

    if (PyTuple_GET_SIZE(patterns) != 2 + FW_KINDS) {
        PyErr_SetString(PyExc_ValueError,
                        "need five force patterns: begin, end and one per "
                        "visit kind");
        goto done;
    }
    for (int k = 0; k < 2 + FW_KINDS; k++)
        if (fw_pattern(PyTuple_GET_ITEM(patterns, k), &pats[k]) < 0)
            goto done;
    Py_ssize_t n_procs = PySequence_Size(owned_seq);
    if (n_procs < 0)
        goto done;
    if (lens[V_STARTS] != n_bodies + 1) {
        PyErr_Format(PyExc_ValueError,
                     "a force plan over %zd bodies needs %zd starts",
                     n_bodies, n_bodies + 1);
        goto done;
    }
    if (starts[0] < 0 || starts[n_bodies] > lens[V_VISITS]) {
        PyErr_SetString(PyExc_ValueError,
                        "force plan starts run outside its visits");
        goto done;
    }
    for (Py_ssize_t b = 0; b < n_bodies; b++)
        if (starts[b + 1] < starts[b]) {
            PyErr_Format(PyExc_ValueError,
                         "force plan starts decrease at body %zd", b + 1);
            goto done;
        }

    /* Every walk checked and measured, then every processor's chunk. */
    if (!(walk_words = pf_alloc(n_bodies, sizeof(long long)))
            || !(owned = pf_alloc(n_procs, sizeof(long long)))
            || !(proc_words = pf_alloc(n_procs, sizeof(long long))))
        goto done;
    for (Py_ssize_t b = 0; b < n_bodies; b++) {
        long long words = pats[0].n + pats[1].n;
        for (long long i = starts[b]; i < starts[b + 1]; i++) {
            int kind = visits[i] & 3;
            long long node = visits[i] >> 2;
            if (kind >= FW_KINDS) {
                PyErr_Format(PyExc_ValueError,
                             "force plan visit %lld is of kind %d", i, kind);
                goto done;
            }
            if (node < 0 || node >= table_lens[kind]) {
                PyErr_Format(PyExc_ValueError,
                             "force plan visit %lld names node %lld outside "
                             "its table", i, node);
                goto done;
            }
            words += pats[2 + kind].n;
        }
        walk_words[b] = words;
    }
    long long placed = 0;
    for (Py_ssize_t p = 0; p < n_procs; p++) {
        if (get_ll_item(owned_seq, p, &owned[p]) < 0)
            goto done;
        if (owned[p] < 0 || owned[p] > n_order - placed) {
            PyErr_Format(PyExc_ValueError,
                         "owned bodies overrun the order's %zd", n_order);
            goto done;
        }
        for (long long j = placed; j < placed + owned[p]; j++) {
            if (order[j] < 0 || order[j] >= n_bodies) {
                PyErr_Format(PyExc_ValueError,
                             "order names body %lld of %zd", order[j],
                             n_bodies);
                goto done;
            }
            if (walk_words[order[j]] > PY_SSIZE_T_MAX / 8 - proc_words[p]) {
                PyErr_NoMemory();
                goto done;
            }
            proc_words[p] += walk_words[order[j]];
        }
        placed += owned[p];
    }
    if (placed != n_order) {
        PyErr_Format(PyExc_ValueError,
                     "owned bodies add up to %lld, the order has %zd",
                     placed, n_order);
        goto done;
    }

    if (!(array_mod = PyImport_ImportModule("array"))
            || !(zero = PyObject_CallMethod(array_mod, "array", "s(i)", "q",
                                            0))
            || !(result = PyList_New(n_procs)))
        goto done;
    placed = 0;
    for (Py_ssize_t p = 0; p < n_procs; p++) {
        PyObject *chunk = PySequence_Repeat(zero, (Py_ssize_t)proc_words[p]);
        Py_buffer out;
        if (!chunk || PyObject_GetBuffer(chunk, &out, PyBUF_WRITABLE) < 0) {
            Py_XDECREF(chunk);
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, p, chunk);
        long long *at = out.buf;
        for (long long j = placed; j < placed + owned[p]; j++) {
            long long body = order[j];
            long long self_address = tables[0][body];
            at = fw_write(at, &pats[0], self_address);
            for (long long i = starts[body]; i < starts[body + 1]; i++) {
                int kind = visits[i] & 3;
                at = fw_write(at, &pats[2 + kind],
                              tables[kind][visits[i] >> 2]);
            }
            at = fw_write(at, &pats[1], self_address);
        }
        placed += owned[p];
        PyBuffer_Release(&out);
    }

done:
    while (n_views)
        PyBuffer_Release(&views[--n_views]);
    Py_XDECREF(array_mod);
    Py_XDECREF(zero);
    free(owned);
    free(walk_words);
    free(proc_words);
    return result;
}

/* --------------------------------------------------------------- module */

static PyMethodDef methods[] = {
    {"setup", native_setup, METH_O,
     "Parse a run plan into a context capsule."},
    {"run", native_run, METH_O,
     "Run every process until none is ready."},
    {"release", native_release, METH_O,
     "Write a context's working copy back; returns (locks, barriers)."},
    {"ladder_setup", native_ladder_setup, METH_O,
     "Parse a fused-ladder plan into a context capsule."},
    {"ladder_drain", native_ladder_drain, METH_VARARGS,
     "Run the fused ladder over packed events; returns 0/2."},
    {"ladder_release", native_ladder_release, METH_O,
     "Release the buffer views held by a ladder context."},
    {"row_profile", native_row_profile, METH_VARARGS,
     "Reduce one row's packed streams to the numbers of its RowProfile."},
    {"force_words", native_force_words, METH_VARARGS,
     "Relocate a Barnes-Hut force plan: one array('q') per processor."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_native",
    "C scheduler, inner loop and synchronization for the timing "
    "interleaver, its fused ladder, the row-profile kernel and the "
    "force-phase kernel.", -1, methods,
    NULL, NULL, NULL, NULL,
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
    PyObject *module = PyModule_Create(&moduledef);
    if (module
        && PyModule_AddStringConstant(module, "ABI_VERSION",
                                      ABI_VERSION) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
