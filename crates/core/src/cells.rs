//! View cells: the memory every view a first touch creates lives in.
//!
//! A view is created at most once per reducer per steal and freed when a
//! hypermerge reduces it away, usually on another worker than the one
//! that made it. Each view therefore takes a fixed-size **cell** from
//! its creating worker's own **chunks**, and every freed cell goes back
//! to the worker that carved it:
//!
//! * a [`CellHeap`], one per domain, owns every chunk (16 KB, aligned to
//!   its size) and one inbox per worker index, and frees the chunks when
//!   the domain drops;
//! * a [`WorkerCells`], one per worker state, holds the worker's local
//!   free lists, the unused tail of the chunk it carves from in each
//!   size class, and one outbox per other carver.
//!
//! A chunk's header names its carver, and a cell finds the header by
//! rounding its address down to the chunk size. Freeing a cell the
//! worker carved pushes it on a local list; any other cell joins the
//! outbox of its carver, which is handed to that carver's inbox every
//! [`OUTBOX_BATCH`] cells and when the worker state drops. Where no
//! worker state is at hand (a discarded set, a serial-point read) the
//! cell goes straight to its carver's inbox under the inbox lock.
//! Allocation pops the local list; when that is empty it takes the whole
//! inbox, and when that is empty too it carves.
//!
//! Views over 64 bytes or aligned beyond 16 keep a `Box`, decided per
//! type at compile time ([`class_of`]). A reducer's leftmost view is
//! always a `Box`: the serial paths that make and free it often run off
//! the pool, where there is no worker state. `reduce_into` frees only
//! its right operand, so a boxed leftmost never reaches the cell path.
//!
//! No `&mut WorkerCells` lives across user code: [`put`] runs after the
//! user `identity`, and [`take`] moves the value out and returns the
//! cell before the user `reduce` or `Drop` runs, so a nested lookup
//! inside either may take cells from the same worker. DESIGN.md §13.5
//! gives the measurements and the variants that lost.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::sync::Arc;

use crate::msync::Mutex;

/// Bytes in a chunk, and its alignment: a cell's header is at its
/// address rounded down to this.
const CHUNK: usize = 16 << 10;

/// Size classes: class `c` holds views of up to `16 << c` bytes, so 16,
/// 32 and 64.
const CLASSES: usize = 3;

/// The largest alignment a cell guarantees: the smallest cell size.
const CELL_ALIGN: usize = 16;

/// Freed cells of one carver a worker gathers before it hands them over.
const OUTBOX_BATCH: usize = 128;

/// The cell class of views of type `T`, or `None` when they stay boxed
/// (over 64 bytes, or aligned beyond 16).
pub(crate) const fn class_of<T>() -> Option<usize> {
    let size = std::mem::size_of::<T>();
    if std::mem::align_of::<T>() > CELL_ALIGN {
        None
    } else if size <= 16 {
        Some(0)
    } else if size <= 32 {
        Some(1)
    } else if size <= 64 {
        Some(2)
    } else {
        None
    }
}

/// Bytes in a cell of `class`. Cells sit at multiples of their size in
/// the chunk, so each is aligned to it; the first slot is the header's.
const fn cell_size(class: usize) -> usize {
    CELL_ALIGN << class
}

/// The first bytes of every chunk: who carved it.
#[repr(C)]
struct Header {
    /// The carver's inbox, where the chunk's cells go home.
    inbox: *const Inbox,
    /// The carver's worker index: which outbox collects them elsewhere.
    owner: usize,
}

const _: () = assert!(std::mem::size_of::<Header>() <= cell_size(0));

/// The header of the chunk `cell` lies in.
///
/// # Safety
///
/// `cell` must be a cell of a live chunk.
unsafe fn header<'a>(cell: *mut u8) -> &'a Header {
    // SAFETY: chunks are `CHUNK`-aligned and `CHUNK` long, so rounding a
    // cell's address down lands on its chunk's header; `map_addr` keeps
    // the chunk allocation's provenance, and the header is written once
    // at carving and never again.
    unsafe { &*cell.map_addr(|a| a & !(CHUNK - 1)).cast::<Header>() }
}

/// An intrusive list of free cells: each cell's first word links the
/// next, so the list costs no memory of its own.
#[derive(Copy, Clone)]
struct List {
    head: *mut u8,
    /// The last cell; stale while `len` is 0.
    tail: *mut u8,
    len: usize,
}

// SAFETY: a list is a chain of free cells inside chunks the heap owns;
// whoever holds the list owns those cells, and moving them between
// threads moves only that ownership.
unsafe impl Send for List {}

impl List {
    const EMPTY: List = List {
        head: std::ptr::null_mut(),
        tail: std::ptr::null_mut(),
        len: 0,
    };

    /// Links the free `cell` in at the front.
    ///
    /// # Safety
    ///
    /// `cell` must be a free cell that nothing else holds.
    unsafe fn push(&mut self, cell: *mut u8) {
        // SAFETY: fn contract; a cell is at least 16-byte aligned and
        // 16 bytes long, room for the link.
        unsafe { cell.cast::<*mut u8>().write(self.head) };
        if self.len == 0 {
            self.tail = cell;
        }
        self.head = cell;
        self.len += 1;
    }

    /// Unlinks the front cell, or returns null when the list is empty.
    fn pop(&mut self) -> *mut u8 {
        let cell = self.head;
        if !cell.is_null() {
            // SAFETY: a listed cell is free and holds its link, written
            // by `push` or `append` while the list's owner held it.
            self.head = unsafe { cell.cast::<*mut u8>().read() };
            self.len -= 1;
        }
        cell
    }

    /// Moves every cell of `other` to the front of this list.
    fn append(&mut self, other: List) {
        if other.len == 0 {
            return;
        }
        // SAFETY: `other.tail` is its last free cell, which the caller
        // owns with the rest of `other`.
        unsafe { other.tail.cast::<*mut u8>().write(self.head) };
        if self.len == 0 {
            self.tail = other.tail;
        }
        self.head = other.head;
        self.len += other.len;
    }
}

/// A carver's inbox: the cells other workers sent home, by class.
struct Inbox {
    lists: Mutex<[List; CLASSES]>,
}

impl Inbox {
    /// Hands `lists` to this inbox.
    fn receive(&self, lists: [List; CLASSES]) {
        // Not while a model thread unwinds, as in `SerialBorrow`'s drop:
        // the lock is a traced op, which would nest a second abort panic
        // in the destructor that freed the cells. They stay unlisted in
        // their chunks, which the heap frees.
        #[cfg(feature = "model")]
        if std::thread::panicking() && cilkm_checker::in_model() {
            return;
        }
        let mut inbox = self.lists.lock();
        for (held, list) in inbox.iter_mut().zip(lists) {
            held.append(list);
        }
    }
}

/// What the heap's lock guards: every chunk carved, and the inboxes.
struct HeapState {
    chunks: Vec<*mut u8>,
    /// One per worker index.
    #[expect(
        clippy::vec_box,
        reason = "chunk headers point at the inboxes, which must not move when the vector grows"
    )]
    inboxes: Vec<Box<Inbox>>,
}

// SAFETY: the chunk pointers are allocations the heap owns, freed only
// by its `Drop`; the inboxes are `Sync` behind their own locks.
unsafe impl Send for HeapState {}

/// A domain's cell memory: every chunk any of its workers carved, and
/// one inbox per worker index. Its lock is taken to carve a chunk and
/// to make a worker state, never on the per-view paths.
pub(crate) struct CellHeap {
    state: Mutex<HeapState>,
    /// Chunks carved and not yet freed; the test counterpart of the
    /// `chunks` vector that survives the heap.
    #[cfg(test)]
    live: Arc<crate::msync::atomic::AtomicUsize>,
}

/// The layout of one chunk.
fn chunk_layout() -> Layout {
    Layout::from_size_align(CHUNK, CHUNK).expect("chunk layout")
}

impl CellHeap {
    pub(crate) fn new() -> CellHeap {
        CellHeap {
            state: Mutex::new(HeapState {
                chunks: Vec::new(),
                inboxes: Vec::new(),
            }),
            #[cfg(test)]
            live: Arc::default(),
        }
    }

    /// The inbox of worker `index`, made on first use.
    fn inbox(&self, index: usize) -> *const Inbox {
        let mut state = self.state.lock();
        while state.inboxes.len() <= index {
            state.inboxes.push(Box::new(Inbox {
                lists: Mutex::new([List::EMPTY; CLASSES]),
            }));
        }
        &*state.inboxes[index]
    }

    /// Allocates a chunk carved by the owner of `inbox`, worker `owner`,
    /// with its header written.
    fn carve(&self, inbox: *const Inbox, owner: usize) -> *mut u8 {
        let layout = chunk_layout();
        // SAFETY: the layout has a non-zero size.
        let chunk = unsafe { alloc(layout) };
        if chunk.is_null() {
            handle_alloc_error(layout);
        }
        // SAFETY: a fresh `CHUNK`-aligned allocation, large enough.
        unsafe { chunk.cast::<Header>().write(Header { inbox, owner }) };
        self.state.lock().chunks.push(chunk);
        #[cfg(test)]
        self.live
            .fetch_add(1, crate::msync::atomic::Ordering::Relaxed);
        chunk
    }

    /// Chunks carved so far — test aid.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.state.lock().chunks.len()
    }

    /// A count of this heap's chunks not yet freed, readable after the
    /// heap is gone — test aid.
    #[cfg(test)]
    pub(crate) fn live_chunks(&self) -> Arc<crate::msync::atomic::AtomicUsize> {
        Arc::clone(&self.live)
    }
}

impl Drop for CellHeap {
    fn drop(&mut self) {
        for chunk in self.state.get_mut().chunks.drain(..) {
            // SAFETY: every chunk was allocated by `carve` with this
            // layout; the domain outlives every view (see the module
            // docs), so no cell is in use.
            unsafe { dealloc(chunk, chunk_layout()) };
            #[cfg(test)]
            self.live
                .fetch_sub(1, crate::msync::atomic::Ordering::Relaxed);
        }
    }
}

/// Cells on their way to one other carver.
struct Outbox {
    inbox: *const Inbox,
    lists: [List; CLASSES],
    len: usize,
}

/// A worker state's cells: local free lists of cells it carved, the
/// chunk tail it carves from in each class, and an outbox per carver.
pub(crate) struct WorkerCells {
    heap: Arc<CellHeap>,
    /// This worker's inbox: a header naming it marks a local cell.
    inbox: *const Inbox,
    index: usize,
    free: [List; CLASSES],
    /// Per class, the next uncarved cell of the newest chunk and the
    /// chunk's end (both null before the first chunk).
    fresh: [(*mut u8, *mut u8); CLASSES],
    /// Indexed by carver.
    outboxes: Vec<Outbox>,
}

impl WorkerCells {
    /// The cells of worker `index` of `heap`'s domain. Two live states
    /// may share an index (hook-level tests make such): they then share
    /// the inbox, which costs segregation, not correctness.
    pub(crate) fn new(heap: &Arc<CellHeap>, index: usize) -> WorkerCells {
        WorkerCells {
            inbox: heap.inbox(index),
            heap: Arc::clone(heap),
            index,
            free: [List::EMPTY; CLASSES],
            fresh: [(std::ptr::null_mut(), std::ptr::null_mut()); CLASSES],
            outboxes: Vec::new(),
        }
    }

    /// A cell of `class`: the local list's first, else the whole inbox's
    /// first, else a fresh one carved.
    #[inline]
    fn alloc(&mut self, class: usize) -> *mut u8 {
        let cell = self.free[class].pop();
        if cell.is_null() {
            return self.refill(class);
        }
        cell
    }

    #[cold]
    fn refill(&mut self, class: usize) -> *mut u8 {
        // SAFETY: the inbox lives in the heap, which `self.heap` keeps.
        let inbox = unsafe { &*self.inbox };
        let sent = std::mem::replace(&mut *inbox.lists.lock(), [List::EMPTY; CLASSES]);
        for (local, list) in self.free.iter_mut().zip(sent) {
            local.append(list);
        }
        let cell = self.free[class].pop();
        if !cell.is_null() {
            return cell;
        }
        let size = cell_size(class);
        let (next, end) = &mut self.fresh[class];
        if *next == *end {
            let chunk = self.heap.carve(self.inbox, self.index);
            // SAFETY: both offsets lie within (or one past) the chunk;
            // its first cell slot is the header's.
            unsafe {
                *next = chunk.add(size);
                *end = chunk.add(CHUNK);
            }
        }
        let cell = *next;
        // SAFETY: `cell` is below `end` and `CHUNK` is a multiple of
        // `size`, so this stays within or one past the chunk.
        *next = unsafe { cell.add(size) };
        cell
    }

    /// Takes back the free `cell` of `class`.
    ///
    /// # Safety
    ///
    /// `cell` must be a cell of `class` from a chunk of this heap, no
    /// longer in use.
    #[inline]
    unsafe fn free(&mut self, cell: *mut u8, class: usize) {
        // SAFETY: fn contract.
        let header = unsafe { header(cell) };
        if std::ptr::eq(header.inbox, self.inbox) {
            // SAFETY: fn contract.
            unsafe { self.free[class].push(cell) };
        } else {
            // SAFETY: fn contract.
            unsafe { self.send(header, cell, class) };
        }
    }

    /// Queues `cell` for its carver, handing the carver's outbox over
    /// when it is full.
    ///
    /// # Safety
    ///
    /// As [`WorkerCells::free`], and `header` is the cell's.
    unsafe fn send(&mut self, header: &Header, cell: *mut u8, class: usize) {
        if self.outboxes.len() <= header.owner {
            self.outboxes.resize_with(header.owner + 1, || Outbox {
                inbox: std::ptr::null(),
                lists: [List::EMPTY; CLASSES],
                len: 0,
            });
        }
        let out = &mut self.outboxes[header.owner];
        out.inbox = header.inbox;
        // SAFETY: fn contract.
        unsafe { out.lists[class].push(cell) };
        out.len += 1;
        if out.len == OUTBOX_BATCH {
            out.len = 0;
            let lists = std::mem::replace(&mut out.lists, [List::EMPTY; CLASSES]);
            // SAFETY: the inbox lives in the heap, which `self.heap`
            // keeps.
            unsafe { (*out.inbox).receive(lists) };
        }
    }
}

impl Drop for WorkerCells {
    fn drop(&mut self) {
        for out in self.outboxes.drain(..).filter(|out| out.len != 0) {
            // SAFETY: a non-empty outbox names a live inbox of the heap.
            unsafe { (*out.inbox).receive(out.lists) };
        }
        // The uncarved tails go home as free cells, so a state made
        // again for this index carves no new chunk for them.
        for (class, (next, end)) in self.fresh.into_iter().enumerate() {
            let mut cell = next;
            while cell != end {
                // SAFETY: an uncarved cell of a chunk this worker carved.
                unsafe {
                    self.free[class].push(cell);
                    cell = cell.add(cell_size(class));
                }
            }
        }
        // SAFETY: as in `refill`.
        unsafe { (*self.inbox).receive(self.free) };
    }
}

// SAFETY: the cells a `WorkerCells` holds are free memory of chunks the
// heap it keeps alive owns; the inbox pointers name the heap's inboxes,
// which are `Sync`. It moves between threads with its worker state.
unsafe impl Send for WorkerCells {}

/// Moves `value` into a cell from `cells`, or into a `Box` if `T` has
/// no class, and returns its address.
///
/// # Safety
///
/// `cells` must point at a live `WorkerCells` that no reference
/// borrows.
#[inline]
pub(crate) unsafe fn put<T>(cells: *mut WorkerCells, value: T) -> *mut u8 {
    match const { class_of::<T>() } {
        Some(class) => {
            debug_assert!(!cells.is_null(), "a view cell needs a worker state");
            // SAFETY: fn contract; the borrow ends before this returns.
            let cell = unsafe { (*cells).alloc(class) };
            // SAFETY: a free cell of `cell_size(class) >= size_of::<T>()`
            // bytes, aligned to at least `align_of::<T>()`.
            unsafe { cell.cast::<T>().write(value) };
            cell
        }
        None => Box::into_raw(Box::new(value)).cast(),
    }
}

/// Moves the value out of `view` and frees its cell (or `Box`): into
/// `cells`, or straight to the carver's inbox when `cells` is null.
/// The value is returned after the cell is back, so whatever the caller
/// runs on it may take cells again.
///
/// # Safety
///
/// `view` must come from [`put`] for this `T` in this domain, and not be
/// used afterwards; `cells`, unless null, must point at a live
/// `WorkerCells` of the domain that no reference borrows.
#[inline]
pub(crate) unsafe fn take<T>(cells: *mut WorkerCells, view: *mut u8) -> T {
    match const { class_of::<T>() } {
        Some(class) => {
            // SAFETY: fn contract: `view` holds a live `T`.
            let value = unsafe { view.cast::<T>().read() };
            if cells.is_null() {
                let mut lists = [List::EMPTY; CLASSES];
                // SAFETY: fn contract: a free cell now; its chunk, and so
                // its header and inbox, live as long as the domain.
                unsafe {
                    lists[class].push(view);
                    (*header(view).inbox).receive(lists);
                }
            } else {
                // SAFETY: fn contract; the borrow ends before this
                // returns.
                unsafe { (*cells).free(view, class) };
            }
            value
        }
        // SAFETY: fn contract: `put` boxed it.
        None => *unsafe { Box::from_raw(view.cast::<T>()) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_size_and_alignment() {
        #[repr(align(32))]
        struct Wide;
        assert_eq!(class_of::<()>(), Some(0));
        assert_eq!(class_of::<u64>(), Some(0));
        assert_eq!(class_of::<(usize, usize)>(), Some(0));
        assert_eq!(class_of::<String>(), Some(1));
        assert_eq!(class_of::<[u64; 8]>(), Some(2));
        assert_eq!(class_of::<[u64; 9]>(), None);
        assert_eq!(class_of::<Wide>(), None);
        assert_eq!(class_of::<u128>(), Some(0));
    }

    /// A cell freed by another worker reaches its carver only through
    /// the outbox, a full batch at a time or when the sender drops; one
    /// freed with no worker state goes home at once. Nothing is carved
    /// twice.
    #[test]
    fn cells_go_home_to_their_carver() {
        let heap = Arc::new(CellHeap::new());
        let mut a = WorkerCells::new(&heap, 0);
        let mut b = WorkerCells::new(&heap, 1);
        let cells: Vec<*mut u8> = (0..OUTBOX_BATCH + 2).map(|_| a.alloc(0)).collect();
        assert_eq!(heap.chunks(), 1);
        let home = |heap: &CellHeap| heap.state.lock().inboxes[0].lists.lock()[0].len;
        for (i, &cell) in cells.iter().enumerate().take(OUTBOX_BATCH) {
            assert_eq!(home(&heap), 0, "cell {i}");
            // SAFETY: a cell of class 0 from this heap, freed once.
            unsafe { b.free(cell, 0) };
        }
        assert_eq!(home(&heap), OUTBOX_BATCH, "one batch handed over");
        // SAFETY: as above, holding a `u64`, with no worker state at hand.
        unsafe {
            cells[OUTBOX_BATCH].cast::<u64>().write(7);
            assert_eq!(take::<u64>(std::ptr::null_mut(), cells[OUTBOX_BATCH]), 7);
        }
        assert_eq!(home(&heap), OUTBOX_BATCH + 1, "straight home");
        // SAFETY: as above.
        unsafe { b.free(cells[OUTBOX_BATCH + 1], 0) };
        assert_eq!(home(&heap), OUTBOX_BATCH + 1);
        drop(b);
        assert_eq!(home(&heap), OUTBOX_BATCH + 2, "the rest when b drops");
        // `a` takes its inbox back before it carves again.
        for _ in 0..OUTBOX_BATCH + 2 {
            a.alloc(0);
        }
        assert_eq!(home(&heap), 0);
        assert_eq!(heap.chunks(), 1);
    }

    use crate::domain::{Backend, DomainInner, ReducerPool, Slot};
    use crate::monoid::testing::{Tally, TrackedConcat};
    use crate::monoid::MonoidInstance;
    use crate::msync::atomic::{AtomicU32, Ordering};
    use crate::{hypermap, mmap, Reducer};
    use cilkm_runtime::HyperHooks;

    /// A merging worker sends a thief's cells home, and the thief takes
    /// them again: 1 000 rounds of 1 025 views, each made by a fresh
    /// thief state and merged into one owner state of the same domain,
    /// carve no chunk after the second round, and every view drops once.
    /// Single-threaded, so Miri runs it (with fewer rounds).
    #[test]
    fn merged_cells_go_home_and_chunks_stay_bounded() {
        const VIEWS: usize = 1025;
        let rounds = if cfg!(miri) { 4 } else { 1000 };
        for backend in [Backend::Hypermap, Backend::Mmap] {
            let domain = Arc::new(DomainInner::new(backend));
            let tally = Arc::new(Tally::default());
            let monoid = Arc::new(TrackedConcat(Arc::clone(&tally)));
            // The hypermap keys a view by its reducer's instance.
            let insts: Vec<MonoidInstance> =
                (0..VIEWS).map(|_| MonoidInstance::new(&monoid)).collect();
            let hooks: Box<dyn HyperHooks> = match backend {
                Backend::Hypermap => Box::new(hypermap::HypermapHooks::new(Arc::clone(&domain))),
                Backend::Mmap => Box::new(mmap::MmapHooks::new(Arc::clone(&domain))),
            };
            // First touches of every reducer in the calling thread's
            // current state.
            let touch = || {
                for (slot, inst) in insts.iter().enumerate() {
                    let key = domain.reducer_key(slot as Slot);
                    let view = match backend {
                        Backend::Hypermap => hypermap::lookup(key, inst),
                        Backend::Mmap => mmap::lookup(key, inst),
                    };
                    view.expect("worker state");
                }
            };
            let mut owner = hooks.make_worker_state(0);
            touch();
            let mut after_two = 0;
            for round in 1..=rounds {
                let det = {
                    let mut thief = hooks.make_worker_state(1);
                    touch();
                    hooks.detach(thief.as_mut())
                };
                hooks.merge_right(owner.as_mut(), det);
                if round == 2 {
                    after_two = domain.cells.chunks();
                }
            }
            assert_eq!(domain.cells.chunks(), after_two, "{backend:?}");
            drop(owner);
            let made = VIEWS * (rounds + 1);
            assert_eq!(tally.counts(), (made, made), "{backend:?}");
        }
    }

    /// A forced-steal spine: the leftmost leaf waits until all `k` right
    /// sides have started, so each runs on the thief. Each side appends
    /// its depth; the serial order is `[0, 1, .., k]`.
    fn spine(
        k: u32,
        depth: u32,
        started: &AtomicU32,
        r: &Reducer<crate::library::ListMonoid<u32>>,
    ) {
        if depth == 0 {
            r.push(0);
            while started.load(Ordering::Acquire) < k {
                crate::msync::thread::yield_now();
            }
            return;
        }
        cilkm_runtime::join(
            || spine(k, depth - 1, started, r),
            || {
                started.fetch_add(1, Ordering::Release);
                r.push(depth);
            },
        );
    }

    /// Pool churn: 50 pools (two under Miri), each running a spine of
    /// steals and then dropped, leave no chunk live.
    #[test]
    fn pool_churn_leaves_no_chunk_live() {
        const K: u32 = 4;
        let pools = if cfg!(miri) { 2 } else { 50 };
        for i in 0..pools {
            let backend = [Backend::Hypermap, Backend::Mmap][i % 2];
            let pool = ReducerPool::new(2, backend);
            let live = pool.domain().cells.live_chunks();
            let r = Reducer::new(&pool, crate::library::ListMonoid::<u32>::new(), Vec::new());
            let started = AtomicU32::new(0);
            pool.run(|| spine(K, K, &started, &r));
            assert_eq!(r.into_inner(), (0..=K).collect::<Vec<_>>(), "pool {i}");
            assert!(live.load(Ordering::Relaxed) > 0, "pool {i} carved");
            drop(pool);
            assert_eq!(live.load(Ordering::Relaxed), 0, "pool {i}");
        }
    }
}
