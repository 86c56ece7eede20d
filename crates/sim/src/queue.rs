//! Pluggable event queues: the reference binary heap and the calendar
//! (timing-wheel) queue the engine runs on.
//!
//! Both implementations drain items in identical `(time, seq)` total
//! order — the engine's determinism contract — so they are differentially
//! testable: any schedule pushed into both must pop identically. The
//! heap is the obviously-correct reference; the calendar queue is the
//! fast path, O(1) amortized at high event density where a binary heap
//! pays O(log n) sift moves per operation.
//!
//! ## Wheel geometry
//!
//! Near-future items live on a **wheel** of [`SLOTS`] buckets, each
//! covering a window of `2^`[`SLOT_SHIFT`] nanoseconds; the wheel as a
//! whole spans `SLOTS × 2^SLOT_SHIFT` ns from the current drain position
//! (`cur_abs`, an absolute bucket index). Items beyond that horizon go
//! to a sorted **overflow** level (a binary heap — the "far-future
//! timer" fallback).
//!
//! ## Storage
//!
//! Every queued item lives once in one `Vec` **store**, found by a `u32`
//! index; a vacated cell goes on a **free list** and the next push takes
//! it (LIFO), so a warm queue allocates nothing and works in a small,
//! hot region. Each bucket is a singly linked **list** threaded through
//! the store, with one head index per slot, and the overflow level is a
//! heap of `(key, index)`. When the drain reaches a bucket — or a peek
//! finds the minimum there — its list moves once into the one sorted
//! **run** of `(key, index)` pairs (descending, so `pop` is an O(1) tail
//! removal), tagged with the bucket's absolute index; a later push into
//! that bucket is a binary insert. So what the queue keeps is bounded by
//! the most items queued at once, not by each slot's busiest moment.
//!
//! ## The caller contract
//!
//! Pushed keys must be `>=` the key of the last popped item (the
//! engine's "no scheduling into the past" rule). This is what lets the
//! drain position advance monotonically: the wheel never needs to look
//! behind `cur_abs`. The drain position only advances inside [`pop`] —
//! never in [`peek`]/[`min_key`] — because between a peek and a pop the
//! engine may still push same-instant events (the chaos layer injects
//! aborts *at* the current instant), and those must land in front of the
//! drain, not behind it.
//!
//! [`pop`]: EventQueue::pop
//! [`peek`]: EventQueue::peek
//! [`min_key`]: EventQueue::min_key

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total order key: `(time_ns, seq)`. The sequence is unique within a
/// run, so keys never tie.
pub type Key = (u64, u64);

/// An item with a stable scheduling key.
pub trait Keyed {
    /// The item's `(time_ns, seq)` ordering key. Must not change while
    /// the item is queued.
    fn key(&self) -> Key;
}

/// A queue that drains [`Keyed`] items in ascending key order.
///
/// `min_key` and `peek` take `&mut self` — implementations may reorganize
/// storage (sort a bucket) to answer, but must not advance the drain
/// position: after a peek, pushing a key equal to the peeked key must
/// still be accepted and ordered correctly.
pub trait EventQueue<T: Keyed> {
    /// Insert an item. The key must be `>=` the last popped key.
    fn push(&mut self, item: T);
    /// The smallest key currently queued.
    fn min_key(&mut self) -> Option<Key>;
    /// Borrow the item with the smallest key.
    fn peek(&mut self) -> Option<&T>;
    /// Remove and return the item with the smallest key.
    fn pop(&mut self) -> Option<T>;
    /// Queued item count.
    fn len(&self) -> usize;
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Heap entry: key cached so ordering never re-asks the item.
struct Entry<T> {
    key: Key,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The reference implementation: a plain binary min-heap. O(log n)
/// push/pop, trivially correct — kept as the differential-test oracle
/// and selectable via [`QueueKind::Heap`].
#[derive(Default)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T: Keyed> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> HeapQueue<T> {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T: Keyed> EventQueue<T> for HeapQueue<T> {
    fn push(&mut self, item: T) {
        let key = item.key();
        self.heap.push(Reverse(Entry { key, item }));
    }

    fn min_key(&mut self) -> Option<Key> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    fn peek(&mut self) -> Option<&T> {
        self.heap.peek().map(|Reverse(e)| &e.item)
    }

    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse(e)| e.item)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// log2 of the bucket width in nanoseconds: 2^13 ns ≈ 8.2 µs — on the
/// order of a small frame's transmission time at 10 Mb/s, so a busy
/// link's events spread over a handful of buckets instead of piling
/// into one.
pub const SLOT_SHIFT: u32 = 13;

/// Bucket count (power of two). The wheel horizon is
/// `SLOTS << SLOT_SHIFT` ns ≈ 4.2 ms; anything scheduled further out
/// waits in the overflow level.
pub const SLOTS: usize = 512;

const SLOT_MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;

/// A store cell. While queued it holds the item and the next index on
/// its bucket list; while vacant, the next index on the free list.
struct Cell<T> {
    item: Option<T>,
    next: Option<u32>,
}

/// The calendar queue: a timing wheel over near-future buckets with a
/// heap-sorted overflow level. See the module docs for geometry, storage
/// and the caller contract.
pub struct CalendarQueue<T> {
    /// Every queued item, once, found by its index.
    store: Vec<Cell<T>>,
    /// The vacant cell reused first: freed cells are reused LIFO.
    free: Option<u32>,
    /// Each slot's bucket list, threaded through `store`.
    heads: Vec<Option<u32>>,
    /// Occupancy bitmap over slots (bit set ⇔ bucket non-empty, its
    /// list or the run).
    occupied: [u64; WORDS],
    /// The open bucket's `(key, index)` pairs in *descending* key order,
    /// so the minimum is at the tail and `pop` moves nothing.
    run: Vec<(Key, u32)>,
    /// Absolute index of the bucket `run` holds; `Some` exactly while
    /// `run` is non-empty. An open bucket's list is empty.
    run_abs: Option<u64>,
    /// Absolute index (`time_ns >> SLOT_SHIFT`) of the drain bucket: no
    /// queued item lives below it.
    cur_abs: u64,
    /// Items currently on the wheel (the rest are in `overflow`).
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<(Key, u32)>>,
    len: usize,
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> CalendarQueue<T> {
        CalendarQueue::new()
    }
}

impl<T: Keyed> CalendarQueue<T> {
    /// An empty calendar queue with its drain position at time zero.
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue {
            store: Vec::new(),
            free: None,
            heads: vec![None; SLOTS],
            occupied: [0; WORDS],
            run: Vec::new(),
            run_abs: None,
            cur_abs: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn slot_of(abs: u64) -> usize {
        (abs & SLOT_MASK) as usize
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        if let Some(w) = self.occupied.get_mut(slot >> 6) {
            *w |= 1u64 << (slot & 63);
        }
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        if let Some(w) = self.occupied.get_mut(slot >> 6) {
            *w &= !(1u64 << (slot & 63));
        }
    }

    /// Absolute index of the first non-empty bucket at or after `from`,
    /// scanning the occupancy bitmap circularly (the wheel invariant —
    /// every occupied slot holds items within `[cur_abs, cur_abs+SLOTS)`
    /// — makes circular distance equal absolute distance).
    fn next_occupied(&self, from: u64) -> Option<u64> {
        let start = Self::slot_of(from);
        let mut idx = start >> 6;
        let mut word = self.occupied.get(idx).copied().unwrap_or(0) & (!0u64 << (start & 63));
        for _ in 0..=WORDS {
            if word != 0 {
                let bit = (idx << 6) + word.trailing_zeros() as usize;
                let d = (bit + SLOTS - start) % SLOTS;
                return Some(from + d as u64);
            }
            idx = (idx + 1) % WORDS;
            word = self.occupied.get(idx).copied().unwrap_or(0);
        }
        None
    }

    /// Put `item` in a store cell, the most recently freed one if any.
    fn store_put(&mut self, item: T) -> u32 {
        if let Some(idx) = self.free {
            if let Some(cell) = self.store.get_mut(idx as usize) {
                self.free = cell.next;
                *cell = Cell {
                    item: Some(item),
                    next: None,
                };
                return idx;
            }
        }
        debug_assert!(self.store.len() < u32::MAX as usize);
        self.store.push(Cell {
            item: Some(item),
            next: None,
        });
        (self.store.len() - 1) as u32
    }

    /// Take the item out of cell `idx` and put the cell on the free list.
    fn store_take(&mut self, idx: u32) -> Option<T> {
        let cell = self.store.get_mut(idx as usize)?;
        cell.next = self.free;
        self.free = Some(idx);
        cell.item.take()
    }

    /// Link cell `idx` at the head of `slot`'s bucket list.
    fn link(&mut self, slot: usize, idx: u32) {
        if let (Some(head), Some(cell)) =
            (self.heads.get_mut(slot), self.store.get_mut(idx as usize))
        {
            cell.next = head.replace(idx);
        }
    }

    /// Place cell `idx` (key `key`) into its wheel bucket (`abs` must be
    /// within the current window).
    fn wheel_insert(&mut self, abs: u64, key: Key, idx: u32) {
        debug_assert!(abs >= self.cur_abs && abs < self.cur_abs + SLOTS as u64);
        let slot = Self::slot_of(abs);
        if self.run_abs == Some(abs) {
            // The bucket is open: keep the run descending with a
            // binary-search insert.
            let pos = self.run.partition_point(|e| e.0 > key);
            self.run.insert(pos, (key, idx));
        } else {
            self.link(slot, idx);
        }
        self.set_bit(slot);
        self.wheel_len += 1;
    }

    /// Advance the drain position and pull overflow items that the wider
    /// window now covers onto the wheel. Keeps the invariant that the
    /// overflow level only holds items beyond the horizon, which is what
    /// makes "wheel min < overflow min whenever the wheel is non-empty"
    /// true.
    fn advance_to(&mut self, new_abs: u64) {
        debug_assert!(new_abs >= self.cur_abs);
        self.cur_abs = new_abs;
        let horizon = new_abs + SLOTS as u64;
        while let Some(&Reverse((key, idx))) = self.overflow.peek() {
            let abs = key.0 >> SLOT_SHIFT;
            if abs >= horizon {
                break;
            }
            self.overflow.pop();
            self.wheel_insert(abs, key, idx);
        }
    }

    /// Make bucket `abs` the open one: its list moves into the run,
    /// sorted descending. Keys are unique, so unstable sort is
    /// deterministic. A run left open on a later bucket (an earlier one
    /// gained an item after a peek) goes back on its own list first.
    fn open(&mut self, abs: u64) {
        if self.run_abs == Some(abs) {
            return;
        }
        if let Some(open) = self.run_abs.take() {
            let slot = Self::slot_of(open);
            let mut run = std::mem::take(&mut self.run);
            for (_, idx) in run.drain(..) {
                self.link(slot, idx);
            }
            self.run = run;
        }
        let mut next = self
            .heads
            .get_mut(Self::slot_of(abs))
            .and_then(Option::take);
        while let Some(idx) = next {
            let Some(cell) = self.store.get(idx as usize) else {
                break;
            };
            if let Some(item) = &cell.item {
                self.run.push((item.key(), idx));
            }
            next = cell.next;
        }
        self.run.sort_unstable_by_key(|e| Reverse(e.0));
        self.run_abs = Some(abs);
    }

    /// Open the bucket holding the wheel minimum. Returns whether the
    /// wheel holds anything. Does not advance the drain position.
    fn locate_min(&mut self) -> bool {
        if self.wheel_len == 0 {
            return false;
        }
        match self.next_occupied(self.cur_abs) {
            Some(abs) => {
                self.open(abs);
                true
            }
            None => false,
        }
    }
}

impl<T: Keyed> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, item: T) {
        let key = item.key();
        let abs = key.0 >> SLOT_SHIFT;
        debug_assert!(
            abs >= self.cur_abs,
            "pushed key below the drain position (scheduling into the past)"
        );
        let idx = self.store_put(item);
        if abs < self.cur_abs + SLOTS as u64 {
            self.wheel_insert(abs, key, idx);
        } else {
            self.overflow.push(Reverse((key, idx)));
        }
        self.len += 1;
    }

    fn min_key(&mut self) -> Option<Key> {
        if self.locate_min() {
            return self.run.last().map(|e| e.0);
        }
        self.overflow.peek().map(|Reverse(e)| e.0)
    }

    fn peek(&mut self) -> Option<&T> {
        let idx = if self.locate_min() {
            self.run.last()?.1
        } else {
            let Reverse((_, idx)) = self.overflow.peek()?;
            *idx
        };
        self.store.get(idx as usize)?.item.as_ref()
    }

    fn pop(&mut self) -> Option<T> {
        if self.wheel_len == 0 {
            // Wheel dry: jump the window to the overflow minimum. This
            // is the only place the drain may skip ahead, and it is safe
            // because the caller contract forbids later pushes below the
            // popped key.
            let Reverse((key, _)) = self.overflow.peek()?;
            self.advance_to(key.0 >> SLOT_SHIFT);
        }
        let abs = self.next_occupied(self.cur_abs)?;
        if abs > self.cur_abs {
            // Walking forward also widens the horizon; migrate overflow
            // items the window now covers (they all sit in buckets at or
            // above `abs`, so the minimum stays where we found it).
            self.advance_to(abs);
        }
        self.open(abs);
        let (_, idx) = self.run.pop()?;
        if self.run.is_empty() {
            // The open bucket's list is empty, so the bucket is.
            self.run_abs = None;
            self.clear_bit(Self::slot_of(abs));
        }
        self.wheel_len -= 1;
        self.len -= 1;
        self.store_take(idx)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Which queue implementation the engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The reference binary heap.
    Heap,
    /// The calendar/timing-wheel queue (the default).
    #[default]
    Calendar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    struct Item(u64, u64);
    impl Keyed for Item {
        fn key(&self) -> Key {
            (self.0, self.1)
        }
    }

    fn drain<Q: EventQueue<Item>>(q: &mut Q) -> Vec<Key> {
        let mut out = Vec::new();
        while let Some(i) = q.pop() {
            out.push(i.key());
        }
        out
    }

    #[test]
    fn empty_queues() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let mut h: HeapQueue<Item> = HeapQueue::new();
        assert!(w.pop().is_none() && h.pop().is_none());
        assert!(w.min_key().is_none() && h.min_key().is_none());
        assert!(w.is_empty() && h.is_empty());
    }

    #[test]
    fn same_bucket_ordering_by_seq() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        for seq in [3u64, 1, 2, 0] {
            w.push(Item(100, seq));
        }
        assert_eq!(drain(&mut w), vec![(100, 0), (100, 1), (100, 2), (100, 3)]);
    }

    #[test]
    fn far_future_goes_to_overflow_and_back() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let horizon = (SLOTS as u64) << SLOT_SHIFT;
        w.push(Item(horizon * 3, 0));
        w.push(Item(5, 1));
        assert_eq!(w.len(), 2);
        assert_eq!(w.min_key(), Some((5, 1)));
        assert_eq!(w.pop().map(|i| i.key()), Some((5, 1)));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon * 3, 0)));
        assert!(w.pop().is_none());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn push_at_popped_instant_lands_in_front() {
        // The chaos-layer pattern: peek, then push at the peeked instant,
        // then pop — the same-instant push must come out in seq order.
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        w.push(Item(1000, 0));
        w.push(Item(2000, 1));
        assert_eq!(w.min_key(), Some((1000, 0)));
        w.push(Item(1000, 2)); // injected at the peeked instant
        assert_eq!(
            drain(&mut w),
            vec![(1000, 0), (1000, 2), (2000, 1)],
            "same-instant injection after a peek must not fall behind the drain"
        );
    }

    #[test]
    fn window_advance_migrates_overflow_before_wheel_items_pass_it() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let horizon = (SLOTS as u64) << SLOT_SHIFT;
        // Overflow item just past the horizon…
        w.push(Item(horizon + 10, 0));
        // …and a near item. Popping the near item advances the window far
        // enough that the overflow item is now inside it.
        w.push(Item(horizon - 10, 1));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon - 10, 1)));
        // A later wheel push *above* the migrated overflow item must not
        // overtake it.
        w.push(Item(horizon + 20, 2));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon + 10, 0)));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon + 20, 2)));
    }

    #[test]
    fn storage_follows_the_live_count_not_each_slots_busiest_moment() {
        // Every slot takes one 512-item burst, at a different time, over
        // about 256 rotations of the wheel, with 64 far-future items
        // waiting in the overflow level throughout.
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let mut h: HeapQueue<Item> = HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |w: &mut CalendarQueue<Item>, h: &mut HeapQueue<Item>, t: u64| {
            w.push(Item(t, seq));
            h.push(Item(t, seq));
            seq += 1;
        };
        let far = (SLOTS as u64 * 300) << SLOT_SHIFT;
        for _ in 0..64 {
            push(&mut w, &mut h, far);
        }
        let mut peak = 0;
        for burst in 0..SLOTS as u64 {
            // 257 is odd, so bursts 257 buckets apart visit every slot.
            let t = (burst * 257) << SLOT_SHIFT;
            for i in 0..512 {
                push(&mut w, &mut h, t + i);
            }
            peak = peak.max(w.len());
            for _ in 0..512 {
                assert_eq!(w.pop().map(|i| i.key()), h.pop().map(|i| i.key()));
            }
        }
        assert_eq!(peak, 576);
        assert_eq!(drain(&mut w).len(), 64);
        let retained = w.store.capacity() + w.run.capacity() + w.overflow.capacity();
        assert!(
            retained <= 2 * peak + SLOTS,
            "{retained} entries retained for at most {peak} live"
        );
    }

    #[test]
    fn interleaved_random_schedule_matches_heap() {
        // A miniature differential check (the full 32-seed suite lives in
        // tests/queue_differential.rs): pseudo-random pushes interleaved
        // with pops, clock advancing to each popped time.
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut rnd = move || {
            lcg ^= lcg << 13;
            lcg ^= lcg >> 7;
            lcg ^= lcg << 17;
            lcg
        };
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let mut h: HeapQueue<Item> = HeapQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut popped = (Vec::new(), Vec::new());
        for _ in 0..5_000 {
            if rnd() % 3 != 0 {
                let dt = rnd() % 5_000_000; // up to 5 ms ahead (≥ horizon)
                let t = now + dt;
                w.push(Item(t, seq));
                h.push(Item(t, seq));
                seq += 1;
            } else {
                let (a, b) = (w.pop(), h.pop());
                assert_eq!(a.as_ref().map(Item::key), b.as_ref().map(Item::key));
                if let Some(i) = &a {
                    now = i.0;
                    popped.0.push(i.key());
                }
                if let Some(i) = &b {
                    popped.1.push(i.key());
                }
            }
            assert_eq!(w.len(), h.len());
        }
        while let (Some(a), Some(b)) = (w.pop(), h.pop()) {
            assert_eq!(a.key(), b.key());
            popped.0.push(a.key());
            popped.1.push(b.key());
        }
        assert!(w.pop().is_none() && h.pop().is_none());
        assert_eq!(popped.0, popped.1);
    }
}
