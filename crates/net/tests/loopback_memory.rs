//! An in-process endpoint costs memory for the messages it holds, not for its
//! capacity. A counting global allocator records every byte allocated and
//! freed; this file holds one test so that no other test's allocations land
//! in the count.
//!
//! A queued `(Actor, Message)` is 552 B, 560 B in an array channel's slot. A
//! queue that reserved all of `DEFAULT_QUEUE_CAPACITY` up front would cost
//! 16 384 × 560 B = 8.75 MiB per endpoint before a message moved.

use prestige_net::transport::{LoopbackNet, Transport};
use prestige_types::{Actor, Message, SeqNum, ServerId, View};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `alloc` above for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const KIB: u64 = 1024;

/// Bytes allocated and not yet freed. `FREED` is read first, so a free
/// racing with the reads cannot make it exceed `ALLOCATED`.
fn live() -> u64 {
    let freed = FREED.load(Ordering::Relaxed);
    ALLOCATED.load(Ordering::Relaxed) - freed
}

/// Bytes allocated (freed or not) while `f` runs.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

fn server(i: u32) -> Actor {
    Actor::Server(ServerId(i))
}

/// A message that owns no heap memory of its own.
fn notif(n: u64) -> Message {
    Message::Notif {
        tx_keys: Vec::new(),
        seq: SeqNum(n),
        view: View(1),
        sig: [0; 32],
    }
}

#[test]
fn a_loopback_endpoint_costs_the_messages_it_holds() {
    const MESSAGES: u64 = 10_000;
    let net = LoopbackNet::<Message>::new();
    let (mut inbox, created) = allocated_during(|| net.endpoint(server(0)));
    assert!(
        created < 64 * KIB,
        "an idle endpoint allocated {created} B ({:.2} MiB)",
        created as f64 / (KIB * KIB) as f64
    );

    let mut outbox = net.endpoint(server(1));
    let baseline = live();
    for n in 0..MESSAGES {
        outbox.send(server(0), notif(n));
    }
    let queued = live().saturating_sub(baseline);
    let message_bytes = MESSAGES * std::mem::size_of::<(Actor, Message)>() as u64;
    assert!(
        queued >= message_bytes,
        "{MESSAGES} queued messages hold {queued} B, less than their {message_bytes} B"
    );
    for n in 0..MESSAGES {
        let (from, message) = inbox.recv_timeout(Duration::from_secs(1)).expect("queued");
        assert_eq!((from, message), (server(1), notif(n)));
    }
    assert_eq!(outbox.stats().snapshot(), (MESSAGES, 0, 0));
    assert_eq!(inbox.stats().snapshot(), (0, MESSAGES, 0));

    let held = live().saturating_sub(baseline);
    assert!(
        held < 64 * KIB,
        "a drained endpoint still holds {held} B above its idle baseline"
    );
}
