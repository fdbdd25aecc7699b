//! A committed transaction costs a bounded number of heap allocations. A
//! counting global allocator records every allocation while a simulated
//! cluster of the `peak` benchmark's shape (four servers, one client keeping
//! 512 requests in flight, batch 500, 32-byte payloads) commits a fixed
//! number of transactions; this file holds one test so that no other test's
//! allocations land in the count.
//!
//! The client allocates each payload once and everyone else shares it: the
//! proposal's recipients, each replica's pool, the ordered batch and the
//! block body. When each of those held its own copy, the same run made 5.30
//! allocations per committed transaction; sharing brings it to 1.29, the
//! payload itself plus a share of each batch's and block's containers. A
//! bound of 2 leaves room for neither a copy per hop nor one per replica.

use prestigebft::prelude::*;
use prestigebft::types::Transaction;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc` above for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Runs the simulation in 1 ms steps until the clients have confirmed at
/// least `target` transactions.
fn run_to(cluster: &mut SimCluster, target: u64) {
    let limit = cluster.sim.now() + SimDuration::from_secs(60.0);
    while cluster.confirmed_tx() < target {
        assert!(cluster.sim.now() < limit, "stalled below {target} tx");
        let next = cluster.sim.now() + SimDuration::from_ms(1.0);
        cluster.sim.run_until(next);
    }
}

#[test]
fn a_committed_transaction_costs_a_bounded_number_of_allocations() {
    // Building a request allocates its payload and nothing else.
    let (_, built) = allocations_during(|| Transaction::with_size(ClientId(3), 9, 32));
    assert_eq!(built, 1, "Transaction::with_size");
    let bytes = [7u8; 32];
    let (tx, built) = allocations_during(|| Transaction::new(ClientId(3), 9, &bytes[..]));
    assert_eq!(built, 1, "Transaction::new");
    let (_, cloned) = allocations_during(|| tx.clone());
    assert_eq!(cloned, 0, "a clone shares the payload");

    let scenario = Scenario {
        clients: 1,
        concurrency: 512,
        batch_size: 500,
        payload_size: 32,
        ..Scenario::default()
    };
    let mut cluster = SimCluster::new(&scenario);
    run_to(&mut cluster, 20_000);
    let start = cluster.confirmed_tx();
    let ((), made) = allocations_during(|| run_to(&mut cluster, start + 100_000));
    let committed = cluster.confirmed_tx() - start;
    let per_tx = made as f64 / committed as f64;
    println!("{made} allocations for {committed} committed transactions: {per_tx:.2} per tx");
    assert!(
        per_tx < 2.0,
        "{per_tx:.2} allocations per committed transaction ({made} for {committed})"
    );
}
