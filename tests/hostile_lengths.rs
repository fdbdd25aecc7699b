//! Hostile length prefixes cost no more memory than the bytes that carry
//! them. A counting global allocator records the peak bytes held while each
//! forged frame decodes; this file holds one test so that no other test's
//! allocations land in the count.

use prestigebft::net::frame::{FrameCodec, MAGIC, WIRE_VERSION};
use prestigebft::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `alloc` above for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The body of a frame from server 0 that starts a `Prop` (tag 0, the
/// first variant) claiming `claimed` proposals.
fn prop_body(claimed: u64) -> Vec<u8> {
    let mut body = bincode::serialize(&Actor::Server(ServerId(0))).unwrap();
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&claimed.to_le_bytes());
    body
}

/// A `Prop` claiming `claimed` proposals, followed by `filler` bytes of
/// 0xFF. Every proposal read from 0xFF bytes fails at its payload's length
/// prefix, so the decode ends after the reservation it makes up front.
fn forged_prop(claimed: u64, filler: usize) -> Vec<u8> {
    let mut body = prop_body(claimed);
    body.resize(body.len() + filler, 0xFF);
    framed(body)
}

/// A `Prop` of one proposal whose payload claims `claimed` bytes, followed
/// by `filler` bytes of 0xFF.
fn forged_payload(claimed: u64, filler: usize) -> Vec<u8> {
    let mut body = prop_body(1);
    body.extend_from_slice(&7u64.to_le_bytes()); // client
    body.extend_from_slice(&9u64.to_le_bytes()); // timestamp
    body.extend_from_slice(&claimed.to_le_bytes());
    body.resize(body.len() + filler, 0xFF);
    framed(body)
}

/// `body` behind a frame header.
fn framed(body: Vec<u8>) -> Vec<u8> {
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Peak bytes allocated, above those live on entry, while `f` runs.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn forged_length_prefixes_are_refused_within_twice_the_body() {
    let codec = FrameCodec::new();
    let refused = |name: &str, frame: Vec<u8>| {
        let body = frame.len() - 10;
        let (decoded, peak) = peak_during(|| codec.decode::<Message>(&frame).map(|_| ()));
        assert!(decoded.is_err(), "{name}: must be refused");
        assert!(
            peak <= 2 * body,
            "{name}: {peak} bytes allocated for a {body}-byte body"
        );
    };
    let cases = [
        ("u64::MAX proposals", u64::MAX, 200),
        ("remaining + 1 proposals", 201, 200),
        ("a million proposals in 200 bytes", 1_000_000, 200),
        // The count fits the bytes (one per proposal) but not the memory:
        // reserving it whole would take 72 MB for a 1 MB body.
        ("a million proposals in 1 MB", 1_000_000, 1_000_000),
    ];
    for (name, claimed, filler) in cases {
        refused(name, forged_prop(claimed, filler));
    }
    // A payload is read straight into its one shared allocation.
    refused("a u64::MAX-byte payload", forged_payload(u64::MAX, 200));
    refused("a remaining + 1-byte payload", forged_payload(201, 200));
}
