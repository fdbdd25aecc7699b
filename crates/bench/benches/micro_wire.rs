//! Microbenchmarks of the `prestige-net` wire codec and the replication
//! digest hot path: message encode/decode throughput, broadcast fan-out
//! (per-peer encoding vs. encode-once shared frames), and `batch_digest`
//! (the seed's list-of-parts spec vs. the streaming implementation).
//!
//! The `*_legacy` / `*_per_peer_*` benchmarks reproduce the pre-optimization
//! code faithfully (including the seed's scalar SHA-256) so the speedup of
//! the zero-copy hot path is measurable in isolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prestige_core::batch_digest;
use prestige_net::{BufferPool, FrameCodec};
use prestige_types::{
    Actor, ClientId, Digest, Message, PartialSig, Proposal, SeqNum, ServerId, SyncKind,
    Transaction, View,
};
use std::sync::Arc;

fn control_message() -> Message {
    Message::OrdReply {
        view: View(3),
        n: SeqNum(17),
        digest: Digest([5u8; 32]),
        share: PartialSig {
            signer: ServerId(2),
            sig: [9u8; 32],
        },
    }
}

fn proposals(batch: usize, payload: usize) -> Vec<Proposal> {
    (0..batch)
        .map(|i| {
            Proposal::new(
                Transaction::with_size(ClientId(1), i as u64, payload),
                Digest([i as u8; 32]),
            )
        })
        .collect()
}

fn batch_message(batch: usize, payload: usize) -> Message {
    Message::Ord {
        view: View(3),
        n: SeqNum(17),
        batch: Arc::new(proposals(batch, payload)),
        digest: Digest([7u8; 32]),
        sig: [1u8; 32],
    }
}

fn bench_encode(c: &mut Criterion) {
    let codec = FrameCodec::new();
    let from = Actor::Server(ServerId(0));
    let small = control_message();
    let big = batch_message(100, 32);

    c.bench_function("wire_encode_ord_reply", |b| {
        b.iter(|| codec.encode(from, black_box(&small)).unwrap())
    });
    c.bench_function("wire_encode_ord_batch100_m32", |b| {
        b.iter(|| codec.encode(from, black_box(&big)).unwrap())
    });
    // Encoding into a reused buffer: the steady-state shape of the TCP
    // transport's send path.
    let mut buf = Vec::new();
    c.bench_function("wire_encode_into_ord_batch100_m32", |b| {
        b.iter(|| {
            codec.encode_into(from, black_box(&big), &mut buf).unwrap();
            black_box(buf.len())
        })
    });
}

fn bench_decode(c: &mut Criterion) {
    let codec = FrameCodec::new();
    let from = Actor::Server(ServerId(0));
    let small_frame = codec.encode(from, &control_message()).unwrap();
    let big_frame = codec.encode(from, &batch_message(100, 32)).unwrap();

    c.bench_function("wire_decode_ord_reply", |b| {
        b.iter(|| {
            codec
                .decode::<Message>(black_box(&small_frame))
                .unwrap()
                .unwrap()
        })
    });
    c.bench_function("wire_decode_ord_batch100_m32", |b| {
        b.iter(|| {
            codec
                .decode::<Message>(black_box(&big_frame))
                .unwrap()
                .unwrap()
        })
    });
}

fn bench_round_trip(c: &mut Criterion) {
    let codec = FrameCodec::new();
    let from = Actor::Server(ServerId(1));
    let sync = Message::SyncReq {
        kind: SyncKind::Transaction,
        from: 1,
        to: 64,
    };
    c.bench_function("wire_round_trip_sync_req", |b| {
        b.iter(|| {
            let frame = codec.encode(from, black_box(&sync)).unwrap();
            codec.decode::<Message>(&frame).unwrap().unwrap()
        })
    });
}

/// Broadcast fan-out to 8 peers: the pre-PR transport encoded the message
/// once per peer; the encode-once path serializes a single shared frame and
/// hands each peer a refcount bump.
fn bench_broadcast_fanout(c: &mut Criterion) {
    const PEERS: usize = 8;
    let codec = FrameCodec::new();
    let from = Actor::Server(ServerId(0));
    let msg = batch_message(100, 32);

    c.bench_function("wire_broadcast_fanout8_per_peer_encode", |b| {
        b.iter(|| {
            for _ in 0..PEERS {
                black_box(codec.encode(from, black_box(&msg)).unwrap());
            }
        })
    });

    let pool = BufferPool::new();
    c.bench_function("wire_broadcast_fanout8_encode_once", |b| {
        b.iter(|| {
            let frame = codec.encode_shared(from, black_box(&msg), &pool).unwrap();
            for _ in 0..PEERS {
                black_box(Arc::clone(&frame));
            }
        })
    });
}

/// The seed's digest pipeline, vendored verbatim as the before-side of the
/// speedup measurement: the scalar SHA-256 with its per-block staging copies,
/// and `batch_digest` staging every field through an owned `Vec<u8>`
/// collected into a parts list. The current implementation streams fields
/// into the (hardware-accelerated, copy-free) hasher instead; digest values
/// are identical by construction, which the sanity assert below pins.
mod seed {
    use super::{Digest, Proposal, SeqNum, View};

    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    const H0: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    pub struct Sha256 {
        state: [u32; 8],
        buffer: [u8; 64],
        buffer_len: usize,
        total_len: u64,
    }

    impl Sha256 {
        pub fn new() -> Self {
            Sha256 {
                state: H0,
                buffer: [0u8; 64],
                buffer_len: 0,
                total_len: 0,
            }
        }

        pub fn update(&mut self, data: &[u8]) {
            self.total_len = self.total_len.wrapping_add(data.len() as u64);
            let mut input = data;
            if self.buffer_len > 0 {
                let need = 64 - self.buffer_len;
                let take = need.min(input.len());
                self.buffer[self.buffer_len..self.buffer_len + take]
                    .copy_from_slice(&input[..take]);
                self.buffer_len += take;
                input = &input[take..];
                if self.buffer_len == 64 {
                    let block = self.buffer;
                    self.compress(&block);
                    self.buffer_len = 0;
                }
            }
            while input.len() >= 64 {
                let mut block = [0u8; 64];
                block.copy_from_slice(&input[..64]);
                self.compress(&block);
                input = &input[64..];
            }
            if !input.is_empty() {
                self.buffer[..input.len()].copy_from_slice(input);
                self.buffer_len = input.len();
            }
        }

        pub fn finalize(mut self) -> [u8; 32] {
            let bit_len = self.total_len.wrapping_mul(8);
            let mut pad = [0u8; 72];
            pad[0] = 0x80;
            let pad_len = if self.buffer_len < 56 {
                56 - self.buffer_len
            } else {
                120 - self.buffer_len
            };
            pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
            let saved = self.total_len;
            self.update(&pad[..pad_len + 8]);
            self.total_len = saved;
            let mut out = [0u8; 32];
            for (i, word) in self.state.iter().enumerate() {
                out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; 64]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let temp1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
            self.state[4] = self.state[4].wrapping_add(e);
            self.state[5] = self.state[5].wrapping_add(f);
            self.state[6] = self.state[6].wrapping_add(g);
            self.state[7] = self.state[7].wrapping_add(h);
        }
    }

    fn hash_many<'a, I>(parts: I) -> Digest
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut h = Sha256::new();
        for part in parts {
            h.update(&(part.len() as u64).to_be_bytes());
            h.update(part);
        }
        Digest(h.finalize())
    }

    pub fn batch_digest(view: View, n: SeqNum, batch: &[Proposal]) -> Digest {
        let mut parts: Vec<Vec<u8>> = vec![
            b"batch".to_vec(),
            view.0.to_be_bytes().to_vec(),
            n.0.to_be_bytes().to_vec(),
        ];
        for p in batch {
            parts.push(p.tx.client.0.to_be_bytes().to_vec());
            parts.push(p.tx.timestamp.to_be_bytes().to_vec());
        }
        hash_many(parts.iter().map(|p| p.as_slice()))
    }
}

use seed::batch_digest as legacy_batch_digest;

fn bench_batch_digest(c: &mut Criterion) {
    for size in [10usize, 100, 1000] {
        let batch = proposals(size, 32);
        // Sanity: both implementations must agree bit-for-bit.
        assert_eq!(
            batch_digest(View(3), SeqNum(17), &batch),
            legacy_batch_digest(View(3), SeqNum(17), &batch),
        );
        c.bench_function(format!("batch_digest_legacy_b{size}"), |b| {
            b.iter(|| legacy_batch_digest(View(3), SeqNum(17), black_box(&batch)))
        });
        c.bench_function(format!("batch_digest_stream_b{size}"), |b| {
            b.iter(|| batch_digest(View(3), SeqNum(17), black_box(&batch)))
        });
    }
}

/// The leader flush's batch-assembly + `Ord` encode path: a fresh `Vec` and a
/// fresh frame allocation per flush (the pre-PR shape) vs. the recycled
/// scratch buffer (`batch_scratch`) plus the codec's pooled shared frames —
/// allocation-free in steady state.
fn bench_pooled_proposal_encode(c: &mut Criterion) {
    const BATCH: usize = 100;
    let codec = FrameCodec::new();
    let from = Actor::Server(ServerId(0));
    let source = proposals(BATCH, 32);
    let ord = |batch: Arc<Vec<Proposal>>| Message::Ord {
        view: View(3),
        n: SeqNum(17),
        batch,
        digest: Digest([7u8; 32]),
        sig: [1u8; 32],
    };

    c.bench_function("proposal_flush_encode_fresh_b100", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            buf.extend(source.iter().cloned());
            let frame = codec.encode(from, &ord(Arc::new(buf))).unwrap();
            black_box(frame.len())
        })
    });

    let pool = BufferPool::new();
    c.bench_function("proposal_flush_encode_pooled_b100", |b| {
        let mut scratch: Vec<Vec<Proposal>> = Vec::new();
        b.iter(|| {
            let mut buf = scratch.pop().unwrap_or_default();
            buf.extend(source.iter().cloned());
            let batch = Arc::new(buf);
            let frame = codec
                .encode_shared(from, &ord(Arc::clone(&batch)), &pool)
                .unwrap();
            let len = frame.len();
            // Commit-time recycling: the instance's last handle returns the
            // buffer to the scratch pool for the next flush.
            if let Ok(mut v) = Arc::try_unwrap(batch) {
                v.clear();
                scratch.push(v);
            }
            black_box(len)
        })
    });
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_round_trip,
    bench_broadcast_fanout,
    bench_batch_digest,
    bench_pooled_proposal_encode
);
criterion_main!(benches);
