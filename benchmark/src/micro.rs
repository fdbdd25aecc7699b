//! Direct single-thread calls into `crypto`, `reputation` and the frame
//! codec at the shapes the workloads use, with fixed iteration counts: the
//! per-operation costs behind the handler times of the traced run.

use prestige_crypto::{
    batch_digest, digest_of, qc_statement, sign_share, KeyRegistry, QcBuilder, ThresholdVerifier,
};
use prestige_net::FrameCodec;
use prestige_reputation::{CalcRpInput, ReputationEngine};
use prestige_types::{
    Actor, ClientId, Digest, Message, Proposal, QcKind, SeqNum, ServerId, Transaction, View,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::spec::{PAYLOAD_BYTES, SERVERS};

/// Nanoseconds per call of `op` over `iterations` calls.
fn ns_per_call(iterations: u32, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        op();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iterations)
}

fn proposals(count: usize) -> Vec<Proposal> {
    (0..count as u64)
        .map(|ts| {
            let tx = Transaction::with_size(ClientId(0), ts + 1, PAYLOAD_BYTES);
            let digest = digest_of(&tx.payload);
            Proposal::new(tx, digest)
        })
        .collect()
}

fn ord_of(batch: Vec<Proposal>) -> Message {
    let (view, n) = (View(1), SeqNum(42));
    Message::Ord {
        view,
        n,
        digest: batch_digest(view, n, &batch),
        batch: Arc::new(batch),
        sig: [7; 32],
    }
}

/// Runs every direct measurement, reporting each as `(metric name, value)`.
pub fn measure(report: &mut dyn FnMut(&str, f64)) {
    let registry = KeyRegistry::new(7, SERVERS, 1);
    let signer = Actor::Server(ServerId(1));
    let key = registry.key_of(signer).expect("registered").clone();
    let (view, seq, digest) = (View(1), SeqNum(42), Digest([9; 32]));
    let statement = qc_statement(QcKind::Ordering, view, seq, &digest);

    report(
        "crypto.sign_ns",
        ns_per_call(200_000, || {
            black_box(key.sign(black_box(&statement)));
        }),
    );
    let signature = key.sign(&statement);
    report(
        "crypto.verify_ns",
        ns_per_call(200_000, || {
            black_box(registry.verify(signer, black_box(&statement), &signature));
        }),
    );

    for (size, iterations) in [(16usize, 20_000u32), (500, 1_000)] {
        let batch = proposals(size);
        report(
            &format!("crypto.batch_digest_us.b{size}"),
            ns_per_call(iterations, || {
                black_box(batch_digest(view, seq, black_box(&batch)));
            }) / 1e3,
        );
    }

    let quorum = SERVERS - (SERVERS - 1) / 3;
    let mut builder = QcBuilder::new(QcKind::Ordering, view, seq, digest, quorum);
    for i in 0..quorum {
        let share = sign_share(&registry, ServerId(i), QcKind::Ordering, view, seq, &digest)
            .expect("registered");
        builder.add_verified_share(&share);
    }
    let qc = builder.assemble().expect("quorum of shares");
    let verifier = ThresholdVerifier::new(&registry);
    report(
        "crypto.qc_verify_us",
        ns_per_call(50_000, || {
            black_box(verifier.verify(black_box(&qc), quorum)).expect("valid certificate");
        }) / 1e3,
    );

    let engine = ReputationEngine::default();
    let input = CalcRpInput {
        current_view: View(5),
        new_view: View(6),
        current_rp: 5,
        current_ci: 1,
        latest_tx_seq: SeqNum(20),
        penalty_history: vec![1, 2, 3, 4, 5],
    };
    report(
        "reputation.calc_rp_ns",
        ns_per_call(200_000, || {
            black_box(engine.calc_rp(black_box(&input)));
        }),
    );

    let codec = FrameCodec::new();
    let from = Actor::Server(ServerId(0));
    for (size, iterations) in [(16usize, 20_000u32), (500, 1_000)] {
        let message = ord_of(proposals(size));
        let mut frame = Vec::new();
        report(
            &format!("net.frame.encode_us.b{size}"),
            ns_per_call(iterations, || {
                codec
                    .encode_into(from, black_box(&message), &mut frame)
                    .expect("frame fits");
                black_box(&frame);
            }) / 1e3,
        );
        report(
            &format!("net.frame.decode_us.b{size}"),
            ns_per_call(iterations, || {
                let decoded = codec
                    .decode::<Message>(black_box(&frame))
                    .expect("own frame decodes");
                black_box(decoded);
            }) / 1e3,
        );
        report(
            &format!("net.frame.bytes_per_tx.b{size}"),
            frame.len() as f64 / size as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_direct_measurement_reports_a_positive_number() {
        let mut seen = Vec::new();
        measure(&mut |name, value| {
            assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
            seen.push(name.to_string());
        });
        assert_eq!(seen.len(), 12);
    }
}
