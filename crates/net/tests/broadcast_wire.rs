//! Wire compatibility of the encode-once broadcast path.
//!
//! The zero-copy hot path must not change what travels on the wire: TCP
//! peers receiving a broadcast must decode exactly the message that per-peer
//! sends would have delivered.

use prestige_net::{TcpTransport, Transport};
use prestige_types::{
    Actor, ClientId, Digest, Message, Proposal, SeqNum, ServerId, Transaction, View,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn server(i: u32) -> Actor {
    Actor::Server(ServerId(i))
}

fn ord_message(batch: usize) -> Message {
    Message::Ord {
        view: View(7),
        n: SeqNum(42),
        batch: Arc::new(
            (0..batch)
                .map(|i| {
                    Proposal::new(
                        Transaction::with_size(ClientId(3), i as u64, 32),
                        Digest([i as u8; 32]),
                    )
                })
                .collect(),
        ),
        digest: Digest([9u8; 32]),
        sig: [4u8; 32],
    }
}

/// Three endpoints, each knowing the other two, all listening before any
/// of them sends.
fn three_endpoints() -> Vec<TcpTransport<Message>> {
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap())
        .collect();
    let addrs: HashMap<Actor, SocketAddr> = (0..3)
        .map(|i| (server(i), listeners[i as usize].local_addr().unwrap()))
        .collect();
    (0..3)
        .zip(listeners)
        .map(|(i, listener)| {
            let mut peers = addrs.clone();
            peers.remove(&server(i));
            TcpTransport::from_listener(server(i), listener, peers).unwrap()
        })
        .collect()
}

/// A TCP broadcast reaches every peer with the exact message per-peer sends
/// would deliver, and unicast sends still interleave correctly.
#[test]
fn tcp_broadcast_delivers_identical_messages_to_all_peers() {
    let mut endpoints = three_endpoints();
    let mut c = endpoints.pop().unwrap();
    let mut b = endpoints.pop().unwrap();
    let mut a = endpoints.pop().unwrap();

    let broadcast_msg = ord_message(50);
    let unicast_msg = ord_message(1);
    a.broadcast(&[server(1), server(2)], broadcast_msg.clone());
    a.send(server(1), unicast_msg.clone());

    // The sender's I/O advances only inside calls on it, so pump it the way
    // its event loop would while the receivers collect.
    let mut recv_n = |t: &mut TcpTransport<Message>, n: usize| -> Vec<Message> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < n && Instant::now() < deadline {
            assert!(a.recv_timeout(Duration::ZERO).is_none());
            if let Some((from, m)) = t.recv_timeout(Duration::from_millis(1)) {
                assert_eq!(from, server(0));
                got.push(m);
            }
        }
        got
    };

    let at_b = recv_n(&mut b, 2);
    assert_eq!(at_b, vec![broadcast_msg.clone(), unicast_msg]);
    let at_c = recv_n(&mut c, 1);
    assert_eq!(at_c, vec![broadcast_msg]);

    // Two broadcast recipients + one unicast = three sends counted.
    assert_eq!(a.stats().snapshot().0, 3);
    assert_eq!(a.stats().snapshot().2, 0, "nothing dropped");
    a.shutdown();
    b.shutdown();
    c.shutdown();
}
