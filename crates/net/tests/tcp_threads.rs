//! A live `TcpTransport` owns no long-lived thread: binding spawns none, and
//! the short-lived connector threads that traffic starts are gone once the
//! connections are up. This is the only test in its binary so that the
//! process's thread count is the test's own.
#![cfg(target_os = "linux")]

use prestige_net::{TcpTransport, Transport};
use prestige_types::{Actor, ServerId};
use std::collections::HashMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn bind_and_traffic_leave_no_extra_thread() {
    let before = threads();
    let (s0, s1) = (Actor::Server(ServerId(0)), Actor::Server(ServerId(1)));
    let la = TcpListener::bind("127.0.0.1:0").unwrap();
    let lb = TcpListener::bind("127.0.0.1:0").unwrap();
    let (addr_a, addr_b) = (la.local_addr().unwrap(), lb.local_addr().unwrap());
    let mut a: TcpTransport<u64> =
        TcpTransport::from_listener(s0, la, HashMap::from([(s1, addr_b)])).unwrap();
    let mut b: TcpTransport<u64> =
        TcpTransport::from_listener(s1, lb, HashMap::from([(s0, addr_a)])).unwrap();
    assert_eq!(threads(), before, "binding an endpoint must not spawn");

    // Ping-pong both ways so both endpoints dial, accept, read and write.
    let deadline = Instant::now() + Duration::from_secs(20);
    a.send(s1, 0);
    let mut last = 0;
    while last < 100 {
        assert!(Instant::now() < deadline, "ping-pong stuck at {last}");
        for (endpoint, peer) in [(&mut a, s1), (&mut b, s0)] {
            if let Some((from, n)) = endpoint.recv_timeout(Duration::from_millis(1)) {
                assert_eq!(from, peer);
                endpoint.send(peer, n + 1);
                last = n;
            }
        }
    }
    // Connector threads exit on their own once they have reported.
    while threads() != before {
        assert!(
            Instant::now() < deadline,
            "a transport thread outlived the connect"
        );
        std::thread::yield_now();
    }
    a.shutdown();
    b.shutdown();
    assert_eq!(threads(), before);
}
