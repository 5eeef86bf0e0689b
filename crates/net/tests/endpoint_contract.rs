//! The [`Endpoint`] contract, held against both backends where it
//! applies to both, and the TCP backend's own seams: batched sends and
//! receives, the shared doorbell, the blocking accept loop, and what a
//! peer that speaks garbage gets.

#![expect(
    clippy::disallowed_methods,
    reason = "deadlines bound how long a test waits on real sockets; no output depends on the clock"
)]

use greenps_net::frame::{write_hello, Hello, HELLO_LEN};
use greenps_net::wire::{put_seq_len, put_u64};
use greenps_net::{
    Endpoint, NetError, NetEvent, NodeName, SimTransport, TcpTransport, Transport, Wire, WireError,
    WireReader, MAX_FRAME_LEN,
};
use greenps_simnet::Payload;
use greenps_telemetry::Registry;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A numbered message with padding, so a frame can be made any size.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Note(u64, Vec<u8>);

impl Note {
    fn small(seq: u64) -> Note {
        Note(seq, Vec::new())
    }
}

impl Payload for Note {
    fn wire_size(&self) -> usize {
        12 + self.1.len()
    }
}

impl Wire for Note {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
        put_seq_len(out, self.1.len());
        out.extend_from_slice(&self.1);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seq = r.u64()?;
        let n = r.seq_len()?;
        Ok(Note(seq, r.take(n)?.to_vec()))
    }
}

/// Generous: nothing here waits for it unless the test is failing.
const PATIENCE: Duration = Duration::from_secs(20);

/// The next event of `ep` that `pick` accepts, re-polling (a `poll` may
/// come back empty early) until [`PATIENCE`] runs out. No call is made
/// on any other endpoint meanwhile.
fn next<E: Endpoint<Note>, T>(
    ep: &mut E,
    mut pick: impl FnMut(NetEvent<Note>) -> Option<T>,
) -> Option<T> {
    let deadline = Instant::now() + PATIENCE;
    while Instant::now() < deadline {
        if let Some(got) = ep.poll(Duration::from_millis(50)).and_then(&mut pick) {
            return Some(got);
        }
    }
    None
}

fn next_note<E: Endpoint<Note>>(ep: &mut E) -> Option<(NodeName, Note)> {
    next(ep, |ev| match ev {
        NetEvent::Msg { from, msg } => Some((from, msg)),
        _ => None,
    })
}

fn next_closed<E: Endpoint<Note>>(ep: &mut E) -> Option<NodeName> {
    next(ep, |ev| match ev {
        NetEvent::Closed { peer } => Some(peer),
        _ => None,
    })
}

/// Endpoints 1 and 2 of `transport`, 1 connected to 2.
fn pair<T: Transport<Note>>(transport: &mut T) -> (T::Endpoint, T::Endpoint, NodeName) {
    let mut a = transport.open(1).expect("open 1");
    let b = transport.open(2).expect("open 2");
    let peer = a.connect(&b.addr()).expect("connect 1 -> 2");
    assert_eq!(peer, 2);
    (a, b, peer)
}

fn a_run_of_enqueues_arrives_in_order_after_one_flush<T: Transport<Note>>(mut transport: T) {
    let (mut a, mut b, peer) = pair(&mut transport);
    for seq in 0..500 {
        a.enqueue(peer, &Note::small(seq)).expect("enqueue");
    }
    a.flush().expect("flush");
    a.flush().expect("a second flush has nothing to write");
    for seq in 0..500 {
        assert_eq!(next_note(&mut b), Some((1, Note::small(seq))));
    }
    assert_eq!(b.poll(Duration::ZERO), None, "and nothing else");
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn a_run_of_enqueues_arrives_in_order_after_one_flush_on_both_backends() {
    a_run_of_enqueues_arrives_in_order_after_one_flush(SimTransport::new());
    // Over TCP the run is one write and far fewer reads than frames.
    let registry = Registry::new();
    a_run_of_enqueues_arrives_in_order_after_one_flush(TcpTransport::with_telemetry(&registry));
    assert_eq!(counter(&registry, "transport.frames_sent"), 500);
    assert_eq!(counter(&registry, "transport.flushes"), 1);
    assert_eq!(counter(&registry, "transport.frames_received"), 500);
    let reads = counter(&registry, "transport.reads");
    assert!((1..500).contains(&reads), "{reads} reads for 500 frames");
}

/// What the benchmark's pair probe does: `send`, then only the
/// receiver is polled.
fn send_alone_reaches_the_peer<T: Transport<Note>>(mut transport: T) {
    let (mut a, mut b, peer) = pair(&mut transport);
    for seq in 0..3 {
        a.send(peer, &Note::small(seq)).expect("send");
        assert_eq!(next_note(&mut b), Some((1, Note::small(seq))));
    }
}

#[test]
fn send_alone_reaches_the_peer_on_both_backends() {
    send_alone_reaches_the_peer(SimTransport::new());
    send_alone_reaches_the_peer(TcpTransport::new());
}

/// TCP only: on the sim backend a node that shuts down takes what it
/// had in flight with it.
#[test]
fn what_was_enqueued_before_shutdown_is_delivered() {
    let (mut a, mut b, peer) = pair(&mut TcpTransport::new());
    for seq in 0..100 {
        a.enqueue(peer, &Note::small(seq)).expect("enqueue");
    }
    a.shutdown();
    assert!(matches!(
        a.enqueue(peer, &Note::small(0)),
        Err(NetError::Shutdown)
    ));
    for seq in 0..100 {
        assert_eq!(next_note(&mut b), Some((1, Note::small(seq))));
    }
}

#[test]
fn enqueue_flushes_by_itself_before_its_buffer_outgrows_a_socket_buffer() {
    let mut transport = TcpTransport::new();
    let (mut a, mut b, peer) = pair(&mut transport);
    let padding = vec![0xAB; 1024];
    // 100 KiB and no flush: the first 64 KiB go out on their own.
    for seq in 0..100 {
        a.enqueue(peer, &Note(seq, padding.clone()))
            .expect("enqueue");
    }
    for seq in 0..60 {
        assert_eq!(next_note(&mut b), Some((1, Note(seq, padding.clone()))));
    }
    a.flush().expect("flush");
    for seq in 60..100 {
        assert_eq!(next_note(&mut b), Some((1, Note(seq, padding.clone()))));
    }
}

#[test]
fn a_message_over_the_frame_cap_is_refused_and_the_stream_stays_sound() {
    let mut transport = TcpTransport::new();
    let (mut a, mut b, peer) = pair(&mut transport);
    a.enqueue(peer, &Note::small(1)).expect("enqueue");
    let too_big = Note(2, vec![0; MAX_FRAME_LEN]);
    assert!(matches!(
        a.enqueue(peer, &too_big),
        Err(NetError::Codec(WireError::BadLength(_)))
    ));
    a.send(peer, &Note::small(3)).expect("send");
    assert_eq!(next_note(&mut b), Some((1, Note::small(1))));
    assert_eq!(next_note(&mut b), Some((1, Note::small(3))));
}

#[test]
fn a_blocked_poll_is_woken_by_input_on_another_endpoint_of_the_transport() {
    let mut transport = TcpTransport::new();
    let (mut a, mut b, peer) = pair(&mut transport);
    let mut idle: <TcpTransport as Transport<Note>>::Endpoint = transport.open(3).expect("open 3");
    a.send(peer, &Note::small(7)).expect("send");
    // The driver blocks on an endpoint that will never have input, for
    // far longer than the test may take, and still gets to `b`'s. Like
    // any driver of several endpoints it drains one before it blocks
    // on another: the bell rings when an inbox fills, not per event.
    let start = Instant::now();
    let mut got = None;
    while got.is_none() && start.elapsed() < PATIENCE {
        assert_eq!(idle.poll(PATIENCE), None);
        while let Some(ev) = b.poll(Duration::ZERO) {
            if let NetEvent::Msg { msg, .. } = ev {
                got = Some(msg);
            }
        }
    }
    assert_eq!(got, Some(Note::small(7)));
    assert!(start.elapsed() < PATIENCE / 2, "woken, not timed out");
}

#[test]
fn an_endpoint_nobody_dialed_shuts_down_and_late_dials_find_nobody() {
    let mut transport = TcpTransport::new();
    let mut ep: <TcpTransport as Transport<Note>>::Endpoint = transport.open(1).expect("open");
    let greenps_net::EndpointAddr::Tcp(addr) = ep.addr() else {
        panic!("a tcp endpoint has a tcp address");
    };
    // Joins the accept thread, which is blocked in `accept()`.
    ep.shutdown();
    // The listener went with it: refused, or accepted by nobody and
    // closed without a hello.
    if let Ok(mut late) = TcpStream::connect(addr) {
        late.set_read_timeout(Some(PATIENCE)).expect("timeout");
        let mut hello = [0u8; HELLO_LEN];
        assert!(late.read_exact(&mut hello).is_err());
    }
    assert_eq!(ep.poll(Duration::from_millis(10)), None);
}

/// Dials `ep` with a raw socket and completes the hello as `node`.
fn raw_dial(addr: greenps_net::EndpointAddr, node: NodeName) -> TcpStream {
    let greenps_net::EndpointAddr::Tcp(addr) = addr else {
        panic!("a tcp endpoint has a tcp address");
    };
    let mut raw = TcpStream::connect(addr).expect("dial");
    write_hello(&mut raw, Hello { node, epoch: 1 }).expect("hello out");
    let mut theirs = [0u8; HELLO_LEN];
    raw.read_exact(&mut theirs).expect("hello back");
    raw
}

#[test]
fn garbage_and_oversized_frames_close_the_session() {
    let registry = Registry::new();
    let mut transport = TcpTransport::with_telemetry(&registry);
    let mut ep: <TcpTransport as Transport<Note>>::Endpoint = transport.open(1).expect("open");

    // A sound frame, then one whose payload is not a `Note`, then a
    // sound one that must never be seen.
    let mut garbler = raw_dial(ep.addr(), 77);
    let mut sound = Vec::new();
    Note::small(5).encode(&mut sound);
    let mut bytes = Vec::new();
    for payload in [&sound[..], &[1, 2, 3][..], &sound[..]] {
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    garbler.write_all(&bytes).expect("write");
    assert_eq!(next_note(&mut ep), Some((77, Note::small(5))));
    assert_eq!(next_closed(&mut ep), Some(77));
    assert_eq!(counter(&registry, "transport.decode_errors"), 1);

    // A length prefix no frame may have: closed before a byte of the
    // "payload" is waited for.
    let mut hog = raw_dial(ep.addr(), 78);
    hog.write_all(&u32::MAX.to_le_bytes()).expect("write");
    assert_eq!(next_closed(&mut ep), Some(78));
    assert_eq!(counter(&registry, "transport.decode_errors"), 1);
    assert_eq!(ep.poll(Duration::ZERO), None);
    assert_eq!(counter(&registry, "transport.frames_received"), 1);
}
