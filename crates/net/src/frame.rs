//! Length-prefixed framing and the connection handshake.
//!
//! Every TCP connection starts with a fixed 17-byte hello in each
//! direction:
//!
//! ```text
//! [ magic "GPN1" | 4 bytes ][ node name | u64 LE ][ epoch | u32 LE ][ flags | u8 ]
//! ```
//!
//! after which the stream carries data frames:
//!
//! ```text
//! [ payload length | u32 LE ][ payload bytes ]
//! ```
//!
//! The `(node, epoch)` pair in the hello is what makes sessions
//! *epoch-aware*: a node that restarts reopens its endpoint with a
//! larger epoch, and receivers fence out every event still in flight
//! from the older session (DESIGN.md §13.3). Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before any buffer grows, so a
//! corrupt or hostile length prefix cannot balloon memory.
//!
//! Frames move in runs: a sender appends frame after frame to one
//! buffer ([`begin_frame`]/[`end_frame`]) and writes the run at once; a
//! `Reassembler` cuts every complete frame out of whatever one read
//! brought. Neither needs a socket to be tested.

use std::io::{self, Read, Write};

/// Protocol magic: "GPN1" — greenps net, wire format 1.
pub const MAGIC: [u8; 4] = *b"GPN1";

/// Hard ceiling on one frame's payload, and so on every receiver's
/// reassembly buffer. The largest frame the workspace encodes is the
/// root BIA of a gather: 2 039 707 bytes for the 4 000 subscriptions
/// and 80 brokers of the benchmark's `reconfigure` workload (≈ 510
/// bytes per profiled subscription; the zoned tests gather a few
/// hundred). 16 MiB is the next power of two with at least 4× headroom
/// over that (8.2×).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Size of a frame's length prefix, in bytes.
const PREFIX_LEN: usize = 4;

/// What a [`Reassembler`] reads at a time: room for the run of frames
/// one window of the deployment driver puts on a connection (≈ 17 KiB).
/// Measured on `tcp_chain`: 64 KiB and 256 KiB give the same
/// throughput, 16 KiB and 4 KiB cut a run in two and are 5–6 % slower.
const READ_BUF_LEN: usize = 64 * 1024;

/// Size of the fixed hello exchanged on connect, in bytes.
pub const HELLO_LEN: usize = 17;

/// Why a handshake or frame read failed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer's hello did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad hello magic {m:?}"),
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds cap"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The identity a peer announces in its hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The peer's node name (broker id or client endpoint name).
    pub node: u64,
    /// The peer's session epoch; larger supersedes smaller.
    pub epoch: u32,
}

/// Writes the fixed-size hello.
pub fn write_hello(w: &mut impl Write, hello: Hello) -> Result<(), FrameError> {
    let mut buf = Vec::with_capacity(HELLO_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&hello.node.to_le_bytes());
    buf.extend_from_slice(&hello.epoch.to_le_bytes());
    buf.push(0); // flags byte, zero in wire format 1
    w.write_all(&buf)?;
    Ok(())
}

/// Reads and validates the peer's hello.
pub fn read_hello(r: &mut impl Read) -> Result<Hello, FrameError> {
    let mut buf = [0u8; HELLO_LEN];
    r.read_exact(&mut buf)?;
    let mut wr = crate::wire::WireReader::new(&buf);
    // `buf` is exactly HELLO_LEN bytes, so these reads cannot fail; the
    // mapping keeps the decode panic-free all the same.
    let short = || FrameError::Io(io::ErrorKind::InvalidData.into());
    let magic_bytes = wr.take(4).map_err(|_| short())?;
    if magic_bytes != MAGIC {
        let mut magic = [0u8; 4];
        for (slot, b) in magic.iter_mut().zip(magic_bytes) {
            *slot = *b;
        }
        return Err(FrameError::BadMagic(magic));
    }
    let node = wr.u64().map_err(|_| short())?;
    let epoch = wr.u32().map_err(|_| short())?;
    Ok(Hello { node, epoch })
}

/// Opens a frame at the end of `out`: reserves the four length-prefix
/// bytes that [`end_frame`] patches and returns where the frame starts.
/// The payload is then encoded straight into `out`, behind any frames
/// already waiting there, so the send path performs no allocation.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    start
}

/// Closes the frame opened at `start` by patching its length prefix.
/// A payload over [`MAX_FRAME_LEN`] is refused, not truncated: the
/// frame is cut back out of `out` and what was there before stays.
pub fn end_frame(out: &mut Vec<u8>, start: usize) -> Result<(), FrameError> {
    let payload = out.len().saturating_sub(start.saturating_add(PREFIX_LEN));
    let len = u32::try_from(payload).unwrap_or(u32::MAX);
    if payload > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(FrameError::Oversized(len));
    }
    if let Some(prefix) = out.get_mut(start..start.saturating_add(PREFIX_LEN)) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
    Ok(())
}

/// Cuts frames out of a byte stream that arrives in arbitrary pieces:
/// `fill` reads whatever the stream has into the free tail of one
/// buffer, `next_frame` hands out every complete payload in it as a
/// slice of that buffer. The buffer starts at [`READ_BUF_LEN`], grows
/// only to hold one frame whose length prefix has passed the
/// [`MAX_FRAME_LEN`] check, and shrinks back once that frame is consumed.
pub(crate) struct Reassembler {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[head..tail]`.
    head: usize,
    tail: usize,
}

impl Reassembler {
    pub(crate) fn new() -> Self {
        Self {
            buf: vec![0; READ_BUF_LEN],
            head: 0,
            tail: 0,
        }
    }

    /// The payload length announced by the prefix at `head`, once all
    /// four of its bytes have arrived.
    fn announced(&self) -> Result<Option<usize>, FrameError> {
        let prefix = self
            .buf
            .get(self.head..self.tail)
            .and_then(|b| b.first_chunk::<PREFIX_LEN>());
        let Some(prefix) = prefix else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        match usize::try_from(len) {
            Ok(n) if n <= MAX_FRAME_LEN => Ok(Some(n)),
            _ => Err(FrameError::Oversized(len)),
        }
    }

    /// One `read` from `r` into the free tail of the buffer; `Ok(0)` is
    /// end of stream. Call it when `next_frame` has returned `Ok(None)`.
    pub(crate) fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        // Make room: whatever is left is one partial frame.
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        // An oversized prefix is `next_frame`'s to report: never grow.
        let need = match self.announced() {
            Ok(Some(n)) => n.saturating_add(PREFIX_LEN),
            Ok(None) | Err(_) => 0,
        };
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        } else if self.tail == 0 && self.buf.len() > READ_BUF_LEN {
            self.buf.truncate(READ_BUF_LEN);
            self.buf.shrink_to_fit();
        }
        let n = match self.buf.get_mut(self.tail..) {
            Some(free) => r.read(free)?,
            None => 0,
        };
        self.tail = self.tail.saturating_add(n).min(self.buf.len());
        Ok(n)
    }

    /// The next complete payload, `Ok(None)` when the buffer holds only
    /// part of a frame, or [`FrameError::Oversized`] as soon as a length
    /// prefix over [`MAX_FRAME_LEN`] is seen.
    pub(crate) fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Some(len) = self.announced()? else {
            return Ok(None);
        };
        let start = self.head.saturating_add(PREFIX_LEN);
        let end = start.saturating_add(len);
        if end > self.tail {
            return Ok(None);
        }
        self.head = end;
        Ok(self.buf.get(start..end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hello_round_trips() {
        let mut buf = Vec::new();
        let h = Hello { node: 42, epoch: 7 };
        write_hello(&mut buf, h).unwrap();
        assert_eq!(buf.len(), HELLO_LEN);
        let got = read_hello(&mut buf.as_slice()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_hello(&mut buf, Hello { node: 1, epoch: 1 }).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_hello(&mut buf.as_slice()),
            Err(FrameError::BadMagic(_))
        ));
    }

    /// The frames as one byte stream.
    fn stream_of(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for payload in payloads {
            let start = begin_frame(&mut wire);
            wire.extend_from_slice(payload);
            end_frame(&mut wire, start).unwrap();
        }
        wire
    }

    /// Hands a stream out at most `chunk` bytes per `read`, cycling
    /// through `chunks`.
    struct Chunked<'a> {
        rest: &'a [u8],
        chunks: &'a [usize],
        turn: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.chunks[self.turn % self.chunks.len()];
            self.turn += 1;
            let n = chunk.min(buf.len()).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// Everything a reassembler cuts out of `wire` read in `chunks`,
    /// the error that ended it if one did, and the largest buffer it
    /// ever held.
    fn reassemble(wire: &[u8], chunks: &[usize]) -> (Vec<Vec<u8>>, Option<FrameError>, usize) {
        let mut r = Chunked {
            rest: wire,
            chunks,
            turn: 0,
        };
        let mut frames = Reassembler::new();
        let (mut got, mut largest) = (Vec::new(), frames.buf.len());
        loop {
            loop {
                match frames.next_frame() {
                    Ok(Some(payload)) => got.push(payload.to_vec()),
                    Ok(None) => break,
                    Err(e) => return (got, Some(e), largest),
                }
            }
            let n = frames.fill(&mut r).unwrap();
            largest = largest.max(frames.buf.len());
            if n == 0 {
                return (got, None, largest);
            }
        }
    }

    #[test]
    fn frames_round_trip_through_one_read() {
        let payloads = vec![b"hello".to_vec(), Vec::new(), b"greenps".to_vec()];
        let (got, err, _) = reassemble(&stream_of(&payloads), &[usize::MAX]);
        assert_eq!(got, payloads);
        assert!(err.is_none());
    }

    #[test]
    fn a_frame_larger_than_the_buffer_grows_it_once_and_gives_it_back() {
        let big = vec![7u8; 3 * READ_BUF_LEN + 5];
        let payloads = vec![b"before".to_vec(), big, b"after".to_vec()];
        let wire = stream_of(&payloads);
        let (got, err, largest) = reassemble(&wire, &[1000]);
        assert_eq!(got, payloads);
        assert!(err.is_none());
        assert_eq!(largest, 3 * READ_BUF_LEN + 5 + PREFIX_LEN);
        // And once the big frame is consumed the buffer is small again.
        let mut frames = Reassembler::new();
        let mut r = wire.as_slice();
        while frames.fill(&mut r).unwrap() > 0 {
            while frames.next_frame().unwrap().is_some() {}
        }
        assert_eq!(frames.buf.len(), READ_BUF_LEN);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_the_buffer_grows() {
        let mut wire = stream_of(&[b"ok".to_vec()]);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        for chunks in [&[1usize][..], &[usize::MAX][..]] {
            let (got, err, largest) = reassemble(&wire, chunks);
            assert_eq!(got, vec![b"ok".to_vec()]);
            assert!(matches!(err, Some(FrameError::Oversized(u32::MAX))));
            assert_eq!(largest, READ_BUF_LEN);
        }
        // One past the cap is refused, the cap itself is a length like
        // any other.
        let over = u32::try_from(MAX_FRAME_LEN + 1).unwrap().to_le_bytes();
        let (_, err, largest) = reassemble(&over, &[usize::MAX]);
        assert!(matches!(err, Some(FrameError::Oversized(_))));
        assert_eq!(largest, READ_BUF_LEN);
        let at = u32::try_from(MAX_FRAME_LEN).unwrap().to_le_bytes();
        let (got, err, largest) = reassemble(&at, &[usize::MAX]);
        assert!(got.is_empty() && err.is_none());
        assert_eq!(largest, MAX_FRAME_LEN + PREFIX_LEN);
    }

    #[test]
    fn a_truncated_frame_is_never_handed_out() {
        let mut wire = stream_of(&[b"abcdef".to_vec()]);
        wire.truncate(wire.len() - 2);
        let (got, err, _) = reassemble(&wire, &[usize::MAX]);
        assert!(got.is_empty() && err.is_none());
    }

    #[test]
    fn an_oversized_payload_is_refused_not_truncated() {
        let mut out = b"kept".to_vec();
        let start = begin_frame(&mut out);
        out.resize(start + PREFIX_LEN + MAX_FRAME_LEN + 1, 0);
        assert!(matches!(
            end_frame(&mut out, start),
            Err(FrameError::Oversized(_))
        ));
        assert_eq!(out, b"kept");
    }

    proptest! {
        /// Any sequence of frames, split anywhere, comes back as the
        /// same payloads in the same order.
        #[test]
        fn reassembly_is_independent_of_chunking(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..300usize),
                0..40usize,
            ),
            chunks in proptest::collection::vec(1usize..700, 1..8usize),
        ) {
            let wire = stream_of(&payloads);
            for chunks in [&chunks[..], &[1][..], &[usize::MAX][..]] {
                let (got, err, largest) = reassemble(&wire, chunks);
                prop_assert!(err.is_none());
                prop_assert_eq!(&got, &payloads);
                prop_assert_eq!(largest, READ_BUF_LEN);
            }
        }
    }
}
