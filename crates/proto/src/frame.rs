//! Length-framed streaming over `std::io`.
//!
//! A frame is `[length: u32 le][payload: length bytes]`; the payload
//! is exactly one encoded message. [`FrameReader`] / [`FrameWriter`]
//! turn any `Read`/`Write` pair (a `TcpStream`, a pipe, an in-memory
//! buffer) into a message stream. The length prefix is capped at
//! [`MAX_FRAME`] **before** any allocation, so a hostile peer cannot
//! make the reader balloon; a clean EOF *between* frames is a normal
//! end-of-stream ([`FrameReader::read_request`] returns `Ok(None)`),
//! while EOF *inside* a frame is an error.
//!
//! # Incremental decoding
//!
//! [`FrameAccum`] is the non-blocking entry point: it accumulates one
//! frame across however many `read` calls the transport needs,
//! returning [`FramePoll::Pending`] on `WouldBlock` instead of
//! blocking. An event-driven server parks the connection until the
//! next readiness notification and resumes exactly where the byte
//! stream stopped — mid-header, mid-payload, anywhere. The blocking
//! [`FrameReader`] reads are built on the same accumulator, so both
//! serving styles share one set of framing rules (length cap before
//! allocation, clean-EOF detection, scratch bounded by
//! [`SCRATCH_RETAIN`] across frames *and* error paths).

use std::io::{self, Read, Write};

use crate::codec::DecodeError;
use crate::message::{Request, RequestRef, Response};

/// Largest frame a peer may declare (4 MiB): comfortably above any
/// real message — the largest are registry snapshots — while bounding
/// what a forged length can allocate.
pub const MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Largest capacity the reused frame scratch buffers retain between
/// frames (64 KiB, comfortably above every routine message). One
/// oversized frame — a multi-megabyte snapshot, or a hostile peer
/// deliberately sending `MAX_FRAME` bytes — may grow a buffer to 4
/// MiB for that frame, but the capacity is released afterwards instead
/// of staying pinned for the connection's lifetime. Exported so every
/// layer reusing message buffers (client encode scratch, loopback
/// response scratch) applies the same bound.
pub const SCRATCH_RETAIN: usize = 64 * 1024;

/// Caps a scratch buffer's retained capacity at [`SCRATCH_RETAIN`]
/// (contents past the bound are discarded — call between messages,
/// not while the buffer holds live data).
pub fn bound_scratch(buf: &mut Vec<u8>) {
    if buf.capacity() > SCRATCH_RETAIN {
        buf.truncate(SCRATCH_RETAIN);
        buf.shrink_to(SCRATCH_RETAIN);
    }
}

/// Streaming failure: transport, framing, or message decoding.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes EOF mid-frame).
    Io(io::Error),
    /// The peer declared a frame larger than [`MAX_FRAME`].
    Oversize(u32),
    /// The frame arrived intact but its payload is not a well-formed
    /// message.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport: {e}"),
            FrameError::Oversize(n) => {
                write!(f, "peer declared a {n}-byte frame (cap {MAX_FRAME})")
            }
            FrameError::Decode(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

impl FrameError {
    /// `true` when the failure is a malformed frame/message from the
    /// peer (worth answering with a typed wire error) rather than a
    /// dead transport.
    pub fn is_peer_fault(&self) -> bool {
        matches!(self, FrameError::Oversize(_) | FrameError::Decode(_))
    }
}

/// Progress of an incremental frame read (see [`FrameAccum::poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePoll {
    /// The source has no bytes right now (`WouldBlock`); poll again on
    /// the next readiness notification. Never returned by a blocking
    /// source.
    Pending,
    /// A complete frame payload is buffered: read it with
    /// [`FrameAccum::payload`], then release it with
    /// [`FrameAccum::finish_frame`] before polling for the next one.
    Frame,
    /// Clean EOF at a frame boundary — a normal end of stream.
    Eof,
}

/// Incremental single-frame accumulator: the non-blocking decode entry
/// point of the wire layer.
///
/// One `FrameAccum` holds the read-side state machine of one
/// connection: partially received header, partially received payload,
/// or one complete frame awaiting consumption. [`FrameAccum::poll`]
/// advances the machine with however many bytes the source has and
/// never blocks beyond what the source itself does — a non-blocking
/// socket yields [`FramePoll::Pending`] instead of spinning (exactly
/// one `read` returning `WouldBlock` per poll, never a busy loop).
///
/// The payload scratch is reused across frames and re-bounded to
/// [`SCRATCH_RETAIN`] both on [`FrameAccum::finish_frame`] and on
/// every framing error, so neither a multi-megabyte frame nor a
/// hostile error path can pin capacity for a connection's lifetime.
#[derive(Debug, Default)]
pub struct FrameAccum {
    /// Length-prefix bytes received so far (complete at 4).
    header: [u8; 4],
    header_filled: usize,
    /// Payload scratch; sized to the declared length once the header
    /// completes.
    payload: Vec<u8>,
    payload_filled: usize,
    /// A complete frame is buffered and awaits `finish_frame`.
    ready: bool,
}

impl FrameAccum {
    /// A fresh accumulator (no partial frame, empty scratch).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` while a frame has started arriving but is not complete —
    /// the predicate slow-client (slow-loris) eviction timers key on.
    pub fn mid_frame(&self) -> bool {
        !self.ready && (self.header_filled > 0 || self.payload_filled > 0)
    }

    /// `true` when a complete frame is buffered (i.e. [`FrameAccum::poll`]
    /// returned [`FramePoll::Frame`] and [`FrameAccum::finish_frame`]
    /// has not run yet).
    pub fn has_frame(&self) -> bool {
        self.ready
    }

    /// The completed frame's payload. Empty unless [`FrameAccum::has_frame`].
    pub fn payload(&self) -> &[u8] {
        if self.ready {
            &self.payload
        } else {
            &[]
        }
    }

    /// Retained capacity of the payload scratch — observable so tests
    /// (and metrics) can assert the [`SCRATCH_RETAIN`] bound holds.
    pub fn scratch_capacity(&self) -> usize {
        self.payload.capacity()
    }

    /// Consumes the buffered frame (no-op when none) and re-bounds the
    /// scratch, readying the machine for the next frame.
    pub fn finish_frame(&mut self) {
        self.ready = false;
        self.header_filled = 0;
        self.payload.clear();
        self.payload_filled = 0;
        bound_scratch(&mut self.payload);
    }

    /// Resets all partial state after a framing error so a bad frame
    /// cannot pin scratch capacity or leave the machine desynchronized.
    fn abort(&mut self) {
        self.finish_frame();
    }

    /// Advances the frame state machine with whatever bytes `src` can
    /// deliver right now.
    ///
    /// Returns [`FramePoll::Frame`] once a complete frame is buffered
    /// (and again on every later call until [`FrameAccum::finish_frame`]
    /// runs), [`FramePoll::Pending`] when the source reports
    /// `WouldBlock`, and [`FramePoll::Eof`] on clean EOF *between*
    /// frames.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversize`] on a forged length prefix (checked
    /// **before** the payload buffer grows), [`FrameError::Io`] on
    /// transport failure or EOF mid-frame. Every error path resets the
    /// partial state and re-bounds the scratch.
    pub fn poll(&mut self, src: &mut impl Read) -> Result<FramePoll, FrameError> {
        if self.ready {
            return Ok(FramePoll::Frame);
        }
        loop {
            if self.header_filled < 4 {
                match src.read(&mut self.header[self.header_filled..]) {
                    Ok(0) if self.header_filled == 0 => return Ok(FramePoll::Eof),
                    Ok(0) => {
                        let filled = self.header_filled;
                        self.abort();
                        return Err(FrameError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("stream ended {filled} bytes into a frame header"),
                        )));
                    }
                    Ok(n) => {
                        self.header_filled += n;
                        if self.header_filled < 4 {
                            continue;
                        }
                        let len = u32::from_le_bytes(self.header);
                        if len > MAX_FRAME {
                            self.abort();
                            return Err(FrameError::Oversize(len));
                        }
                        self.payload.clear();
                        self.payload.resize(len as usize, 0);
                        self.payload_filled = 0;
                        if len == 0 {
                            self.ready = true;
                            return Ok(FramePoll::Frame);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(FramePoll::Pending)
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.abort();
                        return Err(FrameError::Io(e));
                    }
                }
            } else {
                match src.read(&mut self.payload[self.payload_filled..]) {
                    Ok(0) => {
                        let (got, want) = (self.payload_filled, self.payload.len());
                        self.abort();
                        return Err(FrameError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("stream ended {got} bytes into a {want}-byte frame payload"),
                        )));
                    }
                    Ok(n) => {
                        self.payload_filled += n;
                        if self.payload_filled == self.payload.len() {
                            self.ready = true;
                            return Ok(FramePoll::Frame);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(FramePoll::Pending)
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.abort();
                        return Err(FrameError::Io(e));
                    }
                }
            }
        }
    }
}

/// Appends one `[length][payload]` frame to an in-memory buffer
/// without flushing anywhere — the building block for buffered
/// non-blocking writers (the evented server queues responses this way
/// and drains the buffer on write readiness).
///
/// # Errors
///
/// [`FrameError::Oversize`] when the payload exceeds [`MAX_FRAME`]
/// (nothing is appended).
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or(FrameError::Oversize(
            payload.len().min(u32::MAX as usize) as u32
        ))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Reads length-prefixed message frames from any [`Read`].
///
/// The reader owns a [`FrameAccum`] whose payload scratch every
/// `read_request`/`read_response`/`read_request_ref` call reuses, so a
/// steady-state connection reads frames with zero allocations. The
/// blocking reads below drive the same incremental state machine the
/// evented server polls; callers that own a non-blocking stream poll a
/// [`FrameAccum`] directly.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    accum: FrameAccum,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            accum: FrameAccum::new(),
        }
    }

    /// `true` while a frame has started arriving but is not complete
    /// (slow-client timers key on this).
    pub fn mid_frame(&self) -> bool {
        self.accum.mid_frame()
    }

    /// Retained payload-scratch capacity (tests assert the
    /// [`SCRATCH_RETAIN`] bound).
    pub fn scratch_capacity(&self) -> usize {
        self.accum.scratch_capacity()
    }

    /// Blocking drive of the accumulator: consumes any frame a prior
    /// read left buffered (lazy finish keeps `read_request_ref`'s
    /// borrow valid until the caller comes back), then reads until a
    /// frame completes or clean EOF. `Ok(true)` = frame buffered.
    fn next_frame_blocking(&mut self) -> Result<bool, FrameError> {
        self.accum.finish_frame();
        match self.accum.poll(&mut self.inner)? {
            FramePoll::Frame => Ok(true),
            FramePoll::Eof => Ok(false),
            // A blocking stream only reports WouldBlock when a read
            // timeout is configured; surface it as the Io error the
            // pre-incremental reader produced.
            FramePoll::Pending => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::WouldBlock,
                "read timed out mid-frame (non-blocking sources should poll a FrameAccum)",
            ))),
        }
    }

    /// Reads one raw frame payload into `buf` (cleared first, capacity
    /// reused); `Ok(false)` on clean EOF between frames.
    ///
    /// # Errors
    ///
    /// [`FrameError::Io`] on transport failure or EOF mid-frame,
    /// [`FrameError::Oversize`] on a forged length prefix (checked
    /// **before** the buffer grows).
    pub fn read_frame_into(&mut self, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
        // Release capacity a previous oversized frame may have pinned;
        // the buffer is refilled below regardless.
        bound_scratch(buf);
        if !self.next_frame_blocking()? {
            return Ok(false);
        }
        buf.clear();
        buf.extend_from_slice(self.accum.payload());
        self.accum.finish_frame();
        Ok(true)
    }

    /// Reads one raw frame payload; `Ok(None)` on clean EOF between
    /// frames. Allocating twin of [`FrameReader::read_frame_into`].
    ///
    /// # Errors
    ///
    /// See [`FrameReader::read_frame_into`].
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let mut payload = Vec::new();
        match self.read_frame_into(&mut payload)? {
            true => Ok(Some(payload)),
            false => Ok(None),
        }
    }

    /// Reads and decodes one [`Request`]; `Ok(None)` on clean EOF. The
    /// frame buffer is reused across calls; the decoded request owns
    /// its bytes.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; malformed payloads are
    /// [`FrameError::Decode`], never a panic.
    pub fn read_request(&mut self) -> Result<Option<Request>, FrameError> {
        if !self.next_frame_blocking()? {
            return Ok(None);
        }
        Ok(Some(Request::decode(self.accum.payload())?))
    }

    /// Reads and decodes one [`RequestRef`] borrowing from the reader's
    /// internal frame buffer; `Ok(None)` on clean EOF. The zero-copy
    /// server path: frame read and decode both reuse buffers, so
    /// serving a request allocates nothing on its way in.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; malformed payloads are
    /// [`FrameError::Decode`], never a panic.
    pub fn read_request_ref(&mut self) -> Result<Option<RequestRef<'_>>, FrameError> {
        if !self.next_frame_blocking()? {
            return Ok(None);
        }
        Ok(Some(RequestRef::decode(self.accum.payload())?))
    }

    /// Reads and decodes one [`Response`]; `Ok(None)` on clean EOF. The
    /// frame buffer is reused across calls; the decoded response owns
    /// its bytes.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; malformed payloads are
    /// [`FrameError::Decode`], never a panic.
    pub fn read_response(&mut self) -> Result<Option<Response>, FrameError> {
        if !self.next_frame_blocking()? {
            return Ok(None);
        }
        Ok(Some(Response::decode(self.accum.payload())?))
    }
}

/// Writes length-prefixed message frames to any [`Write`].
///
/// The writer owns an encode scratch buffer that every
/// `write_request`/`write_response` call reuses, so a steady-state
/// connection writes frames with zero allocations.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    scratch: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            scratch: Vec::new(),
        }
    }

    /// Writes one raw payload as a frame and flushes.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversize`] when the payload exceeds [`MAX_FRAME`]
    /// (nothing is written), [`FrameError::Io`] on transport failure.
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&n| n <= MAX_FRAME)
            .ok_or(FrameError::Oversize(
                payload.len().min(u32::MAX as usize) as u32
            ))?;
        self.inner.write_all(&len.to_le_bytes())?;
        self.inner.write_all(payload)?;
        self.inner.flush()?;
        Ok(())
    }

    /// Encodes and writes one [`Request`], reusing the writer's encode
    /// buffer.
    ///
    /// # Errors
    ///
    /// See [`FrameWriter::write_frame`].
    pub fn write_request(&mut self, request: &Request) -> Result<(), FrameError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        request.encode_into(&mut scratch);
        let result = self.write_frame(&scratch);
        bound_scratch(&mut scratch);
        self.scratch = scratch;
        result
    }

    /// Encodes and writes one [`Response`], reusing the writer's encode
    /// buffer.
    ///
    /// # Errors
    ///
    /// See [`FrameWriter::write_frame`].
    pub fn write_response(&mut self, response: &Response) -> Result<(), FrameError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        response.encode_into(&mut scratch);
        let result = self.write_frame(&scratch);
        bound_scratch(&mut scratch);
        self.scratch = scratch;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ErrorCode, WireVerdict, PROTOCOL_VERSION};

    #[test]
    fn frames_stream_through_a_buffer() {
        let mut wire = Vec::new();
        {
            let mut w = FrameWriter::new(&mut wire);
            w.write_request(&Request::Hello {
                protocol: PROTOCOL_VERSION,
                client: "t".into(),
            })
            .unwrap();
            w.write_request(&Request::SnapshotV2).unwrap();
        }
        let mut r = FrameReader::new(&wire[..]);
        assert!(matches!(
            r.read_request().unwrap(),
            Some(Request::Hello { .. })
        ));
        assert_eq!(r.read_request().unwrap(), Some(Request::SnapshotV2));
        assert_eq!(r.read_request().unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn responses_stream_too() {
        let mut wire = Vec::new();
        FrameWriter::new(&mut wire)
            .write_response(&Response::Verdict(WireVerdict::Accept))
            .unwrap();
        let mut r = FrameReader::new(&wire[..]);
        assert_eq!(
            r.read_response().unwrap(),
            Some(Response::Verdict(WireVerdict::Accept))
        );
    }

    #[test]
    fn truncated_frame_is_an_io_error_not_a_hang_or_panic() {
        let mut wire = Vec::new();
        FrameWriter::new(&mut wire)
            .write_response(&Response::Error {
                code: ErrorCode::MalformedRequest,
                detail: "x".into(),
            })
            .unwrap();
        for cut in 1..wire.len() {
            let mut r = FrameReader::new(&wire[..cut]);
            assert!(
                matches!(r.read_response(), Err(FrameError::Io(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversize_header_rejected_before_allocation() {
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut r = FrameReader::new(&huge[..]);
        assert!(matches!(r.read_frame(), Err(FrameError::Oversize(_))));
    }

    #[test]
    fn oversize_payload_refused_on_write() {
        let mut sink = Vec::new();
        let mut w = FrameWriter::new(&mut sink);
        let too_big = vec![0u8; MAX_FRAME as usize + 1];
        assert!(matches!(
            w.write_frame(&too_big),
            Err(FrameError::Oversize(_))
        ));
        assert!(sink.is_empty(), "nothing half-written");
    }

    #[test]
    fn peer_fault_classification() {
        assert!(FrameError::Oversize(9).is_peer_fault());
        assert!(FrameError::Decode(DecodeError::UnknownMessage(0)).is_peer_fault());
        assert!(!FrameError::Io(io::Error::other("x")).is_peer_fault());
    }
}
