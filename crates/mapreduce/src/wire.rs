//! The one TCP frame codec, shared by the worker backend
//! ([`crate::exec::tcp`]) and the inversion service.
//!
//! A frame is a `u32` little-endian length, one tag byte, then the body;
//! the length counts the tag byte plus the body. The tag's meaning and the
//! body's layout belong to each protocol.
//!
//! [`Decoder`] is the bounds-checked reader for hand-laid bodies: every
//! length it is given is checked against the bytes that remain *before*
//! anything is allocated, so a corrupt or hostile frame costs at most its
//! own size in memory.

use std::io::{self, Read, Write};

/// Bytes of a frame body read per allocation step. A frame claiming more
/// than this grows its buffer as the bytes actually arrive, so a forged
/// length cannot make the reader allocate memory the peer never sends.
const READ_CHUNK: usize = 4 << 20;

/// The length prefix for a body of `body_len` bytes, or `InvalidInput`
/// when the frame (tag byte included) does not fit the `u32` prefix.
fn frame_len(body_len: usize) -> io::Result<u32> {
    body_len
        .checked_add(1)
        .and_then(|len| u32::try_from(len).ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame body of {body_len} bytes exceeds the u32 length prefix"),
            )
        })
}

/// Writes one `len ∥ tag ∥ body` frame and flushes.
pub fn write_frame<W: Write>(stream: &mut W, tag: u8, body: &[u8]) -> io::Result<()> {
    let len = frame_len(body.len())?;
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4] = tag;
    stream.write_all(&header)?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one frame, returning `(tag, body)`.
pub fn read_frame<R: Read>(stream: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length frame",
        ));
    }
    let mut tag = [0u8; 1];
    stream.read_exact(&mut tag)?;
    let body_len = len - 1;
    let mut body = Vec::new();
    while body.len() < body_len {
        let start = body.len();
        let end = body_len.min(start + start.max(READ_CHUNK));
        body.reserve_exact(end - start);
        body.resize(end, 0);
        stream.read_exact(&mut body[start..])?;
    }
    Ok((tag[0], body))
}

/// Why a frame body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian reader over one frame body.
#[derive(Debug)]
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// A reader positioned at the start of `body`.
    pub fn new(body: &'a [u8]) -> Self {
        Decoder { rest: body }
    }

    /// The next `n` raw bytes.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError(format!(
                "truncated body: need {n} bytes, {} remain",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// One byte that must be 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError(format!("invalid bool byte {b}"))),
        }
    }

    /// One little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// One little-endian `f64`, bit for bit.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` count of items that each occupy at least `min_item_bytes`
    /// of what remains; rejects a count the remaining bytes cannot hold,
    /// so callers may reserve `count` items without trusting the peer.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u64()?;
        let fits = usize::try_from(count)
            .ok()
            .filter(|&c| c.saturating_mul(min_item_bytes.max(1)) <= self.rest.len());
        fits.ok_or_else(|| {
            DecodeError(format!(
                "claimed {count} items of at least {min_item_bytes} bytes, {} bytes remain",
                self.rest.len()
            ))
        })
    }

    /// `n` little-endian `f64`s into one vector, bit for bit.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, DecodeError> {
        let raw = self.bytes(
            n.checked_mul(8)
                .ok_or_else(|| DecodeError(format!("{n} values overflow the address space")))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// A `u64`-counted vector of `f64`s.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(8)?;
        self.f64s(n)
    }

    /// A `u64`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.count(1)?;
        let raw = self.bytes(n)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|e| DecodeError(format!("string is not UTF-8: {e}")))
    }

    /// Succeeds only when every byte was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError(format!(
                "{} trailing bytes after the body",
                self.rest.len()
            )))
        }
    }
}

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `f64`s as raw little-endian bit patterns (no count).
pub fn put_f64s(buf: &mut Vec<u8>, vals: &[f64]) {
    buf.reserve(vals.len() * 8);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends a `u64` count followed by the `f64`s.
pub fn put_f64_vec(buf: &mut Vec<u8>, vals: &[f64]) {
    put_u64(buf, vals.len() as u64);
    put_f64s(buf, vals);
}

/// Appends a `u64` length followed by the UTF-8 bytes.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_len_rejects_bodies_past_the_u32_prefix() {
        assert_eq!(frame_len(0).unwrap(), 1);
        assert_eq!(frame_len(u32::MAX as usize - 1).unwrap(), u32::MAX);
        let err = frame_len(u32::MAX as usize).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(frame_len(usize::MAX).is_err(), "the +1 must not wrap");
    }

    #[test]
    fn frames_round_trip_and_keep_the_worker_layout() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 17, b"abc").unwrap();
        assert_eq!(buf, [4, 0, 0, 0, 17, b'a', b'b', b'c']);
        write_frame(&mut buf, 2, &[]).unwrap();
        let big = vec![7u8; READ_CHUNK * 2 + 3];
        write_frame(&mut buf, 9, &big).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), (17, b"abc".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), (2, Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), (9, big));
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn forged_lengths_fail_without_allocating_the_claim() {
        // A zero length is malformed outright.
        let err = read_frame(&mut Cursor::new(vec![0, 0, 0, 0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A 4 GiB claim backed by three body bytes ends at EOF after one
        // read chunk was reserved, not 4 GiB.
        let mut frame = u32::MAX.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 2, 3, 4]);
        let err = read_frame(&mut Cursor::new(frame)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn decoder_bounds_every_length() {
        let mut body = Vec::new();
        put_string(&mut body, "tenant");
        put_f64_vec(&mut body, &[-0.0, f64::MIN_POSITIVE / 2.0]);
        body.push(1);
        let mut d = Decoder::new(&body);
        assert_eq!(d.string().unwrap(), "tenant");
        let v = d.f64_vec().unwrap();
        assert_eq!(v[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(v[1].to_bits(), (f64::MIN_POSITIVE / 2.0).to_bits());
        assert!(d.bool().unwrap());
        d.finish().unwrap();

        // A count the remaining bytes cannot hold is refused up front.
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(Decoder::new(&huge).f64_vec().is_err());
        assert!(Decoder::new(&huge).string().is_err());
        // Truncation and trailing bytes are both errors.
        assert!(Decoder::new(&body[..body.len() - 2]).string().is_ok());
        let mut d = Decoder::new(&body[..body.len() - 2]);
        d.string().unwrap();
        assert!(d.f64_vec().is_err());
        let mut d = Decoder::new(&body);
        d.string().unwrap();
        assert!(d.finish().is_err());
        assert!(Decoder::new(&[2]).bool().is_err());
    }
}
