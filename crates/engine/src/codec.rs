//! Hand-rolled, versioned, length-prefixed binary codec for engine
//! snapshots.
//!
//! The workspace is offline (vendor shims, no serde), and the paper's
//! mechanism only stays truthful if recovered state is *exactly* the
//! state that produced past critical-value payments — so the format is
//! explicit down to the byte and every float travels as its IEEE-754 bit
//! pattern (`f64::to_bits`), never through a decimal round-trip.
//!
//! ## Container layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"UFPSNAP\0"
//! 8       4     format version (u32) — currently 4
//! 12      8     body length in bytes (u64)
//! 20      n     body (section stream, see `snapshot`)
//! 20+n    8     FNV-1a 64 checksum over bytes [0, 20+n)
//! ```
//!
//! A reader rejects, with a typed [`CodecError`] and **never a panic**:
//! bad magic, unknown version, any truncation (container- or
//! field-level), trailing bytes, checksum mismatches, and structurally
//! invalid content that a checksum cannot catch (the checksum guards
//! against storage corruption, not against a hostile writer).
//!
//! ## Version policy
//!
//! The version is bumped whenever any serialized field changes meaning,
//! width, or order. Readers support exactly the versions they know;
//! there is no silent best-effort decoding of newer (or older) formats —
//! a restored engine either continues bit-identically or the restore
//! fails loudly.

use std::fmt;

/// File magic: identifies a `ufp-engine` snapshot.
pub const MAGIC: [u8; 8] = *b"UFPSNAP\0";

/// Current (and only) snapshot format version. Version 2 added the
/// dynamic-topology sections (overlay event log + re-admission queue),
/// the per-admission eviction flag, the eviction/refund metrics, and
/// the `Evicted` event tag. Version 3 dropped the payment tolerance and
/// value-floor words from the config fingerprint (the payment policy is
/// a bare class). Version 4 dropped the wall-clock latency fields from
/// the metrics section, so equal input streams encode to equal bytes.
/// Older snapshots are refused rather than partially understood.
pub const FORMAT_VERSION: u32 = 4;

/// Size of the fixed container header (magic + version + body length).
pub const HEADER_LEN: usize = 8 + 4 + 8;

/// Size of the trailing checksum.
pub const CHECKSUM_LEN: usize = 8;

/// Typed decode/restore failures. Every corrupt, truncated, or
/// mismatched snapshot maps to one of these — decoding never panics and
/// never silently restores partial state.
#[derive(Debug)]
pub enum CodecError {
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The first eight bytes actually found (zero-padded when the
        /// input is shorter).
        found: [u8; 8],
    },
    /// The format version is not one this reader supports.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The input ended before a field (or the declared body) was
    /// complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes still required.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// Bytes remain after the declared container end.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// The bytes decoded, but violate a structural invariant (wrong
    /// section tag, out-of-range id, inconsistent lengths, …).
    Malformed {
        /// Which invariant failed.
        context: &'static str,
    },
    /// The snapshot was taken over a different network than the one
    /// provided at restore.
    GraphMismatch {
        /// Which graph property diverged.
        context: &'static str,
    },
    /// The snapshot was taken under a different engine configuration
    /// than the one provided at restore.
    ConfigMismatch {
        /// Which configuration field diverged.
        context: &'static str,
    },
    /// Filesystem failure while reading or writing a snapshot.
    Io(std::io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { found } => {
                write!(f, "not a ufp-engine snapshot (magic {found:02x?})")
            }
            CodecError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            CodecError::Truncated {
                context,
                need,
                have,
            } => write!(
                f,
                "truncated snapshot while reading {context}: need {need} bytes, have {have}"
            ),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot end")
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            CodecError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
            CodecError::GraphMismatch { context } => {
                write!(f, "snapshot was taken over a different graph: {context}")
            }
            CodecError::ConfigMismatch { context } => write!(
                f,
                "snapshot was taken under a different engine config: {context}"
            ),
            CodecError::Io(e) => write!(f, "snapshot i/o failure: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Incremental FNV-1a 64-bit checksum — the container integrity check
/// (`ufp_netgraph`'s, which also fingerprints topologies).
pub use ufp_netgraph::topology::Fnv64;

/// One-shot FNV-1a 64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// Append-only byte sink with fixed-width little-endian primitives.
///
/// Nested frames are written **in place**: [`Writer::begin_bytes`] /
/// [`Writer::begin_container`] reserve a length prefix (or container
/// header) and return a [`Mark`]; the content follows directly in the
/// same buffer, and the matching `end_*` call patches the length (and
/// appends the checksum). A snapshot is thus encoded into one buffer,
/// byte for byte what building each section separately and copying it
/// into its parent would produce.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Where an open frame starts, returned by [`Writer::begin_bytes`] /
/// [`Writer::begin_container`] and consumed by the matching `end_*`.
#[derive(Debug)]
#[must_use = "an open frame must be closed with its end_* call"]
pub struct Mark(usize);

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far (the body, unframed).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The body bytes, unframed. Use for nested blobs (e.g. the driver
    /// section) that live inside an outer container.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Overwrite the `u64` at byte offset `at` (a length or checksum
    /// slot reserved earlier).
    fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Open a length-prefixed byte string whose content is written next;
    /// [`Writer::end_bytes`] fills in the length. Equivalent to
    /// [`Writer::put_bytes`] of the content, without a separate buffer.
    pub fn begin_bytes(&mut self) -> Mark {
        let mark = Mark(self.buf.len());
        self.put_u64(0);
        mark
    }

    /// Close a [`Writer::begin_bytes`] frame.
    pub fn end_bytes(&mut self, mark: Mark) {
        let len = self.buf.len() - mark.0 - 8;
        self.patch_u64(mark.0, len as u64);
    }

    /// Open a container frame (magic + version + body length) whose body
    /// is written next; [`Writer::end_container`] fills in the length and
    /// appends the checksum.
    pub fn begin_container(&mut self) -> Mark {
        let mark = Mark(self.buf.len());
        self.put_raw(&MAGIC);
        self.put_u32(FORMAT_VERSION);
        self.put_u64(0);
        mark
    }

    /// Close a [`Writer::begin_container`] frame.
    pub fn end_container(&mut self, mark: Mark) {
        let body = self.buf.len() - mark.0 - HEADER_LEN;
        self.patch_u64(mark.0 + HEADER_LEN - 8, body as u64);
        let checksum = fnv64(&self.buf[mark.0..]);
        self.put_u64(checksum);
    }

    /// Append a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append raw bytes with no length prefix (for payloads whose extent
    /// is already delimited by an enclosing frame).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }
}

/// Bounds-checked cursor over a byte slice. Every read either yields the
/// requested width or returns [`CodecError::Truncated`] — no read ever
/// panics, whatever the input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte is consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless exactly every byte was consumed.
    pub fn expect_exhausted(&self) -> Result<(), CodecError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                context,
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let s = self.take(4, context)?;
        Ok(u32::from_le_bytes(s.try_into().expect("len checked")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let s = self.take(8, context)?;
        Ok(u64::from_le_bytes(s.try_into().expect("len checked")))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Read a `bool` byte; anything but 0/1 is malformed.
    pub fn get_bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.get_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed { context }),
        }
    }

    /// Read a length prefix and bound it by the remaining bytes — a
    /// corrupted length cannot trigger an over-allocation.
    pub fn get_len(&mut self, context: &'static str, width: usize) -> Result<usize, CodecError> {
        let n = self.get_u64(context)?;
        let n = usize::try_from(n).map_err(|_| CodecError::Malformed { context })?;
        let need = n
            .checked_mul(width)
            .ok_or(CodecError::Malformed { context })?;
        if need > self.remaining() {
            return Err(CodecError::Truncated {
                context,
                need,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self, context: &'static str) -> Result<&'a [u8], CodecError> {
        let n = self.get_len(context, 1)?;
        self.take(n, context)
    }

    /// Consume and return every remaining byte (for payloads delimited
    /// by the enclosing frame rather than their own length prefix).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, context: &'static str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes(context)?).map_err(|_| CodecError::Malformed { context })
    }

    /// Read a length-prefixed `f64` vector (bit patterns).
    pub fn get_f64_vec(&mut self, context: &'static str) -> Result<Vec<f64>, CodecError> {
        let n = self.get_len(context, 8)?;
        (0..n).map(|_| self.get_f64(context)).collect()
    }

    /// Read a length-prefixed `u64` vector.
    pub fn get_u64_vec(&mut self, context: &'static str) -> Result<Vec<u64>, CodecError> {
        let n = self.get_len(context, 8)?;
        (0..n).map(|_| self.get_u64(context)).collect()
    }
}

/// Unframe a container: verify magic, version, declared body length,
/// exact total size, and checksum; return the body slice.
pub fn open_container(bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        let mut found = [0u8; 8];
        let n = bytes.len().min(8);
        found[..n].copy_from_slice(&bytes[..n]);
        return Err(CodecError::BadMagic { found });
    }
    let mut r = Reader::new(&bytes[8..]);
    let version = r.get_u32("container version")?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let body_len = r.get_u64("container body length")?;
    let body_len = usize::try_from(body_len).map_err(|_| CodecError::Malformed {
        context: "container body length",
    })?;
    let total = HEADER_LEN
        .checked_add(body_len)
        .and_then(|t| t.checked_add(CHECKSUM_LEN))
        .ok_or(CodecError::Malformed {
            context: "container body length",
        })?;
    if bytes.len() < total {
        return Err(CodecError::Truncated {
            context: "container body",
            need: total,
            have: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(CodecError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    let stored = u64::from_le_bytes(
        bytes[total - CHECKSUM_LEN..]
            .try_into()
            .expect("len checked"),
    );
    let computed = fnv64(&bytes[..total - CHECKSUM_LEN]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(&bytes[HEADER_LEN..total - CHECKSUM_LEN])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_f64(std::f64::consts::PI);
        w.put_bool(true);
        w.put_str("snapshot");
        w.put_f64_slice(&[1.5, f64::MIN_POSITIVE]);
        w.put_u64_slice(&[]);
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64("e").unwrap(), std::f64::consts::PI);
        assert!(r.get_bool("f").unwrap());
        assert_eq!(r.get_str("g").unwrap(), "snapshot");
        assert_eq!(r.get_f64_vec("h").unwrap(), vec![1.5, f64::MIN_POSITIVE]);
        assert!(r.get_u64_vec("i").unwrap().is_empty());
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn in_place_frames_match_copied_ones() {
        // Copying a separately built body behind its length prefix...
        let mut inner = Writer::new();
        inner.put_str("section");
        inner.put_f64_slice(&[2.5, -1.0]);
        let mut copied = Writer::new();
        copied.put_u8(3);
        copied.put_bytes(inner.as_bytes());
        // ...and writing it in place produce the same bytes.
        let mut streamed = Writer::new();
        streamed.put_u8(3);
        let m = streamed.begin_bytes();
        streamed.put_str("section");
        streamed.put_f64_slice(&[2.5, -1.0]);
        streamed.end_bytes(m);
        assert_eq!(copied.as_bytes(), streamed.as_bytes());

        // A container nested after other bytes frames only its own body.
        let mut w = Writer::new();
        w.put_u32(7);
        let c = w.begin_container();
        w.put_str("payload");
        w.end_container(c);
        let bytes = w.into_bytes();
        let body = open_container(&bytes[4..]).unwrap();
        assert_eq!(Reader::new(body).get_str("payload").unwrap(), "payload");
    }

    #[test]
    fn container_round_trip_and_rejections() {
        let mut w = Writer::new();
        let c = w.begin_container();
        w.put_str("payload");
        w.end_container(c);
        let framed = w.into_bytes();
        assert!(open_container(&framed).is_ok());

        // Wrong magic.
        let mut bad = framed.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            open_container(&bad),
            Err(CodecError::BadMagic { .. })
        ));

        // Wrong version.
        let mut bad = framed.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            open_container(&bad),
            Err(CodecError::UnsupportedVersion { found, .. }) if found != FORMAT_VERSION
        ));

        // Truncation at every length is a typed error, never a panic.
        for n in 0..framed.len() {
            let err = open_container(&framed[..n]).unwrap_err();
            assert!(matches!(
                err,
                CodecError::BadMagic { .. } | CodecError::Truncated { .. }
            ));
        }

        // Trailing garbage.
        let mut bad = framed.clone();
        bad.push(0);
        assert!(matches!(
            open_container(&bad),
            Err(CodecError::TrailingBytes { extra: 1 })
        ));

        // Any body bit flip trips the checksum.
        let mut bad = framed.clone();
        let mid = HEADER_LEN + 3;
        bad[mid] ^= 0x10;
        assert!(matches!(
            open_container(&bad),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims ~2^64 f64s follow
        let body = w.into_bytes();
        let mut r = Reader::new(&body);
        let err = r.get_f64_vec("huge").unwrap_err();
        assert!(matches!(
            err,
            CodecError::Truncated { .. } | CodecError::Malformed { .. }
        ));
    }

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
