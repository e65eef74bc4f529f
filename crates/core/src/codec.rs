//! The one byte codec behind every persisted format (the `POCWARM1` warm
//! artifact and the `POCSURR1` surrogate model file): little-endian
//! fields, one sealed container (magic, `u32` version, payload, FNV-1a
//! checksum) and one bounds-checked [`Reader`]. Every read failure is a
//! [`FlowError::Artifact`]: `Version` for a foreign version, `Corrupt`
//! otherwise. A stored count larger than the bytes left is corrupt, so
//! no decoder allocates more than its input justifies.

use crate::error::{ArtifactError, FlowError, Result};
use postopc_device::MosKind;
use postopc_geom::{Point, Polygon, Rect};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` — the stable in-tree hash that checksums, the
/// artifact content hash and model fingerprints ride on (never
/// `DefaultHasher`, whose output may change across Rust releases).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a of `bytes` continued from a previous digest `seed`.
pub(crate) fn fnv1a_from(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A `Corrupt` artifact error.
#[cold]
pub(crate) fn corrupt(reason: &str) -> FlowError {
    FlowError::Artifact(ArtifactError::corrupt(reason))
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_mos_kind(out: &mut Vec<u8>, kind: MosKind) {
    out.push(match kind {
        MosKind::Nmos => 0,
        MosKind::Pmos => 1,
    });
}

/// Left, bottom, right, top.
pub(crate) fn put_rect(out: &mut Vec<u8>, r: Rect) {
    for c in [r.left(), r.bottom(), r.right(), r.top()] {
        out.extend_from_slice(&c.to_le_bytes());
    }
}

/// Vertex count, then each vertex's x and y.
pub(crate) fn put_polygon(out: &mut Vec<u8>, p: &Polygon) {
    put_u64(out, p.vertices().len() as u64);
    for v in p.vertices() {
        out.extend_from_slice(&v.x.to_le_bytes());
        out.extend_from_slice(&v.y.to_le_bytes());
    }
}

/// The sealed container: `magic`, `version`, what `body` writes, checksum.
pub(crate) fn seal(magic: [u8; 8], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    body(&mut out);
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

/// A bounds-checked cursor over a sealed payload or one of its records.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Checks a container written by [`seal`] — length, `magic`,
    /// `version`, checksum — and reads its payload.
    pub(crate) fn open(bytes: &'a [u8], magic: [u8; 8], version: u32) -> Result<Self> {
        let Some((body, checksum)) = bytes
            .split_last_chunk::<8>()
            .filter(|(body, _)| body.len() >= magic.len() + 4)
        else {
            return Err(corrupt("too short to hold a header and checksum"));
        };
        let what = magic.escape_ascii();
        let mut r = Reader { rest: body };
        if r.array::<8>()? != magic {
            return Err(corrupt(&format!("bad magic: not a {what} file")));
        }
        let found = u32::from_le_bytes(r.array()?);
        if found != version {
            return Err(FlowError::Artifact(ArtifactError::version(found, version)));
        }
        if u64::from_le_bytes(*checksum) != fnv1a(body) {
            return Err(corrupt(&format!(
                "checksum mismatch: {what} file is corrupt"
            )));
        }
        Ok(r)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or_else(|| corrupt("truncated field"))?;
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or_else(|| corrupt("truncated field"))?;
        self.rest = rest;
        Ok(*head)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        self.array().map(u8::from_le_bytes)
    }

    #[inline]
    pub(crate) fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub(crate) fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    pub(crate) fn mos_kind(&mut self) -> Result<MosKind> {
        match self.u8()? {
            0 => Ok(MosKind::Nmos),
            1 => Ok(MosKind::Pmos),
            _ => Err(corrupt("invalid stored MOS kind")),
        }
    }

    pub(crate) fn rect(&mut self) -> Result<Rect> {
        let (x0, y0, x1, y1) = (self.i64()?, self.i64()?, self.i64()?, self.i64()?);
        Rect::new(x0, y0, x1, y1).map_err(|e| corrupt(&format!("invalid stored rect: {e}")))
    }

    /// One bounds check covers every vertex (x and y, 8 bytes each).
    pub(crate) fn polygon(&mut self) -> Result<Polygon> {
        let n = self.count()?;
        let words = self.bytes(n.saturating_mul(16))?.as_chunks::<8>().0;
        let vertices = words
            .chunks_exact(2)
            .map(|xy| Point::new(i64::from_le_bytes(xy[0]), i64::from_le_bytes(xy[1])))
            .collect();
        Polygon::new(vertices).map_err(|e| corrupt(&format!("invalid stored polygon: {e}")))
    }

    /// A stored element count. Every element takes at least one byte, so
    /// a count beyond the bytes left is corrupt; that also bounds what a
    /// decoder preallocates from it.
    pub(crate) fn count(&mut self) -> Result<usize> {
        match usize::try_from(self.u64()?) {
            Ok(n) if n <= self.rest.len() => Ok(n),
            _ => Err(corrupt("stored count exceeds the bytes left")),
        }
    }

    /// A reader over the next length-prefixed record, which this reader
    /// skips.
    pub(crate) fn sub(&mut self) -> Result<Reader<'a>> {
        let len = self.count()?;
        let rest = self.bytes(len)?;
        Ok(Reader { rest })
    }

    /// Ends the read: trailing bytes are corrupt.
    pub(crate) fn finish(self) -> Result<()> {
        match self.rest {
            [] => Ok(()),
            _ => Err(corrupt("trailing bytes after the last field")),
        }
    }
}
