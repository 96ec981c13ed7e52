//! The token column's compression stage: LZ77 sequences in the LZ4
//! layout, written for one segment's column at a time.
//!
//! A column compresses to a run of *sequences*. Each is one tag byte,
//! whose high nibble is the length of a literal run and whose low
//! nibble is a match length less 4, the shortest match; a nibble of 15
//! continues in the bytes after it, each added to it, up to the first
//! byte below 255.
//! Then come the literals, then — unless they end the column — the
//! match: a 2-byte little-endian back-offset into the bytes already
//! produced, then the match length's continuation bytes. A match copies
//! its length from that offset and may overlap its own output: a run of
//! one repeated byte is a literal and a match at offset 1.
//!
//! The stream stores no length of its own. The reader is told how many
//! bytes the column decodes to — a segment's event count — and stops
//! there, so the last sequence has no match when its literals reach
//! that length, and whatever follows the stream (a segment's args
//! column) starts where the reader stopped.
//!
//! Matches are found greedily with a single probe: a hash of the four
//! bytes at each position names the latest earlier position with that
//! hash, whose bytes are then compared. The compressor forgets every
//! position at each call, so each column decodes on its own and the
//! same column always compresses to the same bytes.
//!
//! The reader is total: on any input — truncated, bit-flipped or random
//! — it stops at the first sequence it cannot complete, never produces
//! more than the length it was given, never reads past its input and
//! never panics. A corrupt column thus reads as a short one.

use crate::segment::SEGMENT_EVENTS;

/// The shortest match: the window the hash keys.
const MIN_MATCH: usize = 4;
/// A nibble that continues in the bytes after it.
const MORE: usize = 15;
/// The hash table has `1 << HASH_BITS` entries: as many as a full
/// segment's token column has positions.
const HASH_BITS: u32 = 12;

/// The compressor, and its one piece of scratch: the hash table, made
/// by the first call and reused by every later one.
#[derive(Debug, Default)]
pub struct Compressor {
    /// Hash of a 4-byte window → the latest position (mod 2¹⁶) that
    /// window started at in the column being compressed.
    table: Vec<u16>,
}

/// The 4-byte window at `i`, if the column has one there.
#[inline(always)]
fn window(src: &[u8], i: usize) -> Option<u32> {
    src.get(i..)?.first_chunk().map(|w| u32::from_le_bytes(*w))
}

/// Fibonacci hash of a window to a table index.
#[inline(always)]
fn hash(w: u32) -> usize {
    (w.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// How many leading bytes `a` and `b` share, eight at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let (Some(x), Some(y)) = (x.first_chunk::<8>(), y.first_chunk::<8>()) else {
            break;
        };
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    let (a, b) = (&a[n..], &b[n..]);
    n + a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Append the continuation bytes of a length whose nibble is [`MORE`].
#[inline]
fn put_more(out: &mut Vec<u8>, n: usize) {
    if n >= MORE {
        let mut rest = n - MORE;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

/// Append one sequence: `literals`, then the match `(back, len)` if any.
#[inline]
fn put_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(MORE));
    out.push((literals.len().min(MORE) << 4 | match_nibble) as u8);
    put_more(out, literals.len());
    out.extend_from_slice(literals);
    if let Some((back, len)) = m {
        out.extend_from_slice(&(back as u16).to_le_bytes());
        put_more(out, len - MIN_MATCH);
    }
}

/// Read a length whose nibble was `nibble`, continuing at `pos` if it
/// is [`MORE`]. A continuation cut short by the end of `src` reads as
/// its bytes so far.
#[inline]
fn get_more(src: &[u8], pos: &mut usize, nibble: usize) -> usize {
    let mut n = nibble;
    if nibble == MORE {
        while let Some(&b) = src.get(*pos) {
            *pos += 1;
            n = n.saturating_add(b as usize);
            if b != 255 {
                break;
            }
        }
    }
    n
}

impl Compressor {
    /// Compress `src` into `out`, replacing what `out` held. `out` is
    /// first grown to the worst case of `src`'s length, so an `out` kept
    /// across calls on columns no longer than the first never grows
    /// again.
    pub fn compress(&mut self, src: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(src.len() + src.len() / 255 + 2);
        self.table.clear();
        self.table.resize(1 << HASH_BITS, 0);
        let (mut anchor, mut i) = (0, 0);
        while let Some(w) = window(src, i) {
            let slot = &mut self.table[hash(w)];
            // The entry's distance back, in 16 bits: a candidate at most
            // 2¹⁶ − 1 bytes away, checked below like any other.
            let back = (i as u16).wrapping_sub(*slot) as usize;
            *slot = i as u16;
            if back == 0 || back > i || window(src, i - back) != Some(w) {
                i += 1;
                continue;
            }
            let from = i - back + MIN_MATCH;
            let len = MIN_MATCH + common_prefix(&src[from..], &src[i + MIN_MATCH..]);
            put_sequence(out, &src[anchor..i], Some((back, len)));
            i += len;
            anchor = i;
        }
        if anchor < src.len() {
            put_sequence(out, &src[anchor..], None);
        }
    }
}

/// Decompress the column at the start of `src` that decodes to `len`
/// bytes into `out`, replacing what `out` held, and return how many
/// bytes of `src` it read. On a corrupt or truncated column `out` ends
/// short of `len`; it never ends longer. `out` grows by at most
/// [`SEGMENT_EVENTS`] bytes before any byte is read, so a wrong `len`
/// reserves nothing in proportion to itself.
pub fn decompress(src: &[u8], len: usize, out: &mut Vec<u8>) -> usize {
    out.clear();
    out.reserve(len.min(SEGMENT_EVENTS));
    let mut pos = 0;
    while out.len() < len {
        let Some(&tag) = src.get(pos) else { break };
        pos += 1;
        let lit = get_more(src, &mut pos, (tag >> 4) as usize);
        let literals = src.get(pos..).unwrap_or_default();
        let take = lit.min(len - out.len()).min(literals.len());
        out.extend_from_slice(&literals[..take]);
        pos += take;
        if take < lit || out.len() == len {
            break;
        }
        let Some(&[lo, hi]) = src.get(pos..pos + 2) else {
            break;
        };
        pos += 2;
        let back = u16::from_le_bytes([lo, hi]) as usize;
        let match_len = get_more(src, &mut pos, (tag & 0xF) as usize).saturating_add(MIN_MATCH);
        let Some(start) = out.len().checked_sub(back).filter(|_| back > 0) else {
            break;
        };
        // Copy the match a period at a time: the bytes from `start` on
        // repeat every `back`, and each copy doubles what can be read.
        let mut left = match_len.min(len - out.len());
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        Compressor::default().compress(src, &mut packed);
        let mut out = Vec::new();
        assert_eq!(decompress(&packed, src.len(), &mut out), packed.len());
        assert_eq!(out, src);
        packed
    }

    #[test]
    fn short_and_incompressible_columns_are_one_literal_run() {
        assert!(roundtrip(&[]).is_empty());
        assert_eq!(roundtrip(&[7]), [0x10, 7]);
        let distinct: Vec<u8> = (0..=255).collect();
        // A 256-byte run: nibble 15, then 241.
        assert_eq!(roundtrip(&distinct).len(), 1 + 1 + 256);
    }

    /// A repeated byte is one literal and one overlapping match at
    /// offset 1, whatever its length; a repeated period likewise.
    #[test]
    fn runs_and_periods_are_one_match() {
        let run = vec![9u8; 4096];
        // Tag, the literal, offset 1, and 4091 − 15 = 16 × 255 − 4 in
        // sixteen continuation bytes.
        assert_eq!(roundtrip(&run).len(), 1 + 1 + 2 + 16);
        let period: Vec<u8> = (0..4000).map(|i| [3, 1, 4, 1, 5][i % 5]).collect();
        let packed = roundtrip(&period);
        assert_eq!(&packed[..8], [0x5F, 3, 1, 4, 1, 5, 5, 0]);
        assert!(packed.len() < 30, "{}", packed.len());
    }

    /// Matches farther back than a 2-byte offset reaches are not taken,
    /// and a column longer than the hash's 16-bit positions round-trips.
    #[test]
    fn long_columns_roundtrip() {
        let mut x = 1u32;
        let noise: Vec<u8> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x % 7) as u8
            })
            .collect();
        let twice: Vec<u8> = noise.iter().chain(&noise).copied().collect();
        roundtrip(&twice);
    }

    #[test]
    fn a_corrupt_column_reads_short() {
        let src: Vec<u8> = (0..500).map(|i| (i % 37) as u8).collect();
        let packed = roundtrip(&src);
        let mut out = Vec::new();
        // Cut inside the first literal run (a tag, a continuation byte
        // and 8 of its 37 literals), then inside the match's length.
        assert_eq!(decompress(&packed[..10], src.len(), &mut out), 10);
        assert_eq!(out, src[..8]);
        decompress(&packed[..packed.len() - 1], src.len(), &mut out);
        assert!(out.len() < src.len());
        // An offset of 0 or past the output stops the reader.
        assert_eq!(decompress(&[0x10, 1, 0, 0], 9, &mut out), 4);
        assert_eq!(out, [1]);
        assert_eq!(decompress(&[0x10, 1, 2, 0], 9, &mut out), 4);
        // A match longer than the column is cut at its length.
        decompress(&[0x1F, 1, 1, 0, 255, 255, 3], 9, &mut out);
        assert_eq!(out, [1; 9]);
        // A huge length reserves no more than a segment's column.
        decompress(&[0x10, 1], usize::MAX, &mut out);
        assert_eq!(out, [1]);
    }
}
