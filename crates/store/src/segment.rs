//! Segment encoding and recovery scanning.
//!
//! A segment is a header followed by a run of checksummed, length-
//! prefixed records (see the crate docs for the exact byte layout and
//! its invariants). This module owns the byte-level encode/decode and
//! the recovery scan that classifies damage into *torn tails* (truncate)
//! and *corrupt records* (quarantine).

/// Segment magic: identifies the file type and major layout.
pub const MAGIC: &[u8; 8] = b"PICSTOR1";
/// Format version written after the magic.
pub const VERSION: u32 = 1;
/// Header length: magic + version.
pub const HEADER_LEN: usize = 12;
/// Reserved record kind carrying the seal footer of a rotated segment.
pub const KIND_FOOTER: u8 = 0;
/// Sanity cap on one record's payload; a length prefix beyond this is
/// treated as lost framing, not an allocation request.
pub const MAX_RECORD_LEN: u32 = 1 << 28;

/// FNV-1a (64-bit) over a byte slice — the per-record checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// One xorshift64* step — the store's only source of (deterministic)
/// randomness, used by fault plans and jitter schedules.
pub fn xorshift64(mut x: u64) -> u64 {
    x = x.max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Renders the 12-byte segment header.
pub fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Appends one record frame — `len | kind | key_len | key | value |
/// checksum` — to `out` and returns its checksum.
pub fn encode_record_into(out: &mut Vec<u8>, kind: u8, key: &[u8], value: &[u8]) -> u64 {
    let payload_len = 1 + 4 + key.len() + value.len();
    assert!(
        payload_len as u64 <= MAX_RECORD_LEN as u64,
        "record exceeds MAX_RECORD_LEN"
    );
    let start = out.len();
    out.reserve(4 + payload_len + 8);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let checksum = fnv1a64(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    checksum
}

/// One record frame on its own.
#[cfg(test)]
pub fn encode_record(kind: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_record_into(&mut frame, kind, key, value);
    frame
}

/// The footer value of a sealed segment: record count + cumulative
/// digest of every record checksum, in write order.
pub fn encode_footer_value(records: u64, digest: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&records.to_le_bytes());
    v.extend_from_slice(&digest.to_le_bytes());
    v
}

/// One record recovered from a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Record kind (never [`KIND_FOOTER`]; footers are consumed by the
    /// scanner).
    pub kind: u8,
    /// The record key.
    pub key: Vec<u8>,
    /// The record value.
    pub value: Vec<u8>,
}

/// What a scan found in one segment.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Records that passed their checksum, in write order.
    pub records: Vec<ScannedRecord>,
    /// Byte length of the valid prefix (records after this point are
    /// damaged or missing; the active segment is truncated here).
    pub valid_len: u64,
    /// Records whose checksum failed but whose framing survived — they
    /// are skipped, never trusted, and their entries recompute.
    pub quarantined: u64,
    /// Trailing bytes that do not form a complete record (a crash
    /// mid-append) — truncated away on the active segment.
    pub torn_tail_bytes: u64,
    /// Bytes abandoned because a length prefix was implausible (framing
    /// lost mid-segment; everything after recomputes).
    pub lost_framing_bytes: u64,
    /// Whether the header was missing or unrecognized (the whole
    /// segment is then quarantined).
    pub bad_header: bool,
    /// Whether a seal footer was present and its counts matched.
    pub sealed: bool,
    /// Whether a seal footer was present but disagreed with the scan.
    pub bad_seal: bool,
    /// Cumulative digest of the recovered record checksums (what a
    /// future seal footer must match).
    pub digest: u64,
}

/// Scans one segment image, classifying every byte as recovered record,
/// quarantined record, torn tail, or lost framing. Never panics on any
/// input.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan::default();
    if bytes.len() < HEADER_LEN
        || &bytes[..8] != MAGIC
        || bytes[8..HEADER_LEN] != VERSION.to_le_bytes()
    {
        // Wrong magic *or* an unrecognized version: this scanner only
        // understands layout v1, so parsing anything else would be a
        // guess. Quarantine the whole segment instead.
        scan.bad_header = true;
        scan.valid_len = 0;
        return scan;
    }
    let mut offset = HEADER_LEN;
    scan.valid_len = offset as u64;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 4 {
            scan.torn_tail_bytes = remaining as u64;
            return scan;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        if !(5..=MAX_RECORD_LEN).contains(&len) {
            // The length prefix itself is implausible: framing is lost
            // from here on. Give up on the rest of the segment; the
            // dropped entries recompute on demand.
            scan.lost_framing_bytes = remaining as u64;
            return scan;
        }
        let frame_len = 4 + len as usize + 8;
        if remaining < frame_len {
            scan.torn_tail_bytes = remaining as u64;
            return scan;
        }
        let payload = &bytes[offset + 4..offset + 4 + len as usize];
        let stored = u64::from_le_bytes(
            bytes[offset + 4 + len as usize..offset + frame_len]
                .try_into()
                .expect("8 bytes"),
        );
        let computed = fnv1a64(&bytes[offset..offset + 4 + len as usize]);
        offset += frame_len;
        if stored != computed {
            scan.quarantined += 1;
            // Framing looked intact, so keep scanning at the next frame;
            // the damaged record itself is never trusted.
            scan.valid_len = offset as u64;
            continue;
        }
        scan.valid_len = offset as u64;
        let kind = payload[0];
        let key_len = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
        if 5 + key_len > payload.len() {
            // Checksum passed but the interior framing is inconsistent —
            // only possible through an encoder bug or an engineered
            // collision. Quarantine rather than trust it.
            scan.quarantined += 1;
            continue;
        }
        let key = payload[5..5 + key_len].to_vec();
        let value = payload[5 + key_len..].to_vec();
        if kind == KIND_FOOTER {
            if value.len() == 16 {
                let records = u64::from_le_bytes(value[..8].try_into().expect("8 bytes"));
                let digest = u64::from_le_bytes(value[8..].try_into().expect("8 bytes"));
                if records == scan.records.len() as u64 && digest == scan.digest {
                    scan.sealed = true;
                } else {
                    scan.bad_seal = true;
                }
            } else {
                scan.bad_seal = true;
            }
            continue;
        }
        scan.digest = fold_digest(scan.digest, stored);
        scan.records.push(ScannedRecord { kind, key, value });
    }
    scan
}

/// Folds one record checksum into a segment's cumulative digest (the
/// incremental form of what [`scan_segment`] recomputes).
pub fn fold_digest(digest: u64, record_checksum: u64) -> u64 {
    let mut acc = digest.to_le_bytes().to_vec();
    acc.extend_from_slice(&record_checksum.to_le_bytes());
    fnv1a64(&acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_with(records: &[(u8, &[u8], &[u8])]) -> Vec<u8> {
        let mut bytes = header_bytes().to_vec();
        for (kind, key, value) in records {
            bytes.extend_from_slice(&encode_record(*kind, key, value));
        }
        bytes
    }

    #[test]
    fn roundtrip_scan_recovers_all_records() {
        let bytes = segment_with(&[(1, b"alpha", b"one"), (2, b"beta", b"two")]);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].key, b"alpha");
        assert_eq!(scan.records[1].value, b"two");
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.quarantined, 0);
        assert_eq!(scan.torn_tail_bytes, 0);
    }

    #[test]
    fn torn_tail_at_every_cut_point_truncates_cleanly() {
        let full = segment_with(&[(1, b"k1", b"v1"), (1, b"k2", b"v2")]);
        let first_record_end = HEADER_LEN + encode_record(1, b"k1", b"v1").len();
        for cut in HEADER_LEN..full.len() {
            let scan = scan_segment(&full[..cut]);
            assert!(!scan.bad_header);
            let expect_records = usize::from(cut >= first_record_end);
            assert_eq!(scan.records.len(), expect_records, "cut at {cut}");
            let expected_valid = if cut >= first_record_end {
                first_record_end
            } else {
                HEADER_LEN
            };
            assert_eq!(scan.valid_len, expected_valid as u64, "cut at {cut}");
            assert_eq!(
                scan.torn_tail_bytes,
                (cut - expected_valid) as u64,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn payload_bit_flip_is_quarantined_and_scan_continues() {
        let r1 = encode_record(1, b"k1", b"value-one");
        let mut bytes = header_bytes().to_vec();
        bytes.extend_from_slice(&r1);
        bytes.extend_from_slice(&encode_record(1, b"k2", b"value-two"));
        // Flip a bit inside the first record's value.
        bytes[HEADER_LEN + 12] ^= 0x10;
        let scan = scan_segment(&bytes);
        assert_eq!(scan.quarantined, 1);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].key, b"k2");
    }

    #[test]
    fn implausible_length_prefix_abandons_rest() {
        let mut bytes = segment_with(&[(1, b"k1", b"v1")]);
        let good_len = bytes.len();
        let mut broken = encode_record(1, b"k2", b"v2");
        broken[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&broken);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good_len as u64);
        assert!(scan.lost_framing_bytes > 0);
    }

    #[test]
    fn bad_magic_quarantines_whole_segment() {
        let mut bytes = segment_with(&[(1, b"k", b"v")]);
        bytes[0] = b'X';
        let scan = scan_segment(&bytes);
        assert!(scan.bad_header);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn valid_footer_marks_sealed() {
        let r = encode_record(7, b"k", b"v");
        let checksum = fnv1a64(&r[..r.len() - 8]);
        let mut bytes = header_bytes().to_vec();
        bytes.extend_from_slice(&r);
        let digest = fold_digest(0, checksum);
        bytes.extend_from_slice(&encode_record(
            KIND_FOOTER,
            b"",
            &encode_footer_value(1, digest),
        ));
        let scan = scan_segment(&bytes);
        assert!(scan.sealed);
        assert!(!scan.bad_seal);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn mismatched_footer_flags_bad_seal() {
        let mut bytes = segment_with(&[(7, b"k", b"v")]);
        bytes.extend_from_slice(&encode_record(
            KIND_FOOTER,
            b"",
            &encode_footer_value(99, 12345),
        ));
        let scan = scan_segment(&bytes);
        assert!(!scan.sealed);
        assert!(scan.bad_seal);
    }
}
