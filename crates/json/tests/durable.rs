//! The durable layer's framing over both header shapes it serves: the
//! checkpoint's (with `meta`) and the fleet snapshot's (without).

use std::io::{BufReader, Cursor, Read};

use espresso_json::durable::{encode, read, Error, Format, Frame, Sum, MAX_HEADER};

const WITH_META: Format = Format {
    magic: "ESPRESSO-CKPT v3",
    meta: true,
    sum: Sum::Lane64,
};
const WITHOUT_META: Format = Format {
    magic: "ESPRESSO-FLEET v1",
    meta: false,
    sum: Sum::Fnv1a64,
};

fn decode(bytes: &[u8], format: Format) -> Result<Frame, Error> {
    read(&mut Cursor::new(bytes), bytes.len() as u64, &[format])
}

/// A file of either shape: kept `{"seq":3}`, and a 40-byte section when
/// the shape has `meta`.
fn file(format: Format) -> Vec<u8> {
    let section: Vec<u8> = (0..40).collect();
    encode(format, br#"{"seq":3}"#, &|sink| {
        if format.meta {
            sink(&section[..13]);
            sink(&section[13..]);
        }
    })
}

#[test]
fn frames_round_trip_through_a_small_buffer() {
    for format in [WITH_META, WITHOUT_META] {
        let bytes = file(format);
        // A 7-byte buffer splits the header, the prefix and the section.
        let mut input = BufReader::with_capacity(7, Cursor::new(&bytes));
        let frame = read(&mut input, bytes.len() as u64, &[WITHOUT_META, WITH_META]).unwrap();
        assert_eq!(frame.format, format);
        assert_eq!(frame.kept, br#"{"seq":3}"#);
        let mut section = Vec::new();
        input.read_to_end(&mut section).unwrap();
        assert_eq!(section.len() as u64, frame.section);
        let expected: Vec<u8> = if format.meta {
            (0..40).collect()
        } else {
            vec![]
        };
        assert_eq!(section, expected);
    }
}

/// Header damage that still parses to the same values, over both header
/// shapes. An edit that cannot apply to a shape (a `meta` edit of the
/// snapshot header) is skipped; every other edit must change the header
/// and be rejected.
#[test]
fn non_canonical_headers_are_rejected() {
    type Edit = fn(&str) -> String;
    let edits: [(&str, Edit); 9] = [
        ("a tab", |h| h.replacen(" len=", "\tlen=", 1)),
        ("a doubled space", |h| h.replacen(" len=", "  len=", 1)),
        ("a doubled space before meta", |h| {
            h.replacen(" meta=", "  meta=", 1)
        }),
        ("a plus sign", |h| h.replacen("len=", "len=+", 1)),
        ("leading zeros", |h| h.replacen("len=", "len=00", 1)),
        ("a leading zero in meta", |h| {
            h.replacen("meta=", "meta=0", 1)
        }),
        ("upper-case hex", |h| {
            let (head, hex) = h.rsplit_once('=').unwrap();
            format!("{head}={}", hex.to_uppercase())
        }),
        ("reordered fields", |h| {
            let mut fields: Vec<&str> = h.split(' ').collect();
            let n = fields.len();
            fields.swap(n - 2, n - 1);
            fields.join(" ")
        }),
        ("a trailing space", |h| format!("{h} ")),
    ];
    for format in [WITH_META, WITHOUT_META] {
        let bytes = file(format);
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        let hex = header.rsplit('=').next().unwrap();
        let letter = hex.bytes().any(|b| b.is_ascii_alphabetic());
        assert!(letter, "{header}: no hex letter to upper-case");
        assert!(decode(&bytes, format).is_ok());
        for (name, edit) in edits {
            let edited = edit(header);
            if edited == header {
                assert!(
                    !format.meta && name.contains("meta"),
                    "{name} left `{header}` alone"
                );
                continue;
            }
            let mut damaged = edited.into_bytes();
            damaged.extend_from_slice(&bytes[newline..]);
            assert!(
                matches!(decode(&damaged, format), Err(Error::Corrupt { .. })),
                "{name}: header `{}` was accepted",
                String::from_utf8_lossy(&damaged[..damaged.len() + newline - bytes.len()])
            );
        }
    }
}

#[test]
fn a_header_line_past_the_bound_is_corrupt() {
    let mut bytes = vec![b'x'; MAX_HEADER as usize];
    bytes.push(b'\n');
    match decode(&bytes, WITHOUT_META) {
        Err(Error::Corrupt { message }) => {
            assert!(message.contains("no header line"), "{message}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}
