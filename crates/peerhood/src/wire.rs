//! Byte-level encoding of [`Message`]s.
//!
//! PeerHood exchanges its commands over raw sockets, so the reproduction
//! keeps an explicit, compact, versioned byte codec rather than relying on a
//! serialisation framework. Every message round-trips exactly
//! (property-tested below), and decoding is defensive: truncated or corrupt
//! buffers produce a [`WireError`] instead of a panic.
//!
//! Encoded frames travel as shared [`Frame`]s (`Arc<[u8]>`-backed, re-exported
//! from [`simnet::Payload`]): [`encode_frame`] writes the bytes into a
//! caller-owned reusable scratch buffer — so a node's steady-state encode
//! path stops allocating — and hands back a frame whose clones are free.
//! Encode a discovery advertisement once, send it to every neighbour.

use std::fmt;

use simnet::RadioTech;

/// A shared, immutable encoded frame (see [`simnet::Payload`]). Clones are
/// reference-count bumps; the world's delivery pipeline carries the same
/// allocation end to end.
pub use simnet::Payload as Frame;

use crate::device::{DeviceInfo, MobilityClass};
use crate::error::ErrorCode;
use crate::ids::{Checksum, ConnectionId, DeviceAddress, ServicePort};
use crate::proto::{Message, NeighborRecord};
use crate::service::ServiceInfo;

/// Codec version carried in every frame.
pub const WIRE_VERSION: u8 = 1;

/// Errors produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// Unknown enum discriminant inside a message.
    InvalidValue(&'static str),
    /// Frame produced by an incompatible codec version.
    VersionMismatch(u8),
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// Trailing bytes after the message ended.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::InvalidValue(what) => write!(f, "invalid value for {what}"),
            WireError::VersionMismatch(v) => write!(f, "unsupported wire version {v}"),
            WireError::InvalidUtf8 => write!(f, "string field was not valid utf-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

const TAG_INQUIRY_REQUEST: u8 = 1;
const TAG_INQUIRY_RESPONSE: u8 = 2;
const TAG_CONNECT_REQUEST: u8 = 3;
const TAG_BRIDGE_REQUEST: u8 = 4;
const TAG_ACCEPT: u8 = 5;
const TAG_ERROR: u8 = 6;
const TAG_DATA: u8 = 7;
const TAG_DISCONNECT: u8 = 8;

struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.u16(v.len() as u16);
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn address(&mut self, a: DeviceAddress) {
        self.buf.extend_from_slice(&a.octets());
    }
    fn conn(&mut self, c: ConnectionId) {
        self.u64(c.as_raw());
    }
    fn opt_conn(&mut self, c: Option<ConnectionId>) {
        match c {
            None => self.u8(0),
            Some(c) => {
                self.u8(1);
                self.conn(c);
            }
        }
    }
    fn tech(&mut self, t: RadioTech) {
        self.u8(match t {
            RadioTech::Bluetooth => 0,
            RadioTech::Wlan => 1,
            RadioTech::Gprs => 2,
        });
    }
    fn device(&mut self, d: &DeviceInfo) {
        self.address(d.address);
        self.string(&d.name);
        self.u8(d.mobility.value());
        self.u32(d.checksum.0);
        self.u8(d.techs.len() as u8);
        for t in d.techs.iter() {
            self.tech(*t);
        }
    }
    fn service(&mut self, s: &ServiceInfo) {
        self.string(&s.name);
        self.string(&s.attribute);
        self.u16(s.port.0);
    }
    fn neighbor(&mut self, n: &NeighborRecord) {
        self.device(&n.info);
        self.u8(n.jumps);
        self.u8(n.hop_qualities.len() as u8);
        for q in &n.hop_qualities {
            self.u8(*q);
        }
        self.u16(n.services.len() as u16);
        for s in n.services.iter() {
            self.service(s);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Pre-allocation bound for a count read from the wire: every element
    /// occupies at least one byte, so a corrupted count can never make us
    /// reserve more slots than there are bytes left in the frame.
    fn capped(&self, count: usize) -> usize {
        count.min(self.remaining())
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
    fn address(&mut self) -> Result<DeviceAddress, WireError> {
        let b = self.take(6)?;
        Ok(DeviceAddress::from_octets([b[0], b[1], b[2], b[3], b[4], b[5]]))
    }
    fn conn(&mut self) -> Result<ConnectionId, WireError> {
        Ok(ConnectionId::from_raw(self.u64()?))
    }
    fn opt_conn(&mut self) -> Result<Option<ConnectionId>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.conn()?)),
            _ => Err(WireError::InvalidValue("optional connection id")),
        }
    }
    fn tech(&mut self) -> Result<RadioTech, WireError> {
        match self.u8()? {
            0 => Ok(RadioTech::Bluetooth),
            1 => Ok(RadioTech::Wlan),
            2 => Ok(RadioTech::Gprs),
            _ => Err(WireError::InvalidValue("radio technology")),
        }
    }
    fn device(&mut self) -> Result<DeviceInfo, WireError> {
        let address = self.address()?;
        let name = self.string()?;
        let mobility = MobilityClass::from_value(self.u8()?).ok_or(WireError::InvalidValue("mobility class"))?;
        let checksum = Checksum(self.u32()?);
        let tech_count = self.u8()? as usize;
        let mut techs = Vec::with_capacity(self.capped(tech_count));
        for _ in 0..tech_count {
            techs.push(self.tech()?);
        }
        Ok(DeviceInfo {
            address,
            name: name.into(),
            mobility,
            checksum,
            techs: techs.into(),
        })
    }
    fn service(&mut self) -> Result<ServiceInfo, WireError> {
        let name = self.string()?;
        let attribute = self.string()?;
        let port = ServicePort(self.u16()?);
        Ok(ServiceInfo { name, attribute, port })
    }
    fn neighbor(&mut self) -> Result<NeighborRecord, WireError> {
        let info = self.device()?;
        let jumps = self.u8()?;
        let hop_count = self.u8()? as usize;
        let mut hop_qualities = Vec::with_capacity(self.capped(hop_count));
        for _ in 0..hop_count {
            hop_qualities.push(self.u8()?);
        }
        let svc_count = self.u16()? as usize;
        let mut services = Vec::with_capacity(self.capped(svc_count));
        for _ in 0..svc_count {
            services.push(self.service()?);
        }
        Ok(NeighborRecord {
            info,
            jumps,
            hop_qualities,
            services: services.into(),
        })
    }
}

/// Encodes a message into a freshly allocated self-contained frame.
///
/// Hot paths should prefer [`encode_into`] / [`encode_frame`] with a reused
/// scratch buffer; the bytes produced are identical.
pub fn encode(message: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_into(message, &mut buf);
    buf
}

/// Encodes a message into a shared [`Frame`], using `scratch` as the encode
/// buffer (cleared first, capacity reused across calls). The returned frame
/// owns one copy of the bytes; cloning it is free.
pub fn encode_frame(message: &Message, scratch: &mut Vec<u8>) -> Frame {
    scratch.clear();
    encode_into(message, scratch);
    Frame::copy_from_slice(scratch)
}

/// Encodes a message by appending its frame bytes to `buf` (which is
/// normally cleared by the caller; [`encode`]/[`encode_frame`] do so).
pub fn encode_into(message: &Message, buf: &mut Vec<u8>) {
    let mut w = Writer { buf };
    w.u8(WIRE_VERSION);
    match message {
        Message::InquiryRequest { requester } => {
            w.u8(TAG_INQUIRY_REQUEST);
            w.device(requester);
        }
        Message::InquiryResponse {
            device,
            services,
            neighbors,
            bridge_load_percent,
        } => {
            w.u8(TAG_INQUIRY_RESPONSE);
            w.device(device);
            w.u16(services.len() as u16);
            for s in services {
                w.service(s);
            }
            w.u16(neighbors.len() as u16);
            for n in neighbors {
                w.neighbor(n);
            }
            w.u8(*bridge_load_percent);
        }
        Message::ConnectRequest {
            conn_id,
            service,
            client,
            reply_context,
        } => {
            w.u8(TAG_CONNECT_REQUEST);
            w.conn(*conn_id);
            w.string(service);
            w.device(client);
            w.opt_conn(*reply_context);
        }
        Message::BridgeRequest {
            conn_id,
            destination,
            service,
            client,
            reply_context,
        } => {
            w.u8(TAG_BRIDGE_REQUEST);
            w.conn(*conn_id);
            w.address(*destination);
            w.string(service);
            w.device(client);
            w.opt_conn(*reply_context);
        }
        Message::Accept { conn_id } => {
            w.u8(TAG_ACCEPT);
            w.conn(*conn_id);
        }
        Message::Error { conn_id, code, detail } => {
            w.u8(TAG_ERROR);
            w.conn(*conn_id);
            w.u8(code.code());
            w.string(detail);
        }
        Message::Data { conn_id, payload } => {
            w.u8(TAG_DATA);
            w.conn(*conn_id);
            w.bytes(payload);
        }
        Message::Disconnect { conn_id } => {
            w.u8(TAG_DISCONNECT);
            w.conn(*conn_id);
        }
    }
}

/// Decodes a frame previously produced by [`encode`].
///
/// # Errors
///
/// Returns a [`WireError`] for truncated, corrupt, version-mismatched or
/// trailing-garbage frames.
pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(frame);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch(version));
    }
    let tag = r.u8()?;
    let message = match tag {
        TAG_INQUIRY_REQUEST => Message::InquiryRequest { requester: r.device()? },
        TAG_INQUIRY_RESPONSE => {
            let device = r.device()?;
            let svc_count = r.u16()? as usize;
            let mut services = Vec::with_capacity(r.capped(svc_count));
            for _ in 0..svc_count {
                services.push(r.service()?);
            }
            let n_count = r.u16()? as usize;
            let mut neighbors = Vec::with_capacity(r.capped(n_count));
            for _ in 0..n_count {
                neighbors.push(r.neighbor()?);
            }
            let bridge_load_percent = r.u8()?;
            Message::InquiryResponse {
                device,
                services,
                neighbors,
                bridge_load_percent,
            }
        }
        TAG_CONNECT_REQUEST => Message::ConnectRequest {
            conn_id: r.conn()?,
            service: r.string()?,
            client: r.device()?,
            reply_context: r.opt_conn()?,
        },
        TAG_BRIDGE_REQUEST => Message::BridgeRequest {
            conn_id: r.conn()?,
            destination: r.address()?,
            service: r.string()?,
            client: r.device()?,
            reply_context: r.opt_conn()?,
        },
        TAG_ACCEPT => Message::Accept { conn_id: r.conn()? },
        TAG_ERROR => Message::Error {
            conn_id: r.conn()?,
            code: ErrorCode::from_code(r.u8()?).ok_or(WireError::InvalidValue("error code"))?,
            detail: r.string()?,
        },
        TAG_DATA => Message::Data {
            conn_id: r.conn()?,
            payload: r.bytes()?,
        },
        TAG_DISCONNECT => Message::Disconnect { conn_id: r.conn()? },
        other => return Err(WireError::UnknownTag(other)),
    };
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MobilityClass;
    use simnet::rng::SimRng;
    use simnet::NodeId;

    fn device(n: u64) -> DeviceInfo {
        DeviceInfo::new(
            NodeId::from_raw(n),
            format!("dev{n}"),
            MobilityClass::Hybrid,
            &[RadioTech::Bluetooth, RadioTech::Wlan],
        )
    }

    fn conn(n: u64, c: u32) -> ConnectionId {
        ConnectionId::new(DeviceAddress::from_node_raw(n), c)
    }

    #[test]
    fn every_variant_roundtrips() {
        let messages = vec![
            Message::InquiryRequest { requester: device(1) },
            Message::InquiryResponse {
                device: device(2),
                services: vec![ServiceInfo::new("echo", "v1", 3), ServiceInfo::new("pics", "", 4)],
                neighbors: vec![NeighborRecord {
                    info: device(3),
                    jumps: 2,
                    hop_qualities: vec![240, 231, 255],
                    services: vec![ServiceInfo::new("relay", "x", 9)].into(),
                }],
                bridge_load_percent: 40,
            },
            Message::ConnectRequest {
                conn_id: conn(1, 7),
                service: "picture-analysis".into(),
                client: device(1),
                reply_context: Some(conn(1, 3)),
            },
            Message::BridgeRequest {
                conn_id: conn(1, 8),
                destination: DeviceAddress::from_node_raw(9),
                service: "echo".into(),
                client: device(1),
                reply_context: None,
            },
            Message::Accept { conn_id: conn(2, 0) },
            Message::Error {
                conn_id: conn(2, 1),
                code: ErrorCode::BridgeBusy,
                detail: "limit reached".into(),
            },
            Message::Data {
                conn_id: conn(3, 0),
                payload: vec![0, 1, 2, 255, 254],
            },
            Message::Disconnect { conn_id: conn(3, 1) },
        ];
        for m in messages {
            let frame = encode(&m);
            let decoded = decode(&frame).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn scratch_encoding_matches_owned_encoding() {
        // `encode_frame` through a reused scratch buffer must produce the
        // byte-identical frame `encode` allocates — including after the
        // buffer has held a longer message (clearing, not truncating bugs).
        let mut rng = SimRng::new(0x5C_4A7C4);
        let mut scratch = Vec::new();
        for _ in 0..200 {
            let message = arb_message(&mut rng);
            let frame = encode_frame(&message, &mut scratch);
            assert_eq!(frame.as_slice(), encode(&message).as_slice());
            assert_eq!(decode(&frame).unwrap(), message);
        }
        // Clones of a frame share one allocation.
        let frame = encode_frame(&Message::Accept { conn_id: conn(1, 2) }, &mut scratch);
        let copy = frame.clone();
        assert_eq!(frame.ref_count(), 2);
        assert_eq!(copy.as_slice(), frame.as_slice());
    }

    #[test]
    fn version_mismatch_detected() {
        let mut frame = encode(&Message::Accept { conn_id: conn(1, 1) });
        frame[0] = 99;
        assert_eq!(decode(&frame), Err(WireError::VersionMismatch(99)));
    }

    #[test]
    fn unknown_tag_detected() {
        let frame = vec![WIRE_VERSION, 200];
        assert_eq!(decode(&frame), Err(WireError::UnknownTag(200)));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let full = encode(&Message::ConnectRequest {
            conn_id: conn(1, 7),
            service: "picture-analysis".into(),
            client: device(1),
            reply_context: Some(conn(1, 3)),
        });
        for len in 0..full.len() {
            let err = decode(&full[..len]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::VersionMismatch(_)),
                "unexpected error at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut frame = encode(&Message::Disconnect { conn_id: conn(1, 0) });
        frame.push(0xAA);
        assert_eq!(decode(&frame), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn empty_frame_is_truncated() {
        assert_eq!(decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::UnknownTag(3).to_string().contains('3'));
        assert!(WireError::InvalidUtf8.to_string().contains("utf-8"));
    }

    // ------------------------------------------------------------------
    // Deterministic randomised tests (SimRng-driven; proptest is not
    // available in the offline build environment).
    // ------------------------------------------------------------------

    fn arb_string(rng: &mut SimRng, alphabet: &[u8], max_len: usize) -> String {
        let len = rng.range(0..=max_len);
        (0..len).map(|_| alphabet[rng.index(alphabet.len())] as char).collect()
    }

    fn arb_tech(rng: &mut SimRng) -> RadioTech {
        [RadioTech::Bluetooth, RadioTech::Wlan, RadioTech::Gprs][rng.index(3)]
    }

    fn arb_mobility(rng: &mut SimRng) -> MobilityClass {
        [MobilityClass::Static, MobilityClass::Hybrid, MobilityClass::Dynamic][rng.index(3)]
    }

    fn arb_device(rng: &mut SimRng) -> DeviceInfo {
        let techs: Vec<RadioTech> = (0..rng.range(0usize..3)).map(|_| arb_tech(rng)).collect();
        DeviceInfo {
            address: DeviceAddress::from_node_raw(rng.range(0u64..10_000)),
            name: arb_string(rng, b"abcXYZ09 _-", 24).into(),
            mobility: arb_mobility(rng),
            checksum: Checksum(rng.range(0u32..100_000)),
            techs: techs.into(),
        }
    }

    fn arb_service(rng: &mut SimRng) -> ServiceInfo {
        ServiceInfo::new(
            arb_string(rng, b"abcz09./-", 16),
            arb_string(rng, b"abcz09 ", 16),
            rng.range(0u32..=u16::MAX as u32) as u16,
        )
    }

    fn arb_neighbor(rng: &mut SimRng) -> NeighborRecord {
        NeighborRecord {
            info: arb_device(rng),
            jumps: rng.range(0u8..10),
            hop_qualities: (0..rng.range(0usize..6)).map(|_| rng.range(0u8..=255)).collect(),
            services: (0..rng.range(0usize..4)).map(|_| arb_service(rng)).collect(),
        }
    }

    fn arb_conn(rng: &mut SimRng) -> ConnectionId {
        ConnectionId::new(
            DeviceAddress::from_node_raw(rng.range(0u64..10_000)),
            rng.range(0u32..=u32::MAX),
        )
    }

    fn arb_error_code(rng: &mut SimRng) -> ErrorCode {
        [
            ErrorCode::ServiceUnavailable,
            ErrorCode::NoRouteToDestination,
            ErrorCode::BridgeBusy,
            ErrorCode::DownstreamFailed,
            ErrorCode::UnknownConnection,
            ErrorCode::Protocol,
        ][rng.index(6)]
    }

    fn arb_message(rng: &mut SimRng) -> Message {
        match rng.index(8) {
            0 => Message::InquiryRequest {
                requester: arb_device(rng),
            },
            1 => Message::InquiryResponse {
                device: arb_device(rng),
                services: (0..rng.range(0usize..4)).map(|_| arb_service(rng)).collect(),
                neighbors: (0..rng.range(0usize..4)).map(|_| arb_neighbor(rng)).collect(),
                bridge_load_percent: rng.range(0u8..=255),
            },
            2 => Message::ConnectRequest {
                conn_id: arb_conn(rng),
                service: arb_string(rng, b"abcz-", 16),
                client: arb_device(rng),
                reply_context: if rng.chance(0.5) { Some(arb_conn(rng)) } else { None },
            },
            3 => Message::BridgeRequest {
                conn_id: arb_conn(rng),
                destination: DeviceAddress::from_node_raw(rng.range(0u64..10_000)),
                service: arb_string(rng, b"abcz-", 16),
                client: arb_device(rng),
                reply_context: if rng.chance(0.5) { Some(arb_conn(rng)) } else { None },
            },
            4 => Message::Accept { conn_id: arb_conn(rng) },
            5 => Message::Error {
                conn_id: arb_conn(rng),
                code: arb_error_code(rng),
                detail: arb_string(rng, b" !abcz09~", 32),
            },
            6 => Message::Data {
                conn_id: arb_conn(rng),
                payload: (0..rng.range(0usize..256)).map(|_| rng.range(0u8..=255)).collect(),
            },
            _ => Message::Disconnect { conn_id: arb_conn(rng) },
        }
    }

    #[test]
    fn fuzz_roundtrip() {
        let mut rng = SimRng::new(0xC0DEC);
        for _ in 0..500 {
            let message = arb_message(&mut rng);
            let frame = encode(&message);
            let decoded = decode(&frame).unwrap();
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn fuzz_random_bytes_never_panic() {
        // Decoding arbitrary garbage must never panic; it may of course
        // occasionally produce a valid message.
        let mut rng = SimRng::new(0xBAD_BEEF);
        for _ in 0..2000 {
            let bytes: Vec<u8> = (0..rng.range(0usize..128)).map(|_| rng.range(0u8..=255)).collect();
            let _ = decode(&bytes);
        }
    }

    #[test]
    fn fuzz_truncation_never_panics() {
        let mut rng = SimRng::new(0x7A71C);
        for _ in 0..300 {
            let message = arb_message(&mut rng);
            let frame = encode(&message);
            let cut = rng.range(0usize..64).min(frame.len());
            let _ = decode(&frame[..cut]);
        }
    }

    #[test]
    fn fuzz_bit_flips_never_panic() {
        // The fault engine's corruption bursts flip a handful of bits in
        // otherwise valid frames — the exact input shape this test feeds
        // `decode`: mostly-plausible structure with corrupted lengths, tags,
        // counts and enum discriminants. The decoder must return a
        // `WireError` (or, occasionally, a different valid message), never
        // panic or over-allocate.
        let mut rng = SimRng::new(0xB17F11);
        for _ in 0..3000 {
            let message = arb_message(&mut rng);
            let mut frame = encode(&message);
            if frame.is_empty() {
                continue;
            }
            let flips = 1 + rng.index(6);
            for _ in 0..flips {
                let byte = rng.index(frame.len());
                let bit = rng.index(8) as u8;
                frame[byte] ^= 1 << bit;
            }
            let _ = decode(&frame);
        }
    }

    #[test]
    fn fuzz_heavy_corruption_never_panics() {
        // Denser damage than a burst would cause: up to a quarter of the
        // frame's bits flipped.
        let mut rng = SimRng::new(0x0DEA_DB17);
        for _ in 0..1000 {
            let message = arb_message(&mut rng);
            let mut frame = encode(&message);
            if frame.is_empty() {
                continue;
            }
            let flips = 1 + rng.index(frame.len() * 2);
            for _ in 0..flips {
                let byte = rng.index(frame.len());
                let bit = rng.index(8) as u8;
                frame[byte] ^= 1 << bit;
            }
            let _ = decode(&frame);
        }
    }

    #[test]
    fn corrupted_counts_do_not_overallocate() {
        // A flipped length prefix must not reserve gigabytes: the decoder
        // caps pre-allocation by the bytes actually remaining. This frame
        // announces 65535 services in a response that is a few bytes long.
        let mut frame = encode(&Message::InquiryResponse {
            device: device(1),
            services: vec![],
            neighbors: vec![],
            bridge_load_percent: 0,
        });
        // The service count is the first u16 after the device block; find it
        // by re-encoding with one service and diffing is overkill — corrupt
        // every u16-aligned pair instead and decode them all.
        for i in 0..frame.len().saturating_sub(1) {
            let mut corrupt = frame.clone();
            corrupt[i] = 0xFF;
            corrupt[i + 1] = 0xFF;
            let _ = decode(&corrupt);
        }
        frame.truncate(frame.len() - 1);
        let _ = decode(&frame);
    }
}
