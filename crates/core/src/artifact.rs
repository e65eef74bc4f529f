//! Persistent warm-timing artifacts: one expensive compile serves many
//! cheap sessions.
//!
//! A [`WarmArtifact`] captures everything a warm timing session would
//! otherwise have to recompute — the post-OPC [`CdAnnotation`], the
//! tagged gates it covers and the extraction [`ContextStore`] — in an
//! in-tree, versioned binary format (no external serialization
//! dependency, so the offline build stays intact). Every float is stored
//! as its exact bit pattern, so a loaded artifact replays timing
//! **bit-identically** to the fresh compile that produced it. Cell
//! characterization is not stored: a restore re-characterizes the
//! annotated gates.
//!
//! # Format
//!
//! ```text
//! magic      8 bytes   b"POCWARM1"
//! version    u32 LE    bumped on any layout change
//! hash       u64 LE    content hash of (layout, process, clock, flow config)
//! sections   ...       annotation, tag ids, store, optional surrogate
//!                      model (version 4)
//! checksum   u64 LE    FNV-1a over every preceding byte
//! ```
//!
//! All sections are length-prefixed little-endian; loading validates the
//! magic, version and checksum and length-checks every read, returning a
//! typed [`FlowError::Artifact`](crate::FlowError::Artifact) — never
//! panicking — on any malformed input. The **invalidation key** is the
//! content hash: it digests the design's netlist, transistor sites and
//! die, the process parameters, the clock, the gate-selection policy, the
//! wire-extraction config and the extraction configuration *minus*
//! fields that cannot change results (thread count, context-cache
//! toggle, fault policy/injection — all bit-identical by construction;
//! likewise `report_paths`, which only shapes the printed comparison). A
//! consumer compares [`content_hash`] of its current inputs against the
//! stored hash and falls back to a cold compile on mismatch.

use crate::durable::ArtifactIo;
use crate::error::{ArtifactError, Result};
use crate::extract::{artifact_err, put_u64, take_u64, ContextStore};
use crate::fault::FaultPolicy;
use crate::flow::FlowConfig;
use crate::tags::TagSet;
use postopc_device::MosKind;
use postopc_layout::{Design, GateId, NetId};
use postopc_sta::{CdAnnotation, GateAnnotation, NetAnnotation, TransistorCd};
use std::path::Path;

/// Magic bytes identifying a warm-timing artifact.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"POCWARM1";

/// Current artifact format version; readers reject any other.
/// Version 2 added the optional surrogate-model section; version 3
/// removed the Monte Carlo shift-entry section (Monte Carlo runs build
/// their shift table per run, so it was always empty); version 4 replaced
/// the characterization-entry section with the session's tag ids.
pub const ARTIFACT_VERSION: u32 = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte stream — the stable in-tree hash both the
/// checksum and the content hash ride on (never `DefaultHasher`, whose
/// output may change across Rust releases).
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Content hash of a timing compile's inputs: the artifact invalidation
/// key. Digests the design (netlist connectivity, placed transistor
/// sites, die), the device process, the clock, the gate-selection
/// policy, the wire-extraction config and the extraction configuration —
/// everything the flow lets vary that can move an annotated answer.
/// Results-invariant fields (threads, cache toggle, fault
/// policy/injection, `report_paths`) are normalised away — so re-running
/// on more threads does not orphan an artifact.
pub fn content_hash(design: &Design, config: &FlowConfig) -> u64 {
    let mut canon = config.extraction.clone();
    canon.threads = None;
    canon.cache = true;
    canon.fault_policy = FaultPolicy::Fail;
    canon.fault_injection = None;
    // The surrogate tier changes annotated results, so its knobs — and the
    // fingerprint of any pre-trained model (via `SurrogateConfig`'s `Debug`
    // rendering) — stay in the key while it is enabled: a warm start must
    // never mix surrogate and non-surrogate artifacts. With it disabled
    // the knobs are inert, so they are normalised away.
    if !canon.surrogate.enabled {
        canon.surrogate = crate::extract::SurrogateConfig::off();
    }
    let mut h = fnv1a(FNV_OFFSET, b"postopc-warm-artifact");
    h = fnv1a(h, format!("{:?}", design.netlist().gates()).as_bytes());
    h = fnv1a(h, format!("{:?}", design.transistor_sites()).as_bytes());
    h = fnv1a(h, format!("{:?}", design.die()).as_bytes());
    h = fnv1a(h, format!("{:?}", config.process).as_bytes());
    h = fnv1a(h, &config.clock_ps.to_bits().to_le_bytes());
    h = fnv1a(h, format!("{canon:?}").as_bytes());
    h = fnv1a(h, format!("{:?}", config.selection).as_bytes());
    h = fnv1a(h, format!("{:?}", config.wires).as_bytes());
    h
}

/// Everything a warm timing session reuses from one expensive compile,
/// in exact bits. See the module docs for the byte format.
#[derive(Debug)]
pub struct WarmArtifact {
    /// [`content_hash`] of the inputs this artifact was built from.
    pub content_hash: u64,
    /// The post-OPC extraction annotation.
    pub annotation: CdAnnotation,
    /// The tagged gates the annotation covers (after an ECO, the ECO's
    /// tag set rather than the config's selection).
    pub tags: TagSet,
    /// Retained distinct litho contexts for incremental re-extraction.
    pub context_store: ContextStore,
    /// Trained CD-surrogate state, when the compile ran with the
    /// surrogate tier enabled: a restored session resumes gating and
    /// online training exactly where the compile left off.
    pub surrogate: Option<postopc_litho::SurrogateModel>,
}

impl WarmArtifact {
    /// Serializes the artifact to its canonical byte form (equal
    /// artifacts produce equal bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&ARTIFACT_MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        put_u64(&mut out, self.content_hash);
        encode_annotation(&self.annotation, &mut out);
        let tags = self.tags.sorted();
        put_u64(&mut out, tags.len() as u64);
        for gate in tags {
            put_u64(&mut out, u64::from(gate.0));
        }
        self.context_store.encode_into(&mut out);
        match &self.surrogate {
            None => out.push(0),
            Some(model) => {
                out.push(1);
                model.encode_into(&mut out);
            }
        }
        let checksum = fnv1a(FNV_OFFSET, &out);
        put_u64(&mut out, checksum);
        out
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`](crate::FlowError::Artifact) on bad magic,
    /// unsupported version, checksum mismatch, truncation or any corrupt
    /// field — loading never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<WarmArtifact> {
        let header = ARTIFACT_MAGIC.len() + 4 + 8;
        if bytes.len() < header + 8 {
            return Err(artifact_err("too short to hold a header and checksum"));
        }
        if bytes[..ARTIFACT_MAGIC.len()] != ARTIFACT_MAGIC {
            return Err(artifact_err("bad magic: not a warm-timing artifact"));
        }
        let mut cursor = ARTIFACT_MAGIC.len();
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&bytes[cursor..cursor + 4]);
        let version = u32::from_le_bytes(ver);
        if version != ARTIFACT_VERSION {
            return Err(crate::FlowError::Artifact(ArtifactError::version(
                version,
                ARTIFACT_VERSION,
            )));
        }
        cursor += 4;
        let body = &bytes[..bytes.len() - 8];
        let stored_checksum = take_u64(bytes, &mut { bytes.len() - 8 })?;
        if fnv1a(FNV_OFFSET, body) != stored_checksum {
            return Err(artifact_err("checksum mismatch: artifact is corrupt"));
        }
        let content_hash = take_u64(body, &mut cursor)?;
        let annotation = decode_annotation(body, &mut cursor)?;
        let tags = decode_tags(body, &mut cursor)?;
        let context_store = ContextStore::decode_from(body, &mut cursor)?;
        let surrogate = match body.get(cursor).copied() {
            Some(0) => {
                cursor += 1;
                None
            }
            Some(1) => {
                cursor += 1;
                let model = postopc_litho::SurrogateModel::decode_from(body, &mut cursor)
                    .map_err(|e| artifact_err(&format!("surrogate section: {e}")))?;
                Some(model)
            }
            _ => return Err(artifact_err("invalid stored surrogate tag")),
        };
        if cursor != body.len() {
            return Err(artifact_err("trailing bytes after the last section"));
        }
        Ok(WarmArtifact {
            content_hash,
            annotation,
            tags,
            context_store,
            surrogate,
        })
    }

    /// Writes the artifact to `path` atomically: the bytes are staged in
    /// `<path>.tmp.<pid>`, fsynced, renamed into place, and the parent
    /// directory fsynced — a crash or failure at any step leaves the
    /// previous artifact at `path` untouched.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`](crate::FlowError::Artifact) with an
    /// [`ArtifactErrorKind::Io`](crate::ArtifactErrorKind::Io) naming
    /// the path and failing operation (write/fsync/rename).
    pub fn save(&self, path: &Path) -> Result<()> {
        self.save_with(path, &mut ArtifactIo::faultless())
    }

    /// [`Self::save`] through a caller-supplied I/O context (fault
    /// injection and retry policy).
    ///
    /// # Errors
    ///
    /// As [`Self::save`].
    pub fn save_with(&self, path: &Path, io: &mut ArtifactIo) -> Result<()> {
        io.write_atomic(path, &self.to_bytes())
    }

    /// Reads and parses an artifact from `path`.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`](crate::FlowError::Artifact) for I/O
    /// failures (transient ones are retried) and, via
    /// [`Self::from_bytes`], for any malformed content; decode errors
    /// carry `path`.
    pub fn load(path: &Path) -> Result<WarmArtifact> {
        WarmArtifact::load_with(path, &mut ArtifactIo::faultless())
    }

    /// [`Self::load`] through a caller-supplied I/O context.
    ///
    /// # Errors
    ///
    /// As [`Self::load`].
    pub fn load_with(path: &Path, io: &mut ArtifactIo) -> Result<WarmArtifact> {
        let bytes = io.read(path)?;
        WarmArtifact::from_bytes(&bytes).map_err(|e| match e {
            crate::FlowError::Artifact(err) => crate::FlowError::Artifact(err.with_path(path)),
            other => other,
        })
    }

    /// [`Self::load`] plus an invalidation check against the hash of the
    /// consumer's current inputs — the full recovery ladder: I/O errors,
    /// torn/partial bytes, foreign versions and stale hashes each come
    /// back as their own [`ArtifactErrorKind`](crate::ArtifactErrorKind).
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`](crate::FlowError::Artifact) with
    /// [`ArtifactErrorKind::StaleHash`](crate::ArtifactErrorKind::StaleHash)
    /// when the stored hash differs from `expected_hash` (the inputs
    /// changed: recompile cold), plus everything [`Self::load`] can
    /// return.
    pub fn load_validated(path: &Path, expected_hash: u64) -> Result<WarmArtifact> {
        WarmArtifact::load_validated_with(path, expected_hash, &mut ArtifactIo::faultless())
    }

    /// [`Self::load_validated`] through a caller-supplied I/O context.
    ///
    /// # Errors
    ///
    /// As [`Self::load_validated`].
    pub fn load_validated_with(
        path: &Path,
        expected_hash: u64,
        io: &mut ArtifactIo,
    ) -> Result<WarmArtifact> {
        let artifact = WarmArtifact::load_with(path, io)?;
        if artifact.content_hash != expected_hash {
            return Err(crate::FlowError::Artifact(
                ArtifactError::stale(artifact.content_hash, expected_hash).with_path(path),
            ));
        }
        Ok(artifact)
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn take_f64(bytes: &[u8], cursor: &mut usize) -> Result<f64> {
    Ok(f64::from_bits(take_u64(bytes, cursor)?))
}

fn encode_record(r: &TransistorCd, out: &mut Vec<u8>) {
    out.push(match r.kind {
        MosKind::Nmos => 0,
        MosKind::Pmos => 1,
    });
    put_f64(out, r.width_nm);
    put_f64(out, r.l_delay_nm);
    put_f64(out, r.l_leakage_nm);
    put_u64(out, r.input_pin.map_or(u64::MAX, |p| p as u64));
    put_u64(out, r.finger as u64);
}

fn decode_record(bytes: &[u8], cursor: &mut usize) -> Result<TransistorCd> {
    let kind = match bytes.get(*cursor) {
        Some(0) => MosKind::Nmos,
        Some(1) => MosKind::Pmos,
        _ => return Err(artifact_err("invalid stored MOS kind")),
    };
    *cursor += 1;
    let width_nm = take_f64(bytes, cursor)?;
    let l_delay_nm = take_f64(bytes, cursor)?;
    let l_leakage_nm = take_f64(bytes, cursor)?;
    let pin = take_u64(bytes, cursor)?;
    let finger = take_u64(bytes, cursor)? as usize;
    Ok(TransistorCd {
        kind,
        width_nm,
        l_delay_nm,
        l_leakage_nm,
        input_pin: (pin != u64::MAX).then_some(pin as usize),
        finger,
    })
}

fn encode_annotation(ann: &CdAnnotation, out: &mut Vec<u8>) {
    // HashMap iteration is unordered; sort by id for canonical bytes.
    let mut gates: Vec<(&GateId, &GateAnnotation)> = ann.gates().collect();
    gates.sort_by_key(|(g, _)| g.0);
    put_u64(out, gates.len() as u64);
    for (gate, g) in gates {
        put_u64(out, u64::from(gate.0));
        put_u64(out, g.transistors.len() as u64);
        for r in &g.transistors {
            encode_record(r, out);
        }
    }
    let mut nets: Vec<(&NetId, &NetAnnotation)> = ann.nets().collect();
    nets.sort_by_key(|(n, _)| n.0);
    put_u64(out, nets.len() as u64);
    for (net, n) in nets {
        put_u64(out, u64::from(net.0));
        put_f64(out, n.printed_width_nm);
    }
}

fn decode_annotation(bytes: &[u8], cursor: &mut usize) -> Result<CdAnnotation> {
    let mut ann = CdAnnotation::new();
    let n_gates = take_u64(bytes, cursor)?;
    for _ in 0..n_gates {
        let gate = take_u64(bytes, cursor)?;
        if gate > u64::from(u32::MAX) {
            return Err(artifact_err("stored gate id out of range"));
        }
        let n_records = take_u64(bytes, cursor)?;
        let mut transistors = Vec::with_capacity(n_records.min(1 << 20) as usize);
        for _ in 0..n_records {
            transistors.push(decode_record(bytes, cursor)?);
        }
        ann.set_gate(GateId(gate as u32), GateAnnotation { transistors });
    }
    let n_nets = take_u64(bytes, cursor)?;
    for _ in 0..n_nets {
        let net = take_u64(bytes, cursor)?;
        if net > u64::from(u32::MAX) {
            return Err(artifact_err("stored net id out of range"));
        }
        let printed_width_nm = take_f64(bytes, cursor)?;
        ann.set_net(NetId(net as u32), NetAnnotation { printed_width_nm });
    }
    Ok(ann)
}

/// Reads the tag-id section: ids stored in strictly ascending order (the
/// canonical form [`WarmArtifact::to_bytes`] writes), each a valid
/// [`GateId`]. Whether the ids exist in the design is checked when a
/// session restores them.
fn decode_tags(bytes: &[u8], cursor: &mut usize) -> Result<TagSet> {
    let mut tags = TagSet::new();
    let mut prev = None;
    for _ in 0..take_u64(bytes, cursor)? {
        let gate = take_u64(bytes, cursor)?;
        if gate > u64::from(u32::MAX) {
            return Err(artifact_err("stored tag id out of range"));
        }
        if prev.is_some_and(|p| p >= gate) {
            return Err(artifact_err("stored tag ids not strictly ascending"));
        }
        prev = Some(gate);
        tags.insert(GateId(gate as u32));
    }
    Ok(tags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FlowError;
    use crate::flow::Selection;
    use crate::multilayer::WireExtractionConfig;
    use postopc_layout::{generate, TechRules};

    fn design() -> Design {
        Design::compile(
            generate::inverter_chain(4).expect("netlist"),
            TechRules::n90(),
        )
        .expect("design")
    }

    fn fast_config() -> FlowConfig {
        let mut cfg = FlowConfig::standard(800.0);
        cfg.selection = Selection::All;
        cfg.extraction.opc_mode = crate::extract::OpcMode::Rule;
        cfg
    }

    fn sample_artifact() -> WarmArtifact {
        let d = design();
        let cfg = fast_config();
        let tags = crate::tags::TagSet::all(&d);
        let mut store = ContextStore::new();
        let out =
            crate::extract::extract_gates_with_store(&d, &cfg.extraction, &tags, Some(&mut store))
                .expect("extract");
        WarmArtifact {
            content_hash: content_hash(&d, &cfg),
            annotation: out.annotation,
            tags,
            context_store: store,
            surrogate: None,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes();
        // Canonical bytes: serializing twice is identical.
        assert_eq!(bytes, artifact.to_bytes());
        let loaded = WarmArtifact::from_bytes(&bytes).expect("parse");
        assert_eq!(loaded.content_hash, artifact.content_hash);
        assert_eq!(loaded.annotation, artifact.annotation);
        assert_eq!(loaded.tags, artifact.tags);
        assert_eq!(loaded.context_store.len(), artifact.context_store.len());
        // And the round trip is a fixed point.
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_inputs_return_typed_errors_never_panic() {
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            WarmArtifact::from_bytes(&bad),
            Err(FlowError::Artifact(_))
        ));
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[8] = 0xfe;
        let err = WarmArtifact::from_bytes(&bad).expect_err("version");
        assert!(err.to_string().contains("version"));
        // Flipped payload byte: checksum catches it.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x01;
        let err = WarmArtifact::from_bytes(&bad).expect_err("corrupt");
        assert!(err.to_string().contains("checksum"));
        // Truncation at every prefix parses to a typed error, not a panic.
        for cut in [0, 7, 12, 19, 20, bytes.len() / 3, bytes.len() - 1] {
            assert!(
                WarmArtifact::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        // Empty input.
        assert!(WarmArtifact::from_bytes(&[]).is_err());
    }

    #[test]
    fn tag_section_must_be_canonical() {
        let artifact = sample_artifact();
        assert!(artifact.tags.len() >= 2, "need two tag ids to reorder");
        let bytes = artifact.to_bytes();
        let mut annotation = Vec::new();
        encode_annotation(&artifact.annotation, &mut annotation);
        // Offset of the first tag id: header, annotation, tag count.
        let first = ARTIFACT_MAGIC.len() + 4 + 8 + annotation.len() + 8;
        // Re-seals a patched body with a valid checksum, so only the
        // section's own validation can reject it.
        let resealed = |patch: &dyn Fn(&mut [u8])| {
            let mut body = bytes[..bytes.len() - 8].to_vec();
            patch(&mut body);
            let checksum = fnv1a(FNV_OFFSET, &body);
            put_u64(&mut body, checksum);
            WarmArtifact::from_bytes(&body)
        };
        assert!(resealed(&|_| {}).is_ok());
        let swapped = resealed(&|body| {
            let (a, b) = body[first..first + 16].split_at_mut(8);
            a.swap_with_slice(b);
        });
        let err = swapped.expect_err("unordered tag ids");
        assert!(err.to_string().contains("ascending"), "{err}");
        let wide = resealed(&|body| body[first..first + 8].copy_from_slice(&[0xff; 8]));
        let err = wide.expect_err("oversized tag id");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn content_hash_tracks_inputs() {
        let d = design();
        let cfg = FlowConfig::standard(800.0);
        let base = content_hash(&d, &cfg);
        assert_eq!(base, content_hash(&d, &cfg));
        // Results-invariant knobs do not invalidate.
        let mut invariant = cfg.clone();
        invariant.extraction.threads = Some(7);
        invariant.extraction.cache = false;
        invariant.report_paths = 3;
        assert_eq!(base, content_hash(&d, &invariant));
        // Result-relevant inputs do.
        let mut clock = cfg.clone();
        clock.clock_ps = 900.0;
        assert_ne!(base, content_hash(&d, &clock));
        let mut opc = cfg.clone();
        opc.extraction.opc_mode = crate::extract::OpcMode::Rule;
        assert_ne!(base, content_hash(&d, &opc));
        let mut proc2 = cfg.clone();
        proc2.process.vdd += 0.1;
        assert_ne!(base, content_hash(&d, &proc2));
        // The selection policy shapes which gates the annotation covers,
        // so it is part of the key …
        let mut paths = cfg.clone();
        paths.selection = Selection::Critical { paths: 10 };
        assert_ne!(base, content_hash(&d, &paths));
        let mut all = cfg.clone();
        all.selection = Selection::All;
        assert_ne!(base, content_hash(&d, &all));
        // … and so is the wire-extraction config, which adds net entries.
        let mut wired = cfg.clone();
        wired.wires = Some(WireExtractionConfig::standard());
        assert_ne!(base, content_hash(&d, &wired));
    }

    #[test]
    fn surrogate_section_round_trips_and_is_validated() {
        let mut artifact = sample_artifact();
        let mut model = crate::extract::SurrogateConfig::standard().fresh_model();
        for i in 0..20 {
            let a = i as f64 / 10.0 - 1.0;
            let mut x = vec![0.0; crate::extract::SURROGATE_FEATURE_DIM];
            x[0] = 1.0;
            x[1] = a;
            model.absorb(&x, [2.0 * a, -a]).expect("absorb");
        }
        let fingerprint = model.fingerprint();
        artifact.surrogate = Some(model);
        let bytes = artifact.to_bytes();
        let loaded = WarmArtifact::from_bytes(&bytes).expect("parse");
        let restored = loaded.surrogate.as_ref().expect("surrogate section");
        assert_eq!(restored.len(), 20);
        assert_eq!(restored.fingerprint(), fingerprint);
        assert_eq!(loaded.to_bytes(), bytes, "round trip is a fixed point");
        // Truncations inside the surrogate section are typed errors.
        for cut in [bytes.len() - 9, bytes.len() - 50] {
            assert!(matches!(
                WarmArtifact::from_bytes(&bytes[..cut]),
                Err(FlowError::Artifact(_))
            ));
        }
    }

    #[test]
    fn content_hash_tracks_the_surrogate_knob() {
        let d = design();
        let cfg = fast_config();
        let base = content_hash(&d, &cfg);
        // Flipping *only* the surrogate switch invalidates: a warm start
        // must never mix surrogate and non-surrogate artifacts.
        let mut on = cfg.clone();
        on.extraction.surrogate = crate::extract::SurrogateConfig::standard();
        let on_hash = content_hash(&d, &on);
        assert_ne!(base, on_hash);
        // While enabled, the gate threshold is part of the key …
        let mut stricter = on.clone();
        stricter.extraction.surrogate.gate_threshold = 2.0;
        assert_ne!(on_hash, content_hash(&d, &stricter));
        // … and so is the pre-trained model (via its fingerprint).
        let mut pretrained = on.clone();
        let mut model = on.extraction.surrogate.fresh_model();
        let x = vec![1.0; crate::extract::SURROGATE_FEATURE_DIM];
        model.absorb(&x, [1.0, 1.0]).expect("absorb");
        pretrained.extraction.surrogate.pretrained = Some(model);
        assert_ne!(on_hash, content_hash(&d, &pretrained));
        // With the surrogate disabled its inert knobs are normalised away.
        let mut inert = cfg.clone();
        inert.extraction.surrogate.gate_threshold = 9.0;
        inert.extraction.surrogate.min_train = 5;
        assert_eq!(base, content_hash(&d, &inert));
    }

    #[test]
    fn load_validated_enforces_the_invalidation_key() {
        let artifact = sample_artifact();
        let dir = std::env::temp_dir().join("postopc-artifact-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("warm.bin");
        artifact.save(&path).expect("save");
        let ok = WarmArtifact::load_validated(&path, artifact.content_hash).expect("load");
        assert_eq!(ok.annotation, artifact.annotation);
        let err = WarmArtifact::load_validated(&path, artifact.content_hash ^ 1)
            .expect_err("stale artifact must be rejected");
        assert!(err.to_string().contains("content hash mismatch"));
        // Missing file is a typed error too.
        assert!(matches!(
            WarmArtifact::load(&dir.join("absent.bin")),
            Err(FlowError::Artifact(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
