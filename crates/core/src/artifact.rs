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
//! sections   ...       annotation, tag ids, store (version 5)
//! checksum   u64 LE    FNV-1a over every preceding byte
//! ```
//!
//! Sections are count-prefixed little-endian, written and read by the
//! crate's one byte codec (shared with the `POCSURR1` model file): loading
//! validates the magic, version and checksum, bounds-checks every read
//! and rejects a count larger than the bytes left, returning a typed
//! [`FlowError::Artifact`](crate::FlowError::Artifact) — never panicking
//! — on any malformed input. The **invalidation key** is the
//! content hash: it digests the design's netlist, transistor sites and
//! die, the process parameters, the clock, the gate-selection policy, the
//! wire-step switch and the extraction configuration *minus* fields that
//! cannot change results (thread count and context-cache toggle, both
//! bit-identical by construction; likewise `report_paths`, which only
//! shapes the printed comparison). The fault policy and injection stay in
//! the key: a quarantined gate keeps drawn CDs, so a run where a fault
//! bites persists a different annotation. A consumer compares
//! [`content_hash`] of its current inputs against the stored hash and
//! falls back to a cold compile on mismatch.

use crate::codec::{corrupt, fnv1a, fnv1a_from, put_f64, put_mos_kind, put_u64, seal, Reader};
use crate::durable::ArtifactIo;
use crate::error::{ArtifactError, Result};
use crate::extract::ContextStore;
use crate::flow::FlowConfig;
use crate::tags::TagSet;
use postopc_layout::{Design, GateId, NetId};
use postopc_sta::{CdAnnotation, GateAnnotation, NetAnnotation, TransistorCd};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a warm-timing artifact.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"POCWARM1";

/// Current artifact format version; readers reject any other.
/// Version 2 added the optional surrogate-model section; version 3
/// removed the Monte Carlo shift-entry section (Monte Carlo runs build
/// their shift table per run, so it was always empty); version 4 replaced
/// the characterization-entry section with the session's tag ids;
/// version 5 removed the surrogate-model section (a surrogate model lives
/// for one extraction run).
pub const ARTIFACT_VERSION: u32 = 5;

/// Content hash of a timing compile's inputs: the artifact invalidation
/// key. Digests the design (netlist connectivity, placed transistor
/// sites, die), the device process, the clock, the gate-selection
/// policy, the wire-step switch and the extraction configuration —
/// everything the flow lets vary that can move an annotated answer.
/// Results-invariant fields (threads, cache toggle, `report_paths`) are
/// normalised away — so re-running on more threads does not orphan an
/// artifact. The fault policy and injection are not results-invariant
/// once a fault bites (a quarantined gate keeps drawn CDs), so they stay.
pub fn content_hash(design: &Design, config: &FlowConfig) -> u64 {
    let mut canon = config.extraction.clone();
    canon.threads = None;
    canon.cache = true;
    // The surrogate tier changes annotated results, so its switch — and
    // the fingerprint of any pre-trained model (via `SurrogateConfig`'s
    // `Debug` rendering) — stay in the key while it is enabled: a warm
    // start must never mix surrogate and non-surrogate artifacts. With it
    // disabled the pre-trained model is inert, so it is normalised away.
    if !canon.surrogate.enabled {
        canon.surrogate = crate::surrogate::SurrogateConfig::off();
    }
    let mut h = fnv1a(b"postopc-warm-artifact");
    h = fnv1a_from(h, format!("{:?}", design.netlist().gates()).as_bytes());
    h = fnv1a_from(h, format!("{:?}", design.transistor_sites()).as_bytes());
    h = fnv1a_from(h, format!("{:?}", design.die()).as_bytes());
    h = fnv1a_from(h, format!("{:?}", config.process).as_bytes());
    h = fnv1a_from(h, &config.clock_ps.to_bits().to_le_bytes());
    h = fnv1a_from(h, format!("{canon:?}").as_bytes());
    h = fnv1a_from(h, format!("{:?}", config.selection).as_bytes());
    h = fnv1a_from(h, format!("{:?}", config.wires).as_bytes());
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
    /// Retained distinct litho contexts for incremental re-extraction,
    /// shared with the session it was snapshot from.
    pub context_store: Arc<ContextStore>,
}

impl WarmArtifact {
    /// Serializes the artifact to its canonical byte form (equal
    /// artifacts produce equal bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(ARTIFACT_MAGIC, ARTIFACT_VERSION, |out| {
            put_u64(out, self.content_hash);
            encode_annotation(&self.annotation, out);
            let tags = self.tags.sorted();
            put_u64(out, tags.len() as u64);
            for gate in tags {
                put_u64(out, u64::from(gate.0));
            }
            self.context_store.encode_into(out);
        })
    }

    /// Parses an artifact from bytes.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`](crate::FlowError::Artifact) on bad magic,
    /// unsupported version, checksum mismatch, truncation or any corrupt
    /// field — loading never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<WarmArtifact> {
        let mut r = Reader::open(bytes, ARTIFACT_MAGIC, ARTIFACT_VERSION)?;
        let content_hash = r.u64()?;
        let annotation = decode_annotation(&mut r)?;
        let tags = decode_tags(&mut r)?;
        let context_store = Arc::new(ContextStore::decode_from(&mut r)?);
        r.finish()?;
        Ok(WarmArtifact {
            content_hash,
            annotation,
            tags,
            context_store,
        })
    }

    /// Writes the artifact to `path` atomically through a caller-supplied
    /// I/O context (fault injection and retry policy): the bytes are
    /// staged in `<path>.tmp.<pid>`, fsynced, renamed into place, and the
    /// parent directory fsynced — a crash or failure at any step leaves
    /// the previous artifact at `path` untouched.
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`](crate::FlowError::Artifact) with an
    /// [`ArtifactErrorKind::Io`](crate::ArtifactErrorKind::Io) naming
    /// the path and failing operation (write/fsync/rename).
    pub fn save_with(&self, path: &Path, io: &mut ArtifactIo) -> Result<()> {
        io.write_atomic(path, &self.to_bytes())
    }

    /// Reads and parses an artifact from `path` through `io`: I/O
    /// failures (transient ones are retried) and, via
    /// [`Self::from_bytes`], malformed content come back as
    /// [`FlowError::Artifact`](crate::FlowError::Artifact); decode errors
    /// carry `path`.
    fn load_with(path: &Path, io: &mut ArtifactIo) -> Result<WarmArtifact> {
        let bytes = io.read(path)?;
        WarmArtifact::from_bytes(&bytes).map_err(|e| match e {
            crate::FlowError::Artifact(err) => crate::FlowError::Artifact(err.with_path(path)),
            other => other,
        })
    }

    /// Reads and parses an artifact from `path`, then checks it against
    /// the hash of the consumer's current inputs — the full recovery
    /// ladder: I/O errors, torn/partial bytes, foreign versions and stale
    /// hashes each come back as their own
    /// [`ArtifactErrorKind`](crate::ArtifactErrorKind).
    ///
    /// # Errors
    ///
    /// [`FlowError::Artifact`](crate::FlowError::Artifact) for I/O
    /// failures (transient ones are retried) and, via
    /// [`Self::from_bytes`], for any malformed content; with
    /// [`ArtifactErrorKind::StaleHash`](crate::ArtifactErrorKind::StaleHash)
    /// when the stored hash differs from `expected_hash` (the inputs
    /// changed: recompile cold). Every error carries `path`.
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

fn encode_record(r: &TransistorCd, out: &mut Vec<u8>) {
    put_mos_kind(out, r.kind);
    put_f64(out, r.width_nm);
    put_f64(out, r.l_delay_nm);
    put_f64(out, r.l_leakage_nm);
    put_u64(out, r.input_pin.map_or(u64::MAX, |p| p as u64));
    put_u64(out, r.finger as u64);
}

fn decode_record(r: &mut Reader) -> Result<TransistorCd> {
    let kind = r.mos_kind()?;
    let width_nm = r.f64()?;
    let l_delay_nm = r.f64()?;
    let l_leakage_nm = r.f64()?;
    let pin = r.u64()?;
    let finger = r.u64()? as usize;
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

/// A stored gate, net or tag id: a `u32` widened to 8 bytes.
fn decode_id(r: &mut Reader, what: &str) -> Result<u32> {
    u32::try_from(r.u64()?).map_err(|_| corrupt(&format!("stored {what} id out of range")))
}

fn decode_annotation(r: &mut Reader) -> Result<CdAnnotation> {
    let mut ann = CdAnnotation::new();
    for _ in 0..r.count()? {
        let gate = decode_id(r, "gate")?;
        let n_records = r.count()?;
        let mut transistors = Vec::with_capacity(n_records);
        for _ in 0..n_records {
            transistors.push(decode_record(r)?);
        }
        ann.set_gate(GateId(gate), GateAnnotation { transistors });
    }
    for _ in 0..r.count()? {
        let net = decode_id(r, "net")?;
        let printed_width_nm = r.f64()?;
        ann.set_net(NetId(net), NetAnnotation { printed_width_nm });
    }
    Ok(ann)
}

/// Reads the tag-id section: ids stored in strictly ascending order (the
/// canonical form [`WarmArtifact::to_bytes`] writes), each a valid
/// [`GateId`]. Whether the ids exist in the design is checked when a
/// session restores them.
fn decode_tags(r: &mut Reader) -> Result<TagSet> {
    let mut tags = TagSet::new();
    let mut prev = None;
    for _ in 0..r.count()? {
        let gate = decode_id(r, "tag")?;
        if prev.is_some_and(|p| p >= gate) {
            return Err(corrupt("stored tag ids not strictly ascending"));
        }
        prev = Some(gate);
        tags.insert(GateId(gate));
    }
    Ok(tags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FlowError;
    use crate::flow::Selection;
    use crate::surrogate::{SurrogateConfig, SurrogateModel, SURROGATE_FEATURE_DIM};
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
            context_store: Arc::new(store),
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
            let checksum = fnv1a(&body);
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

    /// A surrogate model trained on `n` samples of a linear response.
    fn trained_model(n: usize) -> SurrogateModel {
        let mut model = SurrogateModel::new(SURROGATE_FEATURE_DIM, 1e-3, 8);
        for i in 0..n {
            let a = i as f64 / 10.0 - 1.0;
            let mut x = vec![0.0; SURROGATE_FEATURE_DIM];
            x[0] = 1.0;
            x[1] = a;
            model.absorb(&x, [2.0 * a, -a]).expect("absorb");
        }
        model
    }

    /// Applies `cases` seeded mutations to the payload of the sealed
    /// container `sealed`, reseals each with a valid checksum and decodes
    /// it: the answer must be `Ok` (and re-encode without a panic) or a
    /// [`FlowError::Artifact`], never a panic or another error. Returns
    /// the number of `Ok` answers and every rejection reason.
    fn sweep_resealed<T>(
        sealed: &[u8],
        seed: u64,
        cases: usize,
        decode: impl Fn(&[u8]) -> Result<T>,
        encode: impl Fn(&T) -> Vec<u8>,
    ) -> (usize, Vec<String>) {
        use postopc_rng::{RngExt, SeedableRng, StdRng};
        let header = ARTIFACT_MAGIC.len() + 4;
        let body = &sealed[..sealed.len() - 8];
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut ok, mut reasons) = (0, Vec::new());
        for case in 0..cases {
            let mut b = body.to_vec();
            let at = rng.random_range(header..b.len());
            match rng.random_range(0..5u32) {
                0 => b[at] = rng.random_range(0..256u32) as u8,
                1 => {
                    let word = match rng.random_range(0..4u32) {
                        0 => 0,
                        1 => 1,
                        2 => u64::MAX,
                        _ => rng.random_range(2..64u64),
                    };
                    let end = (at + 8).min(b.len());
                    b[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                }
                2 => b.truncate(at),
                _ => {
                    let len = rng.random_range(1..=(b.len() - at).min(64));
                    let slice = b[at..at + len].to_vec();
                    let to = rng.random_range(header..=b.len());
                    b.splice(to..to, slice);
                }
            }
            let checksum = fnv1a(&b);
            put_u64(&mut b, checksum);
            match decode(&b) {
                Ok(value) => {
                    encode(&value);
                    ok += 1;
                }
                Err(FlowError::Artifact(e)) => reasons.push(e.detail),
                Err(other) => panic!("case {case}: untyped rejection {other}"),
            }
        }
        (ok, reasons)
    }

    /// Asserts that the sweep's rejections include each expected reason
    /// (a reason matches by prefix) and none at the checksum.
    fn assert_reached(reasons: &[String], expected: &[&str]) {
        assert!(reasons.iter().all(|r| !r.contains("checksum")));
        for want in expected {
            assert!(
                reasons.iter().any(|r| r.starts_with(want)),
                "no mutation reached {want:?}"
            );
        }
    }

    #[test]
    fn resealed_mutations_reach_every_section_decoder_and_fail_typed() {
        let mut artifact = sample_artifact();
        for (i, net) in [3u32, 5, 8].into_iter().enumerate() {
            let printed_width_nm = 120.0 + i as f64;
            artifact
                .annotation
                .set_net(NetId(net), NetAnnotation { printed_width_nm });
        }
        assert!(!artifact.tags.is_empty() && !artifact.context_store.is_empty());
        let (ok, reasons) = sweep_resealed(
            &artifact.to_bytes(),
            11,
            3000,
            WarmArtifact::from_bytes,
            WarmArtifact::to_bytes,
        );
        assert!(ok > 0, "some mutations (a float's bits) still decode");
        assert_reached(
            &reasons,
            &[
                "stored gate id out of range",
                "stored net id out of range",
                "invalid stored MOS kind",
                "stored tag ids not strictly ascending",
                "invalid stored polygon",
                "invalid stored rect",
                "invalid stored outcome tag",
                "stored count exceeds the bytes left",
                "truncated field",
                "trailing bytes after the last field",
            ],
        );
        let (_, reasons) = sweep_resealed(
            &trained_model(20).to_file_bytes(),
            12,
            3000,
            SurrogateModel::from_file_bytes,
            SurrogateModel::to_file_bytes,
        );
        assert_reached(
            &reasons,
            &[
                "stored feature dimension out of range",
                "stored boost rounds out of range",
                "truncated surrogate training state",
                "stored count exceeds the bytes left",
                "truncated field",
                "trailing bytes after the last field",
            ],
        );
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
        // … and so is the wire step, which adds net entries.
        let mut wired = cfg.clone();
        wired.wires = true;
        assert_ne!(base, content_hash(&d, &wired));
        // A quarantining run persists drawn CDs for the gates it sets
        // aside, so the fault policy and injection are part of the key.
        let mut quarantine = cfg.clone();
        quarantine.extraction.fault_policy = crate::FaultPolicy::Quarantine { max_fraction: 1.0 };
        assert_ne!(base, content_hash(&d, &quarantine));
        let mut injected = cfg.clone();
        injected.extraction.fault_injection = Some(crate::FaultInjection::all(1, 0.5));
        assert_ne!(base, content_hash(&d, &injected));
    }

    #[test]
    fn content_hash_tracks_the_surrogate_knob() {
        let d = design();
        let cfg = fast_config();
        let base = content_hash(&d, &cfg);
        // Flipping *only* the surrogate switch invalidates: a warm start
        // must never mix surrogate and non-surrogate artifacts.
        let mut on = cfg.clone();
        on.extraction.surrogate = SurrogateConfig::standard();
        let on_hash = content_hash(&d, &on);
        assert_ne!(base, on_hash);
        // While enabled, the pre-trained model is part of the key (via its
        // fingerprint) …
        let mut pretrained = on.clone();
        pretrained.extraction.surrogate.pretrained = Some(trained_model(1));
        assert_ne!(on_hash, content_hash(&d, &pretrained));
        // … and with the surrogate disabled it is inert, so normalised away.
        let mut inert = cfg.clone();
        inert.extraction.surrogate.pretrained = Some(trained_model(1));
        assert_eq!(base, content_hash(&d, &inert));
    }

    #[test]
    fn load_validated_enforces_the_invalidation_key() {
        let artifact = sample_artifact();
        let dir = std::env::temp_dir().join("postopc-artifact-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("warm.bin");
        artifact
            .save_with(&path, &mut ArtifactIo::faultless())
            .expect("save");
        let ok = WarmArtifact::load_validated(&path, artifact.content_hash).expect("load");
        assert_eq!(ok.annotation, artifact.annotation);
        let err = WarmArtifact::load_validated(&path, artifact.content_hash ^ 1)
            .expect_err("stale artifact must be rejected");
        assert!(err.to_string().contains("content hash mismatch"));
        // Missing file is a typed error too.
        assert!(matches!(
            WarmArtifact::load_validated(&dir.join("absent.bin"), artifact.content_hash),
            Err(FlowError::Artifact(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
