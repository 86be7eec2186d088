//! The length-prefixed binary protocol between daemon and client.
//!
//! Every message is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   "GRSV" (little-endian u32 0x56535247)
//! 4       2     version u16, currently 1
//! 6       1     kind    u8 message discriminator
//! 7       4     len     u32 payload length (<= MAX_PAYLOAD)
//! 11      len   payload kind-specific body (ByteWriter encoding)
//! 11+len  4     crc     CRC-32 of the payload bytes
//! ```
//!
//! The payload codecs reuse `graphrare-store`'s [`ByteWriter`] /
//! [`ByteReader`] little-endian primitives and its CRC discipline, so
//! the decode path never panics: every malformed input — wrong magic,
//! unsupported version, lying length prefix, flipped payload byte,
//! truncated stream — comes back as a typed [`ProtoError`].

use std::io::{Read, Write};

use graphrare::{RewirerKind, RlAlgo};
use graphrare_gnn::Backbone;
use graphrare_store::crc32;
use graphrare_store::wire::{ByteReader, ByteWriter};

/// Frame magic: `b"GRSV"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"GRSV");

/// Protocol version carried by every frame. Version 2 added the
/// `rewirer` field to [`RunSpec`]; frames from version-1 peers are
/// rejected with [`ProtoError::BadVersion`] (daemon and client ship in
/// the same build, so there is no mixed-version window to bridge).
pub const PROTO_VERSION: u16 = 2;

/// Upper bound on a frame payload; a corrupted or hostile length
/// prefix can never trigger a larger allocation.
pub const MAX_PAYLOAD: u32 = 16 << 20;

/// Fixed frame prefix size: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 11;

/// Typed decode/transport failure. The server answers payload-level
/// errors with an [`Response::Error`] frame and drops the connection
/// on frame-level ones; it never panics on any input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame does not start with [`MAGIC`].
    BadMagic(u32),
    /// Frame carries an unsupported protocol version.
    BadVersion(u16),
    /// Message kind byte is not a known request or response.
    UnknownKind(u8),
    /// Payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload bytes do not match the trailing CRC-32.
    CrcMismatch {
        /// CRC recomputed over the received payload.
        expected: u32,
        /// CRC carried by the frame.
        found: u32,
    },
    /// Stream ended mid-frame.
    Truncated,
    /// Payload structure is malformed (bad tag, lying count, trailing
    /// bytes, invalid UTF-8, ...).
    Corrupt(String),
    /// Underlying transport failure.
    Io(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtoError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {PROTO_VERSION})")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            ProtoError::Oversized(n) => {
                write!(f, "payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            ProtoError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "payload crc mismatch: computed {expected:#010x}, frame says {found:#010x}"
                )
            }
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::Corrupt(why) => write!(f, "corrupt payload: {why}"),
            ProtoError::Io(why) => write!(f, "transport error: {why}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<graphrare_store::StoreError> for ProtoError {
    fn from(e: graphrare_store::StoreError) -> Self {
        ProtoError::Corrupt(e.to_string())
    }
}

/// Outcome of one blocking frame read.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame: message kind and verified payload.
    Frame(u8, Vec<u8>),
    /// Peer closed the connection at a frame boundary.
    Eof,
    /// Read timed out before any frame byte arrived (only with a read
    /// timeout configured on the stream) — the connection is idle.
    Idle,
}

/// Reads exactly `buf.len()` bytes of frame interior. The peer has
/// already committed to a frame, so a close or a timeout mid-read is
/// [`ProtoError::Truncated`]-adjacent, never silent.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtoError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Mid-frame stall on a timed stream: keep waiting for
                // the rest of the committed frame.
            }
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads and verifies one frame: magic, version, length cap, payload
/// CRC. Returns [`FrameRead::Eof`] on a clean close and
/// [`FrameRead::Idle`] when a configured read timeout fires at a frame
/// boundary; any other shortfall is a typed error.
pub fn read_frame(r: &mut impl Read) -> Result<FrameRead, ProtoError> {
    // The first byte decides between frame, clean close, and idle.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(FrameRead::Idle);
            }
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    read_full(r, &mut header[1..])?;
    finish_frame(r, header)
}

fn finish_frame(r: &mut impl Read, header: [u8; HEADER_LEN]) -> Result<FrameRead, ProtoError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let kind = header[6];
    let len = u32::from_le_bytes(header[7..11].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload)?;
    let mut crc_bytes = [0u8; 4];
    read_full(r, &mut crc_bytes)?;
    let found = u32::from_le_bytes(crc_bytes);
    let expected = crc32(&payload);
    if expected != found {
        return Err(ProtoError::CrcMismatch { expected, found });
    }
    Ok(FrameRead::Frame(kind, payload))
}

/// Writes one frame (header, payload, payload CRC) and flushes.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), ProtoError> {
    assert!(payload.len() <= MAX_PAYLOAD as usize, "frame payload exceeds protocol cap");
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame).map_err(|e| ProtoError::Io(e.to_string()))?;
    w.flush().map_err(|e| ProtoError::Io(e.to_string()))
}

/// The run a client submits: core's [`graphrare::RunSpec`], the same
/// description the `graphrare` CLI parses its flags into. The daemon
/// builds its config with the same [`RunSpec::to_config`], which is what
/// makes served results bit-identical to solo runs.
pub use graphrare::RunSpec;

fn backbone_tag(b: Backbone) -> u8 {
    match b {
        Backbone::Mlp => 0,
        Backbone::Gcn => 1,
        Backbone::Sage => 2,
        Backbone::Gat => 3,
        Backbone::H2gcn => 4,
    }
}

fn backbone_from_tag(tag: u8) -> Result<Backbone, ProtoError> {
    Ok(match tag {
        0 => Backbone::Mlp,
        1 => Backbone::Gcn,
        2 => Backbone::Sage,
        3 => Backbone::Gat,
        4 => Backbone::H2gcn,
        other => return Err(ProtoError::Corrupt(format!("unknown backbone tag {other}"))),
    })
}

fn algo_tag(a: RlAlgo) -> u8 {
    match a {
        RlAlgo::Ppo => 0,
        RlAlgo::A2c => 1,
    }
}

fn algo_from_tag(tag: u8) -> Result<RlAlgo, ProtoError> {
    Ok(match tag {
        0 => RlAlgo::Ppo,
        1 => RlAlgo::A2c,
        other => return Err(ProtoError::Corrupt(format!("unknown algo tag {other}"))),
    })
}

/// Encodes a [`RunSpec`] payload body (also reused for the on-disk
/// `spec.grrs` record, so a restarted daemon reloads the exact spec).
pub fn encode_spec(spec: &RunSpec, w: &mut ByteWriter) {
    w.put_str(&spec.input);
    w.put_u16(u16::from(backbone_tag(spec.backbone)));
    w.put_u64(spec.steps);
    w.put_u64(spec.seed);
    w.put_u64(spec.split_seed);
    w.put_u64(spec.k_cap);
    w.put_f64(spec.lambda);
    w.put_u16(u16::from(algo_tag(spec.algo)));
    w.put_u64(spec.threads);
    w.put_u16(u16::from(spec.paced));
    w.put_u16(spec.rewirer.tag());
}

/// Decodes a [`RunSpec`] payload body.
pub fn decode_spec(r: &mut ByteReader<'_>) -> Result<RunSpec, ProtoError> {
    let input = r.get_str()?;
    let backbone = backbone_from_tag(narrow_u8(r.get_u16()?, "backbone tag")?)?;
    let steps = r.get_u64()?;
    let seed = r.get_u64()?;
    let split_seed = r.get_u64()?;
    let k_cap = r.get_u64()?;
    let lambda = r.get_f64()?;
    let algo = algo_from_tag(narrow_u8(r.get_u16()?, "algo tag")?)?;
    let threads = r.get_u64()?;
    let paced = decode_bool(r.get_u16()?, "paced flag")?;
    let rewirer_tag = r.get_u16()?;
    let rewirer = RewirerKind::from_tag(rewirer_tag)
        .ok_or_else(|| ProtoError::Corrupt(format!("unknown rewirer tag {rewirer_tag}")))?;
    Ok(RunSpec {
        input,
        backbone,
        steps,
        seed,
        split_seed,
        k_cap,
        lambda,
        algo,
        threads,
        paced,
        rewirer,
    })
}

fn narrow_u8(v: u16, what: &str) -> Result<u8, ProtoError> {
    u8::try_from(v).map_err(|_| ProtoError::Corrupt(format!("{what} {v} out of range")))
}

fn decode_bool(v: u16, what: &str) -> Result<bool, ProtoError> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ProtoError::Corrupt(format!("{what} {other} is not 0/1"))),
    }
}

/// Lifecycle state of one hosted run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Admitted, waiting for a worker slot.
    Queued,
    /// A worker thread is stepping the driver.
    Running,
    /// Finished; the result artifact is fetchable.
    Done,
    /// Aborted with an error (see [`RunInfo::error`]).
    Failed,
    /// Cancelled by request.
    Cancelled,
    /// Checkpointed and parked by a daemon shutdown; a restarted
    /// daemon resumes it from its per-tenant checkpoint.
    Interrupted,
}

impl RunState {
    /// Stable lowercase name used on the client's stdout.
    pub fn name(self) -> &'static str {
        match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Done => "done",
            RunState::Failed => "failed",
            RunState::Cancelled => "cancelled",
            RunState::Interrupted => "interrupted",
        }
    }

    /// Whether the run can make no further progress in this daemon
    /// lifetime (`Interrupted` resumes only after a restart).
    pub fn is_terminal(self) -> bool {
        !matches!(self, RunState::Queued | RunState::Running)
    }

    /// One-byte tag: the state's wire encoding, and the value the
    /// daemon keeps in each run's atomic state cell.
    pub(crate) fn tag(self) -> u8 {
        match self {
            RunState::Queued => 0,
            RunState::Running => 1,
            RunState::Done => 2,
            RunState::Failed => 3,
            RunState::Cancelled => 4,
            RunState::Interrupted => 5,
        }
    }

    /// Inverse of [`RunState::tag`]; an unknown tag is corrupt input.
    pub(crate) fn from_tag(tag: u8) -> Result<Self, ProtoError> {
        Ok(match tag {
            0 => RunState::Queued,
            1 => RunState::Running,
            2 => RunState::Done,
            3 => RunState::Failed,
            4 => RunState::Cancelled,
            5 => RunState::Interrupted,
            other => return Err(ProtoError::Corrupt(format!("unknown run state tag {other}"))),
        })
    }
}

/// Point-in-time public view of one hosted run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunInfo {
    /// Daemon-assigned id (positive; doubles as the telemetry
    /// `run_id` tag).
    pub run_id: u64,
    /// Lifecycle state.
    pub state: RunState,
    /// DRL steps completed so far.
    pub step: u64,
    /// Steps the run will take in total.
    pub total_steps: u64,
    /// Step of the newest on-disk checkpoint (0 = none yet).
    pub checkpoint_step: u64,
    /// Best validation accuracy (meaningful once `Done`).
    pub best_val_acc: f64,
    /// Test accuracy at the best-validation checkpoint (once `Done`).
    pub test_acc: f64,
    /// Failure message (empty unless `Failed`).
    pub error: String,
}

fn encode_run_info(info: &RunInfo, w: &mut ByteWriter) {
    w.put_u64(info.run_id);
    w.put_u16(u16::from(info.state.tag()));
    w.put_u64(info.step);
    w.put_u64(info.total_steps);
    w.put_u64(info.checkpoint_step);
    w.put_f64(info.best_val_acc);
    w.put_f64(info.test_acc);
    w.put_str(&info.error);
}

fn decode_run_info(r: &mut ByteReader<'_>) -> Result<RunInfo, ProtoError> {
    Ok(RunInfo {
        run_id: r.get_u64()?,
        state: RunState::from_tag(narrow_u8(r.get_u16()?, "state tag")?)?,
        step: r.get_u64()?,
        total_steps: r.get_u64()?,
        checkpoint_step: r.get_u64()?,
        best_val_acc: r.get_f64()?,
        test_acc: r.get_f64()?,
        error: r.get_str()?,
    })
}

/// Daemon-wide statistics, including the telemetry registry's counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// Runs currently on worker threads.
    pub active: u64,
    /// Runs admitted but waiting for a slot.
    pub queued: u64,
    /// Runs admitted since daemon start (this lifetime).
    pub submitted: u64,
    /// Runs finished successfully.
    pub completed: u64,
    /// Runs aborted with an error.
    pub failed: u64,
    /// Runs cancelled by request.
    pub cancelled: u64,
    /// DRL steps executed across all runs.
    pub steps_total: u64,
    /// Protocol requests handled.
    pub requests: u64,
    /// Telemetry registry counters (name, value), sorted by name.
    pub counters: Vec<(String, u64)>,
}

fn encode_stats(s: &StatsReport, w: &mut ByteWriter) {
    w.put_u64(s.active);
    w.put_u64(s.queued);
    w.put_u64(s.submitted);
    w.put_u64(s.completed);
    w.put_u64(s.failed);
    w.put_u64(s.cancelled);
    w.put_u64(s.steps_total);
    w.put_u64(s.requests);
    w.put_u64(s.counters.len() as u64);
    for (name, value) in &s.counters {
        w.put_str(name);
        w.put_u64(*value);
    }
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<StatsReport, ProtoError> {
    let mut s = StatsReport {
        active: r.get_u64()?,
        queued: r.get_u64()?,
        submitted: r.get_u64()?,
        completed: r.get_u64()?,
        failed: r.get_u64()?,
        cancelled: r.get_u64()?,
        steps_total: r.get_u64()?,
        requests: r.get_u64()?,
        counters: Vec::new(),
    };
    let n = r.get_count(r.remaining() / 10, "stats counters")?;
    for _ in 0..n {
        let name = r.get_str()?;
        let value = r.get_u64()?;
        s.counters.push((name, value));
    }
    Ok(s)
}

/// Client-to-daemon message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Admit a new run.
    SubmitRun(RunSpec),
    /// Fetch one run's [`RunInfo`].
    Status(u64),
    /// Grant a paced run more steps.
    StepBudget {
        /// Target run.
        run_id: u64,
        /// Steps to add to its budget.
        steps: u64,
    },
    /// Force a checkpoint at the run's next step boundary.
    Snapshot(u64),
    /// Stop a queued or running run.
    Cancel(u64),
    /// Fetch a finished run's model artifact bytes.
    FetchResult(u64),
    /// List every hosted run.
    ListRuns,
    /// Fetch daemon-wide statistics.
    ServerStats,
    /// Ask the daemon to shut down gracefully (checkpoint + exit 0).
    Shutdown,
}

const REQ_SUBMIT: u8 = 1;
const REQ_STATUS: u8 = 2;
const REQ_BUDGET: u8 = 3;
const REQ_SNAPSHOT: u8 = 4;
const REQ_CANCEL: u8 = 5;
const REQ_FETCH: u8 = 6;
const REQ_LIST: u8 = 7;
const REQ_STATS: u8 = 8;
const REQ_SHUTDOWN: u8 = 9;

impl Request {
    /// Serialises to (frame kind, payload bytes).
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = ByteWriter::new();
        let kind = match self {
            Request::SubmitRun(spec) => {
                encode_spec(spec, &mut w);
                REQ_SUBMIT
            }
            Request::Status(id) => {
                w.put_u64(*id);
                REQ_STATUS
            }
            Request::StepBudget { run_id, steps } => {
                w.put_u64(*run_id);
                w.put_u64(*steps);
                REQ_BUDGET
            }
            Request::Snapshot(id) => {
                w.put_u64(*id);
                REQ_SNAPSHOT
            }
            Request::Cancel(id) => {
                w.put_u64(*id);
                REQ_CANCEL
            }
            Request::FetchResult(id) => {
                w.put_u64(*id);
                REQ_FETCH
            }
            Request::ListRuns => REQ_LIST,
            Request::ServerStats => REQ_STATS,
            Request::Shutdown => REQ_SHUTDOWN,
        };
        (kind, w.into_bytes())
    }

    /// Decodes a request payload; the payload must be consumed exactly.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = ByteReader::new(payload, "request payload");
        let req = match kind {
            REQ_SUBMIT => Request::SubmitRun(decode_spec(&mut r)?),
            REQ_STATUS => Request::Status(r.get_u64()?),
            REQ_BUDGET => Request::StepBudget { run_id: r.get_u64()?, steps: r.get_u64()? },
            REQ_SNAPSHOT => Request::Snapshot(r.get_u64()?),
            REQ_CANCEL => Request::Cancel(r.get_u64()?),
            REQ_FETCH => Request::FetchResult(r.get_u64()?),
            REQ_LIST => Request::ListRuns,
            REQ_STATS => Request::ServerStats,
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError::UnknownKind(other)),
        };
        r.expect_exhausted("request payload")?;
        Ok(req)
    }
}

/// Daemon-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Run admitted under this id.
    Submitted(u64),
    /// One run's status.
    RunStatus(RunInfo),
    /// Budget grant acknowledged; total remaining budget.
    BudgetGranted {
        /// Target run.
        run_id: u64,
        /// Remaining granted steps after the grant.
        remaining: u64,
    },
    /// Snapshot request acknowledged; the checkpoint lands at the next
    /// step boundary.
    SnapshotAck {
        /// Target run.
        run_id: u64,
        /// Step of the newest completed checkpoint.
        checkpoint_step: u64,
    },
    /// Cancellation acknowledged (takes effect at the next step).
    Cancelled(u64),
    /// A finished run's model artifact (the exact bytes a solo
    /// `graphrare --save-model` run with the same spec writes).
    RunResult {
        /// Source run.
        run_id: u64,
        /// `result.grrs` container bytes.
        artifact: Vec<u8>,
    },
    /// All hosted runs.
    RunList(Vec<RunInfo>),
    /// Daemon statistics.
    Stats(StatsReport),
    /// Daemon is shutting down and admits no new work.
    ShuttingDown,
    /// Admission refused: worker slots and queue are full.
    Busy {
        /// Runs currently on workers.
        active: u64,
        /// Runs already queued.
        queued: u64,
    },
    /// Request-level failure.
    Error(String),
}

const RESP_SUBMITTED: u8 = 64;
const RESP_STATUS: u8 = 65;
const RESP_BUDGET: u8 = 66;
const RESP_SNAPSHOT: u8 = 67;
const RESP_CANCELLED: u8 = 68;
const RESP_RESULT: u8 = 69;
const RESP_LIST: u8 = 70;
const RESP_STATS: u8 = 71;
const RESP_SHUTDOWN: u8 = 72;
const RESP_BUSY: u8 = 73;
const RESP_ERROR: u8 = 74;

impl Response {
    /// Serialises to (frame kind, payload bytes).
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = ByteWriter::new();
        let kind = match self {
            Response::Submitted(id) => {
                w.put_u64(*id);
                RESP_SUBMITTED
            }
            Response::RunStatus(info) => {
                encode_run_info(info, &mut w);
                RESP_STATUS
            }
            Response::BudgetGranted { run_id, remaining } => {
                w.put_u64(*run_id);
                w.put_u64(*remaining);
                RESP_BUDGET
            }
            Response::SnapshotAck { run_id, checkpoint_step } => {
                w.put_u64(*run_id);
                w.put_u64(*checkpoint_step);
                RESP_SNAPSHOT
            }
            Response::Cancelled(id) => {
                w.put_u64(*id);
                RESP_CANCELLED
            }
            Response::RunResult { run_id, artifact } => {
                w.put_u64(*run_id);
                w.put_u64(artifact.len() as u64);
                w.put_bytes(artifact);
                RESP_RESULT
            }
            Response::RunList(infos) => {
                w.put_u64(infos.len() as u64);
                for info in infos {
                    encode_run_info(info, &mut w);
                }
                RESP_LIST
            }
            Response::Stats(stats) => {
                encode_stats(stats, &mut w);
                RESP_STATS
            }
            Response::ShuttingDown => RESP_SHUTDOWN,
            Response::Busy { active, queued } => {
                w.put_u64(*active);
                w.put_u64(*queued);
                RESP_BUSY
            }
            Response::Error(message) => {
                w.put_str(message);
                RESP_ERROR
            }
        };
        (kind, w.into_bytes())
    }

    /// Decodes a response payload; the payload must be consumed exactly.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = ByteReader::new(payload, "response payload");
        let resp = match kind {
            RESP_SUBMITTED => Response::Submitted(r.get_u64()?),
            RESP_STATUS => Response::RunStatus(decode_run_info(&mut r)?),
            RESP_BUDGET => {
                Response::BudgetGranted { run_id: r.get_u64()?, remaining: r.get_u64()? }
            }
            RESP_SNAPSHOT => {
                Response::SnapshotAck { run_id: r.get_u64()?, checkpoint_step: r.get_u64()? }
            }
            RESP_CANCELLED => Response::Cancelled(r.get_u64()?),
            RESP_RESULT => {
                let run_id = r.get_u64()?;
                let len = r.get_count(r.remaining(), "artifact bytes")?;
                Response::RunResult { run_id, artifact: r.get_bytes(len)?.to_vec() }
            }
            RESP_LIST => {
                let n = r.get_count(r.remaining() / 50, "run list")?;
                let mut infos = Vec::with_capacity(n);
                for _ in 0..n {
                    infos.push(decode_run_info(&mut r)?);
                }
                Response::RunList(infos)
            }
            RESP_STATS => Response::Stats(decode_stats(&mut r)?),
            RESP_SHUTDOWN => Response::ShuttingDown,
            RESP_BUSY => Response::Busy { active: r.get_u64()?, queued: r.get_u64()? },
            RESP_ERROR => Response::Error(r.get_str()?),
            other => return Err(ProtoError::UnknownKind(other)),
        };
        r.expect_exhausted("response payload")?;
        Ok(resp)
    }
}

/// Writes a request as one frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ProtoError> {
    let (kind, payload) = req.encode();
    write_frame(w, kind, &payload)
}

/// Writes a response as one frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), ProtoError> {
    let (kind, payload) = resp.encode();
    write_frame(w, kind, &payload)
}

/// Reads one response frame (client side); EOF is a typed error — the
/// server always answers before closing.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    match read_frame(r)? {
        FrameRead::Frame(kind, payload) => Response::decode(kind, &payload),
        FrameRead::Eof | FrameRead::Idle => Err(ProtoError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> RunSpec {
        RunSpec {
            input: "data/toy".into(),
            backbone: Backbone::Sage,
            steps: 12,
            seed: 7,
            split_seed: 3,
            k_cap: 10,
            lambda: 0.5,
            algo: RlAlgo::A2c,
            threads: 1,
            paced: true,
            rewirer: RewirerKind::Dhgr,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::SubmitRun(sample_spec()),
            Request::Status(9),
            Request::StepBudget { run_id: 1, steps: 100 },
            Request::Snapshot(2),
            Request::Cancel(3),
            Request::FetchResult(4),
            Request::ListRuns,
            Request::ServerStats,
            Request::Shutdown,
        ];
        for req in reqs {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).unwrap();
            // The daemon's read: one frame, then the request decoder.
            let FrameRead::Frame(kind, payload) = read_frame(&mut buf.as_slice()).unwrap() else {
                panic!("no frame for {req:?}");
            };
            assert_eq!(Request::decode(kind, &payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let info = RunInfo {
            run_id: 5,
            state: RunState::Running,
            step: 4,
            total_steps: 12,
            checkpoint_step: 2,
            best_val_acc: 0.75,
            test_acc: 0.5,
            error: String::new(),
        };
        let resps = [
            Response::Submitted(5),
            Response::RunStatus(info.clone()),
            Response::BudgetGranted { run_id: 5, remaining: 20 },
            Response::SnapshotAck { run_id: 5, checkpoint_step: 4 },
            Response::Cancelled(5),
            Response::RunResult { run_id: 5, artifact: vec![1, 2, 3, 250] },
            Response::RunList(vec![info.clone(), RunInfo { run_id: 6, ..info }]),
            Response::Stats(StatsReport {
                active: 2,
                counters: vec![("a".into(), 1), ("b".into(), 2)],
                ..StatsReport::default()
            }),
            Response::ShuttingDown,
            Response::Busy { active: 2, queued: 8 },
            Response::Error("nope".into()),
        ];
        for resp in resps {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).unwrap();
            let got = read_response(&mut buf.as_slice()).unwrap();
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        assert!(matches!(read_frame(&mut [].as_slice()).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn frame_errors_are_typed() {
        // Wrong magic.
        let mut frame = Vec::new();
        write_frame(&mut frame, 1, b"xy").unwrap();
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(ProtoError::BadMagic(_))));
        // Wrong version.
        let mut bad = frame.clone();
        bad[4] = 99;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(ProtoError::BadVersion(_))));
        // Oversized length.
        let mut bad = frame.clone();
        bad[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(ProtoError::Oversized(_))));
        // Flipped payload byte trips the CRC.
        let mut bad = frame.clone();
        bad[HEADER_LEN] ^= 0x01;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(ProtoError::CrcMismatch { .. })));
        // Truncation mid-frame.
        for cut in 1..frame.len() {
            assert!(
                matches!(read_frame(&mut &frame[..cut]), Err(ProtoError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn spec_rejects_unknown_rewirer_tag() {
        let mut w = ByteWriter::new();
        encode_spec(&sample_spec(), &mut w);
        let mut bytes = w.into_bytes();
        // The rewirer tag is the trailing u16 of the spec body.
        let at = bytes.len() - 2;
        bytes[at..].copy_from_slice(&99u16.to_le_bytes());
        let mut r = ByteReader::new(&bytes, "spec");
        assert!(matches!(decode_spec(&mut r), Err(ProtoError::Corrupt(_))));
    }
}
