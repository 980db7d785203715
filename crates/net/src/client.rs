//! Blocking client with pipelined submits and tag-matched waits.
//!
//! [`NetClient::submit`] only queues bytes on a buffered writer — many
//! submits can be issued back-to-back and the flush happens when the
//! first [`NetClient::wait`] needs the socket. Completions arrive in
//! whatever order the scheduler finished them; `wait` stashes frames
//! for other tags until their own waits come asking, so tickets can be
//! redeemed in any order.
//!
//! Backpressure is transparent by default: a retry-after frame
//! schedules a re-submit of the stored payload under the same tag on a
//! due-time queue, up to [`NetClientConfig::max_retries`] attempts.
//! The backoff is honored by the *queue*, never by sleeping on the
//! shared read path — while one tag waits out its hint, completions
//! and errors for every other tag keep draining, and `wait` deadlines
//! stay accurate. Due retries flush from whichever `wait` call is
//! active when they mature (or at the start of the next one).
//!
//! A `wait` that returns [`NetError::Timeout`] does **not** lose the
//! request: the tag stays in flight (queued retries included) and a
//! later `wait` on the same tag redeems the completion whenever it
//! arrives — the same re-waitable semantics as
//! `magnon_serve::Ticket::wait_timeout`.

use crate::error::NetError;
use crate::protocol::{write_frame, Frame, FrameReader, GateInfo, NET_VERSION};
use magnon_core::sync::time::{Duration, Instant};
use magnon_core::word::Word;
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// A gate in the connected server's directory (index into
/// [`NetClient::gates`]). The index is public — it is just a position
/// in the advertised directory, and [`NetClient::submit`] validates it
/// against the directory before any bytes move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteGateId(pub u32);

impl RemoteGateId {
    /// The wire index this id carries on submit frames.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Overall deadline for one [`NetClient::wait`] (and the
    /// handshake).
    pub wait_timeout: Duration,
    /// Backpressure retries per request before giving up.
    pub max_retries: u32,
    /// Socket read timeout granularity while waiting (how often the
    /// deadline is checked).
    pub read_poll: Duration,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            wait_timeout: Duration::from_secs(30),
            max_retries: 4096,
            read_poll: Duration::from_millis(5),
        }
    }
}

/// Traffic counters a client keeps about its own connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetClientStats {
    /// Submit frames written (first attempts, not retries).
    pub submitted: u64,
    /// Successful responses received.
    pub responses: u64,
    /// Re-submissions forced by retry-after backpressure.
    pub retries: u64,
    /// Requests answered with an error frame.
    pub remote_errors: u64,
}

/// One request the client has sent and not yet resolved: enough to
/// re-submit it verbatim when the server answers retry-after.
#[derive(Debug)]
struct InflightRequest {
    gate: u32,
    lane: Option<u16>,
    operands: Vec<Word>,
    retries: u32,
}

/// One scheduled backpressure retry: `tag` re-submits once `due`
/// passes (flushed from the wait loop, never slept on).
#[derive(Debug)]
struct PendingRetry {
    tag: u64,
    due: Instant,
}

/// Cap on how long a single retry-after hint may defer a re-submit —
/// matches the old sleep cap, so a hostile or misconfigured server
/// cannot push a tag's retry arbitrarily far out.
const MAX_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// A blocking connection to a [`crate::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    reader: TcpStream,
    /// Resumable decoder: a read timeout mid-frame keeps its buffered
    /// bytes, so slow links cannot desync the stream.
    frames: FrameReader,
    writer: std::io::BufWriter<TcpStream>,
    gates: Vec<GateInfo>,
    next_tag: u64,
    inflight: HashMap<u64, InflightRequest>,
    completed: HashMap<u64, Result<Word, NetError>>,
    retry_queue: Vec<PendingRetry>,
    stats: NetClientStats,
    config: NetClientConfig,
}

impl NetClient {
    /// Connects with default tuning. See [`NetClient::connect_with`].
    ///
    /// # Errors
    ///
    /// The conditions of [`NetClient::connect_with`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_with(addr, NetClientConfig::default())
    }

    /// Connects, performs the versioned hello handshake and loads the
    /// server's gate directory.
    ///
    /// # Errors
    ///
    /// * [`NetError::Io`] for socket failures.
    /// * [`NetError::VersionMismatch`] when the server speaks another
    ///   protocol version.
    /// * [`NetError::Remote`] when the server rejects the hello.
    /// * [`NetError::Timeout`] when the handshake misses the configured
    ///   deadline.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr).map_err(|e| NetError::io("connect", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::io("configure socket", e))?;
        stream
            .set_read_timeout(Some(config.read_poll))
            .map_err(|e| NetError::io("configure socket", e))?;
        let write_half = stream
            .try_clone()
            .map_err(|e| NetError::io("clone socket", e))?;
        let mut client = NetClient {
            reader: stream,
            frames: FrameReader::new(),
            writer: std::io::BufWriter::new(write_half),
            gates: Vec::new(),
            next_tag: 1,
            inflight: HashMap::new(),
            completed: HashMap::new(),
            retry_queue: Vec::new(),
            stats: NetClientStats::default(),
            config,
        };
        write_frame(
            &mut client.writer,
            &Frame::Hello {
                version: NET_VERSION,
            },
        )?;
        client.flush()?;
        let deadline = Instant::now() + client.config.wait_timeout;
        match client.read_until(deadline)? {
            Frame::HelloAck { version, gates } => {
                if version != NET_VERSION {
                    return Err(NetError::VersionMismatch {
                        ours: NET_VERSION,
                        theirs: version,
                    });
                }
                client.gates = gates;
                Ok(client)
            }
            Frame::Error { code, message, .. } => Err(NetError::Remote { code, message }),
            other => Err(NetError::protocol(format!(
                "expected a hello-ack, got {other:?}"
            ))),
        }
    }

    /// The server's gate directory, indexed by [`RemoteGateId`].
    pub fn gates(&self) -> &[GateInfo] {
        &self.gates
    }

    /// Looks a gate up by its registration name.
    pub fn gate(&self, name: &str) -> Option<RemoteGateId> {
        self.gates
            .iter()
            .position(|g| g.name == name)
            .map(|i| RemoteGateId(i as u32))
    }

    /// The directory entries riding `waveguide`, as `(id, lane, info)`
    /// — the lanes-per-waveguide view of the hello-ack. Entries on
    /// distinct lanes occupy disjoint bands of one medium and share the
    /// waveguide's drain cycles server-side.
    pub fn gates_on_waveguide(
        &self,
        waveguide: u64,
    ) -> impl Iterator<Item = (RemoteGateId, u16, &GateInfo)> {
        self.gates
            .iter()
            .enumerate()
            .filter(move |(_, g)| g.waveguide == waveguide)
            .map(|(i, g)| (RemoteGateId(i as u32), g.lane, g))
    }

    /// This connection's traffic counters.
    pub fn stats(&self) -> NetClientStats {
        self.stats
    }

    /// Queues one evaluation and returns its tag (redeem with
    /// [`NetClient::wait`], in any order). The submit frame sits in the
    /// write buffer until a wait flushes it, so back-to-back submits
    /// pipeline into few segments.
    ///
    /// # Errors
    ///
    /// * [`NetError::BadRequest`] when `gate` is foreign or `operands`
    ///   do not match its advertised shape (caught before any bytes
    ///   move).
    /// * [`NetError::Io`] when the write fails.
    pub fn submit(&mut self, gate: RemoteGateId, operands: &[Word]) -> Result<u64, NetError> {
        self.submit_inner(gate, None, operands)
    }

    /// Like [`NetClient::submit`], but pins the submit to frequency
    /// lane `lane` (protocol v2): the server verifies the gate still
    /// occupies that lane and answers a
    /// [`crate::error::WireErrorCode::LaneMismatch`] error otherwise.
    /// The pin is validated against the advertised directory before any
    /// bytes move.
    ///
    /// # Errors
    ///
    /// * [`NetError::BadRequest`] when the directory advertises a
    ///   different lane for `gate`, plus the conditions of
    ///   [`NetClient::submit`].
    pub fn submit_on_lane(
        &mut self,
        gate: RemoteGateId,
        lane: u16,
        operands: &[Word],
    ) -> Result<u64, NetError> {
        self.submit_inner(gate, Some(lane), operands)
    }

    fn submit_inner(
        &mut self,
        gate: RemoteGateId,
        lane: Option<u16>,
        operands: &[Word],
    ) -> Result<u64, NetError> {
        let info = self
            .gates
            .get(gate.0 as usize)
            .ok_or_else(|| NetError::BadRequest {
                reason: format!("gate index {} is not in the directory", gate.0),
            })?;
        if let Some(lane) = lane {
            if info.lane != lane {
                return Err(NetError::BadRequest {
                    reason: format!(
                        "gate `{}` rides lane {}, not the pinned lane {lane}",
                        info.name, info.lane
                    ),
                });
            }
        }
        if operands.len() != info.input_count as usize {
            return Err(NetError::BadRequest {
                reason: format!(
                    "gate `{}` takes {} operands, got {}",
                    info.name,
                    info.input_count,
                    operands.len()
                ),
            });
        }
        if let Some(word) = operands
            .iter()
            .find(|w| w.width() != info.word_width as usize)
        {
            return Err(NetError::BadRequest {
                reason: format!(
                    "gate `{}` serves {}-bit words, got a {}-bit operand",
                    info.name,
                    info.word_width,
                    word.width()
                ),
            });
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        // One payload copy: encode the frame, then move its operand
        // vector into the inflight store for potential retries.
        let frame = Frame::Submit {
            tag,
            gate: gate.0,
            lane,
            operands: operands.to_vec(),
        };
        write_frame(&mut self.writer, &frame)?;
        let Frame::Submit { operands, .. } = frame else {
            unreachable!("constructed as Submit above")
        };
        self.inflight.insert(
            tag,
            InflightRequest {
                gate: gate.0,
                lane,
                operands,
                retries: 0,
            },
        );
        self.stats.submitted += 1;
        Ok(tag)
    }

    /// Blocks until `tag`'s completion arrives (frames for other tags
    /// encountered on the way are stashed for their own waits), with
    /// the configured [`NetClientConfig::wait_timeout`] deadline.
    ///
    /// # Errors
    ///
    /// The conditions of [`NetClient::wait_deadline`].
    pub fn wait(&mut self, tag: u64) -> Result<Word, NetError> {
        self.wait_deadline(tag, self.config.wait_timeout)
    }

    /// Like [`NetClient::wait`], with an explicit deadline.
    ///
    /// A timeout does **not** consume the request: the tag stays in
    /// flight (any queued backpressure retry included), and a later
    /// wait on the same tag redeems the completion whenever it arrives
    /// — mirroring `magnon_serve::Ticket::wait_timeout`, whose tickets
    /// are also re-waitable after a deadline miss. Queued retries for
    /// *other* tags that come due while this wait polls are flushed
    /// along the way, so one tag's backoff never stalls another's.
    ///
    /// # Errors
    ///
    /// * [`NetError::Remote`] when the server answered an error frame.
    /// * [`NetError::Timeout`] when `timeout` elapses first (the tag
    ///   stays redeemable).
    /// * [`NetError::RetriesExhausted`] when backpressure outlasted
    ///   [`NetClientConfig::max_retries`].
    /// * [`NetError::BadRequest`] for a tag this client never issued
    ///   (or already redeemed).
    pub fn wait_deadline(&mut self, tag: u64, timeout: Duration) -> Result<Word, NetError> {
        self.flush()?;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(result) = self.completed.remove(&tag) {
                return result;
            }
            if !self.inflight.contains_key(&tag) {
                return Err(NetError::BadRequest {
                    reason: format!("tag {tag} was never submitted (or already redeemed)"),
                });
            }
            self.flush_due_retries()?;
            // Wake early when a queued retry matures before the
            // deadline, so its re-submit is not delayed by a blocked
            // read.
            let wake = self
                .retry_queue
                .iter()
                .map(|retry| retry.due)
                .min()
                .map_or(deadline, |due| due.min(deadline));
            if let Some(frame) = self.poll_frame(wake, deadline)? {
                self.absorb(frame)?;
            }
        }
    }

    /// Submit + wait in one call.
    ///
    /// # Errors
    ///
    /// The conditions of [`NetClient::submit`] and [`NetClient::wait`].
    pub fn eval(&mut self, gate: RemoteGateId, operands: &[Word]) -> Result<Word, NetError> {
        let tag = self.submit(gate, operands)?;
        self.wait(tag)
    }

    /// Pipelines a whole request list (all submits flushed together),
    /// then waits every completion; results come back in request order
    /// however the server reordered them.
    ///
    /// # Errors
    ///
    /// The first failing request aborts with its error.
    pub fn eval_many(
        &mut self,
        requests: &[(RemoteGateId, Vec<Word>)],
    ) -> Result<Vec<Word>, NetError> {
        let tags: Vec<u64> = requests
            .iter()
            .map(|(gate, operands)| self.submit(*gate, operands))
            .collect::<Result<_, _>>()?;
        tags.into_iter().map(|tag| self.wait(tag)).collect()
    }

    fn flush(&mut self) -> Result<(), NetError> {
        self.writer
            .flush()
            .map_err(|e| NetError::io("flush submits", e))
    }

    /// Reads the next frame, tolerating read-timeout polls until
    /// `deadline` (partial frames stay buffered in the resumable
    /// reader across polls).
    fn read_until(&mut self, deadline: Instant) -> Result<Frame, NetError> {
        match self.poll_frame(deadline, deadline)? {
            Some(frame) => Ok(frame),
            // With wake == deadline the deadline check wins; this arm
            // is defensive.
            None => Err(NetError::Timeout),
        }
    }

    /// Reads the next frame, tolerating read-timeout polls. Returns
    /// `Ok(None)` once `wake` passes without a frame (so the wait loop
    /// can flush a matured retry) and [`NetError::Timeout`] once
    /// `deadline` does. Partial frames stay buffered in the resumable
    /// reader across polls.
    fn poll_frame(&mut self, wake: Instant, deadline: Instant) -> Result<Option<Frame>, NetError> {
        loop {
            match self.frames.read_frame(&mut self.reader) {
                Ok(frame) => return Ok(Some(frame)),
                Err(NetError::Io { source, .. })
                    if matches!(
                        source.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::Timeout);
                    }
                    if now >= wake {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-submits every queued backpressure retry whose due time has
    /// passed. Runs inside the wait loop, so backoffs overlap with
    /// useful reads instead of serializing in front of them.
    fn flush_due_retries(&mut self) -> Result<(), NetError> {
        let now = Instant::now();
        let mut wrote = false;
        let mut i = 0;
        while i < self.retry_queue.len() {
            if self.retry_queue[i].due > now {
                i += 1;
                continue;
            }
            let retry = self.retry_queue.swap_remove(i);
            // The tag may have resolved meanwhile (an error frame, or
            // retries exhausted); only live requests re-submit.
            if let Some(entry) = self.inflight.get(&retry.tag) {
                write_frame(
                    &mut self.writer,
                    &Frame::Submit {
                        tag: retry.tag,
                        gate: entry.gate,
                        lane: entry.lane,
                        operands: entry.operands.clone(),
                    },
                )?;
                wrote = true;
            }
        }
        if wrote {
            self.flush()?;
        }
        Ok(())
    }

    /// Files one inbound frame: resolves its tag, or schedules a
    /// re-submit on backpressure.
    fn absorb(&mut self, frame: Frame) -> Result<(), NetError> {
        match frame {
            Frame::Response { tag, word } => {
                if self.inflight.remove(&tag).is_some() {
                    self.stats.responses += 1;
                    self.completed.insert(tag, Ok(word));
                }
                Ok(())
            }
            Frame::Error {
                tag: 0,
                code,
                message,
            } => {
                // Connection-scoped error (handshake/framing): fatal.
                Err(NetError::Remote { code, message })
            }
            Frame::Error { tag, code, message } => {
                if self.inflight.remove(&tag).is_some() {
                    self.stats.remote_errors += 1;
                    self.completed
                        .insert(tag, Err(NetError::Remote { code, message }));
                }
                Ok(())
            }
            Frame::RetryAfter { tag, hint, .. } => {
                let Some(entry) = self.inflight.get_mut(&tag) else {
                    return Ok(());
                };
                entry.retries += 1;
                if entry.retries > self.config.max_retries {
                    let attempts = entry.retries;
                    self.inflight.remove(&tag);
                    self.completed
                        .insert(tag, Err(NetError::RetriesExhausted { attempts }));
                    return Ok(());
                }
                self.stats.retries += 1;
                // Honor the backoff by SCHEDULING the re-submit on the
                // due-time queue. Sleeping here — on the shared read
                // path — would stall the drain of every other tag's
                // completions for the duration of this tag's backoff
                // and silently eat the active wait()'s deadline. One
                // queue entry per tag: a flood of retry-after frames
                // for one tag re-times the pending re-submit instead
                // of scheduling duplicate submits.
                let due = Instant::now() + hint.min(MAX_RETRY_PAUSE);
                match self.retry_queue.iter_mut().find(|retry| retry.tag == tag) {
                    Some(pending) => pending.due = due,
                    None => self.retry_queue.push(PendingRetry { tag, due }),
                }
                Ok(())
            }
            other => Err(NetError::protocol(format!(
                "unexpected frame after handshake: {other:?}"
            ))),
        }
    }
}
