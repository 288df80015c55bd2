//! The `navigate` phase: serving reads from a store file the build phase
//! produced. Set-up mmap-opens the store, starts an in-process `NetServer`
//! and opens thousands of sessions over `nproc` connections; the measured
//! part drives Zipf-skewed sessions through the library (closed loop) and
//! over the wire (open loop at a fixed rate, then closed loop).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dln_net::wire::{self, MAX_FRAME_LEN};
use dln_net::{Client, NetServer};
use dln_serve::{ApiRequest, ApiResponse, NavService, ServeConfig, SessionId, WallClock};

use crate::config;
use crate::metrics::SERVING_REQ_BASE;
use crate::report::{Accounting, Report};
use crate::stats::{Hist, Rng, Samples, Summaries, Zipf};
use crate::trace;
use crate::walk::{same_view, Walker};

/// One library step in this many is traced (the loop runs at about a
/// million steps per second).
const LIB_SPAN_EVERY: u32 = 256;

/// Offered rate of the open-loop wire phase, steps per second over all
/// connections. A constant: it is not derived from measured capacity.
pub const OPEN_LOOP_RATE: f64 = 4000.0;

/// The generator sleeps until this long before a step is due and spins
/// the rest, so that sleep overshoot does not make it late.
const SPIN: Duration = Duration::from_micros(60);

/// What the navigate phase measured.
#[derive(Default)]
pub struct NavPhase {
    pub setup_s: Samples,
    pub lib_step_us: Hist,
    /// Children and tables shown by the library steps, in total.
    pub lib_children: u64,
    pub lib_tables: u64,
    /// p50 of library steps, one summary per serving slice.
    pub lib_slices: Summaries,
    pub wire_step_us: Hist,
    /// p50 and p90 of open-loop wire steps, one summary per slice.
    pub wire_slices: Summaries,
    /// Closed-loop throughput of each slice, steps per second.
    pub capacity: Samples,
    pub wire_traced_us: Hist,
    pub wire_untraced_us: Hist,
    pub gen_late_us: Hist,
    pub closed_steps: usize,
    pub dispatch_us: Samples,
    pub codec_us: Samples,
    pub frame_req: Samples,
    pub frame_resp: Samples,
    pub net_requests: u64,
    pub net_dedup_hits: u64,
    pub net_closed: u64,
    pub net_shed_accepts: u64,
    pub lib: Accounting,
    pub wire_open: Accounting,
    pub wire_closed: Accounting,
}

/// One connection's share of the sessions.
struct Conn {
    client: Client,
    sessions: Vec<(SessionId, Walker)>,
    rng: Rng,
    zipf: Zipf,
}

impl Conn {
    /// One Zipf-chosen session's next step over the wire.
    fn step(&mut self, req_id: u64, acc: &mut Accounting) -> bool {
        let i = self.zipf.sample(&mut self.rng);
        let (sid, walker) = &mut self.sessions[i];
        let req = walker.request(&mut self.rng, None);
        let r = {
            let _s = trace::span("net.client_step", req_id);
            self.client.step(*sid, &req)
        };
        acc.note(&r);
        match r {
            Ok(resp) => {
                walker.observe(&resp);
                true
            }
            Err(_) => false,
        }
    }
}

/// `n` query topics, each an attribute's unit topic vector.
pub fn topics(svc: &NavService, n: usize, rng: &mut Rng) -> Arc<[Vec<f32>]> {
    let snap = svc.snapshot();
    let n_attrs = snap.view().n_attrs();
    (0..n)
        .map(|_| snap.view().attr_unit(rng.below(n_attrs) as u32).to_vec())
        .collect()
}

/// A running service with its server, client connections and library
/// sessions.
pub struct NavRig {
    svc: Arc<NavService>,
    server: NetServer,
    conns: Vec<Conn>,
    walkers: Vec<(SessionId, Walker)>,
    zipf: Zipf,
    rng: Rng,
    req_ids: AtomicU64,
}

impl NavRig {
    /// The timed set-up: open the store, start the server and open
    /// `sessions` sessions over `threads` connections.
    pub fn set_up(
        store: &Path,
        serve: ServeConfig,
        threads: usize,
        sessions: usize,
        seed: u64,
        out: &mut NavPhase,
    ) -> NavRig {
        let t = Instant::now();
        let svc = {
            let _s = trace::span("store.open", 0);
            Arc::new(NavService::open_path(store, serve).expect("opening the store"))
        };
        let server = {
            let _s = trace::span("net.start", 0);
            NetServer::start(
                Arc::clone(&svc),
                config::net(threads),
                Arc::new(WallClock::new()),
            )
            .expect("starting the server")
        };
        let addr = server.local_addr().to_string();
        let mut rng = Rng::new(seed ^ 0xA11CE);
        let qs = topics(&svc, sessions, &mut rng);
        let conns: Vec<Conn> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|j| {
                    let addr = addr.clone();
                    let qs = &qs;
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connecting");
                        let mine: Vec<(SessionId, Walker)> = (j..sessions)
                            .step_by(threads)
                            .map(|i| {
                                let sid = {
                                    let _s = trace::span("net.client_open", 0);
                                    client.open_keyed(i as u64).expect("opening a session")
                                };
                                (sid, Walker::new(Arc::clone(qs), i))
                            })
                            .collect();
                        trace::flush_thread();
                        let zipf = Zipf::new(mine.len());
                        Conn {
                            client,
                            sessions: mine,
                            rng: Rng::new(seed ^ (j as u64 + 1).wrapping_mul(0x51ED)),
                            zipf,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session opener panicked"))
                .collect()
        });
        out.setup_s.push(t.elapsed().as_secs_f64());

        let mut rng = Rng::new(seed ^ 0x11B);
        let lib_topics = topics(&svc, sessions, &mut rng);
        let walkers: Vec<(SessionId, Walker)> = (0..sessions)
            .map(|i| {
                (
                    svc.open_session().expect("opening a library session"),
                    Walker::new(Arc::clone(&lib_topics), i),
                )
            })
            .collect();
        NavRig {
            svc,
            server,
            conns,
            zipf: Zipf::new(sessions),
            walkers,
            rng,
            req_ids: AtomicU64::new(SERVING_REQ_BASE),
        }
    }

    /// Library steps: one thread, closed loop, on the served mapped service.
    pub fn library(&mut self, secs: f64, out: &mut NavPhase) {
        let end = config::after(secs);
        let mut slice = Hist::default();
        while Instant::now() < end {
            for _ in 0..64 {
                let i = self.zipf.sample(&mut self.rng);
                let (sid, w) = &mut self.walkers[i];
                let req = w.request(&mut self.rng, None);
                let req_id = self.req_ids.fetch_add(1, Ordering::Relaxed);
                let t = Instant::now();
                let r = {
                    let _s = trace::sampled("serve.step", req_id, LIB_SPAN_EVERY);
                    self.svc.step(*sid, &req)
                };
                let us = t.elapsed().as_secs_f64() * 1e6;
                out.lib.note(&r);
                let us = match r {
                    Ok(resp) => {
                        out.lib_children += resp.children.len() as u64;
                        out.lib_tables += resp.tables.len() as u64;
                        w.observe(&resp);
                        us
                    }
                    Err(_) => f64::INFINITY,
                };
                slice.push(us);
            }
        }
        out.lib_slices.add(&slice, &[0.5]);
        out.lib_step_us.merge(&slice);
    }

    /// Open loop: each connection sends its share of a fixed schedule of
    /// `OPEN_LOOP_RATE` steps per second for `secs` seconds. A step's
    /// latency runs from when it was due to its response.
    pub fn open_loop(&mut self, secs: f64, traced: bool, out: &mut NavPhase) {
        let threads = self.conns.len();
        let interval = Duration::from_secs_f64(threads as f64 / OPEN_LOOP_RATE);
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(secs);
        let req_ids = &self.req_ids;
        let results: Vec<(Accounting, Hist, Hist)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(j, conn)| {
                    s.spawn(move || {
                        let mut acc = Accounting::default();
                        let mut lat_us = Hist::default();
                        let mut late_us = Hist::default();
                        let offset = Duration::from_secs_f64(j as f64 / OPEN_LOOP_RATE);
                        let mut prev_done = start;
                        for k in 0u32.. {
                            let due = start + offset + interval * k;
                            if due >= end {
                                break;
                            }
                            loop {
                                let now = Instant::now();
                                if now >= due {
                                    break;
                                }
                                if due - now > SPIN {
                                    std::thread::sleep(due - now - SPIN);
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                            let sent = Instant::now();
                            // The generator's own lateness: how long after
                            // the request could have gone out (its due time,
                            // or the previous response on this blocking
                            // connection) it did. Reported, not subtracted.
                            let late = sent.saturating_duration_since(due.max(prev_done));
                            let ok = conn.step(req_ids.fetch_add(1, Ordering::Relaxed), &mut acc);
                            let done = Instant::now();
                            let us = if ok {
                                done.saturating_duration_since(due).as_secs_f64() * 1e6
                            } else {
                                f64::INFINITY
                            };
                            lat_us.push(us);
                            late_us.push(late.as_secs_f64() * 1e6);
                            prev_done = done;
                        }
                        trace::flush_thread();
                        (acc, lat_us, late_us)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop client panicked"))
                .collect()
        });
        let mut slice = Hist::default();
        for (acc, lat_us, late_us) in results {
            out.wire_open.merge(&acc);
            out.gen_late_us.merge(&late_us);
            slice.merge(&lat_us);
        }
        out.wire_slices.add(&slice, &[0.5, 0.9]);
        out.wire_step_us.merge(&slice);
        if traced {
            out.wire_traced_us.merge(&slice);
        } else {
            out.wire_untraced_us.merge(&slice);
        }
    }

    /// Closed loop: every connection sends back to back for `secs`.
    pub fn closed_loop(&mut self, secs: f64, out: &mut NavPhase) {
        let end = config::after(secs);
        let t = Instant::now();
        let req_ids = &self.req_ids;
        let results: Vec<(Accounting, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    s.spawn(move || {
                        let mut acc = Accounting::default();
                        let mut steps = 0;
                        while Instant::now() < end {
                            if conn.step(req_ids.fetch_add(1, Ordering::Relaxed), &mut acc) {
                                steps += 1;
                            }
                        }
                        trace::flush_thread();
                        (acc, steps)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client panicked"))
                .collect()
        });
        let elapsed = t.elapsed().as_secs_f64();
        let mut steps = 0;
        for (acc, n) in results {
            out.wire_closed.merge(&acc);
            steps += n;
        }
        out.closed_steps += steps;
        out.capacity.push(steps as f64 / elapsed);
    }

    pub fn check_wire_matches_library(&mut self, seed: u64, report: &mut Report) {
        check_wire_matches_library(&self.svc, &mut self.conns[0].client, seed, report);
    }

    pub fn probe_dispatch_and_codec(&mut self, out: &mut NavPhase, report: &mut Report) {
        probe_dispatch_and_codec(
            &self.svc,
            &mut self.walkers,
            &self.zipf,
            &mut self.rng,
            out,
            report,
        );
    }

    /// Read the server's counters and shut it down.
    pub fn finish(self, out: &mut NavPhase) {
        let ns = self.server.stats();
        out.net_requests = ns.requests.load(Ordering::Relaxed);
        out.net_dedup_hits = ns.dedup_hits.load(Ordering::Relaxed);
        out.net_closed = ns.closed.load(Ordering::Relaxed);
        out.net_shed_accepts = ns.shed_accepts.load(Ordering::Relaxed);
        self.shut_down();
    }

    /// Close the connections and shut the server down.
    pub fn shut_down(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// Drive the same seeded walk over the wire and through the library on
/// the same service; every response pair must be bit-identical.
fn check_wire_matches_library(
    svc: &NavService,
    client: &mut Client,
    seed: u64,
    report: &mut Report,
) {
    let mut wire_rng = Rng::new(seed ^ 0xB17);
    let probe_topics = topics(svc, 16, &mut wire_rng);
    let wire_sid = client
        .open_keyed(u64::MAX)
        .expect("opening the wire probe session");
    let lib_sid = svc
        .open_session()
        .expect("opening the library probe session");
    let mut wire_walker = Walker::new(Arc::clone(&probe_topics), 0);
    let mut lib_walker = Walker::new(probe_topics, 0);
    let mut lib_rng = wire_rng.clone();
    let mut mismatch = None;
    const STEPS: usize = 200;
    for i in 0..STEPS {
        let a = client.step(wire_sid, &wire_walker.request(&mut wire_rng, None));
        let b = svc.step(lib_sid, &lib_walker.request(&mut lib_rng, None));
        match (a, b) {
            (Ok(a), Ok(b)) if same_view(&a, &b) => {
                wire_walker.observe(&a);
                lib_walker.observe(&b);
            }
            (a, b) => {
                mismatch = Some(format!(
                    "step {i}: wire {:?} vs library {:?}",
                    a.map(|r| r.state),
                    b.map(|r| r.state)
                ));
                break;
            }
        }
    }
    let _ = client.close(wire_sid);
    let _ = svc.close_session(lib_sid);
    report.check(
        "navigate.wire_matches_library",
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| format!("{STEPS} steps bit-identical")),
    );
}

/// Time `NavService::dispatch` directly on the requests the walk makes,
/// and one wire encode + decode of each request and response frame.
fn probe_dispatch_and_codec(
    svc: &NavService,
    walkers: &mut [(SessionId, Walker)],
    zipf: &Zipf,
    rng: &mut Rng,
    out: &mut NavPhase,
    report: &mut Report,
) {
    const PROBES: usize = 4000;
    let mut roundtrip_ok = true;
    for n in 0..PROBES {
        let i = zipf.sample(rng);
        let (sid, w) = &mut walkers[i];
        let api = ApiRequest::Step {
            session: *sid,
            req: w.request(rng, None),
        };
        let req_id = 4 * SERVING_REQ_BASE + n as u64;
        let t = Instant::now();
        let resp = {
            let _s = trace::span("serve.dispatch", req_id);
            svc.dispatch(&api)
        };
        out.dispatch_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let (req_len, resp_len, decoded) = {
            let _s = trace::span("net.codec", req_id);
            codec_roundtrip(n as u64, &api, &resp)
        };
        out.codec_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.frame_req.push(req_len as f64);
        out.frame_resp.push(resp_len as f64);
        match (&resp, &decoded) {
            (ApiResponse::Step(a), ApiResponse::Step(b)) => {
                roundtrip_ok &= same_view(a, b);
                w.observe(a);
            }
            _ => roundtrip_ok = false,
        }
    }
    report.check(
        "navigate.codec_roundtrip",
        roundtrip_ok,
        format!("{PROBES} step responses encoded and decoded"),
    );
}

/// Encode and decode one request and one response frame, as the client
/// and server do. Returns both frame lengths and the decoded response.
fn codec_roundtrip(seq: u64, req: &ApiRequest, resp: &ApiResponse) -> (usize, usize, ApiResponse) {
    let mut req_frame = Vec::new();
    wire::encode_frame(&wire::encode_request(seq, req), &mut req_frame);
    let (payload, _) = wire::try_decode_frame(&req_frame, MAX_FRAME_LEN, "bench request")
        .expect("request frame decodes")
        .expect("request frame is complete");
    let _ = std::hint::black_box(
        wire::decode_request(payload, "bench request").expect("request decodes"),
    );
    let mut resp_frame = Vec::new();
    wire::encode_frame(&wire::encode_response(seq, resp), &mut resp_frame);
    let (payload, _) = wire::try_decode_frame(&resp_frame, MAX_FRAME_LEN, "bench response")
        .expect("response frame decodes")
        .expect("response frame is complete");
    let (_, decoded) = wire::decode_response(payload, "bench response").expect("response decodes");
    (req_frame.len(), resp_frame.len(), decoded)
}
