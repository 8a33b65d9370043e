//! `serve-open`: an open loop of independent sessions at a fixed offered
//! rate against an in-process `st_serve::Service`, from 2 client lanes
//! (threads). Every request and reply goes through the framed protocol's
//! codec, as over a connection, and the service handles it with
//! `Service::handle`, which `handle_stream` calls per frame.
//!
//! Session `i` is due at `i / RATE` seconds and goes out on lane
//! `i mod 2`; a lane still busy with its previous session delays the
//! next one, and that wait counts in the session's latency, which runs
//! from the due time to the `Done` reply. Each session sends Open, Feed
//! in 64 KiB chunks, Finish, then Step with budget 65 536 until Done.
//! Sizes: m = 256 (60%), 2048 (30%), 16 384 (10%), n = 32, with the four
//! deciders uniform at every size (each block of 40 sessions holds the
//! exact mix, in seeded order); the four traffic families are uniform,
//! and words come from a seeded pool of four per (size, family).
//!
//! Loopback TCP is left out of the timed path: on a 2-core host the
//! thread ping-pong made run-to-run spreads of 13–100%. It stays visible
//! in the traced run as `serve.listen_rtt_ms`, the round trip over a
//! connection served by `handle_stream` the way `serve --listen` serves
//! it: each reply leaves as two writes (length, then body), and Nagle's
//! algorithm holds the body for the peer's delayed ACK.
//!
//! Checks: the verdict matches the label (the fingerprint may falsely
//! accept a no-instance, counted apart), the bill verifies under the
//! service's billing key and names this session, tenant, decider and
//! verdict; a throttled or failed request fails its session.

use crate::spans::{Recorder, Scope};
use crate::{host, rate, stats, ByKind, Config, Measured, Scale, Tally, SETUP_REPS};
use st_core::{BillingKey, TenantBudget};
use st_problems::{predicates, Instance};
use st_serve::{
    handle_stream, read_frame, write_frame, DeciderKind, Request, Response, Service, TrafficFamily,
};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Offered sessions per second: a quarter of the closed-loop capacity
/// (about 150 sessions/s on a 2-core host at seed 1, `--closed-loop`).
/// At half of it about half the sessions queue behind another, the
/// median latency sits on the boundary between waiting and not waiting,
/// and it moved by 40–100% between runs.
pub const RATE: f64 = 40.0;
const BILLING_KEY: u64 = 0x5eed_b111;
const TENANT: &str = "bench";
const N_BITS: u64 = 32;
const CHUNK: usize = 64 * 1024;
const STEP_BUDGET: u64 = 65_536;
const LANES: usize = 2;
const VARIANTS: usize = 4;
const FAMILIES: [TrafficFamily; 4] = [
    TrafficFamily::Zipf,
    TrafficFamily::Bursty,
    TrafficFamily::YesShuffle,
    TrafficFamily::NoOneBit,
];

fn sizes(scale: Scale) -> [u64; 3] {
    match scale {
        Scale::Full => [256, 2048, 16384],
        Scale::Smoke => [16, 64, 256],
    }
}

/// A pooled input word and its labels.
struct Word {
    m: u64,
    bytes: Vec<u8>,
    multiset_equal: bool,
    check_sorted: bool,
    set_equal: bool,
}

impl Word {
    fn label(&self, kind: DeciderKind) -> bool {
        match kind.id() {
            "check-sort" => self.check_sorted,
            "set-eq" => self.set_equal,
            _ => self.multiset_equal,
        }
    }
}

/// One planned session.
struct Planned {
    id: u64,
    kind: DeciderKind,
    word: usize,
}

/// The word pool and the session schedule.
struct Plan {
    words: Vec<Word>,
    sessions: Vec<Planned>,
}

impl Plan {
    fn new(seed: u64, count: usize, scale: Scale) -> Result<Self, String> {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let master = host::derive(seed, "serve-words", 0);
        let mut words = Vec::new();
        for m in sizes(scale) {
            for family in FAMILIES {
                for _ in 0..VARIANTS {
                    let text = family.generate_word(master, words.len() as u64, m, N_BITS);
                    let inst =
                        Instance::parse(&text).map_err(|e| format!("generated word: {e}"))?;
                    words.push(Word {
                        m,
                        multiset_equal: predicates::is_multiset_equal(&inst),
                        check_sorted: predicates::is_check_sorted(&inst),
                        set_equal: predicates::is_set_equal(&inst),
                        bytes: text.into_bytes(),
                    });
                }
            }
        }
        // Stratified mix: every block of 40 sessions holds each decider
        // 6 times at the small size, 3 at the middle and once at the
        // large one, in seeded order, so every run offers the same load.
        let mut r = host::rng(seed, "serve-plan", 0);
        let mut block: Vec<(usize, DeciderKind)> = Vec::new();
        let mut sessions = Vec::with_capacity(count);
        while sessions.len() < count {
            if block.is_empty() {
                for kind in DeciderKind::all() {
                    for size in [0, 0, 0, 0, 0, 0, 1, 1, 1, 2] {
                        block.push((size, kind));
                    }
                }
                block.shuffle(&mut r);
            }
            let (size, kind) = block.pop().expect("block refilled above");
            let family = r.gen_range(0..FAMILIES.len());
            let variant = r.gen_range(0..VARIANTS);
            sessions.push(Planned {
                id: sessions.len() as u64 + 1,
                kind,
                word: (size * FAMILIES.len() + family) * VARIANTS + variant,
            });
        }
        Ok(Plan { words, sessions })
    }
}

/// What one session cost, as the client saw it.
#[derive(Default)]
struct Stat {
    kind: String,
    sort: bool,
    symbols: u64,
    latency: Duration,
    service: Duration,
    queue_wait: Duration,
    gen_late: Duration,
    feeds: u64,
    steps: u64,
    done: bool,
    throttled: u64,
    errors: u64,
}

/// One request through the framed protocol and the service, in
/// process: the request is encoded and decoded as `handle_stream`
/// receives it, and the reply encoded and decoded as a client reads it.
fn call(service: &Service, req: &Request) -> Result<Response, String> {
    let body = req.encode().map_err(|e| format!("encode: {e}"))?;
    let req = Request::decode(&body).map_err(|e| format!("decode request: {e}"))?;
    let reply = service
        .handle(req)
        .encode()
        .map_err(|e| format!("encode reply: {e}"))?;
    Response::decode(&reply).map_err(|e| format!("decode reply: {e}"))
}

/// A request inside a span named after its kind; a Step answered with
/// Done is a `serve.done` span.
fn timed(
    scope: Scope<'_>,
    service: &Service,
    req: &Request,
    name: &'static str,
) -> Result<Response, String> {
    scope.span_as(|_| {
        let reply = call(service, req);
        let layer = match reply {
            Ok(Response::Done { .. }) => "serve.done",
            _ => name,
        };
        (reply, layer)
    })
}

/// Drive one session to its verdict; returns `(accepted, bill ok)`.
fn session(
    scope: Scope<'_>,
    service: &Service,
    id: u64,
    kind: DeciderKind,
    word: &Word,
    stat: &mut Stat,
) -> Result<(bool, bool), String> {
    let open = Request::Open {
        session: id,
        tenant: TENANT.into(),
        decider: kind.id().into(),
        m: word.m,
        n: N_BITS,
    };
    match timed(scope, service, &open, "serve.open")? {
        Response::OpenOk { .. } => {}
        other => return Err(format!("open: {other:?}")),
    }
    let feeds = word.bytes.chunks(CHUNK).map(|c| Request::Feed {
        session: id,
        bytes: c.to_vec(),
    });
    for req in feeds.chain([Request::Finish { session: id }]) {
        stat.feeds += 1;
        match timed(scope, service, &req, "serve.feed")? {
            Response::Ack { .. } => {}
            Response::Throttled { .. } => {
                stat.throttled += 1;
                return Err("feed throttled".into());
            }
            other => return Err(format!("feed: {other:?}")),
        }
    }
    let step = Request::Step {
        session: id,
        budget: STEP_BUDGET,
    };
    loop {
        stat.steps += 1;
        match timed(scope, service, &step, "serve.step")? {
            Response::Yielded { .. } => {}
            Response::Done {
                session,
                accepted,
                bill,
            } => {
                let b = &bill.bill;
                let bill_ok = BillingKey::new(BILLING_KEY).verify(&bill)
                    && session == id
                    && b.session == id
                    && b.tenant == TENANT
                    && b.decider == kind.id()
                    && b.accepted == Some(accepted);
                return Ok((accepted, bill_ok));
            }
            other => return Err(format!("step: {other:?}")),
        }
    }
}

/// Run this lane's sessions, each from its due time.
fn drive(
    rec: &Recorder,
    tally: &Tally,
    service: &Service,
    plan: &Plan,
    mine: &[&Planned],
    start: Instant,
    due: impl Fn(u64) -> Duration,
) -> Vec<Stat> {
    let mut free_at = Duration::ZERO;
    let mut out = Vec::with_capacity(mine.len());
    for p in mine {
        let word = &plan.words[p.word];
        let due_at = due(p.id - 1);
        if let Some(wait) = due_at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let began = start.elapsed();
        let kind = format!("{}.{}", p.kind.id(), word.m);
        let mut stat = Stat {
            kind: kind.clone(),
            sort: p.kind != DeciderKind::Fingerprint,
            symbols: word.bytes.len() as u64,
            queue_wait: free_at.saturating_sub(due_at),
            gen_late: began.saturating_sub(due_at.max(free_at)),
            ..Stat::default()
        };
        let (result, service) = rec.op(
            "serve.session",
            &kind,
            p.id,
            p.id.is_multiple_of(2),
            |scope| session(scope, service, p.id, p.kind, word, &mut stat),
        );
        let what = || format!("session {} ({} m={})", p.id, p.kind.id(), word.m);
        let want = word.label(p.kind);
        match result {
            Ok((accepted, bill_ok)) => {
                stat.done = true;
                if p.kind == DeciderKind::Fingerprint {
                    tally.fingerprint(accepted, want, what);
                } else {
                    tally.verdict(accepted, want, what);
                }
                tally.check(bill_ok, || format!("{}: bill does not verify", what()));
            }
            Err(e) => {
                stat.errors += u64::from(stat.throttled == 0);
                tally.error(&what(), e);
            }
        }
        free_at = start.elapsed();
        stat.service = service;
        stat.latency = free_at.saturating_sub(due_at);
        out.push(stat);
    }
    out
}

/// Median round trip, in ms, of a request the service answers without
/// touching a session, over a loopback connection served by
/// `handle_stream` as `serve --listen` serves it.
fn listen_rtt_ms(service: &Service) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let mut client = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (server, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let body = Request::Close { session: u64::MAX }
        .encode()
        .map_err(|e| format!("encode: {e}"))?;
    std::thread::scope(|s| {
        let handler = s.spawn(|| handle_stream(service, server));
        let mut rtts = Vec::new();
        let probe = (|| {
            for _ in 0..9 {
                let t = Instant::now();
                write_frame(&mut client, &body).map_err(|e| format!("send: {e}"))?;
                read_frame(&mut client)
                    .map_err(|e| format!("receive: {e}"))?
                    .ok_or("connection closed")?;
                rtts.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok::<(), String>(())
        })();
        drop(client);
        match handler.join() {
            Ok(Ok(())) => probe.map(|()| stats::median(&rtts)),
            Ok(Err(e)) => Err(format!("probe handler: {e}")),
            Err(_) => Err("probe handler panicked".into()),
        }
    })
}

/// Run the workload; with `closed_loop`, sessions go out back to back
/// and the result's `work_per_s` is the capacity in sessions per second.
pub fn run_with(
    cfg: &Config,
    rec: &Recorder,
    tally: &Tally,
    closed_loop: bool,
) -> Result<Measured, String> {
    let min_sessions = match cfg.scale {
        Scale::Full => 200,
        Scale::Smoke => 12,
    };
    let count = ((RATE * cfg.seconds).ceil() as usize).max(min_sessions);
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let t = Instant::now();
        let plan = Plan::new(cfg.seed, count, cfg.scale)?;
        let service = Service::new(BILLING_KEY, host::derive(cfg.seed, "serve-master", 0));
        service.register_tenant(TENANT, TenantBudget::unlimited());
        warm_up(cfg.seed, &service)?;
        setups.push(t.elapsed());
        ready = Some((plan, service));
    }
    let (plan, service) = ready.expect("SETUP_REPS is positive");
    let mut m = measure(cfg, rec, tally, &plan, &service, closed_loop);
    if cfg.trace {
        m.layer
            .push(("serve.listen_rtt_ms", listen_rtt_ms(&service)?));
    }
    m.setups = setups;
    Ok(m)
}

/// One small session of every decider from each lane.
fn warm_up(seed: u64, service: &Service) -> Result<(), String> {
    let warm = Plan::new(host::derive(seed, "serve-warm-up", 0), 0, Scale::Smoke)?;
    let rec = Recorder::new(false);
    std::thread::scope(|s| {
        let lanes: Vec<_> = (0..LANES)
            .map(|lane| {
                let (warm, rec) = (&warm, &rec);
                s.spawn(move || {
                    for (j, kind) in DeciderKind::all().into_iter().enumerate() {
                        let id = 1_000_000_000 + (lane * 4 + j) as u64;
                        let stat = &mut Stat::default();
                        session(
                            rec.scope(id, false),
                            service,
                            id,
                            kind,
                            &warm.words[j],
                            stat,
                        )?;
                    }
                    Ok::<(), String>(())
                })
            })
            .collect();
        lanes.into_iter().try_for_each(|l| {
            l.join()
                .expect("warm-up lane panicked")
                .map_err(|e| format!("warm-up: {e}"))
        })
    })
}

/// Run every planned session and reduce the client statistics.
fn measure(
    cfg: &Config,
    rec: &Recorder,
    tally: &Tally,
    plan: &Plan,
    service: &Service,
    closed_loop: bool,
) -> Measured {
    let due = |i: u64| {
        if closed_loop {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(i as f64 / RATE)
        }
    };
    let start = Instant::now();
    let stats: Vec<Stat> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..LANES)
            .map(|lane| {
                let mine: Vec<&Planned> = plan.sessions.iter().skip(lane).step_by(LANES).collect();
                s.spawn(move || drive(rec, tally, service, plan, &mine, start, due))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let count = stats.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Stat) -> f64| stats.iter().map(f).sum::<f64>() / count;
    let sum = |f: &dyn Fn(&Stat) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    // Rates and latencies per (decider, size) kind, each kind at its
    // median session, as for the batch workloads: with 60% of sessions
    // small, the median over all sessions falls in the tail of the
    // small sessions and moved by 40% between runs.
    let (mut served, mut sorted) = (ByKind::default(), ByKind::default());
    let mut latency = ByKind::default();
    for s in stats.iter().filter(|s| s.done) {
        served.add(&s.kind, s.symbols as f64, s.service);
        latency.add(&s.kind, s.symbols as f64, s.latency);
        if s.sort {
            sorted.add(&s.kind, s.symbols as f64, s.service);
        }
    }
    let service_ms = |sort: bool| {
        let xs: Vec<f64> = stats
            .iter()
            .filter(|s| s.done && s.sort == sort)
            .map(|s| ms(s.service))
            .collect();
        stats::median(&xs)
    };
    let span_ms = |name: &str| stats::median(&rec.durations_s(name)) * 1e3;
    let layer = vec![
        ("serve.open_ms", span_ms("serve.open")),
        ("serve.feed_ms", span_ms("serve.feed")),
        ("serve.step_ms", span_ms("serve.step")),
        ("serve.done_ms", span_ms("serve.done")),
        ("serve.open_count", stats.len() as f64),
        ("serve.feed_count", sum(&|s| s.feeds)),
        ("serve.step_count", sum(&|s| s.steps - u64::from(s.done))),
        ("serve.done_count", sum(&|s| u64::from(s.done))),
        ("serve.service_ms.fingerprint", service_ms(false)),
        ("serve.service_ms.sort", service_ms(true)),
        ("serve.queue_wait_ms", mean(&|s| ms(s.queue_wait))),
        ("serve.steps_per_session", mean(&|s| s.steps as f64)),
        ("serve.throttled", sum(&|s| s.throttled)),
        ("serve.errors", sum(&|s| s.errors)),
        ("bench.gen_late_ms", mean(&|s| ms(s.gen_late))),
    ];
    let ms_sizes = sizes(cfg.scale);
    Measured {
        setups: Vec::new(),
        work_per_s: if closed_loop {
            rate(stats.len() as f64, wall.as_secs_f64())
        } else {
            served.rate()
        },
        alt_work_per_s: sorted.rate(),
        op_ms: latency.medians_ms(),
        layer,
        sizes: vec![
            ("sessions", stats.len() as u64),
            ("rate_milli", (RATE * 1e3) as u64),
            ("m_small", ms_sizes[0]),
            ("m_mid", ms_sizes[1]),
            ("m_large", ms_sizes[2]),
            ("n", N_BITS),
            ("lanes", LANES as u64),
            ("pool_words", plan.words.len() as u64),
        ],
        wall,
        threads: LANES,
    }
}

/// Run the workload at its fixed offered rate.
pub fn run(cfg: &Config, rec: &Recorder, tally: &Tally) -> Result<Measured, String> {
    run_with(cfg, rec, tally, false)
}
