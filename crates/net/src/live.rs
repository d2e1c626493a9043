//! Threaded wall-clock driver.
//!
//! [`LiveNet`] runs each actor on its own OS thread, routing messages
//! through crossbeam channels — the closest software analogue of the
//! paper's deployment, where each Rivulet process is a JVM service on
//! its own Raspberry Pi. The runnable examples use this driver to
//! demonstrate the platform operating concurrently in real time.
//!
//! The only fault it injects is a process crash and its recovery,
//! invoked imperatively from the controlling thread rather than
//! scheduled in virtual time. Links never lose, block or partition
//! traffic here: link faults are the simulator's
//! [`Topology`](crate::link::Topology), where every experiment that
//! varies them runs.
//!
//! Unlike [`crate::sim`], runs under this driver are **not**
//! deterministic: thread scheduling and wall-clock timer jitter are
//! real. All quantitative experiments therefore use the simulator; the
//! live driver exists to show the same protocol code working outside
//! simulation.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rivulet_types::Time;

use crate::actor::{Actor, ActorEvent, ActorId, Context, Effect};
use crate::link::{ActorClass, DropReason};
use crate::metrics::NetMetrics;

/// Configuration of a live run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveConfig {
    /// Base seed of the per-actor RNGs behind `ctx.rng()` (live runs
    /// are still not deterministic: thread scheduling decides the order
    /// in which an actor draws).
    pub seed: u64,
}

enum ThreadInput {
    Event(ActorEvent),
    Crash,
    Recover,
    Stop,
}

struct Router {
    start: Instant,
    inboxes: RwLock<Vec<Sender<ThreadInput>>>,
    classes: RwLock<Vec<ActorClass>>,
    metrics: Mutex<NetMetrics>,
}

impl Router {
    fn now(&self) -> Time {
        Time::from_micros(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX))
    }

    fn route(&self, from: ActorId, to: ActorId, payload: Bytes) {
        let (wifi, known) = {
            let classes = self.classes.read();
            match (classes.get(from.0 as usize), classes.get(to.0 as usize)) {
                (Some(a), Some(b)) => {
                    (*a == ActorClass::Process && *b == ActorClass::Process, true)
                }
                _ => (false, false),
            }
        };
        // An id not registered yet (a start-up send racing later
        // registrations) is lost without being counted.
        if !known {
            return;
        }
        self.metrics.lock().record_send(payload.len(), wifi);
        let sender = self.inboxes.read()[to.0 as usize].clone();
        // A full or disconnected inbox behaves like a crashed
        // destination; the paper's fault model permits this.
        if sender
            .send(ThreadInput::Event(ActorEvent::Message { from, payload }))
            .is_ok()
        {
            self.metrics.lock().record_delivery();
        } else {
            self.metrics.lock().record_drop(DropReason::DestinationDown);
        }
    }
}

/// A handle to a running live network.
///
/// Dropping the handle stops all actor threads.
pub struct LiveNet {
    router: Arc<Router>,
    handles: Vec<JoinHandle<()>>,
    seed: u64,
}

impl std::fmt::Debug for LiveNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveNet")
            .field("actors", &self.handles.len())
            .finish()
    }
}

impl LiveNet {
    /// Creates an empty live network.
    #[must_use]
    pub fn new(config: LiveConfig) -> Self {
        Self {
            router: Arc::new(Router {
                start: Instant::now(),
                inboxes: RwLock::new(Vec::new()),
                classes: RwLock::new(Vec::new()),
                metrics: Mutex::new(NetMetrics::new()),
            }),
            handles: Vec::new(),
            seed: config.seed,
        }
    }

    /// Spawns an actor on its own thread, returning its id. The actor
    /// receives [`ActorEvent::Start`] immediately.
    pub fn add_actor<F>(&mut self, name: &str, class: ActorClass, factory: F) -> ActorId
    where
        F: FnMut() -> Box<dyn Actor> + Send + 'static,
    {
        let (tx, rx) = channel::unbounded();
        // Class and inbox go in together: actors already running route
        // to any id that has a class, so it must have an inbox too.
        let id = {
            let mut classes = self.router.classes.write();
            let mut inboxes = self.router.inboxes.write();
            let id = ActorId(classes.len() as u32);
            classes.push(class);
            inboxes.push(tx);
            id
        };
        let router = Arc::clone(&self.router);
        let seed = self.seed.wrapping_add(u64::from(id.0));
        let thread_name = format!("rivulet-{name}");
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || actor_thread(router, id, factory, rx, seed))
            .expect("spawn actor thread");
        self.handles.push(handle);
        id
    }

    /// The id [`LiveNet::add_actor`] will hand out next: ids are dense,
    /// in registration order.
    #[must_use]
    pub fn next_actor_id(&self) -> ActorId {
        ActorId(self.router.classes.read().len() as u32)
    }

    /// Wall-clock time since the network started.
    #[must_use]
    pub fn now(&self) -> Time {
        self.router.now()
    }

    /// A snapshot of the accumulated network counters.
    #[must_use]
    pub fn metrics(&self) -> NetMetrics {
        self.router.metrics.lock().clone()
    }

    /// The unified observability handle shared by this driver and every
    /// process deployed on it. Disabled by default; enable it to
    /// collect an [`rivulet_obs::ObsSnapshot`] from a live run.
    #[must_use]
    pub fn recorder(&self) -> rivulet_obs::Recorder {
        self.router.metrics.lock().obs.clone()
    }

    /// Exports the unified observability snapshot accumulated so far
    /// (see [`NetMetrics::obs_snapshot`]).
    #[must_use]
    pub fn obs_snapshot(&self) -> rivulet_obs::ObsSnapshot {
        self.router.metrics.lock().obs_snapshot()
    }

    /// Crashes `actor`: its state is dropped and messages to it are
    /// discarded until [`LiveNet::recover`].
    pub fn crash(&self, actor: ActorId) {
        let _ = self.router.inboxes.read()[actor.0 as usize].send(ThreadInput::Crash);
        let now = self.router.now();
        let metrics = self.router.metrics.lock();
        metrics.obs.event("net.crash", now, u64::from(actor.0), 0);
    }

    /// Recovers a crashed `actor`, rebuilding it from its factory.
    pub fn recover(&self, actor: ActorId) {
        let _ = self.router.inboxes.read()[actor.0 as usize].send(ThreadInput::Recover);
        let now = self.router.now();
        self.router
            .metrics
            .lock()
            .obs
            .event("net.recover", now, u64::from(actor.0), 0);
    }

    /// Stops all actor threads and waits for them to exit (what
    /// dropping the handle does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for LiveNet {
    fn drop(&mut self) {
        for tx in self.router.inboxes.read().iter() {
            let _ = tx.send(ThreadInput::Stop);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct PendingTimer {
    deadline: Time,
    token: u64,
    gen: u64,
}

fn actor_thread<F>(
    router: Arc<Router>,
    id: ActorId,
    mut factory: F,
    rx: Receiver<ThreadInput>,
    seed: u64,
) where
    F: FnMut() -> Box<dyn Actor> + Send + 'static,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instance: Option<Box<dyn Actor>> = Some(factory());
    let mut timers: Vec<PendingTimer> = Vec::new();
    let mut timer_gens: HashMap<u64, u64> = HashMap::new();
    let mut pending_start = true;

    loop {
        // Deliver Start after build/rebuild.
        if pending_start {
            pending_start = false;
            if let Some(actor) = instance.as_mut() {
                run_handler(
                    &router,
                    id,
                    actor.as_mut(),
                    ActorEvent::Start,
                    &mut rng,
                    &mut timers,
                    &mut timer_gens,
                );
            }
        }

        // Fire due timers.
        let now = router.now();
        let mut fired = Vec::new();
        timers.retain(|t| {
            if t.deadline <= now && timer_gens.get(&t.token).copied().unwrap_or(0) == t.gen {
                fired.push(t.token);
                false
            } else {
                t.deadline > now // silently discard cancelled timers
            }
        });
        for token in fired {
            router.metrics.lock().record_timer();
            if let Some(actor) = instance.as_mut() {
                run_handler(
                    &router,
                    id,
                    actor.as_mut(),
                    ActorEvent::Timer { token },
                    &mut rng,
                    &mut timers,
                    &mut timer_gens,
                );
            }
        }

        // Wait for the next input or timer deadline.
        let next_deadline = timers
            .iter()
            .filter(|t| timer_gens.get(&t.token).copied().unwrap_or(0) == t.gen)
            .map(|t| t.deadline)
            .min();
        let wait = match next_deadline {
            Some(deadline) => deadline.duration_since(router.now()).to_std(),
            None => std::time::Duration::from_millis(50),
        };
        match rx.recv_timeout(wait) {
            Ok(ThreadInput::Event(event)) => {
                if let Some(actor) = instance.as_mut() {
                    run_handler(
                        &router,
                        id,
                        actor.as_mut(),
                        event,
                        &mut rng,
                        &mut timers,
                        &mut timer_gens,
                    );
                } else {
                    router
                        .metrics
                        .lock()
                        .record_drop(DropReason::DestinationDown);
                }
            }
            Ok(ThreadInput::Crash) => {
                instance = None;
                timers.clear();
                timer_gens.clear();
            }
            Ok(ThreadInput::Recover) => {
                if instance.is_none() {
                    instance = Some(factory());
                    pending_start = true;
                }
            }
            Ok(ThreadInput::Stop) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Runs one handler and applies its effects.
fn run_handler(
    router: &Arc<Router>,
    id: ActorId,
    actor: &mut dyn Actor,
    event: ActorEvent,
    rng: &mut StdRng,
    timers: &mut Vec<PendingTimer>,
    timer_gens: &mut HashMap<u64, u64>,
) {
    let mut ctx = Context::new(id, router.now(), rng);
    actor.on_event(&mut ctx, event);
    for effect in std::mem::take(&mut ctx.effects) {
        match effect {
            Effect::Send { to, payload } => router.route(id, to, payload),
            Effect::SetTimer { token, after } => {
                let gen = timer_gens.get(&token).copied().unwrap_or(0);
                timers.push(PendingTimer {
                    deadline: router.now() + after,
                    token,
                    gen,
                });
            }
            Effect::CancelTimer { token } => {
                *timer_gens.entry(token).or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::Duration;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Echo;
    impl Actor for Echo {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            if let ActorEvent::Message { from, payload } = event {
                ctx.send(from, payload);
            }
        }
    }

    struct Pinger {
        peer: ActorId,
        replies: Arc<AtomicU64>,
    }
    impl Actor for Pinger {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            match event {
                ActorEvent::Start => {
                    ctx.set_timer(Duration::from_millis(5), 1);
                }
                ActorEvent::Timer { .. } => {
                    ctx.send(self.peer, Bytes::from_static(b"ping"));
                    ctx.set_timer(Duration::from_millis(5), 1);
                }
                ActorEvent::Message { .. } => {
                    self.replies.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed().as_millis() < u128::from(deadline_ms) {
            if done() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        done()
    }

    #[test]
    fn ping_pong_over_threads() {
        let mut net = LiveNet::new(LiveConfig::default());
        let echo = net.add_actor("echo", ActorClass::Process, || Box::new(Echo));
        let replies = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&replies);
        net.add_actor("ping", ActorClass::Process, move || {
            Box::new(Pinger {
                peer: echo,
                replies: Arc::clone(&r),
            })
        });
        assert!(
            wait_until(2_000, || replies.load(Ordering::SeqCst) >= 3),
            "expected at least 3 echo replies"
        );
        let m = net.metrics();
        assert!(m.messages_sent >= 6);
        net.shutdown();
    }

    #[test]
    fn crash_and_recover_round_trip() {
        let mut net = LiveNet::new(LiveConfig::default());
        let echo = net.add_actor("echo", ActorClass::Process, || Box::new(Echo));
        let replies = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&replies);
        net.add_actor("ping", ActorClass::Process, move || {
            Box::new(Pinger {
                peer: echo,
                replies: Arc::clone(&r),
            })
        });
        assert!(wait_until(2_000, || replies.load(Ordering::SeqCst) >= 1));
        net.crash(echo);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let during = replies.load(Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Allow at most a couple of in-flight replies to straggle in.
        assert!(
            replies.load(Ordering::SeqCst) <= during + 2,
            "crashed echo kept replying"
        );
        net.recover(echo);
        let resumed = replies.load(Ordering::SeqCst);
        assert!(
            wait_until(2_000, || replies.load(Ordering::SeqCst) > resumed),
            "recovered echo should reply again"
        );
        net.shutdown();
    }

    #[test]
    fn live_driver_exports_obs_snapshot() {
        let mut net = LiveNet::new(LiveConfig::default());
        net.recorder().set_enabled(true);
        let echo = net.add_actor("echo", ActorClass::Process, || Box::new(Echo));
        let replies = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&replies);
        net.add_actor("ping", ActorClass::Process, move || {
            Box::new(Pinger {
                peer: echo,
                replies: Arc::clone(&r),
            })
        });
        assert!(wait_until(2_000, || replies.load(Ordering::SeqCst) >= 3));
        net.crash(echo);
        let snap = net.obs_snapshot();
        assert!(snap.counter("net.messages_sent") >= 6);
        assert_eq!(snap.events_named("net.crash").len(), 1);
        assert!(snap.histogram("net.payload_bytes").is_some());
        net.shutdown();
    }
}
