//! Durability walk-through: the write-ahead log surviving a power loss.
//!
//! The failover demo's home (one motion sensor at 10 ev/s, five
//! processes, app anchored at host 0), but every process journals its
//! Gapless events to a real on-disk WAL (`FsBackend`). At t = 24 s the
//! application-bearing process crashes — and to make it interesting, a
//! torn write scribbles garbage onto the end of its log, as a real
//! power loss would. On recovery the process replays the log: the CRC
//! framing cuts the torn tail, everything before it is restored, and
//! the home ends the run having delivered (essentially) every event.
//!
//! ```text
//! cargo run --example durable_home
//! ```

use rivulet::core::app::{AppBuilder, CombinerSpec, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::HomeBuilder;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::storage::{FlushPolicy, FsBackend, StorageBackend, WalOptions};
use rivulet::types::{ActuationState, AppId, Duration, EventKind, Time};
use std::io::Write as _;
use std::sync::Arc;

fn main() {
    let root = std::env::temp_dir().join(format!("rivulet-durable-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    println!("WAL directories under {}", root.display());

    let mut net = SimNet::new(SimConfig::with_seed(11));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<_> = (0..5).map(|i| home.add_host(format!("host{i}"))).collect();
    let wal_root = root.clone();
    let mut home = home.with_storage(
        WalOptions {
            flush_policy: FlushPolicy::EveryInterval(Duration::from_millis(10)),
            segment_max_bytes: 64 * 1024,
        },
        Duration::from_secs(5),
        move |pid| {
            Arc::new(FsBackend::open(wal_root.join(format!("p{}", pid.as_u32()))).expect("wal dir"))
                as Arc<dyn StorageBackend>
        },
    );
    let (motion, motion_probe) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(100)),
        &pids,
    );
    let (anchor, _) = home.add_actuator("notifier", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "activity")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut rivulet::core::app::OpCtx, _: &rivulet::core::app::CombinedWindows| {},
        )
        .sensor(motion, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();

    // Crash the active process at 24 s…
    net.crash_at(home.actor_of(pids[0]), Time::from_secs(24));
    net.run_until(Time::from_millis(24_100));

    // …and let the power loss tear the end of its newest log segment:
    // 64 garbage bytes that recovery's CRC check must refuse.
    let p0_dir = root.join("p0");
    let newest = std::fs::read_dir(&p0_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .max()
        .expect("at least one segment");
    let before = std::fs::metadata(&newest).expect("segment metadata").len();
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&newest)
        .expect("open segment");
    file.write_all(&[0xA5; 64]).expect("scribble");
    drop(file);
    println!(
        "t=24s   host0 crashed; scribbled 64 garbage bytes onto {} ({} bytes)",
        newest.file_name().unwrap().to_string_lossy(),
        before + 64,
    );

    net.recover_at(home.actor_of(pids[0]), Time::from_secs(30));
    net.run_until(Time::from_secs(50));
    println!("t=30s   host0 recovered: replayed its WAL, torn tail truncated");

    for (t, p, active) in probe.transitions() {
        println!(
            "  {t} {p} {}",
            if active {
                "PROMOTED to active logic node"
            } else {
                "demoted to shadow"
            }
        );
    }

    let emitted = motion_probe.emitted();
    let delivered = probe.unique_delivered() as u64;
    for pid in &pids {
        let dir = root.join(format!("p{}", pid.as_u32()));
        let bytes: u64 = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok().and_then(|e| e.metadata().ok()).map(|m| m.len()))
                    .sum()
            })
            .unwrap_or(0);
        let segments = std::fs::read_dir(&dir).map(Iterator::count).unwrap_or(0);
        println!("  {pid}: {segments} segment(s), {bytes} bytes on disk");
    }
    println!(
        "emitted {emitted}, unique delivered {delivered}, lost {}",
        emitted - delivered
    );
    // Recovery truncated the garbage and kept appending clean frames
    // over it: the scribble must be gone from the file.
    let tail = std::fs::read(&newest).expect("read segment");
    assert!(
        !tail.windows(64).any(|w| w == [0xA5; 64]),
        "recovery did not truncate the torn tail"
    );
    assert!(
        emitted - delivered <= 5,
        "durable gapless must not lose events"
    );
    println!(
        "OK: torn tail cut (was {} bytes incl. garbage), no meaningful loss",
        before + 64
    );

    let _ = std::fs::remove_dir_all(&root);
}
