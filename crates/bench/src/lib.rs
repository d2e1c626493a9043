//! Workload generators and experiment scenarios reproducing every
//! table and figure of the Rivulet paper's evaluation (§8).
//!
//! Each module builds a deterministic simulated deployment, runs it,
//! and returns the measurements the corresponding figure plots. The
//! `figures` binary renders them as the paper's rows.
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`fig1`] | Fig. 1 — event-count skew across processes in a home deployment |
//! | [`fig3`] | Fig. 3 — Gap vs Gapless under scripted link loss |
//! | [`fig4`] | Fig. 4 — delivery delay vs number of processes |
//! | [`fig5`] | Fig. 5 — network overhead of Gapless and broadcast vs Gap |
//! | [`fig6`] | Fig. 6 — % events delivered under sensor-process link loss |
//! | [`fig7`] | Fig. 7 — failover timeline around an induced process crash |
//! | [`fig8`] | Fig. 8 — coordinated vs uncoordinated polling overhead |
//! | [`tables`] | Tables 1 and 3 — app and sensor surveys |
//! | [`fault`] | correctness vs device-fault rate, repair off/on (`BENCH_fault.json`) |
//! | [`routine`] | routines under injected crashes + ledger audit (`BENCH_routines.json`) |
//! | [`group_commit`] | deliver latency and fsyncs per event per WAL flush policy (EXPERIMENTS.md) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod fault;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod group_commit;
pub mod routine;
pub mod tables;
